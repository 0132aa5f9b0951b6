"""The four workloads: inputs, warm-up, timed sequence, checks and replay."""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from repro.service import codec
from repro.service.app import SchedulingService

import inputs
from checks import (
    check_batch,
    check_event,
    check_registration,
    check_solve,
    stream_end_outcome,
    reference_mismatch,
)
from inputs import Request
from layers import Replay
from stats import OK, WRONG
from wire import Connection, LoadResult, pipelined

Outcome = tuple[str, int, "str | None"]

#: Paper-scale answers per run compared byte for byte with the reference engine.
REFERENCE_SAMPLE = 2


# The front end's part, played in process by the replay: decode the body,
# call the service method the HTTP handler calls, encode the reply.
# ``codec`` is looked up at call time so traced calls go through the spans.


def front_solve(service: SchedulingService, body: bytes) -> bytes:
    return codec.dumps(service.solve(codec.loads(body))).encode()


def front_batch(service: SchedulingService, body: bytes) -> bytes:
    results = service.solve_batch(codec.loads(body).get("requests"))
    return codec.dumps({"status": "ok", "results": results}).encode()


def front_register(service: SchedulingService, body: bytes) -> bytes:
    return codec.dumps(service.register_workflow(codec.loads(body))).encode()


def front_event(service: SchedulingService, workflow_id: str, body: bytes) -> bytes:
    return codec.dumps(service.workflow_event(workflow_id, codec.loads(body))).encode()


class Workload:
    name = ""
    #: Target tail percentile of ``latency_tail_ms``.
    tail = 95.0
    #: Whether the generator may cycle the sequence (repeats stay valid).
    cycle = False
    #: Requests replayed in process by a traced run (each untraced and traced).
    replayed = 16
    #: Spans a traced run must record: the layers the workload is here to measure.
    spans: tuple[str, ...] = ()

    def generate(self, seed: int, seconds: float):
        raise NotImplementedError

    def server_args(self, workdir: Path) -> list[str]:
        return []

    def warm(self, conn: Connection, inp) -> tuple[object, list[Outcome]]:
        outcomes = []
        for request, (status, body) in zip(inp.warm, pipelined(conn, inp.warm)):
            outcome, reason = self.judge(request, status, body)
            outcomes.append((outcome, request.ops, reason))
        return None, outcomes

    def sequence(self, inp, state) -> Sequence[Request]:
        return inp.sequence

    def judge(self, request: Request, status: int, body: bytes) -> tuple[str, str | None]:
        return check_solve(status, body, request.expect)

    def finish(self, conn: Connection, inp, state, load: LoadResult) -> list[Outcome]:
        return []

    def replay(self, inp, state, workdir: Path) -> tuple[Replay, dict[str, float]]:
        replay = Replay()
        services = {False: SchedulingService(), True: SchedulingService()}
        try:
            for service in services.values():
                for request in inp.warm:
                    self.front(service, request.body)
            bodies = [r.body for r in self.sequence(inp, state)[: self.replayed]]
            replay.pairs([lambda traced, b=b: self.front(services[traced], b) for b in bodies])
        finally:
            for service in services.values():
                service.close()
        return replay, {}

    front = staticmethod(front_solve)


def _reference_checks(conn: Connection, problem_for, requests: Sequence[Request]) -> list[Outcome]:
    """Re-ask sampled questions and compare with the reference engine."""
    outcomes: list[Outcome] = []
    for request in requests:
        status, body = conn.send(request)
        outcome, reason = check_solve(status, body, request.expect)
        if outcome == OK:
            _, (budget,) = request.expect
            reason = reference_mismatch(problem_for(request), budget, json.loads(body))
            outcome = OK if reason is None else WRONG
        outcomes.append((outcome, request.ops, reason))
    return outcomes


class HitExplore(Workload):
    name = "hit-explore"
    cycle = True
    replayed = 32
    spans = ("app.parse_head", "cache.lookup")

    def generate(self, seed: int, seconds: float) -> inputs.HitInputs:
        return inputs.hit_explore(seed)

    def finish(self, conn, inp, state, load):
        rng = inputs.rng_for(inp.seed, "sample")
        picks = rng.choice(len(inp.keys), size=REFERENCE_SAMPLE, replace=False)
        requests = [inp.permuted[int(k)] for k in picks]
        by_hash = {wf.problem_hash: wf.problem for wf in inp.workflows}
        return _reference_checks(conn, lambda r: by_hash[r.expect[0]], requests)


class ColdSolve(Workload):
    name = "cold-solve"
    tail = 60.0
    replayed = 4
    spans = ("cache.lookup", "solver.solve")

    def generate(self, seed: int, seconds: float) -> inputs.SingleInputs:
        # Far more budgets than a run can use: every request must be new.
        return inputs.cold_solve(seed, int(40 * seconds) + 64)


class BatchSweep(Workload):
    name = "batch-sweep"
    tail = 60.0
    replayed = 4
    spans = ("app.solve_batch", "solver.solve_batch")
    front = staticmethod(front_batch)

    def generate(self, seed: int, seconds: float) -> inputs.SingleInputs:
        return inputs.batch_sweep(seed, int(20 * seconds) + 16)

    def judge(self, request, status, body):
        return check_batch(status, body, request.expect)

    def finish(self, conn, inp, state, load):
        rng = inputs.rng_for(inp.seed, "sample")
        sent = inp.sequence[: max(1, load.sent())]
        request = sent[int(rng.integers(len(sent)))]
        expected_hash, budgets = request.expect
        picks = rng.choice(len(budgets), size=REFERENCE_SAMPLE, replace=False)
        singles = [inputs.solve_request(budgets[int(i)], inp.workflow.payload, expected_hash)
                   for i in picks]
        return _reference_checks(conn, lambda r: inp.workflow.problem, singles)


class LiveReplay(Workload):
    name = "live-replay"
    replayed = 150
    spans = ("live.register", "live.event", "live.log_append")

    def generate(self, seed: int, seconds: float) -> inputs.LiveInputs:
        return inputs.live_replay(seed)

    def server_args(self, workdir: Path) -> list[str]:
        return ["--live-dir", str(workdir / "live")]

    def warm(self, conn, inp):
        """Register the workflow; the state is its event stream."""
        outcome, stream = self._registered(inp.registration, *conn.send(inp.registration),
                                           inp.workflow.problem, inputs.LIVE_DRIFT)
        return stream or [], [outcome]

    @staticmethod
    def _registered(request: Request, status: int, body: bytes, problem, drift: float):
        """Check a registration reply; returns its outcome and event stream."""
        outcome, reason = check_registration(status, body, request.expect)
        if outcome != OK:
            return (outcome, 1, reason), None
        reply = json.loads(body)
        workflow_id = reply["workflow_id"]
        assignment = reply["result"]["schedule"]["assignment"]
        return (OK, 1, None), inputs.event_stream(problem, assignment, drift, workflow_id)

    def sequence(self, inp, stream):
        return stream

    def judge(self, request, status, body):
        return check_event(status, body, request.expect)

    def finish(self, conn, inp, stream, load):
        """Finish, untimed, the stream the deadline cut short; check its end."""
        outcomes: list[Outcome] = []
        rest = stream[load.sent():]
        final = load.samples[-1].body if load.samples else b""
        for event, (status, final) in zip(rest, pipelined(conn, rest)):
            outcome, reason = check_event(status, final, event.expect)
            outcomes.append((outcome, 1, reason))
        if stream:
            modules = len(inp.workflow.problem.workflow.module_names)
            outcomes.append(stream_end_outcome(final, modules, len(stream)))
        return outcomes + self._zero_drift(conn, inp.seed)

    def _zero_drift(self, conn: Connection, seed: int) -> list[Outcome]:
        """An on-plan paper-scale stream must finish within budget at revision 0."""
        wf, request = inputs.zero_drift_inputs(seed)
        status, body = conn.send(request)
        outcome, stream = self._registered(request, status, body, wf.problem, 1.0)
        if stream is None:
            return [outcome]
        outcomes = [outcome]
        for event, (status, body) in zip(stream, pipelined(conn, stream)):
            o, reason = check_event(status, body, event.expect)
            outcomes.append((o, 1, reason))
        modules = len(wf.problem.workflow.module_names)
        outcomes.append(stream_end_outcome(body, modules, len(stream), on_plan=True))
        return outcomes

    def replay(self, inp, stream, workdir):
        replay = Replay()
        services = {traced: SchedulingService(live_dir=str(workdir / f"replay-{traced:d}"))
                    for traced in (False, True)}
        try:
            for traced, service in services.items():
                replay.call("register", lambda s=service: front_register(s, inp.registration.body),
                            traced=traced, op=False)
            workflow_id = stream[0].expect[0]
            events = [e.body for e in stream[: self.replayed]]
            replay.pairs([lambda traced, b=b: front_event(services[traced], workflow_id, b)
                          for b in events])
            revisions = float(services[True].live.stats()["revisions"])
        finally:
            for service in services.values():
                service.close()
        return replay, {"live.revisions": revisions}


WORKLOADS = {w.name: w for w in (HitExplore, ColdSolve, BatchSweep, LiveReplay)}
