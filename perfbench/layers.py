"""The traced in-process replay and the per-layer metrics it yields.

A replay plays the front end's part in process: it decodes each request
body, calls the same :class:`~repro.service.app.SchedulingService`
method the HTTP handler calls, and encodes the reply.  Each request runs
once untraced and once traced, so the two medians compare equal work;
their ratio is the tracing overhead.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Sequence

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.core.workflow import Workflow
from repro.live.iofault import LogIO
from repro.live.store import LiveWorkflowManager
from repro.service import app, cache, codec, keys

from spans import SpanRecorder, Target, instrument, self_times


def _steps(args: tuple, result) -> dict[str, int]:
    return {"steps": len(result.steps)}


def _batch_steps(args: tuple, result) -> dict[str, int]:
    return {"steps": sum(len(r.steps) for r in result), "budgets": len(result)}


#: Layer boundaries.  Each public function or method here records a span
#: named after the layer it belongs to.
TARGETS = (
    Target(codec, "loads", "codec.loads", everywhere=True),
    Target(codec, "dumps", "codec.dumps", everywhere=True),
    Target(codec, "decode_problem", "codec.decode_problem", everywhere=True),
    Target(Workflow, "from_dict", "codec.decode_workflow"),
    Target(codec, "encode_result_fragment", "codec.encode_result", everywhere=True),
    Target(keys, "problem_hash", "keys.problem_hash", everywhere=True),
    Target(app.SchedulingService, "parse_head", "app.parse_head"),
    Target(app.SchedulingService, "solve", "app.solve"),
    Target(app.SchedulingService, "solve_batch", "app.solve_batch"),
    Target(cache.ResultCache, "get", "cache.lookup"),
    Target(cache.ResultCache, "put", "cache.store"),
    Target(CriticalGreedyScheduler, "solve", "solver.solve", count=_steps),
    Target(CriticalGreedyScheduler, "solve_batch", "solver.solve_batch", count=_batch_steps),
    Target(LiveWorkflowManager, "register", "live.register"),
    Target(LiveWorkflowManager, "event", "live.event"),
    Target(LogIO, "append", "live.log_append"),
)

#: Per-request self time, median over the traced operations, in ms.
SELF_TIME_METRICS = {
    "codec.loads_ms": "codec.loads",
    "codec.decode_problem_ms": "codec.decode_problem",
    "codec.decode_workflow_ms": "codec.decode_workflow",
    "codec.encode_result_ms": "codec.encode_result",
    "codec.dumps_ms": "codec.dumps",
    "keys.problem_hash_ms": "keys.problem_hash",
    "app.parse_head_ms": "app.parse_head",
    "app.solve_batch_ms": "app.solve_batch",
    "cache.lookup_ms": "cache.lookup",
    "solver.solve_ms": "solver.solve",
    "live.event_ms": "live.event",
    "live.log_append_ms": "live.log_append",
}


class Replay:
    """Runs one workload's requests in process, each untraced and traced."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.ops: list[str] = []  # request ids of the traced operations

    def call(self, request_id: str, fn: Callable[[], object], traced: bool,
             op: bool = True) -> None:
        """Run one request; ``op=False`` keeps it out of the per-op medians."""
        if not traced:
            start = time.perf_counter()
            fn()
            if op:
                self.untraced.append(time.perf_counter() - start)
            return
        with instrument(self.recorder, TARGETS):
            first = len(self.recorder.spans)
            with self.recorder.request_scope(request_id):
                fn()
        root = self.recorder.spans[first]
        if op:
            self.traced.append(root.end - root.start)
            self.ops.append(request_id)

    def pairs(self, calls: Sequence[Callable[[bool], object]]) -> None:
        """Run each call untraced and traced, alternating which goes first.

        ``call(traced)`` must do the same work both times: the workload
        sends each request to two identically prepared services, one per
        side, so a cache miss stays a miss and a live event applies to
        both.  Pairing makes the traced and untraced medians compare equal
        work, whatever the order of cheap and costly requests.
        """
        for i, fn in enumerate(calls):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                self.call(f"op-{i}", lambda t=traced: fn(t), traced)

    def metrics(self) -> dict[str, float]:
        spans = self.recorder.spans
        own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        batch: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        steps = 0
        for span, self_time in zip(spans, self_times(spans)):
            own[span.request][span.name] += self_time
            if span.name == "solver.solve_batch":
                batch[span.request][0] += span.end - span.start
                batch[span.request][1] += span.counts.get("budgets", 0)
            parent = spans[span.parent].name if span.parent is not None else ""
            if span.name.startswith("solver.") and not parent.startswith("solver."):
                steps += span.counts.get("steps", 0)

        def median_ms(values: list[float]) -> float:
            return 1e3 * statistics.median(values) if values else 0.0

        out = {
            metric: median_ms([own[r].get(layer, 0.0) for r in self.ops])
            for metric, layer in SELF_TIME_METRICS.items()
        }
        out["live.register_ms"] = 1e3 * own["register"].get("live.register", 0.0)
        out["solver.batch_ms_per_budget"] = median_ms(
            [batch[r][0] / batch[r][1] for r in self.ops if batch[r][1]]
        )
        out["solver.steps"] = float(steps)
        out["trace.overhead_pct"] = (
            100.0 * (statistics.median(self.traced) / statistics.median(self.untraced) - 1.0)
            if self.traced and self.untraced else 0.0
        )
        return out
