"""Seeded workload inputs: problems, budgets and pre-encoded HTTP requests.

Everything a run sends is built here from ``--seed`` before timing
starts, so the load generator only writes bytes.  A request body is a
tuple of byte parts sent with one scatter-gather write; the large
problem JSON is encoded once per workflow and shared by reference
between every request that carries it.

Each purpose draws from its own ``numpy`` stream keyed on
``(seed, purpose)``, so changing one workload's draws never shifts
another's.  The workflow instances themselves come from one fixed
instance seed: how long a solve takes depends strongly on the instance,
so drawing instances per seed would drown a change in instance-to-
instance spread.  ``--seed`` varies the traffic: budgets, request order
and which requests are permuted.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Sequence

import numpy as np

from repro.core.problem import MedCCProblem
from repro.core.serialize import problem_to_dict
from repro.service.codec import dumps
from repro.service.keys import problem_hash
from repro.workloads.generator import generate_problem

PAPER_SCALE = (100, 2344, 9)
STRESS_SCALE = (1000, 3000, 10)

#: hit-explore: workflows x budgets per workflow, and the Zipf exponent
#: of the skewed draw over those 32 keys.
HIT_WORKFLOWS = 4
HIT_BUDGETS = 8
HIT_ZIPF = 1.1
#: Length of the hit-explore request sequence (the generator cycles it).
HIT_SEQUENCE = 8192
#: batch-sweep: items per request, of which this many repeat another item.
BATCH_SIZE = 16
BATCH_DUPLICATES = 2
#: live-replay: lateness of every module.
LIVE_DRIFT = 1.25
#: cold-solve: the slice of [Cmin, Cmax] its budgets are drawn from.  Solve
#: time at stress scale grows about tenfold from Cmin to Cmax, so over the
#: whole range the ~30 solves of a run put their median wherever the draw
#: did; a tenth of the range around its middle keeps every solve alike.
COLD_BAND = (0.45, 0.55)

#: Seed of the workflow instances (fixed; see the module docstring).
INSTANCE_SEED = 20130801

_PURPOSES = {
    "hit-problems": 1,
    "hit-budgets": 2,
    "hit-sequence": 3,
    "hit-permute": 4,
    "cold-problem": 5,
    "cold-budgets": 6,
    "batch-problem": 7,
    "batch-budgets": 8,
    "live-problem": 9,
    "live-budgets": 10,
    "sample": 11,
    "zero-drift-problem": 12,
    "zero-drift-budget": 13,
}


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """The independent random stream for one purpose of one seed."""
    return np.random.default_rng([int(seed), _PURPOSES[purpose]])


def instance_rng(purpose: str) -> np.random.Generator:
    """The random stream of one workload's workflow instances."""
    return rng_for(INSTANCE_SEED, purpose)


@dataclasses.dataclass(frozen=True)
class Request:
    """One pre-encoded HTTP request.

    ``ops`` is how many operations it carries (budgets answered or live
    events applied); ``expect`` is what the correctness check needs.
    """

    head: bytes
    parts: tuple[bytes, ...]
    ops: int
    expect: tuple

    @property
    def body(self) -> bytes:
        return b"".join(self.parts)


def http_head(method: str, path: str, body_len: int | None = None) -> bytes:
    """The request line and headers of one keep-alive HTTP/1.1 request."""
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    if body_len is not None:
        lines += ["Content-Type: application/json", f"Content-Length: {body_len}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def make_request(path: str, parts: Sequence[bytes], ops: int, expect: tuple) -> Request:
    parts = tuple(parts)
    body_len = sum(len(p) for p in parts)
    return Request(http_head("POST", path, body_len), parts, ops, expect)


@dataclasses.dataclass(frozen=True)
class WorkflowInput:
    """A generated instance with its canonical wire bytes and hash."""

    problem: MedCCProblem
    payload: bytes
    problem_hash: str

    @classmethod
    def generate(cls, size: tuple[int, int, int], rng: np.random.Generator) -> "WorkflowInput":
        problem = generate_problem(size, rng)
        payload = problem_to_dict(problem)
        return cls(problem, dumps(payload).encode(), problem_hash(payload))


def permuted_payload(problem: MedCCProblem, rng: np.random.Generator) -> dict:
    """The same instance with modules, edges and VM types reordered."""
    payload = problem_to_dict(problem)
    if payload.get("measured_te"):
        raise ValueError("permuting measured execution times is not supported")
    workflow = payload["workflow"]
    for field in ("modules", "edges"):
        items = workflow[field]
        workflow[field] = [items[i] for i in rng.permutation(len(items))]
    catalog = payload["catalog"]
    payload["catalog"] = [catalog[i] for i in rng.permutation(len(catalog))]
    return payload


def budget_bytes(budget: float) -> bytes:
    return repr(float(budget)).encode("ascii")


def solve_parts(budget: float, problem_bytes: bytes) -> tuple[bytes, ...]:
    """``{"budget":b,"problem":P}`` as parts sharing ``problem_bytes``."""
    return (b'{"budget":' + budget_bytes(budget) + b',"problem":', problem_bytes, b"}")


def solve_request(budget: float, problem_bytes: bytes, expected_hash: str) -> Request:
    return make_request(
        "/v1/solve", solve_parts(budget, problem_bytes), 1, (expected_hash, (float(budget),))
    )


def batch_request(budgets: Sequence[float], problem_bytes: bytes, expected_hash: str) -> Request:
    parts: list[bytes] = [b'{"requests":[']
    for i, budget in enumerate(budgets):
        if i:
            parts.append(b",")
        parts.extend(solve_parts(budget, problem_bytes))
    parts.append(b"]}")
    return make_request(
        "/v1/solve_batch", parts, len(budgets), (expected_hash, tuple(float(b) for b in budgets))
    )


def _budgets(problem: MedCCProblem, fractions, lo: float, hi: float) -> list[float]:
    """Budgets at ``fractions`` of the ``[lo, hi]`` slice of [Cmin, Cmax]."""
    cmin, cmax = problem.budget_range()
    return [float(cmin + (lo + f * (hi - lo)) * (cmax - cmin)) for f in fractions]


def uniform_budgets(problem: MedCCProblem, rng: np.random.Generator, count: int,
                    lo: float = 0.0, hi: float = 1.0, block: int | None = None) -> list[float]:
    """``count`` budgets uniform in the ``[lo, hi]`` slice of [Cmin, Cmax].

    Solve time grows about linearly with the budget, so a plain uniform
    draw would move a run's figures with the luck of the draw.  The draw
    is stratified instead: each run of ``block`` consecutive budgets
    (default: all of them) has one budget in each of ``block`` equal
    sub-slices, in random order.
    """
    block = block or count
    fractions: list[float] = []
    while len(fractions) < count:
        fractions.extend((rng.permutation(block) + rng.random(block)) / block)
    return _budgets(problem, fractions[:count], lo, hi)


def spread_budgets(problem: MedCCProblem, rng: np.random.Generator, count: int,
                   lo: float, hi: float) -> list[float]:
    """``count`` budgets in the ``[lo, hi]`` slice of [Cmin, Cmax] whose
    every prefix is evenly spread.

    The base-2 van der Corput sequence shifted by one random offset
    (mod 1): each budget is uniform, and however many of them a run gets
    through, they cover the slice evenly, so neither the median nor the
    mean solve time of a run depends on how far into the list it got.
    """
    shift = rng.random()
    fractions = []
    for i in range(1, count + 1):
        value, scale = 0.0, 0.5
        while i:
            value += scale * (i & 1)
            i >>= 1
            scale /= 2
        fractions.append((value + shift) % 1.0)
    return _budgets(problem, fractions, lo, hi)


def request_list_digest(requests: Sequence[Request]) -> str:
    """SHA-256 over every byte a request list would put on the wire."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(request.head)
        for part in request.parts:
            digest.update(part)
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# Per-workload inputs
# --------------------------------------------------------------------- #


@dataclasses.dataclass
class HitInputs:
    seed: int
    workflows: list[WorkflowInput]
    keys: list[tuple[int, float]]  # (workflow index, budget)
    plain: list[Request]  # one per key, canonical order
    permuted: list[Request]  # one per key, that workflow's permuted order
    sequence: list[Request]  # the skewed request stream

    @property
    def warm(self) -> list[Request]:
        return self.plain


def hit_explore(seed: int) -> HitInputs:
    problems_rng = instance_rng("hit-problems")
    workflows = [WorkflowInput.generate(PAPER_SCALE, problems_rng) for _ in range(HIT_WORKFLOWS)]
    budgets_rng = rng_for(seed, "hit-budgets")
    permute_rng = rng_for(seed, "hit-permute")
    keys: list[tuple[int, float]] = []
    plain: list[Request] = []
    permuted: list[Request] = []
    for w, wf in enumerate(workflows):
        shuffled = dumps(permuted_payload(wf.problem, permute_rng)).encode()
        for budget in uniform_budgets(wf.problem, budgets_rng, HIT_BUDGETS):
            keys.append((w, budget))
            plain.append(solve_request(budget, wf.payload, wf.problem_hash))
            permuted.append(solve_request(budget, shuffled, wf.problem_hash))
    rng = rng_for(seed, "hit-sequence")
    ranks = rng.permutation(len(keys))
    weights = 1.0 / (ranks + 1.0) ** HIT_ZIPF
    draws = rng.choice(len(keys), size=HIT_SEQUENCE, p=weights / weights.sum())
    flip = np.zeros(HIT_SEQUENCE, dtype=bool)
    flip[rng.permutation(HIT_SEQUENCE)[: HIT_SEQUENCE // 4]] = True
    sequence = [(permuted if f else plain)[int(k)] for k, f in zip(draws, flip)]
    return HitInputs(seed, workflows, keys, plain, permuted, sequence)


@dataclasses.dataclass
class SingleInputs:
    """One workflow: warm-up requests and the timed sequence."""

    seed: int
    workflow: WorkflowInput
    warm: list[Request]
    sequence: list[Request]


def cold_solve(seed: int, count: int) -> SingleInputs:
    wf = WorkflowInput.generate(STRESS_SCALE, instance_rng("cold-problem"))
    budgets = spread_budgets(wf.problem, rng_for(seed, "cold-budgets"), count, *COLD_BAND)
    requests = [solve_request(b, wf.payload, wf.problem_hash) for b in budgets]
    # Warm up at the middle of the range: a fixed cost, and a budget the
    # shifted sequence never hits.
    (middle,) = _budgets(wf.problem, [0.5], 0.0, 1.0)
    return SingleInputs(seed, wf, [solve_request(middle, wf.payload, wf.problem_hash)], requests)


def batch_budgets(problem: MedCCProblem, rng: np.random.Generator, requests: int) -> list[list[float]]:
    """Per request: distinct new budgets plus in-batch duplicates, shuffled."""
    distinct = BATCH_SIZE - BATCH_DUPLICATES
    pool = uniform_budgets(problem, rng, requests * distinct, block=distinct)
    out = []
    for r in range(requests):
        own = pool[r * distinct : (r + 1) * distinct]
        dupes = [own[int(i)] for i in rng.choice(distinct, size=BATCH_DUPLICATES, replace=False)]
        items = own + dupes
        out.append([items[int(i)] for i in rng.permutation(len(items))])
    return out


def batch_sweep(seed: int, count: int) -> SingleInputs:
    wf = WorkflowInput.generate(PAPER_SCALE, instance_rng("batch-problem"))
    groups = batch_budgets(wf.problem, rng_for(seed, "batch-budgets"), count + 1)
    requests = [batch_request(g, wf.payload, wf.problem_hash) for g in groups]
    return SingleInputs(seed, wf, requests[:1], requests[1:])


@dataclasses.dataclass
class LiveInputs:
    seed: int
    workflow: WorkflowInput
    registration: Request


def registration_request(budget: float, wf: WorkflowInput) -> Request:
    return make_request(
        "/v1/workflows", solve_parts(budget, wf.payload), 0, (wf.problem_hash, (float(budget),))
    )


def live_replay(seed: int) -> LiveInputs:
    wf = WorkflowInput.generate(STRESS_SCALE, instance_rng("live-problem"))
    (budget,) = uniform_budgets(wf.problem, rng_for(seed, "live-budgets"), 1, 0.4, 0.6)
    return LiveInputs(seed, wf, registration_request(budget, wf))


def zero_drift_inputs(seed: int) -> tuple[WorkflowInput, Request]:
    """A paper-scale registration whose on-plan stream must not revise."""
    wf = WorkflowInput.generate(PAPER_SCALE, instance_rng("zero-drift-problem"))
    (budget,) = uniform_budgets(wf.problem, rng_for(seed, "zero-drift-budget"), 1, 0.4, 0.6)
    return wf, registration_request(budget, wf)


def event_stream(problem: MedCCProblem, assignment: dict[str, str], drift: float,
                 workflow_id: str) -> list[Request]:
    """The full started/completed stream, in topological order.

    Every module runs ``drift`` times its planned time on the VM type the
    registration plan gave it.
    """
    workflow = problem.workflow
    matrices = problem.matrices
    names = problem.catalog.names
    path = f"/v1/workflows/{workflow_id}/events"
    events: list[Request] = []
    seq = 1
    for name in workflow.topological_order():
        module = workflow.module(name)
        if module.is_schedulable:
            duration = drift * matrices.time(name, names.index(assignment[name]))
        else:
            duration = float(module.fixed_time or 0.0)
        for event in (
            {"seq": seq, "type": "started", "module": name},
            {"seq": seq + 1, "type": "completed", "module": name, "duration": duration},
        ):
            events.append(make_request(path, (dumps(event).encode(),), 1, (workflow_id, event["seq"])))
        seq += 2
    return events
