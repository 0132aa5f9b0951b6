"""Correctness checks on the answers the server gave.

A number measured on a wrong answer is worthless, so every response of a
run is checked after its timed phase; any wrong answer counts as a
failed operation and clears ``correct``.
"""

from __future__ import annotations

import json

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.core.problem import MedCCProblem
from repro.service.codec import dumps, encode_result_fragment

from stats import FAILED, OK, REFUSED, WRONG


def outcome_of_status(status: int) -> str | None:
    """``refused`` for 503, ``failed`` for any other non-200, else ``None``."""
    if status == 200:
        return None
    return REFUSED if status == 503 else FAILED


def _decode(body: bytes) -> dict | None:
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def check_answer(item: dict, budget: float, expected_hash: str) -> str | None:
    """Why one solve answer is wrong, or ``None`` when it is right."""
    if item.get("status") != "ok":
        return f"status {item.get('status')!r}: {item.get('error')}"
    if item.get("problem_hash") != expected_hash:
        return "problem_hash differs from the benchmark's own hash"
    if item.get("budget") != budget:
        return f"budget echoed as {item.get('budget')!r}, sent {budget!r}"
    result = item.get("result") or {}
    cost = result.get("cost")
    if not isinstance(cost, (int, float)) or cost > budget:
        return f"cost {cost!r} exceeds budget {budget!r}"
    return None


def check_solve(status: int, body: bytes, expect: tuple) -> tuple[str, str | None]:
    """Outcome of a ``/v1/solve`` reply: ``(outcome, reason)``."""
    if (outcome := outcome_of_status(status)) is not None:
        return outcome, body[:200].decode("utf-8", "replace")
    expected_hash, (budget,) = expect
    payload = _decode(body)
    if payload is None:
        return WRONG, "reply is not a JSON object"
    reason = check_answer(payload, budget, expected_hash)
    return (OK, None) if reason is None else (WRONG, reason)


def check_batch(status: int, body: bytes, expect: tuple) -> tuple[str, str | None]:
    """Outcome of a ``/v1/solve_batch`` reply; every item must be right."""
    if (outcome := outcome_of_status(status)) is not None:
        return outcome, body[:200].decode("utf-8", "replace")
    expected_hash, budgets = expect
    payload = _decode(body)
    results = payload.get("results") if payload else None
    if not isinstance(results, list) or len(results) != len(budgets):
        return WRONG, "reply does not carry one result per request item"
    first: dict[float, dict] = {}
    for item, budget in zip(results, budgets):
        if not isinstance(item, dict):
            return WRONG, "batch item is not an object"
        reason = check_answer(item, budget, expected_hash)
        if reason is not None:
            return WRONG, reason
        if budget in first and first[budget]["result"] != item["result"]:
            return WRONG, "a duplicated budget got a different answer"
        first.setdefault(budget, item)
    return OK, None


def reference_mismatch(problem: MedCCProblem, budget: float, answer: dict) -> str | None:
    """Whether a served answer is byte-identical to the reference engine's.

    The comparison renders both fragments with the canonical encoder and
    the served engine label, so only the schedule, cost, makespan and
    step count can differ.
    """
    result = CriticalGreedyScheduler(engine="reference").solve(problem, budget)
    served = answer.get("result") or {}
    expected = encode_result_fragment(result, problem.catalog, engine=str(served.get("engine")))
    if dumps(expected) != dumps(served):
        return f"budget {budget!r}: answer differs from engine='reference'"
    return None


def check_registration(status: int, body: bytes, expect: tuple) -> tuple[str, str | None]:
    """Outcome of a live registration: an unrevised plan within budget."""
    if (outcome := outcome_of_status(status)) is not None:
        return outcome, body[:200].decode("utf-8", "replace")
    _, (budget,) = expect
    reply = _decode(body)
    if reply is None or reply.get("status") != "ok":
        return WRONG, "registration reply is not ok"
    if reply.get("revision") != 0 or reply.get("total_budget") != budget:
        return WRONG, "a fresh registration is revised or has another budget"
    cost = (reply.get("result") or {}).get("cost")
    if not isinstance(cost, (int, float)) or cost > budget or reply.get("over_budget"):
        return WRONG, f"registration plan costs {cost!r} over budget {budget!r}"
    return OK, None


def check_event(status: int, body: bytes, expect: tuple) -> tuple[str, str | None]:
    """Outcome of one live-event reply."""
    if (outcome := outcome_of_status(status)) is not None:
        return outcome, body[:200].decode("utf-8", "replace")
    workflow_id, seq = expect
    payload = _decode(body)
    if payload is None or payload.get("status") != "ok":
        return WRONG, "event reply is not ok"
    if payload.get("workflow_id") != workflow_id or payload.get("seq") != seq:
        return WRONG, f"event reply for {payload.get('workflow_id')}/{payload.get('seq')}"
    if payload.get("replayed"):
        return WRONG, f"event {seq} was treated as a replay"
    return OK, None


def check_stream_end(body: bytes, modules: int, on_plan: bool = False) -> str | None:
    """A finished stream: every module done, and the budget verdict honest.

    Modules that ran late may leave the projected cost above the budget
    once nothing is left to downgrade; the server must then say so with
    ``over_budget``.  An ``on_plan`` stream (no drift) must instead end
    within budget at revision 0.
    """
    final = _decode(body)
    if final is None:
        return "the stream's last reply is not a JSON object"
    counts = final.get("counts") or {}
    if counts.get("done") != modules:
        return f"stream ended with {counts} of {modules} modules"
    projected, budget = final.get("projected_cost"), final.get("total_budget")
    if not isinstance(projected, (int, float)) or not isinstance(budget, (int, float)):
        return "the stream's last reply carries no projected cost or budget"
    over = projected > budget * (1 + 1e-12)
    if bool(final.get("over_budget")) != over:
        return f"over_budget={final.get('over_budget')} but projected {projected} vs {budget}"
    if on_plan and (over or final.get("revision") != 0):
        return f"on-plan stream ended at revision {final.get('revision')}, projected {projected}"
    return None


def stream_end_outcome(body: bytes, modules: int, events: int,
                       on_plan: bool = False) -> tuple[str, int, str | None]:
    """The end-of-stream verdict as an outcome weighing as much as the stream.

    A wrong end means every event of the stream was answered on a wrong
    plan, so it counts ``events`` operations, not one.
    """
    reason = check_stream_end(body, modules, on_plan)
    return (OK if reason is None else WRONG), events, reason
