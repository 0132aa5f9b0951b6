"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import inputs
from checks import check_batch, check_solve, check_stream_end, stream_end_outcome
from repro.service.codec import loads
from repro.service.keys import problem_hash
from spans import Span, SpanRecorder, Target, instrument, missing_spans, self_times
from stats import (
    FAILED,
    OK,
    REFUSED,
    WRONG,
    count_failures,
    error_rate,
    nearest_rank,
    quartile_spread,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------- #
# Percentiles under the >= 10-beyond rule
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, target, expected",
    [
        (200, 95.0, 95.0),  # rank 190: exactly 10 beyond
        (199, 95.0, 90.0),  # rank 190: only 9 beyond
        (100, 95.0, 90.0),
        (99, 95.0, 75.0),
        (40, 95.0, 75.0),
        (39, 95.0, 60.0),
        (25, 60.0, 60.0),
        (24, 60.0, 50.0),
        (20, 95.0, 50.0),
        (19, 95.0, None),
        (5000, 60.0, 60.0),  # never above the workload's target
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, target, expected):
    assert tail_percentile(n, target) == expected


def test_nearest_rank():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 95) == 95
    assert nearest_rank([3.0], 99) == 3.0


# --------------------------------------------------------------------- #
# error_rate accounting
# --------------------------------------------------------------------- #


def test_refused_failed_and_wrong_operations_all_count_as_failed():
    outcomes = [(OK, 1), (REFUSED, 1), (FAILED, 16), (WRONG, 1), (OK, 16)]
    attempted, failed = count_failures(outcomes)
    assert (attempted, failed) == (35, 18)
    assert error_rate(attempted, failed) == pytest.approx(18 / 35)
    assert count_failures([(OK, 3)]) == (3, 0)
    with pytest.raises(ValueError):
        count_failures([("maybe", 1)])


def test_http_status_maps_to_outcome():
    expect = ("h", (10.0,))
    assert check_solve(503, b"{}", expect)[0] == REFUSED
    assert check_solve(500, b"{}", expect)[0] == FAILED
    assert check_solve(400, b"{}", expect)[0] == FAILED
    good = {"status": "ok", "problem_hash": "h", "budget": 10.0, "result": {"cost": 9.5}}
    assert check_solve(200, json.dumps(good).encode(), expect) == (OK, None)
    over = dict(good, result={"cost": 10.5})
    assert check_solve(200, json.dumps(over).encode(), expect)[0] == WRONG
    other = dict(good, problem_hash="x")
    assert check_solve(200, json.dumps(other).encode(), expect)[0] == WRONG


def test_batch_duplicates_must_agree():
    item = {"status": "ok", "problem_hash": "h", "budget": 10.0, "result": {"cost": 9.0}}
    odd = dict(item, result={"cost": 8.0})
    expect = ("h", (10.0, 10.0))
    body = json.dumps({"status": "ok", "results": [item, item]}).encode()
    assert check_batch(200, body, expect) == (OK, None)
    body = json.dumps({"status": "ok", "results": [item, odd]}).encode()
    assert check_batch(200, body, expect)[0] == WRONG


def test_stream_end_requires_an_honest_budget_verdict():
    done = {"counts": {"done": 3}, "projected_cost": 11.0, "total_budget": 10.0,
            "over_budget": True, "revision": 4}
    assert check_stream_end(json.dumps(done).encode(), 3) is None
    hidden = dict(done, over_budget=False)
    assert check_stream_end(json.dumps(hidden).encode(), 3) is not None
    unfinished = dict(done, counts={"done": 2, "running": 1})
    assert check_stream_end(json.dumps(unfinished).encode(), 3) is not None
    on_plan = dict(done, projected_cost=9.0, over_budget=False, revision=0)
    assert check_stream_end(json.dumps(on_plan).encode(), 3, on_plan=True) is None
    revised = dict(on_plan, revision=1)
    assert check_stream_end(json.dumps(revised).encode(), 3, on_plan=True) is not None


def test_a_wrong_stream_end_counts_the_whole_stream_as_failed():
    done = {"counts": {"done": 3}, "projected_cost": 11.0, "total_budget": 10.0,
            "over_budget": False, "revision": 4}
    end = stream_end_outcome(json.dumps(done).encode(), 3, events=6)
    assert end[:2] == (WRONG, 6)
    events = [(OK, 1)] * 6
    assert error_rate(*count_failures(events + [end[:2]])) == pytest.approx(0.5)
    honest = stream_end_outcome(json.dumps(dict(done, over_budget=True)).encode(), 3, events=6)
    assert error_rate(*count_failures(events + [honest[:2]])) == 0.0


# --------------------------------------------------------------------- #
# Spans and self time
# --------------------------------------------------------------------- #


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 6.0, 0, "r"),
        Span("late", 9.5, 12.0, 0, "r"),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 2.0, 1.0, 1.0, 2.5])
    # Self times add up to the root's duration when children stay inside.
    inside = spans[:4]
    assert sum(self_times(inside)) == pytest.approx(10.0)


def test_instrument_records_nested_spans_and_restores():
    layer = types.ModuleType("repro._perfbench_toy")

    def inner(x):
        return x + 1

    def outer(x):
        return layer.inner(x) * 2

    layer.inner, layer.outer = inner, outer
    sys.modules[layer.__name__] = layer
    try:
        recorder = SpanRecorder()
        targets = [Target(layer, "outer", "toy.outer"),
                   Target(layer, "inner", "toy.inner", count=lambda a, r: {"calls": 1})]
        with instrument(recorder, targets):
            with recorder.request_scope("req-1"):
                assert layer.outer(1) == 4
        assert layer.outer is outer and layer.inner is inner
        names = [(s.name, s.parent, s.request) for s in recorder.spans]
        assert names == [("request", None, "req-1"), ("toy.outer", 0, "req-1"),
                         ("toy.inner", 1, "req-1")]
        assert recorder.spans[2].counts == {"calls": 1}
        assert sum(self_times(recorder.spans)) == pytest.approx(
            recorder.spans[0].end - recorder.spans[0].start)
    finally:
        del sys.modules[layer.__name__]


def test_a_missing_or_unused_layer_is_reported():
    layer = types.ModuleType("repro._perfbench_toy")
    layer.used = lambda: None
    layer.unused = lambda: None
    recorder = SpanRecorder()
    targets = [Target(layer, "used", "toy.used"), Target(layer, "unused", "toy.unused"),
               Target(layer, "renamed", "toy.renamed")]
    with instrument(recorder, targets):
        with recorder.request_scope("req-1"):
            layer.used()
    assert recorder.missing == {"toy.renamed"}
    assert missing_spans(recorder, ["toy.used"]) == ["toy.renamed"]
    assert missing_spans(recorder, ["toy.used", "toy.unused"]) == ["toy.renamed", "toy.unused"]


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def hit_inputs():
    return inputs.hit_explore(7), inputs.hit_explore(7), inputs.hit_explore(8)


def test_same_seed_gives_byte_identical_request_lists(hit_inputs):
    a, b, _ = hit_inputs
    for field in ("sequence", "plain", "permuted"):
        assert inputs.request_list_digest(getattr(a, field)) == inputs.request_list_digest(
            getattr(b, field))
    batch = [inputs.batch_sweep(7, 3) for _ in range(2)]
    assert inputs.request_list_digest(batch[0].sequence) == inputs.request_list_digest(
        batch[1].sequence)


def test_different_seed_gives_different_budgets(hit_inputs):
    a, _, c = hit_inputs
    assert [b for _, b in a.keys] != [b for _, b in c.keys]
    assert inputs.request_list_digest(a.sequence) != inputs.request_list_digest(c.sequence)
    x, y = inputs.batch_sweep(7, 3), inputs.batch_sweep(8, 3)
    assert [r.expect[1] for r in x.sequence] != [r.expect[1] for r in y.sequence]


def test_hit_explore_mix(hit_inputs):
    a, _, _ = hit_inputs
    assert len(a.keys) == inputs.HIT_WORKFLOWS * inputs.HIT_BUDGETS
    permuted = sum(1 for r in a.sequence if r in a.permuted)
    assert permuted == inputs.HIT_SEQUENCE // 4
    counts = sorted((a.sequence.count(r) for r in set(a.plain) | set(a.permuted)), reverse=True)
    assert counts[0] > 4 * counts[len(counts) // 2]  # skewed, not uniform


def test_permuted_payloads_hash_equal(hit_inputs):
    a, _, _ = hit_inputs
    for plain, permuted in zip(a.plain, a.permuted):
        assert plain.body != permuted.body
        expected_hash = plain.expect[0]
        assert problem_hash(loads(plain.body)["problem"]) == expected_hash
        assert problem_hash(loads(permuted.body)["problem"]) == expected_hash


def test_batch_requests_carry_new_budgets_and_duplicates():
    inp = inputs.batch_sweep(3, 4)
    seen: set[float] = set()
    for request in inp.warm + inp.sequence:
        budgets = request.expect[1]
        assert len(budgets) == inputs.BATCH_SIZE
        distinct = set(budgets)
        assert len(distinct) == inputs.BATCH_SIZE - inputs.BATCH_DUPLICATES
        assert not distinct & seen  # every budget new to the server
        seen |= distinct
        payload = loads(request.body)
        assert [item["budget"] for item in payload["requests"]] == list(budgets)


def test_spread_budgets_stay_new_and_even_inside_their_slice():
    problem = inputs.batch_sweep(3, 1).workflow.problem
    cmin, cmax = problem.budget_range()
    lo, hi = inputs.COLD_BAND
    budgets = inputs.spread_budgets(problem, inputs.rng_for(3, "cold-budgets"), 64, lo, hi)
    fractions = [(b - cmin) / (cmax - cmin) for b in budgets]
    assert len(set(budgets)) == len(budgets)
    assert all(lo <= f <= hi for f in fractions)
    for n in (8, 16, 33):  # every prefix has one budget in each of n/2 sub-slices
        cells = {int((f - lo) / (hi - lo) * (n // 2)) for f in fractions[:n]}
        assert len(cells) == n // 2
    other = inputs.spread_budgets(problem, inputs.rng_for(4, "cold-budgets"), 64, lo, hi)
    assert other != budgets


# --------------------------------------------------------------------- #
# BENCHMARK.json agrees with what the benchmark emits
# --------------------------------------------------------------------- #


def test_benchmark_json_names_what_the_benchmark_emits():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("BENCHMARK.json is not in this checkout")
    import run
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_quartile_spread():
    q1, median, q3, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert spread == pytest.approx(1.0)
