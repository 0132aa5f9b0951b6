"""Perf + equivalence harness for the incremental Critical-Greedy engine.

Two entry points:

* ``pytest benchmarks/bench_incremental.py --benchmark-only`` —
  paper-scale pytest-benchmark run of the incremental engine with its
  equivalence to the reference engine asserted before timing;
* ``python benchmarks/bench_incremental.py [--scale paper|stress|all]
  [--check] [--gate-ratio R] [--out PATH]`` — the JSON emitter behind
  ``BENCH_incremental.json``: for each scale it measures Critical-Greedy
  end-to-end under both engines

  - ``incremental`` — delta CP sweeps + vectorized candidate argmax +
    per-problem workspace reuse,
  - ``reference`` — the original dict/networkx loop, which never touches
    the array kernel (the honest pre-kernel baseline, as in
    ``bench_fastpath.py``),

  asserts the two results are *identical* (schedule, step trace, MED,
  cost — no tolerance, byte for byte), and records the incremental sweep
  statistics (how many updates stayed incremental, span work done) plus
  the workspace-reuse effect across a budget sweep.

``--check`` exits non-zero on any divergence — the CI equivalence gate.
``--gate-ratio R`` additionally fails the run if the incremental engine
takes more than ``R ×`` the reference engine's time on any measured
scale; CI uses ``0.1`` on the stress scale only (incremental at least
10x faster than the reference — absolute wall clock is never gated, so
noisy runners cannot break the build).

Scales match ``bench_fastpath.py``: ``paper`` is (m, |Ew|, n) =
(100, 2344, 9), ``stress`` is (1000, 3000, 10).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from bench_fastpath import (
    SCALES,
    SEED,
    _assert_equal_results,
    _make_problem,
    _mid_budget,
    _time_best,
    _time_once,
)
from bench_meta import stamp_metadata

from repro.algorithms.critical_greedy import CriticalGreedyScheduler

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _bench_engines(problem, budget: float, repeats: int) -> dict:
    incremental_cg = CriticalGreedyScheduler(engine="incremental")
    ref_cg = CriticalGreedyScheduler(engine="reference")

    incremental = incremental_cg.solve(problem, budget)

    # Time the incremental engine *before* running the reference: a
    # reference solve churns through millions of short-lived dicts, and
    # the surviving-object pressure it leaves behind skews any timing
    # that follows it.  The first solve above warmed the per-problem
    # workspace, so these repeats measure the steady-state
    # (sweep-reusing) solve the budget sweeps and the service see.
    gc.collect()
    incremental_s = _time_best(
        lambda: incremental_cg.solve(problem, budget), repeats
    )

    reference = ref_cg.solve(problem, budget)
    gc.collect()
    reference_s = _time_once(lambda: ref_cg.solve(problem, budget))

    _assert_equal_results(reference, incremental, "critical-greedy incremental")

    workspace = incremental_cg._workspace
    sweep = workspace.sweep if workspace is not None else None
    return {
        "incremental_s_per_solve": incremental_s,
        "reference_s_per_solve": reference_s,
        "speedup_vs_reference": reference_s / incremental_s,
        "steps": len(incremental.steps),
        "med": incremental.evaluation.makespan,
        "cost": incremental.evaluation.total_cost,
        "sweep_stats": None
        if sweep is None
        else {
            "updates": sweep.updates,
            "incremental_updates": sweep.incremental_updates,
            "full_sweeps": sweep.full_sweeps,
            "nodes_recomputed": sweep.nodes_recomputed,
            "num_nodes": sweep.index.num_nodes,
        },
    }


def _bench_workspace_reuse(problem, levels: int) -> dict:
    """Repeated solves on one problem: shared scheduler vs fresh ones.

    This is the ``sweep_budgets`` / ``compare_on_instances`` usage
    pattern — one scheduler instance solving the same problem at many
    budgets.  A shared instance keeps its :class:`IncrementalSweep`
    workspace across solves; fresh instances rebuild it every time.
    """
    budgets = problem.budget_levels(levels)
    shared = CriticalGreedyScheduler(engine="incremental")
    shared.solve(problem, budgets[0])  # warm the workspace

    def _shared() -> None:
        for budget in budgets:
            shared.solve(problem, budget)

    def _fresh() -> None:
        for budget in budgets:
            CriticalGreedyScheduler(engine="incremental").solve(problem, budget)

    shared_s = _time_best(_shared, 2)
    fresh_s = _time_best(_fresh, 2)
    return {
        "levels": levels,
        "shared_workspace_s": shared_s,
        "fresh_scheduler_s": fresh_s,
        "reuse_speedup": fresh_s / shared_s,
    }


def run_scale(name: str) -> dict:
    size = SCALES[name]
    problem = _make_problem(size)
    budget = _mid_budget(problem)
    repeats = 5 if name == "paper" else 3
    reuse_levels = 10 if name == "paper" else 4
    return {
        "size": list(size),
        "budget": budget,
        "critical_greedy": _bench_engines(problem, budget, repeats),
        "workspace_reuse": _bench_workspace_reuse(problem, reuse_levels),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=[*SCALES, "all"], default="all")
    parser.add_argument(
        "--check",
        action="store_true",
        help="equivalence gate: exit 1 if the two engines diverge",
    )
    parser.add_argument(
        "--gate-ratio",
        type=float,
        default=None,
        metavar="R",
        help="fail if incremental takes more than R x the reference engine's "
        "time on any measured scale (CI uses 0.1 on stress)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    names = list(SCALES) if args.scale == "all" else [args.scale]
    payload = {
        **stamp_metadata("benchmarks/bench_incremental.py"),
        "seed": SEED,
        "scales": {},
    }
    try:
        for name in names:
            print(f"[bench_incremental] scale={name} ...", flush=True)
            payload["scales"][name] = run_scale(name)
            cg = payload["scales"][name]["critical_greedy"]
            print(
                f"[bench_incremental]   CG reference {cg['reference_s_per_solve']:.3f}s -> "
                f"incremental {cg['incremental_s_per_solve']:.3f}s "
                f"({cg['speedup_vs_reference']:.1f}x), "
                f"{cg['steps']} steps",
                flush=True,
            )
    except AssertionError as exc:
        print(f"[bench_incremental] DIVERGENCE: {exc}", file=sys.stderr)
        if args.check:
            return 1
        raise

    if args.gate_ratio is not None:
        for name, scale in payload["scales"].items():
            cg = scale["critical_greedy"]
            if cg["incremental_s_per_solve"] > args.gate_ratio * cg["reference_s_per_solve"]:
                print(
                    f"[bench_incremental] REGRESSION: scale={name} incremental "
                    f"{cg['incremental_s_per_solve']:.3f}s > "
                    f"{args.gate_ratio:g} x reference "
                    f"{cg['reference_s_per_solve']:.3f}s",
                    file=sys.stderr,
                )
                return 1

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_incremental] wrote {args.out}")
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (paper scale only — CI friendly)
# --------------------------------------------------------------------- #


def bench_critical_greedy_incremental(benchmark, save_report):
    problem = _make_problem(SCALES["paper"])
    budget = _mid_budget(problem)
    incremental_cg = CriticalGreedyScheduler(engine="incremental")
    ref = CriticalGreedyScheduler(engine="reference").solve(problem, budget)
    result = benchmark.pedantic(
        incremental_cg.solve, args=(problem, budget), rounds=3, iterations=1
    )
    _assert_equal_results(ref, result, "critical-greedy incremental (pytest bench)")
    save_report(
        "incremental_cg",
        f"paper-scale CG incremental engine: {len(result.steps)} steps, "
        f"MED={result.evaluation.makespan:.6f} (== reference)",
    )


if __name__ == "__main__":
    sys.exit(main())
