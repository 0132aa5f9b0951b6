"""End-to-end and per-layer benchmark of ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload hit-explore --seed 1 --seconds 20 --trace 0

It boots the default ``repro serve`` front end as a child process, drives
it over loopback from one closed-loop client on one keep-alive
connection, checks every answer, and prints every metric by name with
its unit.  (A second connection added no throughput to these workloads
under the interpreter lock, only run-to-run spread.)  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s`` - input generation + server boot + warm-up, done three
  times per run; the median is reported;
* ``latency_p50_ms`` and ``latency_tail_ms`` - per request; the tail is
  the workload's target percentile (95th, or lower where the workload
  cannot reach 10 samples beyond it), and the run states which
  percentile it used and on how many samples;
* ``throughput_ops_s`` - operations answered correctly per second; an
  operation is one budget answered or one live event applied;
* ``ok_rate`` - 1 - error rate: operations that failed, were refused or
  got a wrong answer count against it;
* ``server_rss_mb`` - the server's peak RSS (``VmHWM``).

With ``--trace 1`` the same untraced run is followed by an in-process
replay of the first requests of the timed sequence, each run once
untraced and once traced with spans around the program's layer
functions (see ``layers.py``); the metrics are then the per-layer ones,
and ``front.residual_ms`` is each replayed request's HTTP latency minus
its in-process time.  Spans are written to ``.perfbench_out/``.  A
traced run whose layer functions cannot all be wrapped, or that records
none of a span its workload must pass through, is marked incorrect and
names the missing spans: a renamed layer must move the benchmark with
it rather than read 0.

``--steady N`` runs each named workload (default: all) in two sets of N
runs, on seeds 1..N and N+1..2N (in child processes), and prints every
metric's median, quartiles and spread against its bound in
``BENCHMARK.json``, then how far the second set's median moved from the
first's.  For ``setup_s`` it also shows the spread of the first set-up
of each run alone, which the median of three is there to damp.

Workloads (why each is here):

* ``hit-explore`` - 4 paper-scale workflows x 8 budgets drawn with a
  Zipf skew, a quarter of requests with modules and VM types permuted;
  after warm-up every request is a cache hit, so the solver is idle and
  the time is HTTP, JSON parse, canonical hashing, decode and cache.
* ``cold-solve`` - one stress-scale workflow, every budget new and in
  the middle tenth of [Cmin, Cmax] (where solve times are alike), so
  every request misses the cache and most time is Critical-Greedy.
* ``batch-sweep`` - ``/v1/solve_batch`` of 16 new budgets (2 repeated)
  of one paper-scale workflow: batched solving, grouping and dedupe, with
  parse and decode paid per item.
* ``live-replay`` - stress-scale live workflows: registration, then the
  full started/completed stream with every module 1.25x late, one
  connection, durable log with fsync: the ``repro.live`` write path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

#: How many times a run sets up (inputs, server, warm-up); the median counts.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "ok_rate": "ratio",
    "server_rss_mb": "MiB",
}

PER_LAYER = {
    "front.residual_ms": "ms",
    "codec.loads_ms": "ms",
    "codec.decode_problem_ms": "ms",
    "codec.decode_workflow_ms": "ms",
    "codec.encode_result_ms": "ms",
    "codec.dumps_ms": "ms",
    "codec.request_bytes": "bytes",
    "keys.problem_hash_ms": "ms",
    "app.parse_head_ms": "ms",
    "app.solve_batch_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "executor.run_p50_ms": "ms",
    "executor.rejected": "count",
    "solver.solve_ms": "ms",
    "solver.steps": "count",
    "solver.batch_ms_per_budget": "ms",
    "live.register_ms": "ms",
    "live.event_ms": "ms",
    "live.log_append_ms": "ms",
    "live.revisions": "count",
    "setup.problem_gen_s": "s",
    "setup.server_boot_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_pct": "%",
}


def _bootstrap() -> None:
    """Put the program under test on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks" / "bench_meta.py"
    ).is_file():
        sys.exit(
            "perfbench: src/repro and benchmarks/bench_meta.py not found; "
            "run from the root of a repository checkout"
        )
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")]


def run_once(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from bench_meta import stamp_metadata

    from server import Server
    from spans import missing_spans
    from stats import OK, WRONG, count_failures, error_rate, nearest_rank, tail_percentile
    from workloads import WORKLOADS
    from wire import Connection, closed_loop

    workload = WORKLOADS[workload_name]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload_name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)

    setups: list[tuple[float, float, float]] = []
    server = None
    try:
        for rep in range(SETUP_REPEATS):
            repdir = workdir / f"setup{rep}"
            repdir.mkdir(parents=True)
            t0 = time.perf_counter()
            inp = workload.generate(seed, seconds)
            t1 = time.perf_counter()
            server = Server(ROOT, repdir, workload.server_args(repdir))
            t2 = time.perf_counter()
            with Connection(server.port) as conn:
                state, outcomes = workload.warm(conn, inp)
            t3 = time.perf_counter()
            setups.append((t1 - t0, t2 - t1, t3 - t2))
            if rep < SETUP_REPEATS - 1:
                server.stop()
                server = None

        sequence = workload.sequence(inp, state)
        load = closed_loop(server.port, sequence, seconds, workload.cycle)
        rss_mb = server.peak_rss_mb()
        with Connection(server.port) as conn:
            status, body = conn.get("/v1/stats")
            stats = json.loads(body)["stats"] if status == 200 else {}
            outcomes += workload.finish(conn, inp, state, load)
    finally:
        if server is not None:
            server.stop()

    latencies: list[float] = []
    ok_ops = 0
    for sample in load.samples:
        request = sequence[sample.index % len(sequence)]
        outcome, reason = workload.judge(request, sample.status, sample.body)
        outcomes.append((outcome, request.ops, reason))
        # A failed or refused request misses any latency limit.
        latencies.append(sample.latency if outcome == OK else seconds)
        ok_ops += request.ops if outcome == OK else 0
    attempted, failed = count_failures((o, n) for o, n, _ in outcomes)
    reasons = [r for o, _, r in outcomes if o != OK and r]
    wrong = sum(1 for o, _, _ in outcomes if o == WRONG)

    n = len(latencies)
    level = tail_percentile(n, workload.tail)
    if level is None:
        print(f"perfbench: only {n} samples; tail reported at the median", file=sys.stderr)
        level = 50.0
    p50 = 1e3 * nearest_rank(latencies, 50) if latencies else 0.0
    setup_total = statistics.median(sum(s) for s in setups)
    end_to_end = {
        "setup_s": setup_total,
        "latency_p50_ms": p50,
        "latency_tail_ms": 1e3 * nearest_rank(latencies, level) if latencies else 0.0,
        "throughput_ops_s": ok_ops / load.elapsed if load.elapsed > 0 else 0.0,
        "ok_rate": 1.0 - error_rate(attempted, failed),
        "server_rss_mb": rss_mb,
    }
    meta = {
        **stamp_metadata("perfbench/run.py"),
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "samples": n,
        "tail_percentile": level,
        "operations_timed": ok_ops,
        "setup_repeats": SETUP_REPEATS,
        "setup_runs_s": [sum(s) for s in setups],
        "error_rate": error_rate(attempted, failed),
        "wrong_answers": wrong,
        "first_failures": reasons[:5],
    }

    if trace:
        replay, extra = workload.replay(inp, state, workdir)
        untraced_ms = 1e3 * statistics.median(replay.untraced)
        # Replayed request i is the timed phase's request i: the residual
        # compares each request's HTTP latency with its in-process time.
        residuals = [s.latency - t for s, t in zip(load.samples, replay.untraced)]
        executor = stats.get("executor", {})
        cache = stats.get("cache", {})
        metrics = {
            "front.residual_ms": 1e3 * statistics.median(residuals) if residuals else 0.0,
            **replay.metrics(),
            "codec.request_bytes": float(statistics.median(len(r.body) for r in sequence)),
            "cache.hit_ratio": float(cache.get("hit_rate", 0.0)),
            "cache.evictions": float(cache.get("evictions", 0)),
            "executor.run_p50_ms": 1e3 * float(executor.get("latency_p50") or 0.0),
            "executor.rejected": float(executor.get("rejected", 0)),
            "live.revisions": 0.0,
            "setup.problem_gen_s": statistics.median(s[0] for s in setups),
            "setup.server_boot_s": statistics.median(s[1] for s in setups),
            "setup.warmup_s": statistics.median(s[2] for s in setups),
            **extra,
        }
        units = PER_LAYER
        meta["in_process_untraced_ms"] = untraced_ms
        meta["traced_requests"] = len(replay.traced)
        spans_path = OUT / f"spans-{workload_name}-seed{seed}.json"
        replay.recorder.write(spans_path)
        meta["spans"] = str(spans_path.relative_to(ROOT))
        missing = missing_spans(replay.recorder, workload.spans)
        meta["missing_spans"] = missing
        if missing:
            print(f"perfbench: spans not recorded: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics, units = end_to_end, END_TO_END
        missing = []
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and wrong == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def steady(workloads: list[str], runs: int, seconds: float, trace: bool) -> int:
    """Run each workload in two sets of ``runs`` and print each metric's spread."""
    from stats import quartile_spread

    spec: dict[str, dict] = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = {m["name"]: m for m in json.loads(spec_path.read_text())["end_to_end"]}
    worst = 0.0
    verdicts: list[str] = []
    for name in workloads:
        medians: dict[str, list[float]] = {}
        for s in range(2):
            values: dict[str, list[float]] = {}
            for i in range(runs):
                seed = 1 + s * runs + i
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(int(trace))],
                    capture_output=True, text=True, timeout=900,
                )
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                lines = proc.stdout.strip().splitlines()
                meta = next(json.loads(line)["meta"] for line in lines
                            if line.startswith('{"meta"'))
                result = json.loads(lines[-1])
                if not result["correct"]:
                    verdicts.append(f"{name} seed {seed} INCORRECT")
                print(f"{name} set {s} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + ("" if result["correct"] else "  INCORRECT"), flush=True)
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
                if "setup_s" in result["metrics"]:
                    values.setdefault("setup_s (first set-up only)", []).append(
                        meta["setup_runs_s"][0])
            print(f"\n{name} set {s}: {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
                  f"{'spread':>9}{'bound':>8}")
            for metric, vals in values.items():
                q1, median, q3, spread = quartile_spread(vals)
                medians.setdefault(metric, []).append(median)
                bound = spec.get(metric, {}).get("bound")
                verdict = ""
                if bound is not None:
                    worst = max(worst, spread / bound)
                    verdict = ("ok" if spread <= bound / 3 else
                               "within" if spread <= bound else "UNSTEADY")
                    if verdict == "UNSTEADY":
                        verdicts.append(f"{name} set {s} {metric} spread {100 * spread:.1f}%")
                print(f"{'':<{len(name) + 8}}{metric:<28}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                      f"{100 * spread:>8.1f}%"
                      + (f"{100 * bound:>7.0f}% {verdict}" if bound is not None else ""))
            print()
        for metric, (first, second) in medians.items():
            if metric not in spec:
                continue
            change = (second - first) / abs(first) if first else 0.0
            worse = -change if spec[metric]["better"] == "higher" else change
            verdict = "ok" if worse <= spec[metric]["bound"] else "WORSE"
            if verdict == "WORSE":
                verdicts.append(f"{name} {metric} second median worse by {100 * worse:.1f}%")
            print(f"{name} {metric}: median set0 {first:.4g} set1 {second:.4g} "
                  f"change {100 * change:+.1f}% (bound {100 * spec[metric]['bound']:.0f}%) {verdict}")
        print()
    print(f"worst spread / bound: {worst:.2f}")
    for verdict in verdicts:
        print(f"FAIL {verdict}")
    return 1 if verdicts else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable with --steady)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", default=0,
                        help="run each workload in two sets of N runs and report spreads")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so cleanup (stopping the server) runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _bootstrap()
    from workloads import WORKLOADS

    names = args.workload or ([] if not args.steady else list(WORKLOADS))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        parser.error(f"choose --workload from {sorted(WORKLOADS)}")
    if args.steady:
        return steady(names, args.steady, args.seconds, bool(args.trace))
    if len(names) != 1:
        parser.error("one --workload per run")
    return run_once(names[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
