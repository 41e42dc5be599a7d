"""The repo's benchmark: end-to-end and per-layer metrics on seven workloads.

Two ways to run it, both from the root of a checkout:

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement of one workload (the form the benchmark driver uses).
    Runs fresh child processes of workload ``W`` back to back until ``S``
    seconds have been measured (at least two), prints every metric by name
    with its unit, and ends with one JSON line: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the end-to-end medians with ``--trace 0``,
    the per-layer values of the traced children with ``--trace 1``.

``python3 benchmarks/perf/run.py [--repeats R] [--workloads a,b] [--smoke] [--check-agreement]``
    The whole suite: ``R`` untraced repeats interleaved round-robin across
    the workloads, then one traced run each; prints medians, quartiles and
    the traced roll-up and writes ``benchmarks/perf/out/results.json``.

Closed loop, one client (the trainer's own loop), one compute thread.  See
``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (stdlib-only at import time)
import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 10
#: A child that has not finished by then is killed and counted as failed; the
#: slowest workload takes ~10 s here, and two children must fit in 180 s.
CHILD_TIMEOUT_S = 80


def child_env() -> Dict[str, str]:
    """One compute thread, set before the child imports NumPy."""
    return {**os.environ, **{var: "1" for var in child.THREAD_VARS}}


def launch(name: str, seed: int, traced: bool, smoke: bool = False) -> dict:
    """Run one child to completion and return its result dict.

    A child that crashes, times out or prints no result yields a failed
    result with the cause in ``problems``; the child process has always
    ended when this returns.
    """
    argv = [sys.executable, str(HERE / "child.py"), "--workload", name,
            "--seed", str(seed), "--trace", str(int(traced)), "--t0", repr(time.time())]
    if smoke:
        argv.append("--smoke")
    try:
        done = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        problem = None if done.returncode == 0 else \
            f"child exited with code {done.returncode}: {done.stderr.strip()[-2000:]}"
        lines = done.stdout.strip().splitlines()
    except subprocess.TimeoutExpired:
        problem, lines = f"child exceeded {CHILD_TIMEOUT_S} s and was killed", []
    if problem is None:
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            problem = "child printed no result"
    spec = workloads.BY_NAME[name].spec
    nominal = spec["epochs"] * spec["max_iterations_per_epoch"]
    return {"workload": name, "seed": seed, "traced": traced, "smoke": smoke,
            "attempted": nominal, "failed": nominal, "correct": False,
            "problems": [problem], "end_to_end": {}, "exact": {}}


def summarise(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's repeats."""
    summary = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def combine(results: List[dict]) -> dict:
    """Fold the children of one workload and seed into one verdict.

    Untraced children give the end-to-end medians; traced children give the
    per-layer medians and the last roll-up.  Everything in ``exact`` — the
    loss-trajectory digest above all — must be identical across all of them:
    same seed, same numerics, traced or not.
    """
    problems = [p for r in results for p in r["problems"]]
    exact = [r["exact"] for r in results if r["exact"]]
    if any(e != exact[0] for e in exact[1:]):
        keys = sorted(k for e in exact[1:] for k in e if e[k] != exact[0].get(k))
        problems.append(f"runs of one seed disagree on {sorted(set(keys))}")
    attempted = sum(r["attempted"] for r in results)
    untraced = [r for r in results if not r["traced"] and r["end_to_end"]]
    traced = [r for r in results if r["traced"] and r.get("per_layer")]
    combined = {
        "correct": not problems, "problems": problems, "attempted": attempted,
        "failed": attempted if problems else 0,
        "exact": exact[0] if exact else {},
        "end_to_end": {m["name"]: summarise([r["end_to_end"][m["name"]] for r in untraced])
                       for m in metrics.END_TO_END} if untraced else {},
    }
    if traced:
        per_layer = {name: statistics.median(r["per_layer"][name] for r in traced)
                     for name in metrics.PER_LAYER_NAMES}
        if untraced:
            traced_wall = statistics.median(r["end_to_end"]["run_wall_s"] for r in traced)
            base = combined["end_to_end"]["run_wall_s"]["median"]
            per_layer["trace.overhead_share"] = traced_wall / base - 1.0
            per_layer["iter_p95_ms"] = statistics.median(r["iter_p95_ms"] for r in untraced)
        combined["per_layer"] = per_layer
        combined["rollup"] = traced[-1]["rollup"]
    return combined


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
def print_end_to_end(name: str, combined: dict) -> None:
    for metric in metrics.END_TO_END:
        summary = combined["end_to_end"].get(metric["name"])
        if summary is None:
            continue
        spread = f"  q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}" if "q1" in summary else ""
        print(f"{name:24s} {metric['name']:28s} {summary['median']:14.6g} "
              f"{metric['unit']:8s}{spread}  n={summary['n']}")
    for key, value in combined["exact"].items():
        print(f"{name:24s} {key:28s} {value}")


def print_per_layer(name: str, combined: dict) -> None:
    for metric, unit, _, _ in metrics.PER_LAYER:
        print(f"{name:24s} {metric:36s} {combined['per_layer'][metric]:14.6g} {unit}")
    print(f"{name:24s} roll-up of the traced run (post-warm-up window):")
    print(f"{'':24s} {'span':34s} {'calls':>8s} {'total ms':>12s} {'self ms':>12s} {'share':>7s}")
    for row in combined["rollup"]:
        print(f"{'':24s} {row['span']:34s} {row['calls']:8d} {row['total_ms']:12.3f} "
              f"{row['self_ms']:12.3f} {row['share']:7.1%}")


def print_problems(name: str, combined: dict) -> None:
    for problem in combined["problems"]:
        print(f"{name:24s} FAILED: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------- #
# one measurement of one workload (the benchmark driver's form)
# ---------------------------------------------------------------------- #
def measure_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Children of ``name`` until ``seconds`` are measured, at least two.

    With ``traced`` the children alternate untraced / traced, so the traced
    ones have a same-seed baseline for ``trace.overhead_share`` and for the
    check that tracing leaves the numerics alone.
    """
    results: List[dict] = []
    start = time.perf_counter()
    while len(results) < 2 or time.perf_counter() - start < seconds:
        results.append(launch(name, seed, traced and len(results) % 2 == 1))
        if not results[-1]["correct"]:
            break
    combined = combine(results)
    print_end_to_end(name, combined)
    if traced and "per_layer" in combined:
        print_per_layer(name, combined)
    print_problems(name, combined)
    if traced:
        reported = {m: {"value": combined.get("per_layer", {}).get(m, 0.0), "unit": unit}
                    for m, unit, _, _ in metrics.PER_LAYER}
    else:
        reported = {m["name"]: {"value": combined["end_to_end"][m["name"]]["median"],
                                "unit": m["unit"]}
                    for m in metrics.END_TO_END if m["name"] in combined["end_to_end"]}
    print(json.dumps({"correct": combined["correct"], "attempted": combined["attempted"],
                      "failed": combined["failed"], "metrics": reported}))
    return 0 if combined["correct"] else 1


# ---------------------------------------------------------------------- #
# the whole suite
# ---------------------------------------------------------------------- #
def row_stamp(args) -> dict:
    """Where and how this row was measured, so rows can be compared."""
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    done = subprocess.run([sys.executable, str(HERE / "child.py"), "--calibrate"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    stamp = json.loads(done.stdout.strip().splitlines()[-1])
    status = git("status", "--porcelain")
    stamp.update(commit=git("rev-parse", "HEAD"), dirty=bool(status) if status is not None else None,
                 node=platform.node(), seed=args.seed, repeats=args.repeats, smoke=args.smoke,
                 warmup_iterations=workloads.WARMUP_ITERATIONS,
                 time=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    return stamp


def run_suite(names: List[str], seed: int, repeats: int, smoke: bool) -> Dict[str, dict]:
    """``repeats`` untraced rounds, round-robin so drift is shared, then one
    traced run per workload; returns the combined result per workload."""
    results: Dict[str, List[dict]] = {name: [] for name in names}
    for round_index in range(repeats):
        for name in names:
            result = launch(name, seed, traced=False, smoke=smoke)
            results[name].append(result)
            print(f"round {round_index + 1}/{repeats} {name:24s} "
                  f"run_wall_s {result['end_to_end'].get('run_wall_s', float('nan')):.3f}"
                  f"{'' if result['correct'] else '  FAILED'}", flush=True)
    for name in names:
        results[name].append(launch(name, seed, traced=True, smoke=smoke))
        print(f"traced {name}", flush=True)
    return {name: combine(runs) for name, runs in results.items()}


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def check_agreement(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """Pairs of medians of two sets of the same code that differ by more than
    the metric's bound in either direction, plus any exact value that moved."""
    offending = []
    for name in first:
        for metric in metrics.END_TO_END:
            a = first[name]["end_to_end"][metric["name"]]["median"]
            b = second[name]["end_to_end"][metric["name"]]["median"]
            if max(worse_by(metric, a, b), worse_by(metric, b, a)) > metric["bound"]:
                offending.append(f"{name} {metric['name']}: {a:.6g} vs {b:.6g} "
                                 f"{metric['unit']} (bound {metric['bound']:.0%})")
        if first[name]["exact"] != second[name]["exact"]:
            offending.append(f"{name}: exact values differ between the two sets")
    return offending


def suite(args) -> int:
    names = args.workloads.split(",") if args.workloads else [w.name for w in workloads.WORKLOADS]
    unknown = [name for name in names if name not in workloads.BY_NAME]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; known: {sorted(workloads.BY_NAME)}")
    if args.smoke:
        print("SMOKE RUN: 1/8 of the iterations, one repeat — numbers are not comparable "
              "to a real run and are not recorded.")
    stamp = row_stamp(args)
    print("row stamp:", json.dumps(stamp))
    sets = [run_suite(names, args.seed, args.repeats, args.smoke)
            for _ in range(2 if args.check_agreement else 1)]
    latest = sets[-1]
    for name in names:
        print_end_to_end(name, latest[name])
    for name in names:
        if "per_layer" in latest[name]:
            print_per_layer(name, latest[name])
    failed = False
    for combined_set in sets:
        for name in names:
            print_problems(name, combined_set[name])
            failed = failed or not combined_set[name]["correct"]
    if not args.smoke:
        child.OUT.mkdir(parents=True, exist_ok=True)
        (child.OUT / "results.json").write_text(json.dumps(
            {"stamp": stamp, "bounds": metrics.END_TO_END, "sets": sets}, indent=1) + "\n")
        print(f"written {child.OUT / 'results.json'}")
    if args.check_agreement and not failed:
        offending = check_agreement(*sets)
        for line in offending:
            print("DISAGREE:", line, file=sys.stderr)
        print("agreement check:", "FAILED" if offending else "passed")
        failed = bool(offending)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset for the suite")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py / workloads.py")
    args = parser.parse_args(argv)
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(metrics.manifest(
            COMMAND, PATHS, RUN_SECONDS, workloads.WORKLOADS), indent=2) + "\n")
        print(f"written {MANIFEST}")
        return 0
    child.require_source_tree()
    if args.workload:
        if args.workload not in workloads.BY_NAME:
            raise SystemExit(f"unknown workload {args.workload!r}; "
                             f"known: {sorted(workloads.BY_NAME)}")
        return measure_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
