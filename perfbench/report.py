#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--workloads a,b]

Runs perfbench/run.py once per workload without tracing and prints the
end-to-end metrics, the tail latency where a run has enough operations,
and the failed ratio.  With --trace it also makes two traced runs of each
workload with the same seed, prints each per-layer metric next to the
end-to-end effect it is predicted to have, checks that the exact counts
repeat, and prints the tracing overhead (traced minus untraced op_p50_s).
The workloads default to those of BENCHMARK.json; the diagnostic ones
(screen, quadratic-profile) are run by naming them in --workloads.
A report with --trace on the two default workloads takes about seven
minutes on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metric -> (end-to-end metric it should move, on which workload,
# what is predicted elsewhere)
PREDICTIONS = {
    "psclass.is_in_ps_sharp.self_s": ("op_p50_s", "ps-negative, ps-early", "not called"),
    "psclass.shift_s.p50": ("op_p50_s", "ps-negative (x256)", ""),
    "psclass.shifts": ("op_p50_s", "ps-early", "always 256 on ps-negative"),
    "psclass.complement.calls": ("op_p50_s", "ps-negative", ""),
    "psclass.complement.self_s": ("op_p50_s", "ps-negative", "small on ps-early"),
    "psclass.span.calls": ("op_p50_s", "ps-negative", ""),
    "psclass.span.self_s": ("op_p50_s", "ps-negative", "small on ps-early"),
    "psclass.warmup_s": ("setup_s", "PS workloads", "not called"),
    "setup.gf2.enumerate_subspaces.self_s": ("setup_s", "PS workloads", "not called"),
    "setup.gf2.enumerate_subspaces.yielded": ("setup_s", "PS workloads", "not called"),
    "vectorial.vanishing_pair_adjacency.calls": ("ops_per_s", "screen", "0 on quadratic-profile"),
    "vectorial.vanishing_pair_adjacency.self_s": ("ops_per_s", "screen", "0 on quadratic-profile"),
    "vectorial.vanishing_pair_adjacency_quadratic.calls": (
        "ops_per_s", "quadratic-profile (small)", "0 on screen"),
    "vectorial.vanishing_pair_adjacency_quadratic.self_s": (
        "ops_per_s", "quadratic-profile (small)", "0 on screen"),
    "vectorial.iter_clique_subspaces.self_s": ("ops_per_s", "quadratic-profile", "<3% of screen"),
    "vectorial.iter_clique_subspaces.yielded": ("ops_per_s", "quadratic-profile", ""),
    "msub.msubspace_profile.self_s": ("ops_per_s", "screen, quadratic", "<0.1% of PS ops"),
    "msub.is_in_mm_sharp.self_s": ("ops_per_s", "screen, quadratic", "<0.1% of PS ops"),
    "boolfun.is_bent.self_s": ("none (~0.1 ms)", "all", ""),
    "boolfun.algebraic_degree.self_s": ("none (~0.1 ms)", "all", ""),
    "boolfun.dual.self_s": ("none (~0.1 ms)", "PS workloads", ""),
    "cli.analyze.self_s": ("none (report assembly)", "all", ""),
    "setup.fixtures.published_bent8.self_s": ("setup_s", "all", ""),
    "mem.setup_rss_mb": ("peak_rss_mb", "PS workloads (51.4 MB coset table)", ""),
    "traced.op_p50_s": ("none: minus op_p50_s = overhead", "all", ""),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    untraced = {}
    print(f"# end to end, seed {args.seed}, {seconds} s per run")
    for name in names:
        detail, result = run(name, args.seed, seconds, 0)
        untraced[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<14} {fmt(m['value']):>12} {m['unit']}")
        t = detail["op_tail_s"]
        if t:
            print(f"  {'op_tail_s':<14} {fmt(t['value']):>12} s  (p{t['percentile']:.1f} of "
                  f"{t['samples']} ops, {t['beyond']} beyond)")
        else:
            print(f"  {'op_tail_s':<14} {'-':>12}    (only {detail['ops']} ops)")
        print(f"  {'failed_ratio':<14} {fmt(detail['failed_ratio']):>12} ratio")
        print(f"  isolation: {json.dumps(detail['isolation'])}")
        for failure in detail["failures"]:
            print(f"  FAILED {failure}")
    if not args.trace:
        return 0

    # all_spans holds every per-layer value, those BENCHMARK.json omits too
    traced = {n: [run(n, args.seed, seconds, 1)[0]["all_spans"] for _ in range(2)] for n in names}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n# per layer (traced, per operation unless named setup.*), seed {args.seed}")
    print(f"{'metric [unit]':<62}" + "".join(f"{n:>18}" for n in names)
          + "  should move / on / elsewhere")
    for metric, (moves, on, elsewhere) in PREDICTIONS.items():
        cells = "".join(f"{fmt(traced[n][0][metric]):>18}" for n in names)
        label = f"{metric} [{units.get(metric, 's' if metric.endswith('_s') else 'count')}]"
        print(f"{label:<62}{cells}  {moves} / {on} / {elsewhere}")

    print("\n# exact counts, two traced runs of one seed")
    exact = [k for k in PREDICTIONS if k.endswith((".calls", ".yielded", ".shifts"))]
    for n in names:
        a, b = traced[n]
        differ = [k for k in exact if a[k] != b[k]]
        print(f"  {n}: {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")

    print("\n# tracing overhead: traced minus untraced op_p50_s")
    for n in names:
        base = untraced[n]["metrics"]["op_p50_s"]["value"]
        over = traced[n][0]["traced.op_p50_s"] - base
        print(f"  {n}: {over:+.6g} s ({100 * over / base:+.1f}% of {base:.6g} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
