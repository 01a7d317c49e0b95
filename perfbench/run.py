#!/usr/bin/env python3
"""bentforge benchmark: one closed-loop caller on one thread, all inputs n = 8.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bentforge is imported from ./src.
Each operation is one call of bentforge.cli.analyze(f, sharp=...) with the
default jobs=1, on a truth table generated from the seed; the caller waits
for each verdict before it sends the next input, and every verdict is
checked (see workloads.py).  BENTFORGE_CACHE_DIR is removed from the
environment and no resume path is passed, so no sweep reads saved state.

--trace 0 times the operations until they have used S seconds (whole rounds
for stratified workloads) and reports the end_to_end metrics of
BENCHMARK.json.  --trace 1 runs a fixed number of operations with spans
around every call into a bentforge module (tracer.py), reports the
per_layer metrics and writes the spans to perfbench/out/.  One line of
details precedes the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
N = 8
# Untraced runs time the set-up this many times, the first in the
# benchmark process and the others in fresh interpreters after the timed
# phase, and report the median.
SETUP_SAMPLES = 3
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="time one set-up and exit")
    return ap.parse_args(argv)


def isolate_environment() -> str:
    """Drop saved sweep state and pin numeric libraries to one thread."""
    removed = os.environ.pop("BENTFORGE_CACHE_DIR", None) is not None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return "removed" if removed else "unset"


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload: str, trace: bool):
    """Import bentforge, parse the fixtures and make the warm-up call, timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bentforge
    from bentforge import cli, fixtures, msub, psclass

    import workloads

    if Path(bentforge.__file__).resolve().parent != SRC / "bentforge":
        raise RuntimeError(f"bentforge imported from {bentforge.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "fixtures": fixtures, "msub": msub, "psclass": psclass})
    published = {name: fixtures.published_bent8(name).table for name in fixtures.PUBLISHED}
    bf = SimpleNamespace(
        cli=cli, msub=msub, psclass=psclass, BooleanFunction=bentforge.BooleanFunction,
        published=published,
    )
    wl = workloads.WORKLOADS[workload](bf)
    t_warm = time.perf_counter()
    warm_input = wl.warmup()
    t1 = time.perf_counter()
    return wl, tracer, warm_input, t1 - t0, t1 - t_warm


def probe_setup(workload: str) -> float:
    """One more set-up in a fresh interpreter, timed inside it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_operations(wl, rng, seconds: float, fixed_ops: int | None, tracer, seen: set):
    """The closed loop: generate an input, call analyze, wait, repeat."""
    cases = wl.cases(rng)
    done = []  # (case, report, error, seconds)
    busy = 0.0
    skipped = 0
    while True:
        if fixed_ops is not None:
            if len(done) == fixed_ops:
                break
        elif busy >= seconds and len(done) % wl.cycle == 0:
            break
        case = next(cases)
        f = wl.bf.BooleanFunction(N, case.table)
        digest = f.digest()
        if digest in seen:  # keeps msub's lru_cache from serving a repeat
            skipped += 1
            continue
        seen.add(digest)
        if tracer:
            tracer.op_id = len(done)
        t0 = time.perf_counter()
        try:
            report, error = wl.bf.cli.analyze(f, sharp=wl.sharp), None
        except (Exception, SystemExit) as exc:  # analyze exits on unsupported input
            report, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.op_id = -1
        busy += dt
        done.append((case, report, error, dt))
    return done, skipped


def check_all(wl, done) -> list[str]:
    failures = []
    for i, (case, report, error, _) in enumerate(done):
        problem = error
        if problem is None:
            try:
                problem = wl.check(case, report)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"op {i} ({case.kind}): {problem}")
    return failures


def tail(durations: list[float]):
    """Highest percentile with at least TAIL_BEYOND samples beyond it; None
    unless that percentile is above the median."""
    n = len(durations)
    if n <= 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return {
        "value": sorted(durations)[k - 1],
        "unit": "s",
        "percentile": 100.0 * k / n,
        "samples": n,
        "beyond": TAIL_BEYOND,
    }


def select(spec_key: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under spec_key, with their units."""
    spec = json.loads(SPEC.read_text())
    out = {}
    for m in spec[spec_key]:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bentforge" / "__init__.py").is_file():
        print(f"error: no bentforge source under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    cache_env = isolate_environment()
    trace = bool(args.trace) and not args.setup_probe
    wl, tracer, warm_input, setup_s, warmup_s = set_up(args.workload, trace)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_rss = rss_mb()

    import numpy as np  # loaded by bentforge; imported here for the versions record

    rng = random.Random(f"{args.workload}/{args.seed}")
    seen = {warm_input.digest()}
    done, skipped = run_operations(
        wl, rng, args.seconds, wl.trace_ops if trace else None, tracer, seen
    )
    peak_rss = rss_mb()
    if tracer:
        tracer.uninstall()
    failures = check_all(wl, done)
    durations = [d for *_, d in done]

    setup_samples = [setup_s]
    if not trace:
        setup_samples += [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    op_p50 = statistics.median(durations)
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        values = tracer.summary(len(done))
        values.update({
            "mem.setup_rss_mb": setup_rss,
            "psclass.warmup_s": warmup_s if wl.sharp else 0.0,
            "traced.op_p50_s": op_p50,
        })
        metrics = select("per_layer", values)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_s": op_p50,
            "ops_per_s": len(done) / sum(durations),
            "peak_rss_mb": peak_rss,
        }
        metrics = select("end_to_end", values)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(trace),
        "ops": len(done),
        "busy_s": sum(durations),
        "op_tail_s": tail(durations),
        "failed_ratio": len(failures) / len(done),
        "failures": failures[:5],
        "setup_samples_s": setup_samples,
        "isolation": {
            "BENTFORGE_CACHE_DIR": cache_env,
            "resume_path": None,
            "duplicate_inputs_skipped": skipped,
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        },
    }
    if trace:
        detail["all_spans"] = values
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
