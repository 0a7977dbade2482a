"""eklc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {compile,run_rational,run_float}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout holding `src/eklc` and `corpus/`. It
draws the workload's inputs from the seed, computes reference outputs,
then runs whole jobs back to back for S seconds in this one process (a
closed loop with one client) and checks every output. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
# Fresh interpreters timed for setup_s, spread over the run so that their
# median does not hang on the machine's speed in one short window.
SETUP_PROBES = 11


def probe_setup(job_file: str) -> float:
    """Wall time of a fresh interpreter that imports eklc.cli and runs the
    warm-up job listed in `job_file`."""
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms, which
    # rounds every probe up to the next step. A hang would show first in
    # the in-process warm-up job, which runs before any probe.
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "probe.py"), job_file],
        cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_jobs(ops, checker, seconds: float, tracer=None, job_file=None):
    """Whole jobs back to back for `seconds` of job time.

    Without a tracer every job goes through the CLI as it is. With one,
    every other job runs with each layer call in a span, so both kinds
    see the same machine state. With a `job_file`, SETUP_PROBES set-up
    probes run between jobs at even steps of job time; their time is not
    job time. Returns the untraced job times, the traced ones by job id
    (both in ms) and the probe times (in s)."""
    from workloads import call_cli

    untraced: list[float] = []
    traced: dict[int, float] = {}
    setup: list[float] = []
    job = 0
    start = time.perf_counter()

    def job_time() -> float:
        return time.perf_counter() - start - sum(setup)

    while job < 2 or job_time() < seconds:
        if job_file and len(setup) < SETUP_PROBES and job_time() >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe_setup(job_file))
        gc.collect()  # each job starts from the heap state of a fresh CLI process
        if tracer is not None and job % 2:
            tracer.job = job
            begin = time.perf_counter()
            results = tracer.run_job(ops)
            traced[job] = (time.perf_counter() - begin) * 1e3
        else:
            begin = time.perf_counter()
            results = [call_cli(op.argv()) for op in ops]
            untraced.append((time.perf_counter() - begin) * 1e3)
        checker.check_job(results)
        job += 1
    while job_file and len(setup) < SETUP_PROBES:
        setup.append(probe_setup(job_file))
    return untraced, traced, setup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compile", "run_rational", "run_float"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not (
        os.path.isfile(os.path.join(src, "eklc", "cli.py"))
        and os.path.isdir(os.path.join(ROOT, "corpus", "invalid"))
    ):
        print(f"bench: {ROOT} holds no eklc sources and corpus", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import eklc
    import tracing
    import workloads

    if not os.path.abspath(eklc.__file__).startswith(src + os.sep):
        print(f"bench: imported eklc from {eklc.__file__}, not {src}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checker = workloads.Checker(ops)
        job_file = None
        if not args.trace:
            job_file = os.path.join(workdir, "warmup.json")
            with open(job_file, "w") as f:
                json.dump([op.argv() for op in ops], f)
        for op in ops:  # untimed warm-up
            workloads.call_cli(op.argv())
        counts = tracing.count_job(ops) if args.trace else None
        gc.collect()
        gc.freeze()  # keep the references out of every later collection
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, setup = run_jobs(ops, checker, args.seconds, tracer, job_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{name}.json"))
        values = tracing.layer_metrics(tracer, traced, untraced, counts)
    else:
        if len(untraced) < 100:
            print(f"bench: only {len(untraced)} jobs; job_ms_p90 has fewer than "
                  "ten beyond it", file=sys.stderr)
        values = {
            "job_ms_p50": (statistics.median(untraced), "ms"),
            "job_ms_p90": (statistics.quantiles(untraced, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    for error in checker.errors:
        print(f"bench: incorrect: {error}", file=sys.stderr)
    print(f"bench: {len(untraced)} untraced and {len(traced)} traced jobs of "
          f"{len(ops)} operations", file=sys.stderr)
    if setup:
        print("bench: set-up probes (s): " + " ".join(f"{t:.3f}" for t in setup), file=sys.stderr)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    with open(os.path.join(OUT, f"result-{name}.json"), "w") as f:
        json.dump(result, f, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
