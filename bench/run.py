"""Benchmark entry point for defosc: one workload, one seed, one JSON verdict line.

    python3 bench/run.py --workload certify-dense --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Steps:

1. check the oracles on known values (exit 3 if one is off);
2. draw the workload's round of inputs from ``--seed`` and compute every
   reference with mpmath;
3. run the timed loop in one fresh, single-threaded worker process
   (closed loop, one client) for ``--seconds`` and at least ``MIN_OPS`` timed
   ops (an op that ends in its slot's known defect is attempted, not timed);
4. with ``--trace 0``, take ``SETUP_SAMPLES`` samples of the set-up time:
   the CPU time (user + system) of a cold start, a fresh interpreter that
   imports defosc and builds the specs and weights.  The worker pauses for
   each sample in the middle of one of equal slices of the loop, so the
   samples span the whole run; a sample is the best of ``STARTS_PER_SAMPLE``
   starts in a row, which drops starts slowed by other processes.
   ``setup_s`` is the median sample;
5. with ``--trace 1``, the worker runs the loop untraced and then traced,
   and writes the spans next to the job file.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A human-readable summary, with sample counts and every input whose outcome
was not the reference one, goes to stderr and to ``bench/_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_SAMPLES = 11
STARTS_PER_SAMPLE = 3
RUN_LIMIT_S = 170.0

# One thread for BLAS and OpenMP in every process the benchmark starts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


class RunError(Exception):
    pass


def on_alarm(signum, frame):
    raise RunError(f"run did not end within {RUN_LIMIT_S:.0f} s")


def fail(message: str, code: int) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def machine() -> dict:
    return {"nproc": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version(),
            **THREAD_ENV}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "defosc" / "__init__.py").is_file():
        return fail(f"no defosc sources under {ROOT / 'src'}; run from a source checkout", 2)
    sys.path.insert(0, str(HERE))
    import inputs
    import oracles
    from metrics import END_TO_END, LAYERS

    if args.workload not in inputs.WORKLOADS:
        return fail(f"unknown workload {args.workload!r} (known: {', '.join(inputs.WORKLOADS)})", 2)
    problems = oracles.self_check()
    if problems:
        return fail("oracle self-check failed: " + "; ".join(problems), 3)

    t0 = time.perf_counter()
    slots = inputs.make_round(args.workload, args.seed)
    refs = [oracles.reference(slot, 1000) for slot in slots]
    reference_s = time.perf_counter() - t0
    # each loop stops starting rounds after loop_limit_s, so the run ends within RUN_LIMIT_S
    loop_limit = min(args.seconds + 40.0, (RUN_LIMIT_S - 30.0) / (2 if args.trace else 1))
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cap_s": inputs.OP_CAP_S[args.workload], "min_ops": inputs.MIN_OPS, "loop_limit_s": loop_limit,
        "pauses": 0 if args.trace else SETUP_SAMPLES,
        "slots": slots, "refs": refs,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    job_path = OUT / f"{stem}.job.json"
    job_path.write_text(json.dumps(job))

    worker = [sys.executable, str(HERE / "worker.py"), str(job_path)]
    env = worker_env()
    samples, starts = [], []

    def cold_start() -> float:
        """CPU seconds of one cold start; its wall time is kept in ``starts``."""
        t, cpu = time.perf_counter(), children_cpu_s()
        done = subprocess.run(worker + ["--setup"], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RunError(f"setup failed:\n{done.stderr}")
        cpu = children_cpu_s() - cpu
        starts.append({"cpu_s": cpu, "wall_s": time.perf_counter() - t})
        return cpu

    def setup_sample() -> None:
        samples.append(min(cold_start() for _ in range(STARTS_PER_SAMPLE)))

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(RUN_LIMIT_S))
    err_path = OUT / f"{stem}.worker.err"
    try:
        cold_start()  # writes the bytecode caches; not counted
        starts.clear()
        lines = []
        with open(err_path, "w") as err, subprocess.Popen(
                worker, env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True) as proc:
            try:
                # the worker pauses between ops for each cold start of an untraced run
                for line in proc.stdout:
                    if line.strip() != "pause":
                        lines.append(line)
                        continue
                    setup_sample()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not lines:
            raise RunError(f"worker exited with {proc.returncode}:\n{err_path.read_text()}")
        while job["pauses"] and len(samples) < SETUP_SAMPLES:
            setup_sample()
    except RunError as exc:
        return fail(str(exc), 4)
    finally:
        signal.alarm(0)
    result = json.loads(lines[-1])

    counts = result["counts"]
    if args.trace:
        values, units = result["layers"], LAYERS
    else:
        values, units = {"setup_s": statistics.median(samples), **result["metrics"]}, END_TO_END
    metrics = {name: {"value": values[name], "unit": spec[0]} for name, spec in units.items()}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "reference_s": reference_s,
        "setup_samples_s": samples, "setup_starts": starts,
        "ops": result["ops"], "timed_ops": result["timed_ops"], "counts": counts, "loop_wall_s": result["wall_s"],
        "untraced": result["metrics"], "slot_ms": result["slot_ms"], "problems": result["problems"],
        "layers": result.get("layers"), "traced_ops": result.get("traced_ops"),
        "spans_file": result.get("spans_file"),
    }
    (OUT / f"{stem}.result.json").write_text(json.dumps(summary, indent=1))
    setup = (f"; setup_s median of {len(samples)} samples, each the least CPU time of "
             f"{STARTS_PER_SAMPLE} cold starts" if samples else "")
    print(f"{args.workload} seed {args.seed}: {result['ops']} ops "
          f"(ops_per_s, p50 and p90 over {result['timed_ops']} timed ops), {counts['ok']} ok, "
          f"{counts['defect']} known defect, {counts['failed']} failed{setup}", file=sys.stderr)
    for p in result["problems"]:
        print(f"  [{p['verdict']}] x{p['count']} slot {p['slot']} {p['op']}: {p['reason']}; "
              f"input {json.dumps(p['input'])}", file=sys.stderr)

    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": result["ops"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
