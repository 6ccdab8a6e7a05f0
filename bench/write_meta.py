"""Render BENCHMARK.json and bench/meta.json through defosc's canonical JSON.

    python3 bench/write_meta.py [--baseline bench/_out/set1.json --baseline bench/_out/set2.json]

``BENCHMARK.json`` holds only the keys the benchmark contract allows;
everything else worth recording (machine, thread settings, the layer map,
the ROADMAP baseline and, with ``--baseline``, the medians and quartiles
of each set of runs that ``compare.py --json`` measured) goes to
``bench/meta.json``.  Both
files are byte-stable for the same inputs.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

from defosc.cli import canonical_json  # noqa: E402
from inputs import MIN_OPS, OP_CAP_S, RADIUS_DEFECT, WORKLOADS, make_round  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, END_TO_END_MEANING, LAYERS, ROADMAP_BASELINE, RUN_SECONDS, WORKLOAD_DETAIL, WORKLOAD_WHY,
)
from run import SETUP_SAMPLES, STARTS_PER_SAMPLE, machine  # noqa: E402


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": spec[0], "better": spec[1]} for name, spec in LAYERS.items()
        ],
    }


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def meta_json(baseline: list | None) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    defect_slots = {
        w: [
            {"family": s["spec"]["family"], "label_fraction_of_R": s["frac"], "expected": s["expect"]}
            for s in make_round(w, 1) if "defect" in s
        ]
        for w in WORKLOADS
    }
    return {
        "machine": {
            **machine(),
            "cpu": cpu_model(),
            "os": f"{platform.system()} {platform.release()}",
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
        "seeds": {
            "rule": "inputs come from random.Random(f'{workload}:{seed}'); run.py takes --seed",
            "baseline_seeds": "set 1: seeds 1-10, set 2: seeds 11-20, per workload",
        },
        "loop": {
            "model": "closed loop, one client, one single-threaded worker process per run",
            "run_seconds": RUN_SECONDS,
            "min_ops": MIN_OPS,
            "op_cap_s": OP_CAP_S,
            "setup_samples": SETUP_SAMPLES,
            "setup_starts_per_sample": STARTS_PER_SAMPLE,
            "setup_measure": "a sample is the least CPU time (user + system, from getrusage(RUSAGE_CHILDREN)) "
                             "of back-to-back cold starts; the worker pauses for each sample in the middle of "
                             "one of equal slices of the loop; setup_s is the median sample",
        },
        "workloads": {w: {"why": WORKLOAD_WHY[w], "detail": WORKLOAD_DETAIL[w],
                          "ops_per_round": len(make_round(w, 1))} for w in WORKLOADS},
        "end_to_end": {
            name: {"unit": unit, "better": better, "bound": bound, "meaning": END_TO_END_MEANING[name]}
            for name, (unit, better, bound) in END_TO_END.items()
        },
        "layer_map": {
            name: {"unit": unit, "better": better, "moves": moves, "on": on, "no_change_predicted_on": off}
            for name, (unit, better, moves, on, off) in LAYERS.items()
        },
        "known_defects": {"rule": RADIUS_DEFECT, "slots": defect_slots},
        "roadmap_baseline": ROADMAP_BASELINE,
        "measured_baseline": baseline,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, action="append",
                        help="JSON written by compare.py --json; repeat for each set of runs")
    args = parser.parse_args()
    baseline = [
        {
            workload: {name: {k: s[k] for k in ("median", "q1", "q3", "spread")} for name, s in report.items()}
            for workload, report in json.loads(path.read_text()).items()
        }
        for path in args.baseline or ()
    ] or None
    (ROOT / "BENCHMARK.json").write_text(canonical_json(benchmark_json()))
    (HERE / "meta.json").write_text(canonical_json(meta_json(baseline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
