"""Repeat the benchmark over seeds: median and spread of every end-to-end metric.

    python3 bench/compare.py --workload radius-hard --runs 10 [--json FILE]

Runs ``bench/run.py`` on seeds ``--first-seed`` .. ``--first-seed + runs - 1``
in the source checkout that holds this file and prints, per metric,
the median and the interquartile range over the median.  ``--json`` writes
the summary that ``write_meta.py --baseline`` records in ``meta.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from metrics import END_TO_END, RUN_SECONDS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed ({done.returncode}):\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        print(f"{workload} seed {seed}: {line['failed']} failed ops\n{done.stderr}", file=sys.stderr)
    return {name: m["value"] for name, m in line["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "values": values}


def over_seeds(workload: str, runs: int, seconds: int, first_seed: int) -> dict:
    rows = [run_once(workload, first_seed + i, seconds) for i in range(runs)]
    out = {}
    for name, (unit, _, bound) in END_TO_END.items():
        s = summary([r[name] for r in rows])
        s["bound"] = bound
        out[name] = s
        print(f"{workload:17s} {name:12s} median {s['median']:.6g} {unit}  "
              f"IQR/median {s['spread']:.4f}  (bound {bound}, a third {bound / 3:.4f})")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    report = {workload: over_seeds(workload, args.runs, args.seconds, args.first_seed)
              for workload in args.workload}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
