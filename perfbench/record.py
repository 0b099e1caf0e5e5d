"""Run every workload with tracing off and on, and write all results to one JSON file.

    python3 perfbench/record.py --seed 0 --seconds 34 --out BENCH_name.json

Each (workload, trace) pair is one ``run.py`` process, run one after another.
The file holds the environment line, every metric and the printed notes, so
a change can be compared with its parent from two such files made on the
same machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    record = {"seed": args.seed, "seconds": args.seconds, "environment": None, "workloads": {}}
    for name in WORKLOADS:
        entry = record["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            record["environment"] = json.loads(lines[0].removeprefix("environment: "))
            entry["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
            entry["notes_trace" if trace else "notes"] = lines[1:-1]
            print(f"{name} trace={trace}: {lines[-1]}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
