#!/usr/bin/env python3
"""Run every workload once and print its metrics by name, with units.

    python3 bench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh process through ``run.py``.  The exit
code is 0 only if every run succeeded and reported ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=120 + 10 * args.seconds,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failures={record['record']['failures']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:26s} {value['value']:.6g} {value['unit']}")
        raw = record["record"]["raw"]
        print(f"  raw wall clock: stream {raw['stream_s']:.3f} s, p50 {raw['job_p50_ms']:.3f} ms, "
              f"p99 {raw['job_p99_ms']:.3f} ms; reference loop "
              f"{record['record']['machine.calib_ms']:.4f} ms")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
