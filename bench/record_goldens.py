#!/usr/bin/env python3
"""Record the goldens of every pool job: ``python3 bench/record_goldens.py [WORKLOAD ...]``.

Runs each pool entry once through ``fig8.cli.main`` and writes
``bench/goldens/<workload>.json``: per stratum, one ``[argv digest, exit
code, artifact sha256]`` per entry, or ``[argv digest, null, reason]`` for
a job that failed (uncaught exception, rejected hyperbolic selfint word,
failed independent check).  Re-record only on purpose: the goldens pin
the program's outputs at the commit that recorded them.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

import run
from checks import first_failure, sha256
from workloads import WORKLOADS, Job, argv_digest, pool_entry


def record(workload_name: str, scratch: str) -> None:
    workload = WORKLOADS[workload_name]
    program = run.Program(scratch)
    strata = {}
    for stratum in workload.strata:
        jobs = [
            Job(i, stratum.name, i, tuple(pool_entry(workload.name, stratum, i)))
            for i in range(workload.pool(stratum))
        ]
        results, _ = run.run_stream(program, jobs, scratch, tracer=None)
        rows = []
        failures = 0
        codes: dict[int | None, int] = {}
        for r in results:
            artifact = r.artifact()
            reason = first_failure(r.job.argv, r.code, artifact, r.stderr, r.error, program)
            digest = argv_digest(list(r.job.argv))
            if reason is None:
                rows.append([digest, r.code, sha256(artifact)])
            else:
                rows.append([digest, None, reason])
                failures += 1
            codes[r.code] = codes.get(r.code, 0) + 1
        strata[stratum.name] = rows
        latencies = [r.latency * 1e3 for r in results]
        print(f"{workload.name}/{stratum.name}: {len(rows)} jobs, exit codes {codes}, "
              f"{failures} failed; mean {statistics.fmean(latencies):.1f} ms, "
              f"max {max(latencies):.1f} ms", file=sys.stderr)
    path = os.path.join(run.BENCH, "goldens", f"{workload.name}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "strata": strata}, fh, separators=(",", ":"))
        fh.write("\n")


def main(names: list[str]) -> int:
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=run.OUT) as scratch:
        for name in names or sorted(WORKLOADS):
            record(name, scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
