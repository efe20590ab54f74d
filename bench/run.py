#!/usr/bin/env python3
"""fig8 benchmark: one seeded stream of CLI jobs, checked and measured.

    python3 bench/run.py --workload surface-words --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports fig8 from ``src/`` there.
Each job runs in this process through ``fig8.cli.main([... "--output",
FILE])``, one after another (a closed loop with one client).  The
program's caches stay warm across jobs, as in one session.

Before every job the benchmark times a fixed pure-Python reference loop,
outside the job's own timing.  A job's cost is its latency divided by the
median reference-loop time around it, so the timing metrics are in
reference loops (``refloops``) and the machine's changing speed cancels.
The raw wall-clock figures are printed in the run record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
stream with every fig8 module wrapped (see ``tracing.py``), prints the
per-layer metrics, and writes the spans to ``bench/out/``.  The last line
of standard output is the result as JSON; the line before it records the
machine, the raw timings, the failure reasons and the checker self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Job, argv_digest, make_stream  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
MIN_JOBS = 1000  # so that at least ten jobs lie beyond job_p99
REF_WINDOW = 7  # a job's reference time is the median of the 2 * 7 + 1 loops around it


class BenchError(Exception):
    """The benchmark cannot run here (no sources, stale goldens, too few jobs)."""


class Program:
    """fig8 imported from this checkout's ``src``."""

    def __init__(self, scratch: str):
        if not os.path.isfile(os.path.join(SRC, "fig8", "__init__.py")):
            raise BenchError(f"no fig8 sources under {SRC}")
        sys.path.insert(0, SRC)
        package = importlib.import_module("fig8")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise BenchError(f"imported fig8 from {package.__file__}, not from {SRC}")
        self.modules = {name: importlib.import_module(f"fig8.{name}") for name in LAYERS}
        self.modules["fig8"] = package
        self.cli = self.modules["cli"]
        self.scratch = os.path.join(scratch, "check-artifact")

    def run_quiet(self, argv: list[str]) -> tuple[bool, str]:
        """Run one job outside the timed region; (answered, artifact text)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.scratch)
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(["--output", self.scratch, *argv])
        if code not in (0, 1) or not os.path.exists(self.scratch):
            return False, ""
        with open(self.scratch) as fh:
            return True, fh.read()


def load_goldens(workload: str, jobs: list[Job]) -> dict[int, list]:
    """Golden ``[code, sha]`` or ``[None, reason]`` of every job, by job id."""
    with open(os.path.join(BENCH, "goldens", f"{workload}.json")) as fh:
        table = json.load(fh)["strata"]
    goldens = {}
    for job in jobs:
        digest, *golden = table[job.stratum][job.index]
        if digest != argv_digest(list(job.argv)):
            raise BenchError(f"golden of {job.stratum}[{job.index}] is for another job")
        goldens[job.job_id] = golden
    return goldens


def prepare(args, scratch: str) -> tuple[Program, list[Job]]:
    """Import fig8 and generate the job stream."""
    program = Program(scratch)
    jobs = make_stream(WORKLOADS[args.workload], args.seed, args.seconds)
    if len(jobs) < MIN_JOBS:
        raise BenchError(f"{len(jobs)} jobs at --seconds {args.seconds}; "
                         f"job_p99 needs at least {MIN_JOBS}")
    return program, jobs


def setup_time(args, scratch: str) -> float:
    """Import, job generation and golden load in this (fresh) interpreter."""
    start = time.perf_counter()
    _, jobs = prepare(args, scratch)
    load_goldens(args.workload, jobs)
    return time.perf_counter() - start


def self_command(args, *extra: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def run_child(args, *extra: str, timeout: float) -> list[str]:
    """Run this script in a fresh interpreter; its standard output lines."""
    proc = subprocess.run(self_command(args, *extra), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(extra)} child exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()


def fresh_setup_time(args) -> float:
    """Set-up time of a fresh interpreter."""
    return float(run_child(args, "--setup-only", timeout=30 + args.seconds)[-1])


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of small-int, big-int, dict,
    list and string work (about 0.6 ms on a 2-vCPU VM with Python 3.11)."""
    start = time.perf_counter()
    acc = 0
    for i in range(2500):
        acc = (acc * 31 + i) % 1_000_003
    big, table, chars = 3**200, {}, []
    for i in range(300):
        big = ((big * 12345) >> 3) | 1
        table[i & 63] = big & 0xFFFF
        chars.append(str(i)[-1])
    "".join(chars).upper()
    return time.perf_counter() - start


@dataclass
class JobResult:
    job: Job
    code: int | None
    path: str  # where the job was told to write its artifact
    stderr: str
    error: str | None  # exception type name, if cli.main raised
    latency: float  # seconds

    def artifact(self) -> bytes:
        """The bytes the job wrote, or b"" if it wrote nothing."""
        try:
            with open(self.path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""


def run_stream(program: Program, jobs: list[Job], scratch: str, tracer: Tracer | None,
               between=None):
    """Run every job in order, each after one reference loop.

    Returns (results, reference-loop seconds): one loop before every job
    and one after the last.  Each job writes its artifact to a file of its
    own, read only after the stream.  ``between(k)``, if given, is called
    before job ``k`` and its loop, outside any timing.
    """
    folder = tempfile.mkdtemp(prefix="artifacts-", dir=scratch)
    results, refs = [], []
    for k, job in enumerate(jobs):
        if between is not None:
            between(k)
        refs.append(reference_loop())
        path = os.path.join(folder, str(job.job_id))
        stderr = io.StringIO()
        error = None
        if tracer is not None:
            tracer.job = job.job_id
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = program.cli.main(["--output", path, *job.argv])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error in the program is a failed job
            code, error = None, type(exc).__name__
        latency = time.perf_counter() - start
        results.append(JobResult(job, code, path, stderr.getvalue(), error, latency))
    refs.append(reference_loop())
    return results, refs


def job_costs(results: list[JobResult], refs: list[float]) -> list[float]:
    """Each job's latency in reference loops, against the median loop time around it."""
    local = [statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
             for i in range(len(refs))]
    return [r.latency * 2 / (local[i] + local[i + 1]) for i, r in enumerate(results)]


def judge(results: list[JobResult], goldens: dict[int, list], program: Program) -> dict[str, int]:
    """Failure reasons and their counts; every job is judged once."""
    reasons: dict[str, int] = {}
    for r in results:
        reason = checks.verdict(
            goldens[r.job.job_id], r.job.argv, r.code, r.artifact(), r.stderr, r.error, program
        )
        if reason is not None:
            reasons[reason] = reasons.get(reason, 0) + 1
    return dict(sorted(reasons.items()))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def raw_timings(results: list[JobResult]) -> dict:
    """Wall-clock figures, for the run record: they move with the machine's speed."""
    latencies_ms = [r.latency * 1e3 for r in results]
    return {
        "stream_s": sum(latencies_ms) / 1e3,
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p99_ms": percentile(latencies_ms, 99),
    }


def end_to_end(setup_times, costs, failed, peak_rss_mb) -> dict:
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_ref": metric(sum(costs), "refloops"),
        "job_p50_ref": metric(statistics.median(costs), "refloops"),
        "job_p99_ref": metric(percentile(costs, 99), "refloops"),
        "ok_frac": metric((len(costs) - failed) / len(costs), "1"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, results, traced_s, untraced_s, calib_ms) -> dict:
    calls, self_s = tracer.layer_times()
    c = tracer.counters
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(calls[layer], "count")
        out[f"{layer}.self_s"] = metric(self_s[layer], "s")
    selfint = [r for r in results if r.job.argv[0] == "selfint"
               and checks.selfint_trace(r.job.argv[-1]) > 2]
    answered = sum(1 for r in selfint if r.code == 0)

    def share(part, base):
        return part / base if base else 0.0

    out.update({
        "cli.parse_s": metric(tracer.parse_s, "s"),
        "cli.artifact_bytes": metric(sum(len(r.artifact()) for r in results), "bytes"),
        "words.reduce_letters": metric(c["words.reduce_letters"], "count"),
        "sl2.mat_mul": metric(c["sl2.mat_mul"], "count"),
        "sl2.entry_bits_sum": metric(c["sl2.entry_bits_sum"], "bits"),
        "genus2.twist_power_sum": metric(c["genus2.twist_power_sum"], "count"),
        "genus2.witness_letters": metric(c["genus2.witness_letters"], "count"),
        "resfin.primes_tried": metric(c["resfin.primes_tried"], "count"),
        "torus.tree_nodes": metric(c["torus.vieta_flip_calls"], "count"),
        "perms.perm_mul": metric(c["perms.perm_mul"], "count"),
        "perms.char_calls": metric(c["perms.character_calls"], "count"),
        "magnus.series_mul": metric(c["magnus.series_mul"], "count"),
        "lps.bfs_vertices": metric(c["lps.bfs_vertices"], "count"),
        "genus2.certified": metric(c["genus2.certified"], "count"),
        "genus2.nontrivial_share": metric(share(c["genus2.nontrivial"], c["genus2.certified"]), "1"),
        "selfint.accepted": metric(len(selfint), "count"),
        "selfint.answered_share": metric(share(answered, len(selfint)), "1"),
        "covers.decisions": metric(c["covers.decisions"], "count"),
        "covers.unknown_share": metric(share(c["covers.unknown"], c["covers.decisions"]), "1"),
        "trace.wall_s": metric(traced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "machine.calib_ms": metric(calib_ms, "ms"),
    })
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of this interpreter and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return _main(args, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _main(args, scratch: str) -> int:
    if args.setup_only:
        print(setup_time(args, scratch))
        return 0
    program, jobs = prepare(args, scratch)
    setup_times, untraced_s, tracer, between = [], None, None, None
    if args.trace:
        child = json.loads(run_child(args, "--trace", "0", timeout=60 + 4 * args.seconds)[-2])
        untraced_s = child["record"]["raw"]["stream_s"]
        tracer = Tracer(program.modules)
        tracer.install()
    else:
        # Set-ups spread evenly through the stream, so that one slow spell
        # of the machine cannot hold all of them.
        marks = {k * len(jobs) // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}

        def between(k):
            if k in marks:
                setup_times.append(fresh_setup_time(args))
    try:
        results, refs = run_stream(program, jobs, scratch, tracer, between)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    goldens = load_goldens(args.workload, jobs)
    reasons = judge(results, goldens, program)
    failed = sum(reasons.values())
    sample = next(
        ((goldens[r.job.job_id], r.job.argv, r.code, r.artifact())
         for r in results if goldens[r.job.job_id][0] is not None and r.artifact()),
        None,
    )
    self_test = checks.self_test(program, sample)
    unexplained = {k: v for k, v in reasons.items() if not k.startswith("known:")}
    correct = not unexplained and all(self_test.values())
    raw = raw_timings(results)
    calib_ms = statistics.median(refs) * 1e3

    if tracer is None:
        metrics = end_to_end(setup_times, job_costs(results, refs), failed, peak_rss_mb)
    else:
        metrics = per_layer(tracer, results, raw["stream_s"], untraced_s, calib_ms)
        layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        if layer_sum > raw["stream_s"]:
            raise BenchError(f"layer self times {layer_sum:.3f}s exceed "
                             f"traced stream {raw['stream_s']:.3f}s")
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(results),
        "rounds": WORKLOADS[args.workload].rounds(args.seconds),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine.calib_ms": calib_ms,
        "raw": raw,
        "setup_samples_s": setup_times,
        "failures": reasons,
        "self_test": self_test,
        "counters": dict(sorted(tracer.counters.items())) if tracer else None,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
