"""Benchmark worker: runs one workload in this process and prints one JSON report.

run.py starts it in a fresh interpreter for every run, so imports and the
enumeration memo start cold, as for a CLI user, and ru_maxrss belongs to the
run.  Requests go through ``minitwistor.cli.main(argv)`` one at a time (one
client, closed loop) with stdout and stderr captured; the worker's own stdout
carries only the report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SETUP_SAMPLES = 21


def time_setup() -> float:
    """Wall time of a fresh interpreter importing minitwistor.cli.  No
    timeout: with one, ``wait`` polls in sleeps of up to 50 ms and the
    timing comes out in 50 ms steps; run.py's deadline bounds the run."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import minitwistor.cli"], check=True)
    return time.perf_counter() - start


def execute(cli, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, escaped exception) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaping exception is a failed request
            code = None
            error = f"{type(exc).__name__}: {exc}"[:200]
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def tail_percentile(samples: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in 0..100)."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100
    low = int(k)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (k - low)


class Runner:
    """Runs whole passes over a workload's requests and checks every output:
    against its oracle on first sight, against the first digest afterwards."""

    def __init__(self, workload: workloads.Workload):
        from minitwistor import catalog, cli

        self.cli = cli
        self.clear_memo = catalog.enumerate_marked.cache_clear
        self.workload = workload
        self.tmp = ROOT / ".bench_tmp" / str(os.getpid())
        self.cache_dir = ""
        self.rounds = 0
        self.digests: dict[int, str] = {}
        self.latencies: list[float] = []
        self.bytes = 0
        self.attempted = 0
        self.expected_exit2 = 0
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}

    def run_pass(self, tracer=None, samples=None, calls=None,
                 deadline: float | None = None, idle=None) -> tuple[float, str, int]:
        """(work seconds, sha256 of the pass's stdout, stdout bytes).  With a
        tracer, each request's self time per function goes to ``samples`` and
        its call counts are added to ``calls``.  The pass stops early once
        ``time.perf_counter()`` passes ``deadline``; ``idle`` is called
        before each request, outside the timed region."""
        work = 0.0
        stream = hashlib.sha256()
        size = 0
        try:
            for index, request in enumerate(self.workload.requests):
                if deadline is not None and time.perf_counter() > deadline:
                    break
                if idle is not None:
                    idle()
                if request.fresh:
                    self.clear_memo()
                    self.rounds += 1
                    self.cache_dir = str(self.tmp / f"cache{self.rounds}")
                argv = [arg.replace("{cache_dir}", self.cache_dir) for arg in request.argv]
                if tracer is not None:
                    tracer.begin(self.attempted)
                elapsed, code, out, error = execute(self.cli, argv)
                if samples is not None:
                    for name, ns in tracer.self_ns.items():
                        samples[name].append(ns)
                if calls is not None:
                    calls.update(tracer.calls)
                data = out.encode()
                stream.update(data)
                size += len(data)
                work += elapsed
                self._record(index, request, elapsed, code, out, data, error)
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.tmp.parent.rmdir()  # only when no other run is using it
        return work, stream.hexdigest(), size

    def _record(self, index, request, elapsed, code, out, data, error) -> None:
        self.attempted += 1
        self.latencies.append(elapsed)
        self.bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        kind = message = None
        if error is not None:
            kind, message = "exception", error
        elif code != request.expect_exit:
            kind, message = "exit_mismatch", f"exit {code}, expected {request.expect_exit}"
        elif index not in self.digests:
            try:
                request.check(out)
            except Exception as exc:  # any oracle failure, parse errors included
                kind, message = "check_mismatch", f"{type(exc).__name__}: {exc}"[:200]
            self.digests[index] = digest
        elif self.digests[index] != digest:
            kind, message = "check_mismatch", "stdout differs from the first pass"
        if kind is None:
            self.expected_exit2 += request.expect_exit == 2
        else:
            self.failures[kind] += 1
            self.examples.setdefault(kind, f"{request.label}: {message}")

    def summary(self) -> dict:
        failed = sum(self.failures.values())
        return {
            "attempted": self.attempted,
            "failed": failed,
            "failures": {
                "exit2_expected_and_got": self.expected_exit2,
                "exception": self.failures["exception"],
                "check_mismatch": self.failures["check_mismatch"],
                "exit_mismatch": self.failures["exit_mismatch"],
                "examples": self.examples,
            },
        }


def run_plain(runner: Runner, seconds: float) -> dict:
    """Passes until ``seconds`` of wall time have gone, at least MIN_PASSES
    whole ones.  ``setup_s`` is the fastest of SETUP_SAMPLES set-up timings
    taken between requests, outside the work time.

    The timing metrics use each request's fastest repeat, and set-up its
    fastest sample: other tenants of a shared machine only ever slow the
    program down, so the fastest of several repeats tracks the program's own
    cost far more steadily than the mean or the median.  Latencies as
    measured, slow repeats included, go to the info line with the tail
    percentile of this run's sample count (none when it is too small)."""
    time_setup()  # writes the bytecode cache
    setup: list[float] = []
    start = time.perf_counter()

    def sample_setup() -> None:
        # set-up samples spread evenly over the run, so they see the same
        # machine as the requests
        if len(setup) < SETUP_SAMPLES and time.perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(time_setup())

    stream = None
    for _ in range(MIN_PASSES):
        _, digest, pass_bytes = runner.run_pass(idle=sample_setup)
        stream = stream or digest
    while time.perf_counter() - start < seconds:
        runner.run_pass(deadline=start + seconds, idle=sample_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup())
    lat = runner.latencies
    size = len(runner.workload.requests)
    fastest = [min(lat[i::size]) for i in range(size)]
    as_measured = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "samples": len(lat),
    }
    tail_p = tail_percentile(len(lat))
    if tail_p is not None:
        tail = percentile(lat, tail_p)
        as_measured.update(latency_tail_ms=tail * 1e3, tail_percentile=tail_p,
                           beyond_tail=sum(x > tail for x in lat))
    report = runner.summary()
    report.update(
        passes=len(lat) / size,
        stdout_sha256=stream,
        as_measured=as_measured,
        metrics={
            "setup_s": min(setup),
            "ops_per_s": size / sum(fastest),
            "latency_p50_ms": statistics.median(fastest) * 1e3,
            "output_mb_per_s": pass_bytes / 1e6 / sum(fastest),
            "ok_ratio": 1 - report["failed"] / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    )
    return report


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """A checking pass, then pairs of a traced and an untraced pass while
    another pair fits in ``seconds``; per-layer metrics from the traced
    passes, overhead from the pair totals."""
    start = time.perf_counter()
    _, stream, _ = runner.run_pass()
    tracer = tracing.Tracer()
    before = tracer.snapshot()
    samples: defaultdict = defaultdict(list)
    traced = untraced = 0.0
    first = None
    pair = 0.0  # wall time of the last traced + untraced pair
    while first is None or time.perf_counter() - start + pair < seconds:
        pair_start = time.perf_counter()
        tracer.spans = [] if first is None else None
        calls = Counter() if first is None else None
        tracer.install()
        try:
            elapsed, _, size = runner.run_pass(tracer, samples, calls)
        finally:
            tracer.uninstall()
        traced += elapsed
        if first is None:
            first = {"calls": calls, "sizes": dict(tracer.sizes), "bytes": size,
                     "spans": tracer.spans}
        untraced += runner.run_pass()[0]
        pair = time.perf_counter() - pair_start
    restored = tracer.snapshot() == before
    requests = len(runner.workload.requests)
    metrics = {}
    for name in tracing.TARGETS:
        metrics[f"{name}.calls"] = first["calls"][name] / requests
        metrics[f"{name}.self_ms"] = statistics.median(samples[name]) / 1e6 if samples[name] else 0.0
    metrics.update(first["sizes"])
    metrics["render.output_bytes"] = first["bytes"] / requests
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as handle:
        for span in first["spans"]:
            handle.write(json.dumps(span) + "\n")
    report = runner.summary()
    report.update(stdout_sha256=stream, tracer_restored=restored,
                  spans_file=str(spans_path.relative_to(ROOT)), metrics=metrics)
    return report


def selftest(seeds=(0, 1)) -> dict:
    """On each workload at a tiny size: stdout bytes are identical with tracing
    on and off, every output passes its oracle, and every rebound function is
    restored.  Also reports the known huge-rational rendering defect."""
    from minitwistor import cli

    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        for seed in seeds:
            runner = Runner(workloads.build(name, seed, tiny=True))
            _, plain, size = runner.run_pass()
            tracer = tracing.Tracer()
            before = tracer.snapshot()
            tracer.install()
            try:
                _, traced, _ = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            restored = tracer.snapshot() == before
            summary = runner.summary()
            passed = plain == traced and restored and summary["failed"] == 0
            ok = ok and passed
            results[f"{name}/seed{seed}"] = {
                "passed": passed, "identical_stdout": plain == traced, "restored": restored,
                "requests": summary["attempted"], "failed": summary["failed"],
                "stdout_bytes": size, "failures": summary["failures"],
            }
    # ROADMAP item 5a: coefficients past CPython's int-to-str limit
    big = ",".join(str(10**1999 + i) for i in range(3))
    _, code, _, error = execute(cli, ["equation", "--seq", "1,2,5,3,1", "--lambda", f"0,1,{big},inf"])
    defect = {"argv": "equation --seq 1,2,5,3,1 --lambda 0,1,<3 x 2000 digits>,inf",
              "exit": code, "exception": error,
              "status": "reproduced" if error is not None or code not in (0, 2, 3) else "not reproduced"}
    return {"selftest": "pass" if ok else "fail", "workloads": results,
            "known_defects": {"item-5a huge rational": defect}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    import minitwistor

    if not Path(minitwistor.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {minitwistor.__file__}, not the checkout's src/", file=sys.stderr)
        return 1
    if args.selftest:
        report = selftest()
        print(json.dumps(report))
        return 0 if report["selftest"] == "pass" else 1
    workload = workloads.build(args.workload, args.seed)
    runner = Runner(workload)
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        report = run_traced(runner, args.seconds, spans)
    else:
        report = run_plain(runner, args.seconds)
    report["params"] = workload.params
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
