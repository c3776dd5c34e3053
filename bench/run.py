"""Benchmark of the minitwistor CLI: one workload per run, outputs checked.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze-mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --selftest                   # tracer and oracle self-test

With --trace 0 a run reports the end-to-end metrics, with --trace 1 the
per-layer ones (call counts, self times, sizes and the tracing overhead).
The workload runs in one fresh child interpreter (bench/worker.py), which
also times the set-up: a fresh interpreter doing ``import minitwistor.cli``.
The last stdout line is the JSON result; the line before it records the
environment, the stdout sha256, the failures by kind and the latencies as
measured (see bench/NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def run_worker(extra: list[str], deadline: float) -> dict:
    """The report a worker prints last; its exit status is checked by the caller
    through the report (the self-test exits 1 with a report when it fails)."""
    command = [sys.executable, str(BENCH / "worker.py"), *extra]
    done = subprocess.run(command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise subprocess.SubprocessError(f"worker exited {done.returncode} without a report")
    return json.loads(lines[-1])


def run_one(workload: str, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    report = run_worker(["--workload", workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    units = metric_units(args.trace)
    restored = report.pop("tracer_restored", True)
    metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    info = {key: report[key] for key in report if key not in ("metrics", "attempted", "failed")}
    info.update(workload=workload, env=environment(args))
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": report["failed"] == 0 and restored,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required unless --selftest is given")
    if not (SRC / "minitwistor" / "cli.py").is_file():
        print(f"error: no minitwistor sources under {SRC}", file=sys.stderr)
        return 1
    try:
        if args.selftest:
            report = run_worker(["--selftest"], time.monotonic() + DEADLINE_S)
            print(json.dumps(report, indent=1))
            return 0 if report["selftest"] == "pass" else 1
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_one(name, args) for name in names]
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{metric}": entry for name, r in zip(names, results)
                        for metric, entry in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
