"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 bench/compare.py BASE.txt NEW.txt

Each file holds the stdout of bench/run.py runs with --trace 0 (for example
ten seeds per workload, appended with >>).  Runs are paired by workload and
seed.  For every end-to-end metric in BENCHMARK.json and every workload in
the files the table gives each side's median and quartiles, the pairs the new side won
(ties count for neither) and a verdict:

    improved    the new side wins at least nine tenths of the pairs and the
                medians differ, in the better direction, by more than the
                base side's quartile distance;
    worse       the new median is worse than the base median by more than the
                metric's bound;
    unresolved  neither, and the quartile distance of either side is wider than
                the bound, unless every new run reads better than every base run;
    unchanged   otherwise.

It also reports whether the stdout sha256 of each workload and seed is the
same in both sets, which it is when both ran the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> {"metrics": {name: value}, "sha": stdout sha256}."""
    runs = {}
    info = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "env" in record:
            info = record
        elif "metrics" in record and info is not None:
            if not info["env"]["trace"]:
                runs[(info["workload"], info["env"]["seed"])] = {
                    "metrics": {k: v["value"] for k, v in record["metrics"].items()},
                    "sha": info["stdout_sha256"],
                }
            info = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            bound: float, higher: bool) -> tuple[str, int]:
    sign = 1 if higher else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    b1, b_med, b3 = quartiles(base)
    n1, n_med, n3 = quartiles(new)
    gain = sign * (n_med - b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved", wins
    if -gain > bound * abs(b_med):
        return "worse", wins
    spread = max(b3 - b1, n3 - n1)
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound * abs(b_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load_runs(args.base), load_runs(args.new)
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    print(f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'wins':<7} verdict")
    for workload in workloads:
        seeds = sorted({s for w, s in base if w == workload} | {s for w, s in new if w == workload})
        both = [s for s in seeds if (workload, s) in base and (workload, s) in new]
        if not both:
            print(f"{workload:<12} no runs in both sets")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [base[(workload, s)]["metrics"][name] for s in seeds if (workload, s) in base]
            b = [new[(workload, s)]["metrics"][name] for s in seeds if (workload, s) in new]
            pairs = [(base[(workload, s)]["metrics"][name], new[(workload, s)]["metrics"][name])
                     for s in both]
            result, wins = verdict(a, b, pairs, metric["bound"], metric["better"] == "higher")
            base_q, new_q = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (quartiles(a), quartiles(b)))
            print(f"{workload:<12} {name:<16} {base_q:<34} {new_q:<34} "
                  f"{f'{wins}/{len(pairs)}':<7} {result}")
        same = sum(base[(workload, s)]["sha"] == new[(workload, s)]["sha"] for s in both)
        print(f"{workload:<12} stdout sha256 identical for {same} of {len(both)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
