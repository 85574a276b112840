"""Compare a parent commit with a change on the benchmark, in alternating pairs.

    python3 bench/compare.py run --parent DIR --change DIR --out results.jsonl
    python3 bench/compare.py report results.jsonl

`run` benchmarks both checkouts' `src` trees with this benchmark's own code
(run.py --src), so both sides are measured with identical benchmark code and
settings: every workload of BENCHMARK.json, its run_seconds, and 10 pairs.
Pair i uses seed i on both sides, and the side that runs first alternates
from pair to pair. Each result is appended to the JSONL file as it
arrives, so an interrupted comparison keeps its finished pairs.

`report` prints one row per workload and end-to-end metric: each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

    improved    the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's interquartile range
    no worse    the change's median is not worse than the parent's by more
                than the metric's bound, and the parent's spread is within
                the bound (or every change run beat every parent run)
    worse       the change's median is worse by more than the bound
    unresolved  the parent's own spread is wider than the bound

A gain does not count when more runs failed on the change than on the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import BENCHMARK
from workloads import BENCH_DIR

PAIRS = 10
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for paired runs of one metric."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    win_share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if win_share >= 0.9 and sign * (pm - cm) > p3 - p1:
        return "improved", win_share
    if pm == 0:
        return "unresolved", win_share
    if (p3 - p1) / abs(pm) > bound:
        beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
        return ("no worse" if beats_all else "unresolved"), win_share
    worse_by = sign * (cm - pm) / abs(pm)
    return ("worse" if worse_by > bound else "no worse"), win_share


def report(records: list[dict]) -> list[str]:
    """Report lines for results as written by `run`."""
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    # workload -> side -> seed -> result
    table: dict[str, dict[str, dict[int, dict]]] = defaultdict(lambda: defaultdict(dict))
    for r in records:
        table[r["workload"]][r["side"]][r["seed"]] = r["result"]
    lines = []
    for wl in sorted(table):
        seeds = sorted(set(table[wl]["parent"]) & set(table[wl]["change"]))
        if not seeds:
            continue
        failed = {s: sum(table[wl][s][k]["failed"] for k in seeds) for s in SIDES}
        lines.append(f"{wl}: {len(seeds)} pairs; failed runs parent {failed['parent']}, "
                     f"change {failed['change']}")
        lines.append(f"  {'metric':14s} {'parent median [q1, q3]':>30s} "
                     f"{'change median [q1, q3]':>30s} {'wins':>5s}  verdict")
        for name, spec in metrics.items():
            vals = {s: [table[wl][s][k]["metrics"][name]["value"] for k in seeds]
                    for s in SIDES}
            v, wins = verdict(vals["parent"], vals["change"], spec["better"] == "lower",
                              spec["bound"])
            if v == "improved" and failed["change"] > failed["parent"]:
                v = "unresolved"
            cols = []
            for s in SIDES:
                q1, med, q3 = quartiles(vals[s])
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spec['unit']}")
            lines.append(f"  {name:14s} {cols[0]:>30s} {cols[1]:>30s} {wins:5.2f}  {v}")
    return lines


def run_pairs(parent: Path, change: Path, out: Path) -> None:
    seconds = BENCHMARK["run_seconds"]
    for seed in range(PAIRS):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for wl in (w["name"] for w in BENCHMARK["workloads"]):
            for side in order:
                src = (parent if side == "parent" else change) / "src"
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                     "--src", str(src)],
                    capture_output=True, text=True, check=False)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{side} {wl} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
                record = {"workload": wl, "side": side, "seed": seed,
                          "result": json.loads(lines[-1])}
                with open(out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"pair {seed} {wl} {side}: "
                      f"wall {record['result']['metrics']['wall_s']['value']:.3f} s",
                      flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="compare two commits on the benchmark")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="benchmark both checkouts in alternating pairs")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True, help="JSONL results, appended")
    p = sub.add_parser("report", help="print the comparison table")
    p.add_argument("results", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_pairs(args.parent.resolve(), args.change.resolve(), args.out)
        args.results = args.out
    records = [json.loads(line) for line in args.results.read_text().splitlines() if line]
    print("\n".join(report(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
