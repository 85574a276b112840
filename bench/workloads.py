"""Benchmark workloads: what each one runs, the inputs it derives from a seed,
and how its outputs are checked.

Each workload is one lamosim CLI command, run as a fresh process so the
dataflow memos start empty, as on every real call. Both use the reference
system; they differ in which layer does the work:

    decode-reason-thermal  one request of ~1.1k output tokens on the mid model
                           under thermal coupling: the memo is hit-heavy, the
                           event loop runs tens of thousands of decode stage
                           executions per round, and round 2 re-searches at
                           the new temperature.
    dse-system             a two-design system search on the tiny model, on a
                           process pool of 2 plus the parent's re-check of the
                           winner; every design runs search_plan, with TP
                           grouping on a 64-PE decode pool. The tiny model's
                           GEMMs are cheap to search, so mapping dominates.

Each run takes 5 to 8 s on a 2-core machine, so a 60 s measuring window holds
eight to twelve runs. A third, prefill-only workload (distinct ~2k-token prompts,
nearly every GEMM a memo miss) is left out: on a shared 2-core machine its time
broke a 0.25 spread across seeds in two of three sets of ten, and dataflow
searches already dominate decode-reason-thermal.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

BENCH_DIR = Path(__file__).resolve().parent

# (mean input tokens, mean output tokens) per trace family and the lognormal
# sigma, as lamosim's trace synthesizer defines them.
FAMILY_MEANS = {"code": (2071, 25), "reason": (1473, 1293)}
LEN_SIGMA = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "simulate" or "dse"
    system: str             # config file name in the package's configs
    model: str
    family: str             # key of FAMILY_MEANS
    n: int                  # requests in the trace
    rate: float             # mean arrival rate, requests per simulated second
    plan: dict | None = None         # explicit {"prefill": {tp, pp}, "decode": ...}
    thermal: bool = False
    counts: tuple[str, ...] = ()     # dse pool sizes, "N_PC,N_DC"
    budget: int = 0
    jobs: int = 1
    layers: tuple[str, ...] = ()     # layers the traced run must see called


REF_PLAN = json.loads((BENCH_DIR / "plan.json").read_text())

_SIM_LAYERS = ("cli", "hwspec", "dataflow", "mapping", "serving")

WORKLOADS = {
    w.name: w for w in (
        Workload("decode-reason-thermal", "simulate", "system_ref.json",
                 "model_mid.json", "reason", n=1, rate=0.2, plan=REF_PLAN,
                 thermal=True, layers=_SIM_LAYERS + ("thermal",)),
        Workload("dse-system", "dse", "system_ref.json", "model_tiny.json",
                 "code", n=2, rate=0.5, counts=("1,2", "1,1"), budget=3, jobs=2,
                 layers=_SIM_LAYERS + ("thermal", "dse")),
    )
}


def make_trace(wl: Workload, seed: int) -> list[tuple[int, float, int, int]]:
    """(rid, arrival_s, input_len, output_len) rows for one seed."""
    rng = random.Random(seed)
    mean_in, mean_out = FAMILY_MEANS[wl.family]

    def lengths(mean: float) -> list[int]:
        mu = math.log(mean) - LEN_SIGMA ** 2 / 2
        qs = [NormalDist().inv_cdf((i + 0.5) / wl.n) for i in range(wl.n)]
        vals = [max(1, round(math.exp(mu + LEN_SIGMA * z))) for z in qs]
        rng.shuffle(vals)
        return vals

    t = 0.0
    arrivals = []
    for _ in range(wl.n):
        t += rng.expovariate(wl.rate)
        arrivals.append(t)
    ins, outs = lengths(mean_in), lengths(mean_out)
    return [(i, arrivals[i], ins[i], outs[i]) for i in range(wl.n)]


def write_inputs(wl: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the seed's trace CSV (and the plan, if any) into workdir."""
    paths = {"trace": workdir / "trace.csv"}
    with open(paths["trace"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rid", "arrival_s", "input_len", "output_len"])
        for rid, arr, n_in, n_out in make_trace(wl, seed):
            w.writerow([rid, repr(arr), n_in, n_out])
    if wl.plan is not None:
        paths["plan"] = workdir / "plan.json"
        paths["plan"].write_text(json.dumps(wl.plan))
    return paths


def cli_argv(wl: Workload, seed: int, configs: Path, inputs: dict[str, Path],
             out: Path) -> list[str]:
    """Arguments to `python -m lamosim` for one run."""
    common = ["--system", str(configs / wl.system), "--model", str(configs / wl.model),
              "--trace", str(inputs["trace"]), "--seed", str(seed), "--out", str(out)]
    if wl.command == "simulate":
        argv = ["simulate", *common, "--plan", str(inputs["plan"])]
        return argv + ["--thermal"] if wl.thermal else argv
    argv = ["dse", "--level", "system", *common, "--budget", str(wl.budget),
            "--jobs", str(wl.jobs)]
    for c in wl.counts:
        argv += ["--counts", c]
    return argv


# --- correctness ------------------------------------------------------------------


def simulated_outputs(wl: Workload, out: Path) -> dict:
    """The simulated results a run must reproduce exactly.

    simulate: the serving, plan and thermal blocks of metrics.json.
    dse: best.json and the rows of ranking.csv.
    result_digest is not used: it also covers files (such as activity.csv)
    that may leave the default outputs while the simulated statistics stay.
    """
    if wl.command == "simulate":
        m = json.loads((out / "metrics.json").read_text())
        return {k: m[k] for k in ("serving", "plan", "thermal")}
    with open(out / "ranking.csv", newline="") as f:
        rows = list(csv.reader(f))
    return {"best": json.loads((out / "best.json").read_text()), "ranking": rows}


def check_run(wl: Workload, returncode: int, out: Path,
              reference: dict | None) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    Every seed is checked for the invariants; a seed with recorded reference
    outputs is also compared against them exactly, since the model is
    deterministic.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        got = simulated_outputs(wl, out)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable outputs: {e}"]
    problems = []
    if wl.command == "simulate":
        m = json.loads((out / "metrics.json").read_text())
        if m["roofline_violations"] != 0:
            problems.append(f"{m['roofline_violations']} roofline violations")
        if got["serving"]["requests"] != wl.n:
            problems.append(f"{got['serving']['requests']} requests, expected {wl.n}")
        with open(out / "requests.csv", newline="") as f:
            bad = [r["rid"] for r in csv.DictReader(f)
                   if float(r["e2e_s"]) < float(r["ttft_s"])]
        if bad:
            problems.append(f"e2e < ttft for requests {bad[:5]}")
    else:
        if got["best"].get("recheck_ok") is not True:
            problems.append("recheck_ok is not true")
        if len(got["ranking"]) < 2:
            problems.append("ranking.csv has no designs")
    if reference is not None:
        for key in sorted(reference):
            if got.get(key) != reference[key]:
                problems.append(f"{key} differs from the recorded reference")
    return problems
