"""lamosim benchmark: host time and memory of CLI runs, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
One run of the benchmark:

1. writes the seed's inputs (see workloads.py);
2. times the set-up probe (probe.py) in fresh interpreters and keeps the
   median as `setup_s`;
3. runs the workload's CLI command as a fresh `python -m lamosim` process,
   one after another (a closed loop of one client), while the next run is
   expected to end within S seconds (at least one run), and checks every
   run's simulated outputs;
4. with --trace 1, runs the same command once more in-process under
   tracer.py for the per-layer metrics.

All times are host time. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `wall_s` and `cpu_s` are the
mean over the runs of step 3, i.e. the window's total divided by its runs:
what each call costs a user who runs the command over and over, as in a
design sweep. `peak_rss_mb` is their median. A run fails when it exits
non-zero, breaks an invariant, or, for a seed in reference.json, does not
reproduce the recorded outputs exactly.

`wall_s`, `cpu_s` and `setup_s` are scaled to a reference host speed. On a
shared host the speed of each core drifts by up to half, over seconds to
minutes and independently of the other cores, which moves every time alike.
So while the probes and the CLI runs go on, one thread of this process per
core times a short fixed loop (`calibrate`, no lamosim code) in its own CPU
time every SAMPLE_PERIOD_S, and each phase's times are multiplied by
CALIBRATION_REFERENCE_S over the loop's mean time in that phase: the result
is the time on a host where the loop takes CALIBRATION_REFERENCE_S. A phase
whose processes run one at a time (the probes; the CLI when it starts no
pool) runs on one core together with its sampling thread, so the loop sees
the speed of the core the work runs on. The loop does not depend on the
program, so a change to lamosim moves these times as it moves the raw ones;
the report prints both.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import BENCH_DIR, WORKLOADS, Workload, check_run, cli_argv, \
    simulated_outputs, write_inputs

SETUP_REPEATS = 11
REFERENCE_FILE = BENCH_DIR / "reference.json"

# What the calibration loop takes, typically, on the 2-core Xeon (Sapphire
# Rapids) VM the bounds were set on; 7 to 13 ms there as its load varies.
CALIBRATION_REFERENCE_S = 0.01
# One loop every 0.25 s takes about 4% of one core from the measured process.
SAMPLE_PERIOD_S = 0.25

# Metric names and units, as BENCHMARK.json lists them.
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class BenchError(Exception):
    """The benchmark itself cannot run or its trace lost a layer."""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("LAMOSIM_CONFIG_DIR", None)  # configs are passed as explicit paths
    return env


def run_process(argv: list[str], env: dict, cwd: Path,
                log: Path) -> tuple[int, float, float, float]:
    """(exit code, wall s, user+sys s of the tree, largest peak RSS in MB).

    os.wait4 reports the child together with the descendants it waited for,
    so pool workers count in the CPU time and the peak RSS. The child gets its
    own process group, so an interrupted benchmark stops its workers too.
    """
    with open(log, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=f, stderr=subprocess.STDOUT, env=env,
                                cwd=cwd, start_new_session=True)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def calibrate() -> float:
    """CPU seconds this thread takes now for a fixed pure-Python loop."""
    t0 = time.thread_time()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.thread_time() - t0


class SpeedSampler:
    """While in the `with` block, runs `calibrate` every SAMPLE_PERIOD_S on each
    core this thread may use, one sampling thread per core; `speed` is then
    CALIBRATION_REFERENCE_S over the mean loop time."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        cores = sorted(os.sched_getaffinity(0))
        # staggered, so that the threads do not wait for each other's GIL
        self._threads = [
            threading.Thread(target=self._sample, daemon=True,
                             args=(core, i * SAMPLE_PERIOD_S / len(cores)))
            for i, core in enumerate(cores)]

    def _sample(self, core: int, delay: float):
        os.sched_setaffinity(0, {core})
        if delay and self._stop.wait(delay):
            return
        self.samples.append(calibrate())
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(calibrate())

    def __enter__(self) -> "SpeedSampler":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    @property
    def speed(self) -> float:
        return CALIBRATION_REFERENCE_S / statistics.fmean(self.samples)


@contextlib.contextmanager
def one_core(enabled: bool = True):
    """Keep this thread, and the threads and processes it starts, on one core."""
    cores = os.sched_getaffinity(0)
    if enabled:
        os.sched_setaffinity(0, {max(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fresh_inputs(wl: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return write_inputs(wl, seed, workdir)


def _run_cli(wl: Workload, seed: int, src: Path, inputs: dict[str, Path], out: Path,
             log: Path, runner: list[str]) -> tuple[int, float, float, float]:
    """One CLI run writing to `out`; runner is ["-m", "lamosim"] or the tracer."""
    argv = cli_argv(wl, seed, src / "lamosim" / "configs", inputs, out)
    return run_process([sys.executable, *runner, *argv], child_env(src), out.parent, log)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, src: Path,
                 workdir: Path, references: dict) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    inputs = _fresh_inputs(wl, seed, workdir)
    configs = src / "lamosim" / "configs"
    setup = []
    with one_core(), SpeedSampler() as setup_speed:
        for i in range(SETUP_REPEATS):
            rc, wall, _, _ = run_process(
                [sys.executable, str(BENCH_DIR / "probe.py"), str(configs / wl.system),
                 str(configs / wl.model), str(inputs["trace"])],
                child_env(src), workdir, workdir / f"probe{i}.log")
            if rc != 0:
                raise BenchError(f"set-up probe exited {rc}; see {workdir / f'probe{i}.log'}")
            setup.append(wall)

    reference = references.get(wl.name, {}).get(str(seed))
    runs: list[tuple[float, float, float]] = []
    problems: list[list[str]] = []
    t_start = time.perf_counter()
    with one_core(wl.jobs == 1), SpeedSampler() as run_speed:
        while True:
            out = workdir / f"out{len(runs)}"
            rc, wall, cpu, rss = _run_cli(wl, seed, src, inputs, out,
                                          workdir / f"run{len(runs)}.log", ["-m", "lamosim"])
            problems.append(check_run(wl, rc, out, reference))
            runs.append((wall, cpu, rss))
            shutil.rmtree(out, ignore_errors=True)
            # stop before a run that would likely end after the measuring window
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(r[0] for r in runs) > seconds:
                break

    walls = [r[0] for r in runs]
    raw = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(r[1] for r in runs),
        "setup_s": statistics.median(setup),
    }
    speed = {"runs": run_speed.speed, "setup": setup_speed.speed}
    metrics = {
        "wall_s": raw["wall_s"] * speed["runs"],
        "cpu_s": raw["cpu_s"] * speed["runs"],
        "peak_rss_mb": statistics.median(r[2] for r in runs),
        "setup_s": raw["setup_s"] * speed["setup"],
    }
    units = END_TO_END
    extra: dict = {"raw": raw, "speed": speed}
    if trace:
        metrics, traced_extra, traced_problems = traced_run(
            wl, seed, src, workdir, inputs, reference, raw["wall_s"])
        extra.update(traced_extra)
        problems.append(traced_problems)
        units = PER_LAYER
    failed = sum(1 for p in problems if p)
    return {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "problems": [p for p in problems if p],
        "runs": walls,
        **extra,
    }


def traced_run(wl: Workload, seed: int, src: Path, workdir: Path, inputs: dict,
               reference: dict | None, untraced_wall_s: float) -> tuple[dict, dict, list]:
    """(per-layer metrics, report extras, output problems) of one run under tracer.py."""
    out, log = workdir / "traced_out", workdir / "traced.log"
    rc, wall, _, _ = _run_cli(
        wl, seed, src, inputs, out, log,
        [str(BENCH_DIR / "tracer.py"), "--spans", str(workdir / "spans"), "--"])
    lines = log.read_text().splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"traced run exited {rc}; see {log}")
    traced = json.loads(lines[-1])
    problems = check_run(wl, traced["returncode"], out, reference)
    silent = [layer for layer in wl.layers if traced["layer_calls"].get(layer, 0) == 0]
    if silent:
        raise BenchError(
            f"{wl.name}: no calls recorded for layer(s) {silent}; a traced function "
            "was renamed or is no longer reached (update SPANS in tracer.py)")
    metrics = dict(traced["metrics"])
    metrics["cli.output_bytes"] = _tree_bytes(out) if out.exists() else 0
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall_s
    shutil.rmtree(out, ignore_errors=True)
    extra = {"designs": traced["designs"], "binding_sites": traced["binding_sites"]}
    return metrics, extra, problems


def record_reference(wl: Workload, seed: int, src: Path, workdir: Path) -> None:
    """Run once and store the seed's simulated outputs in reference.json."""
    inputs = _fresh_inputs(wl, seed, workdir)
    out = workdir / "out"
    rc, _, _, _ = _run_cli(wl, seed, src, inputs, out, workdir / "record.log",
                           ["-m", "lamosim"])
    problems = check_run(wl, rc, out, None)
    if problems:
        raise BenchError(f"cannot record a failing run: {problems}")
    refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    refs.setdefault(wl.name, {})[str(seed)] = simulated_outputs(wl, out)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def dominant_layer(metrics: dict) -> str:
    layers = {k[len("layer."):-len("_self_s")]: v for k, v in metrics.items()
              if k.startswith("layer.")}
    return max(layers, key=layers.get)


def print_report(wl: Workload, seed: int, result: dict) -> None:
    m = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"workload {wl.name}, seed {seed}: {len(result['runs'])} timed run(s), "
          f"wall {', '.join(f'{w:.3f}' for w in result['runs'])} s")
    print("  unscaled: " + ", ".join(f"{k} {v:.4g} s" for k, v in result["raw"].items())
          + "; host speed vs reference: "
          + ", ".join(f"{k} {v:.3f}" for k, v in result["speed"].items()))
    for name, v in result["metrics"].items():
        print(f"  {name:40s} {v['value']:>14.6g} {v['unit']}")
    print(f"  {'fail_ratio':40s} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']}/{result['attempted']} runs failed)")
    for p in result["problems"]:
        print(f"  failure: {'; '.join(p)}")
    if "designs" in result:
        print(f"  dominant layer: {dominant_layer(m)}; "
              f"{result['binding_sites']} binding sites wrapped")
        print(f"  parent spans' self times cover "
              f"{m['trace.main_wall_s'] - m['trace.unattributed_s']:.3f} s of "
              f"{m['trace.main_wall_s']:.3f} s in main(); traced process "
              f"{m['trace.wall_s']:.3f} s, untraced mean "
              f"{m['trace.wall_s'] - m['trace.overhead_s']:.3f} s")
        for design, spans in result["designs"].items():
            top = ", ".join(f"{k} {v:.2f} s" for k, v in sorted(
                spans.items(), key=lambda kv: -kv[1])[:4])
            print(f"  design {design}: {top}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="lamosim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                    help="measuring window for the timed CLI runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--src", type=Path, default=BENCH_DIR.parent / "src",
                    help="source tree to benchmark (default: this checkout's src)")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs as its reference instead of timing")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "lamosim" / "__init__.py").is_file():
        print(f"error: no lamosim package under {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = BENCH_DIR.parent / ".bench_work" / f"{wl.name}-seed{args.seed}"
    try:
        if args.record:
            record_reference(wl, args.seed, src, workdir)
            print(f"recorded reference outputs for {wl.name} seed {args.seed}")
            return 0
        refs = json.loads(REFERENCE_FILE.read_text())
        result = run_workload(wl, args.seed, args.seconds, bool(args.trace), src,
                              workdir, refs)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_report(wl, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stop children on the way out
    sys.exit(main())
