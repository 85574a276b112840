"""Self-test of the benchmark harness, end to end on the tiny packaged configs."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

import compare
import run
from workloads import Workload, cli_argv, simulated_outputs, write_inputs

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYERS = ("cli", "hwspec", "dataflow", "mapping", "serving", "thermal")

TINY_SIM = Workload("tiny-simulate", "simulate", "system_small.json", "model_tiny.json",
                    "code", n=3, rate=1.0, thermal=True, layers=_LAYERS,
                    plan={"prefill": {"tp": 2, "pp": 1}, "decode": {"tp": 2, "pp": 2}})
TINY_DSE = Workload("tiny-dse", "dse", "system_small.json", "model_tiny.json",
                    "code", n=2, rate=1.0, counts=("1,1", "2,1"), budget=3, jobs=2,
                    layers=_LAYERS + ("dse",))


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _units(result: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_end_to_end_metrics_have_names_units_and_values(tmp_path):
    res = run.run_workload(TINY_SIM, 3, 0, False, SRC, tmp_path / "w", {})
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 1, 0)
    assert _units(res) == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("wl", [TINY_SIM, TINY_DSE], ids=lambda w: w.name)
def test_traced_run_reports_every_per_layer_metric(wl, tmp_path):
    res = run.run_workload(wl, 3, 0, True, SRC, tmp_path / "w", {})
    assert res["correct"] and res["attempted"] == 2
    assert _units(res) == run.PER_LAYER
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["dataflow.search_calls"] > 0 and m["serving.simulate_calls"] > 0
    assert m["thermal.rounds"] == 2 * max(1, m["dse.designs_evaluated"])
    assert m["trace.unattributed_s"] < 0.05 * m["trace.main_wall_s"]
    if wl is TINY_DSE:
        # two designs in the pool's workers plus the winner's re-check
        assert m["dse.designs_evaluated"] == 3
        assert len(res["designs"]) == 2
        assert 0 < m["dse.parallel_efficiency"] <= 1


def test_speed_sampler_samples_every_core_and_one_core_pins_the_phase(monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_PERIOD_S", 0.02)
    cores = os.sched_getaffinity(0)
    with run.SpeedSampler() as every:
        time.sleep(0.05)
    assert len(every.samples) >= len(cores) and every.speed > 0
    with run.one_core():
        assert len(os.sched_getaffinity(0)) == 1
        with run.SpeedSampler() as one:
            pass
    assert os.sched_getaffinity(0) == cores
    assert len(one.samples) == 1 and one.speed > 0


def test_wrong_reference_value_counts_as_failed_run(tmp_path):
    inputs = write_inputs(TINY_SIM, 5, tmp_path)
    out = tmp_path / "out"
    rc, *_ = run.run_process(
        [run.sys.executable, "-m", "lamosim",
         *cli_argv(TINY_SIM, 5, SRC / "lamosim" / "configs", inputs, out)],
        run.child_env(SRC), tmp_path, tmp_path / "log")
    assert rc == 0
    ref = simulated_outputs(TINY_SIM, out)

    good = run.run_workload(TINY_SIM, 5, 0, False, SRC, tmp_path / "w",
                            {TINY_SIM.name: {"5": ref}})
    assert good["correct"] and good["failed"] == 0

    ref["serving"]["makespan_s"] *= 1 + 1e-12
    bad = run.run_workload(TINY_SIM, 5, 0, False, SRC, tmp_path / "w",
                           {TINY_SIM.name: {"5": ref}})
    assert not bad["correct"] and bad["failed"] == bad["attempted"] == 1
    assert bad["problems"] == [["serving differs from the recorded reference"]]


def test_missing_source_tree_exits_nonzero_without_result(tmp_path, capsys):
    assert run.main(["--workload", "dse-system", "--src", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0, 10.1] * 5, [10.2, 10.0] * 5, "no worse"),
    ([10.0, 10.1] * 5, [13.0] * 10, "worse"),
    ([5.0, 15.0] * 5, [11.0] * 10, "unresolved"),
    ([5.0, 15.0] * 5, [4.0] * 10, "no worse"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, True, 0.1)[0] == expected
