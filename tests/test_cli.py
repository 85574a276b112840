"""CLI contract: exit codes, output-directory layout, manifest digests,
byte-stability across reruns and worker counts, and the documented flag
surface of every subcommand."""

from __future__ import annotations

import argparse
import concurrent.futures
import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lamosim
from lamosim import dataflow
from lamosim.cli import build_parser, main, sub_seed
from lamosim.compute import GemmShape
from lamosim.hwspec import load_system


CONFIGS = Path(lamosim.__file__).parent / "configs"
TRACE = "custom:rate=40:n=14:mean_in=8:mean_out=5"
SMALL = ["--system", "system_small.json", "--model", "model_tiny.json"]


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def recomputed_digest(out: Path) -> str:
    pairs = []
    for p in sorted(out.iterdir()):
        if p.name != "manifest.json":
            pairs.append(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}")
    return hashlib.sha256("\n".join(pairs).encode()).hexdigest()


# --- parser surface ---------------------------------------------------------------


def test_help_documents_every_flag(capsys):
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    for name, sp in subs.choices.items():
        with pytest.raises(SystemExit) as e:
            sp.parse_args(["--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        for action in sp._actions:
            for opt in action.option_strings:
                assert opt in text, f"{name} help missing {opt}"


def test_version_runs_as_module():
    # the child imports the lamosim under test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(lamosim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "lamosim", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip()


# --- dataflow ---------------------------------------------------------------------


def test_dataflow_matches_library_search(tmp_path):
    out = tmp_path / "df"
    code = main(["dataflow", "--shape", "4x64x64", "--pe", "system_small.json",
                 "--type", "pc", "--out", str(out)])
    assert code == 0
    res = json.loads((out / "result.json").read_text())
    spec = load_system(str(CONFIGS / "system_small.json"))
    c = spec.chiplet_types["pc"]
    ref = dataflow.search(GemmShape(4, 64, 64), c.pe, c.dram, 65.0,
                          clock_hz=c.clock_hz, dtype_bytes=2)
    assert res["latency_s"] == ref.cost.latency_s
    assert res["energy_j"] == ref.cost.energy_j
    assert res["policy"] == ref.policy.value
    assert res["evaluated"] == ref.evaluated


def test_dataflow_dump_all_lists_every_candidate(tmp_path):
    out = tmp_path / "df"
    code = main(["dataflow", "--shape", "1x1x1", "--pe", "system_small.json",
                 "--type", "pc", "--dump-all", "--out", str(out)])
    assert code == 0
    res = json.loads((out / "result.json").read_text())
    rows = (out / "candidates.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == res["search_space_size"] == 4  # 1 tiling x 4 policies


def test_dataflow_missing_config_names_path(tmp_path, capsys):
    code = main(["dataflow", "--shape", "1x1x1", "--pe", "no_such_config.json",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "no_such_config.json" in capsys.readouterr().err


def test_dataflow_infeasible_exit3(tmp_path, capsys):
    chip = json.loads((CONFIGS / "system_small.json").read_text())
    pc = chip["chiplet_types"]["pc"]
    pc["pe"]["sram_capacity_bytes"] = 1  # nothing stages in one byte
    f = tmp_path / "tiny_sram.json"
    f.write_text(json.dumps(pc))
    code = main(["dataflow", "--shape", "64x64x64", "--pe", str(f),
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dataflow", "simulate"])
def test_refresh_stall_exit3(tmp_path, capsys, command):
    # at 200 C refresh takes the DRAM's whole time, so no mapping can run
    argv = (["dataflow", "--shape", "4x64x64", "--pe", "system_small.json"]
            if command == "dataflow" else ["simulate", *SMALL, "--trace", "code:n=2"])
    code = main([*argv, "--temp-c", "200", "--out", str(tmp_path / "x")])
    assert code == 3
    assert "refresh duty" in capsys.readouterr().err


# --- simulate ---------------------------------------------------------------------


def simulate_args(out: Path, *extra: str) -> list[str]:
    return ["simulate", *SMALL, "--trace", TRACE, "--out", str(out), *extra]


def test_simulate_outputs_and_manifest(tmp_path):
    out = tmp_path / "sim"
    assert main(simulate_args(out, "--thermal")) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"manifest.json", "metrics.json", "requests.csv",
                     "thermal.csv", "trace.csv"}
    man = read_manifest(out)
    assert man["result_digest"] == recomputed_digest(out)
    assert set(man["outputs"]) == names - {"manifest.json"}
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["roofline_violations"] == 0
    assert metrics["thermal"]["iterations"] >= 1
    run = man["run"]
    assert run["coupling_rounds"] >= 2
    assert run["events"] > run["stage_executions"] > 0


def test_simulate_rerun_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(simulate_args(a)) == 0
    assert main(simulate_args(b)) == 0
    for name in ("metrics.json", "requests.csv", "trace.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    assert read_manifest(a)["result_digest"] == read_manifest(b)["result_digest"]
    assert read_manifest(a)["run"]["coupling_rounds"] == 0  # no --thermal


def test_simulate_manifest_reports_stage_placement(tmp_path):
    """Each phase's annealed objective beside the greedy start it began from."""
    out = tmp_path / "sim"
    assert main(simulate_args(out)) == 0
    placement = read_manifest(out)["run"]["placement"]
    assert set(placement) == {"prefill", "decode"}
    for phase in placement.values():
        assert set(phase) == {"greedy_objective_s", "objective_s"}
        assert 0 <= phase["objective_s"] <= phase["greedy_objective_s"]


def test_simulate_missing_trace_exit2(tmp_path, capsys):
    code = main(["simulate", *SMALL, "--trace", "missing.csv",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "missing.csv" in capsys.readouterr().err


def test_simulate_seed_isolation(tmp_path):
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert main(simulate_args(a, "--seed", "1")) == 0
    assert main(simulate_args(b, "--seed", "2")) == 0
    ma = json.loads((a / "metrics.json").read_text())
    mb = json.loads((b / "metrics.json").read_text())
    assert ma["serving"].keys() == mb["serving"].keys()
    assert ma["serving"] != mb["serving"]


def test_simulate_explicit_plan_file(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"prefill": {"tp": 2, "pp": 1},
                                "decode": {"tp": 2, "pp": 1}}))
    out = tmp_path / "sim"
    assert main(simulate_args(out, "--plan", str(plan))) == 0
    echoed = json.loads((out / "metrics.json").read_text())["plan"]
    assert (echoed["prefill"]["tp"], echoed["prefill"]["pp"]) == (2, 1)
    assert (echoed["decode"]["tp"], echoed["decode"]["pp"]) == (2, 1)


@pytest.mark.parametrize("plan_json, message", [
    ({"prefill": {"tp": 200, "pp": 1}, "decode": {"tp": 2, "pp": 1}},
     "cannot form a group of 200"),
    # model_tiny has 2 layers
    ({"prefill": {"tp": 1, "pp": 4}, "decode": {"tp": 4, "pp": 2}},
     "4 stages but only 2 layers"),
], ids=["tp_wider_than_pool", "pp_deeper_than_model"])
def test_simulate_plan_wider_than_pool_exit3(tmp_path, capsys, plan_json, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_json))
    code = main(["simulate", "--system", "system_ref.json", "--model", "model_tiny.json",
                 "--trace", TRACE, "--out", str(tmp_path / "x"), "--plan", str(plan)])
    assert code == 3
    assert message in capsys.readouterr().err


def test_simulate_auto_plan_without_decode_chiplets_exit3(tmp_path, capsys):
    d = json.loads((CONFIGS / "system_small.json").read_text())
    for p in d["placement"]:
        p["type"] = "pc"
    f = tmp_path / "no_decode.json"
    f.write_text(json.dumps(d))
    code = main(["simulate", "--system", str(f), "--model", "model_tiny.json",
                 "--trace", TRACE, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "no decode chiplets" in capsys.readouterr().err


def test_simulate_pool_mixing_chiplet_types_exit2(tmp_path, capsys):
    d = json.loads((CONFIGS / "system_small.json").read_text())
    pc2 = dict(d["chiplet_types"]["pc"])
    pc2["clock_hz"] = pc2["clock_hz"] / 2
    d["chiplet_types"]["pc2"] = pc2
    next(p for p in d["placement"] if p["type"] == "pc")["type"] = "pc2"
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps(d))
    code = main(["simulate", "--system", str(f), "--model", "model_tiny.json",
                 "--trace", TRACE, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "mixes chiplet types" in capsys.readouterr().err


def test_simulate_cooling_heat_capacity_exit2(tmp_path, capsys):
    # Only the steady-state thermal model exists; no command reads a heat capacity.
    d = json.loads((CONFIGS / "system_small.json").read_text())
    d["cooling"]["heat_capacity_j_per_k"] = 50.0
    f = tmp_path / "heat.json"
    f.write_text(json.dumps(d))
    code = main(["simulate", "--system", str(f), "--model", "model_tiny.json",
                 "--trace", TRACE, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "heat_capacity_j_per_k" in capsys.readouterr().err


# --- gen-trace --------------------------------------------------------------------


def test_gen_trace_agrees_with_simulate_synthesis(tmp_path):
    gt, sim = tmp_path / "gt", tmp_path / "sim"
    assert main(["gen-trace", "--source", "custom", "--n", "14", "--rate", "40",
                 "--mean-input", "8", "--mean-output", "5", "--seed", "7",
                 "--out", str(gt)]) == 0
    assert main(simulate_args(sim, "--seed", "7")) == 0
    assert (gt / "trace.csv").read_bytes() == (sim / "trace.csv").read_bytes()


def test_sub_seed_stable_and_purpose_split():
    assert sub_seed(7, "trace") == sub_seed(7, "trace")
    assert sub_seed(7, "trace") != sub_seed(7, "plan")
    assert sub_seed(7, "trace") != sub_seed(8, "trace")


# --- dse --------------------------------------------------------------------------


def test_dse_chiplet_budget_is_evaluations(tmp_path):
    out = tmp_path / "dse"
    code = main(["dse", "--level", "chiplet", "--base", "system_small.json",
                 "--type", "pc", "--budget", "8", "--seed", "3", "--out", str(out)])
    assert code == 0
    man = read_manifest(out)
    assert man["evaluations"] == 8
    report = json.loads((out / "report.json").read_text())
    assert report["sampled"] == 8
    assert (out / "pareto.csv").exists()


def dse_system_args(out: Path, *extra: str) -> list[str]:
    return ["dse", "--level", "system", *SMALL, "--trace", TRACE,
            "--budget", "6", "--counts", "2,2", "--counts", "3,1",
            "--out", str(out), *extra]


def test_dse_system_exhaustive_toy(tmp_path):
    out = tmp_path / "dse"
    assert main(dse_system_args(out, "--jobs", "1")) == 0
    man = read_manifest(out)
    assert man["exhaustive"] is True
    assert man["recheck_ok"] is True
    assert man["evaluations"] == 2
    best = json.loads((out / "best.json").read_text())
    ranking = (out / "ranking.csv").read_text().strip().splitlines()
    assert len(ranking) - 1 == man["evaluations"]
    top = ranking[1].split(",")
    assert [int(top[1]), int(top[2]), int(top[3]), int(top[4])] == [
        best["point"]["pc"], best["point"]["dc"],
        best["point"]["n_pc"], best["point"]["n_dc"]]


def test_dse_system_jobs_invariance(tmp_path):
    a, b = tmp_path / "j1", tmp_path / "j2"
    assert main(dse_system_args(a, "--jobs", "1")) == 0
    assert main(dse_system_args(b, "--jobs", "2")) == 0
    assert read_manifest(a)["result_digest"] == read_manifest(b)["result_digest"]
    assert filecmp.cmp(a / "ranking.csv", b / "ranking.csv", shallow=False)


def test_dse_system_budgeted_jobs_invariance(tmp_path):
    """A best-first run (8 designs, budget 5) is byte-stable across --jobs."""
    cands = tmp_path / "candidates.json"
    types = json.loads((CONFIGS / "system_small.json").read_text())["chiplet_types"]
    slow = {n: {**types[n], "clock_hz": 0.5e9} for n in types}
    cands.write_text(json.dumps({"pc": [types["pc"], slow["pc"]],
                                 "dc": [types["dc"], slow["dc"]]}))
    digests = set()
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"j{jobs}"
        assert main(["dse", "--level", "system", *SMALL, "--trace", TRACE,
                     "--candidates", str(cands), "--counts", "2,2", "--counts", "3,1",
                     "--budget", "5", "--jobs", jobs, "--out", str(out)]) == 0
        man = read_manifest(out)
        assert man["exhaustive"] is False and man["simulations"] == 5
        digests.add(man["result_digest"])
        assert filecmp.cmp(tmp_path / "j1" / "ranking.csv", out / "ranking.csv",
                           shallow=False)
    assert len(digests) == 1


@pytest.mark.parametrize("counts,workers", [(("2,2", "3,1"), [2]), (("2,2",), [])],
                         ids=["two_designs", "one_design"])
def test_dse_system_jobs_capped_at_design_count(tmp_path, monkeypatch, counts, workers):
    seen = []

    class FakePool:  # records the pool size and maps in this process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    argv = ["dse", "--level", "system", *SMALL, "--trace", TRACE, "--budget", "6",
            "--jobs", "64", "--out", str(tmp_path / "dse")]
    for c in counts:
        argv += ["--counts", c]
    assert main(argv) == 0
    assert seen == workers


def test_dse_system_infeasible_slo_exit3(tmp_path, capsys):
    out = tmp_path / "dse"
    code = main(dse_system_args(out, "--jobs", "1", "--slo-ttft", "1e-12"))
    assert code == 3
    err = capsys.readouterr().err
    assert "TtftSlo" in err
    hist = json.loads((out / "report.json").read_text())["histogram"]
    assert hist.get("TtftSlo", 0) >= 1
    assert (out / "manifest.json").exists()


def test_dse_system_kv_budget_beyond_slice_exit3(tmp_path, capsys):
    out = tmp_path / "dse"
    code = main(dse_system_args(out, "--jobs", "1", "--kv-budget-mb", "10000000"))
    assert code == 3
    assert "CapacityExceeded" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["histogram"] == {"CapacityExceeded": 2}


@pytest.mark.parametrize("dc_edits,reject", [
    ({"pe": {"sram_capacity_bytes": 1}}, "0,NoFeasibleMapping"),
    ({"power": {"leak_base_w_per_pe": 300}, "tdp_w": 5000}, "1,RefreshStall"),
    ({"power": {"leak_base_w_per_pe": 400}, "tdp_w": 5000}, "1,NonConvergence"),
], ids=["sram_fits_no_tile", "refresh_stall", "thermal_runaway"])
def test_dse_system_rejects_an_infeasible_candidate(tmp_path, dc_edits, reject):
    """A design that raises an exit-3 error, or whose thermal fixed point does
    not converge, is one rejected row, and the design on the unedited decode
    chiplet still wins."""
    system = json.loads((CONFIGS / "system_small.json").read_text())
    system["rack_power_limit_w"] = 1e6
    types = system["chiplet_types"]
    bad = dict(types["dc"])
    for key, value in dc_edits.items():  # a dict value edits fields of a section
        bad[key] = {**bad[key], **value} if isinstance(value, dict) else value
    (tmp_path / "system.json").write_text(json.dumps(system))
    (tmp_path / "cand.json").write_text(json.dumps({"pc": [types["pc"]],
                                                    "dc": [types["dc"], bad]}))
    out = tmp_path / "dse"
    assert main(["dse", "--level", "system", "--system", str(tmp_path / "system.json"),
                 "--model", "model_tiny.json", "--trace", "code:n=2", "--counts", "1,1",
                 "--budget", "3", "--jobs", "1", "--candidates", str(tmp_path / "cand.json"),
                 "--out", str(out)]) == 0
    assert json.loads((out / "best.json").read_text())["point"]["dc"] == 0
    rows = (out / "ranking.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[:6] for r in rows] == [["0", "0", "0", "1", "1", "1"],
                                                ["1", "0", "1", "1", "1", "0"]]
    assert rows[1].endswith("," + reject)


def test_simulate_thermal_runaway_exits_4(tmp_path, capsys):
    """The decode leakage that the system DSE rejects as NonConvergence still
    ends `simulate --thermal` with exit 4."""
    system = json.loads((CONFIGS / "system_small.json").read_text())
    system["rack_power_limit_w"] = 1e6
    dc = system["chiplet_types"]["dc"]
    dc["tdp_w"] = 5000
    dc["power"]["leak_base_w_per_pe"] = 400
    (tmp_path / "system.json").write_text(json.dumps(system))
    assert main(["simulate", "--system", str(tmp_path / "system.json"), "--model",
                 "model_tiny.json", "--trace", "code:n=2", "--thermal",
                 "--out", str(tmp_path / "x")]) == 4
    assert "thermal fixed point" in capsys.readouterr().err


def test_dse_bad_counts_exit2(tmp_path, capsys):
    code = main(dse_system_args(tmp_path / "x", "--counts", "nope"))
    assert code == 2
    assert "counts" in capsys.readouterr().err.lower()


def test_dse_chiplet_requires_base(tmp_path, capsys):
    code = main(["dse", "--level", "chiplet", "--budget", "4",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "--base" in capsys.readouterr().err


@pytest.mark.parametrize("domain,message", [
    ({"n_cores": [1]}, "unknown domain axes ['n_cores']"),  # misspelled n_core
    ({"nop_channels": [2]}, "unknown domain axes ['nop_channels']"),  # not a chiplet axis
    ([1], "expected an object"),
], ids=["misspelled_axis", "package_axis", "not_an_object"])
def test_dse_chiplet_bad_domain_exit2(tmp_path, capsys, domain, message):
    f = tmp_path / "domain.json"
    f.write_text(json.dumps(domain))
    code = main(["dse", "--level", "chiplet", "--base", "system_small.json",
                 "--type", "pc", "--budget", "4", "--domain", str(f),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert message in capsys.readouterr().err


# --- bad inputs -------------------------------------------------------------------

INPUT = "INPUT"  # stands for the path of the row's input file
SIM_INPUT_SYSTEM = ["simulate", "--system", INPUT, "--model", "model_tiny.json",
                    "--trace", "code:n=2"]
SIM_INPUT_MODEL = ["simulate", "--system", "system_small.json", "--model", INPUT,
                   "--trace", "code:n=2"]
DATAFLOW_INPUT_PE = ["dataflow", "--shape", "4x64x64", "--pe", INPUT]
SIM_SMALL = ["simulate", *SMALL, "--trace", "code:n=2"]
DSE_SYSTEM = ["dse", "--level", "system", *SMALL, "--trace", "code:n=2", "--jobs", "1"]
DSE_CHIPLET = ["dse", "--level", "chiplet", "--base", "system_small.json", "--type", "pc"]
TRACE_HEADER = "rid,arrival_s,input_len,output_len\n"
CHIPLET_PC = json.dumps(json.loads((CONFIGS / "system_small.json").read_text())
                        ["chiplet_types"]["pc"])  # a bare chiplet JSON


def edited(name: str, keys: tuple, value) -> str:
    """JSON text of a packaged config with the field at key path `keys` set to `value`."""
    root = node = json.loads((CONFIGS / name).read_text())
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return json.dumps(root)


def candidates_text(pc: list, dc: list) -> str:
    """A --candidates file listing system_small's chiplet types by name."""
    types = json.loads((CONFIGS / "system_small.json").read_text())["chiplet_types"]
    return json.dumps({"pc": [types[n] for n in pc], "dc": [types[n] for n in dc]})


def plan_text(prefill: dict) -> str:
    return json.dumps({"prefill": prefill, "decode": {"tp": 2, "pp": 1}})


def unread_field_rows(keys: tuple) -> dict:
    """Rows for a chiplet field no model reads, at path `keys` under a chiplet
    type: a system JSON to `simulate` and a bare chiplet JSON to `dataflow`."""
    system = edited("system_small.json", ("chiplet_types", "pc", *keys), 1)
    chiplet = json.dumps(json.loads(system)["chiplet_types"]["pc"])
    path = "".join(f".{k}" for k in keys[:-1]) + f": unknown fields ['{keys[-1]}']"
    return {f"system_{keys[-1]}": (SIM_INPUT_SYSTEM, system, f"system.chiplet_types.pc{path}"),
            f"chiplet_{keys[-1]}": (DATAFLOW_INPUT_PE, chiplet, f"chiplet{path}")}


# (argv, content of the INPUT file or None, text that stderr must contain)
BAD_INPUTS = {
    "pe_n_core_fraction": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("chiplet_types", "pc", "pe", "n_core"), 2.5), "pe.n_core"),
    "edge_hops_fraction": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("edge_hops",), 1.5), "edge_hops"),
    "placement_at_fraction": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("placement", 0, "at"), [0.5, 0]), "placement[0].at"),
    "pe_rows_fraction": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("chiplet_types", "pc", "pe_rows"), 2.5), "pe_rows"),
    "dtype_bytes_bool": (SIM_INPUT_MODEL, edited(
        "model_tiny.json", ("dtype_bytes",), True), "dtype_bytes"),
    "n_layers_fraction": (SIM_INPUT_MODEL, edited(
        "model_tiny.json", ("n_layers",), 2.5), "n_layers"),
    "schema_bool": (SIM_INPUT_MODEL, edited("model_tiny.json", ("schema",), True), "schema"),
    "plan_tp_fraction": ([*SIM_SMALL, "--plan", INPUT],
                         plan_text({"tp": 2.5, "pp": 1}), "prefill.tp"),
    "plan_tp_zero": ([*SIM_SMALL, "--plan", INPUT], plan_text({"tp": 0, "pp": 1}), "tp"),
    "plan_unknown_key": ([*SIM_SMALL, "--plan", INPUT],
                         plan_text({"tp": 2, "pp": 1, "ep": 2}), "['ep']"),
    "domain_fraction": ([*DSE_CHIPLET, "--budget", "4", "--domain", INPUT],
                        json.dumps({"n_core": [1.5]}), "n_core"),
    "trace_missing_column": (["simulate", *SMALL, "--trace", INPUT],
                             "rid,arrival_s,input_len\n0,0.0,5\n", "output_len"),
    "trace_input_len_fraction": (["simulate", *SMALL, "--trace", INPUT],
                                 TRACE_HEADER + "0,0.0,2.5,3\n", "input_len=2.5"),
    "trace_input_len_zero": (["simulate", *SMALL, "--trace", INPUT],
                             TRACE_HEADER + "0,0.0,0,3\n", "input_len"),
    "trace_spec_mean_fraction": (["simulate", *SMALL, "--trace",
                                  "custom:n=2:mean_in=8.5:mean_out=4"], None, "mean_in"),
    "trace_spec_family_mean": (["simulate", *SMALL, "--trace", "code:n=2:mean_in=50"],
                               None, "fixed means"),
    "trace_spec_mean_below_one": (["simulate", *SMALL, "--trace",
                                   "custom:n=2:mean_in=0:mean_out=4"], None,
                                  "mean_input must be >= 1"),
    "trace_spec_repeated_field": (["simulate", *SMALL, "--trace",
                                   "custom:n=2:mean_in=8:mean_out=4:n=5"], None,
                                  "field 'n' given twice"),
    "trace_csv_no_requests": (["simulate", *SMALL, "--trace", INPUT], TRACE_HEADER,
                              "no requests"),
    "dse_trace_csv_no_requests": (["dse", "--level", "system", *SMALL, "--trace", INPUT,
                                   "--budget", "3"], TRACE_HEADER, "no requests"),
    "gen_trace_mean_negative": (["gen-trace", "--source", "custom", "--n", "4",
                                 "--mean-input", "-5", "--mean-output", "3"], None,
                                "mean_input must be >= 1"),
    "gen_trace_family_mean": (["gen-trace", "--source", "code", "--n", "4",
                               "--mean-input", "50"], None, "fixed means"),
    "counts_zero": ([*DSE_SYSTEM, "--budget", "3", "--counts", "0,1"], None, "--counts"),
    "counts_repeated": ([*DSE_SYSTEM, "--budget", "3", "--counts", "1,1", "--counts", "1,1"],
                        None, "--counts '1,1' given twice"),
    "candidates_repeated_pc": ([*DSE_SYSTEM, "--budget", "3", "--candidates", INPUT],
                               candidates_text(["pc", "pc"], ["dc"]), "repeats a chiplet"),
    "candidates_repeated_dc": ([*DSE_SYSTEM, "--budget", "3", "--candidates", INPUT],
                               candidates_text(["pc"], ["dc", "dc"]), "repeats a chiplet"),
    "system_budget_one": ([*DSE_SYSTEM, "--budget", "1"], None, "--budget"),
    "chiplet_budget_zero": ([*DSE_CHIPLET, "--budget", "0"], None, "--budget"),
    "max_decode_batch_zero": ([*SIM_SMALL, "--max-decode-batch", "0"], None,
                              "--max-decode-batch"),
    "eps_negative": ([*DSE_CHIPLET, "--budget", "4", "--eps", "-1"], None, "--eps"),
    "kv_budget_negative": ([*SIM_SMALL, "--kv-budget-mb", "-1"], None, "--kv-budget-mb"),
    "jobs_zero": ([*DSE_SYSTEM, "--budget", "3", "--jobs", "0"], None, "--jobs"),
    "jobs_negative": ([*DSE_SYSTEM, "--budget", "3", "--jobs", "-1"], None, "--jobs"),
    "domain_zero": ([*DSE_CHIPLET, "--budget", "4", "--domain", INPUT],
                    json.dumps({"n_pe": [0]}), "n_pe"),
    # non-finite numbers: json.loads reads NaN and Infinity, float() reads nan and inf
    "system_t_rcd_infinity": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("chiplet_types", "pc", "dram", "t_rcd_ns"), float("inf")),
        "system.chiplet_types.pc.dram.t_rcd_ns"),
    "system_noc_energy_negative": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("comm_energy_noc_pj_per_byte_hop",), -1e6),
        "system.comm_energy_noc_pj_per_byte_hop must be >= 0"),
    "system_nop_energy_negative": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("comm_energy_nop_pj_per_byte_hop",), -1e6),
        "system.comm_energy_nop_pj_per_byte_hop must be >= 0"),
    "system_ambient_nan": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("cooling", "ambient_c"), float("nan")),
        "system.cooling.ambient_c"),
    "temp_c_nan": ([*SIM_SMALL, "--temp-c", "nan"], None, "--temp-c"),
    "temp_c_inf": ([*SIM_SMALL, "--temp-c", "inf"], None, "--temp-c"),
    "temp_c_below_absolute_zero": ([*SIM_SMALL, "--temp-c", "-500"], None, "--temp-c"),
    "dataflow_temp_c_below_absolute_zero": (
        ["dataflow", "--shape", "4x64x64", "--pe", "system_small.json", "--temp-c", "-1000"],
        None, "--temp-c"),
    "system_ambient_below_absolute_zero": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("cooling", "ambient_c"), -300), "cooling.ambient_c"),
    "system_t_limit_below_absolute_zero": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("cooling", "t_limit_c"), -300), "cooling.t_limit_c"),
    "system_retention_below_absolute_zero": (SIM_INPUT_SYSTEM, edited(
        "system_small.json", ("chiplet_types", "pc", "dram", "retention_base_temp_c"), -300),
        "dram.retention_base_temp_c"),
    "kv_budget_nan": ([*SIM_SMALL, "--kv-budget-mb", "nan"], None, "--kv-budget-mb"),
    "kv_budget_inf": ([*SIM_SMALL, "--kv-budget-mb", "inf"], None, "--kv-budget-mb"),
    "eps_nan": ([*DSE_CHIPLET, "--budget", "4", "--eps", "nan"], None, "--eps"),
    "slo_ttft_nan": ([*DSE_SYSTEM, "--budget", "3", "--slo-ttft", "nan"], None, "--slo-ttft"),
    "gen_trace_rate_nan": (["gen-trace", "--source", "code", "--n", "4", "--rate", "nan"],
                           None, "--rate"),
    "trace_spec_rate_nan": (["simulate", *SMALL, "--trace", "code:n=2:rate=nan"], None,
                            "rate_rps"),
    "trace_arrival_nan": (["simulate", *SMALL, "--trace", INPUT],
                          TRACE_HEADER + "0,nan,5,3\n", "arrival_s"),
    "trace_arrival_inf": (["simulate", *SMALL, "--trace", INPUT],
                          TRACE_HEADER + "0,inf,5,3\n", "arrival_s"),
    # a directory where a file is read: CONFIGS stands for any directory
    "system_directory": (["simulate", "--system", str(CONFIGS), "--model", "model_tiny.json",
                          "--trace", "code:n=2"], None, "unreadable"),
    "model_directory": (["simulate", "--system", "system_small.json", "--model", str(CONFIGS),
                         "--trace", "code:n=2"], None, "unreadable"),
    "trace_directory": (["simulate", *SMALL, "--trace", str(CONFIGS)], None, "unreadable"),
    "plan_directory": ([*SIM_SMALL, "--plan", str(CONFIGS)], None, "unreadable"),
    "pe_directory": (["dataflow", "--shape", "4x64x64", "--pe", str(CONFIGS)], None,
                     "unreadable"),
    "domain_directory": ([*DSE_CHIPLET, "--budget", "4", "--domain", str(CONFIGS)], None,
                         "unreadable"),
    "candidates_directory": ([*DSE_SYSTEM, "--budget", "3", "--candidates", str(CONFIGS)],
                             None, "unreadable"),
    # a flag the chosen dse level does not read, in any spelling argparse accepts
    "dse_chiplet_system_flags": ([*DSE_CHIPLET, "--budget", "4", "--counts", "1,1",
                                  "--slo-tbt", "5", "--jobs", "3"], None,
                                 "--level chiplet does not read --counts, --jobs, --slo-tbt"),
    "dse_chiplet_batching_flag": ([*DSE_CHIPLET, "--budget", "4", "--static-batching"], None,
                                  "does not read --static-batching"),
    "dse_chiplet_abbreviated_temp_c": ([*DSE_CHIPLET, "--budget", "4", "--te", "65"], None,
                                       "does not read --temp-c"),
    "dse_system_chiplet_flags": ([*DSE_SYSTEM, "--budget", "3", "--eps", "0.3", "--base",
                                  "foo"], None, "--level system does not read --base, --eps"),
    "dse_system_abbreviated_eps": ([*DSE_SYSTEM, "--budget", "3", "--e=0.3"], None,
                                   "does not read --eps"),
    "dse_system_type": ([*DSE_SYSTEM, "--budget", "3", "--type", "pc"], None,
                        "does not read --type"),
    # one flag that would silently override another
    "dataflow_dtype_bytes_with_model": (["dataflow", "--shape", "4x64x64", "--pe",
                                         "system_small.json", "--model", "model_tiny.json",
                                         "--dtype-bytes", "4"], None, "--dtype-bytes"),
    "dataflow_type_with_chiplet_json": ([*DATAFLOW_INPUT_PE, "--type", "nosuch"], CHIPLET_PC,
                                        "--type 'nosuch'"),
    "dse_base_type_with_chiplet_json": (["dse", "--level", "chiplet", "--base", INPUT,
                                         "--type", "nosuch", "--budget", "4"], CHIPLET_PC,
                                        "--type 'nosuch'"),
    "slo_ttft_negative": ([*DSE_SYSTEM, "--budget", "3", "--slo-ttft", "-1"], None,
                          "--slo-ttft must be > 0"),
    "slo_tbt_zero": ([*DSE_SYSTEM, "--budget", "3", "--slo-tbt", "0"], None,
                     "--slo-tbt must be > 0"),
    "trace_csv_repeated_rid": (["simulate", *SMALL, "--trace", INPUT],
                               TRACE_HEADER + "0,0.0,5,3\n0,0.1,5,3\n", "line 3: rid 0"),
    # a header naming other than exactly the four columns
    "trace_csv_unknown_column": (["simulate", *SMALL, "--trace", INPUT],
                                 "rid,arrival_s,input_len,output_len,priority\n0,0.0,5,3,1\n",
                                 "unknown or repeated ['priority']"),
    "trace_csv_repeated_column": (["simulate", *SMALL, "--trace", INPUT],
                                  "rid,arrival_s,input_len,output_len,input_len\n"
                                  "0,0.0,16,3,999\n", "unknown or repeated ['input_len']"),
    # a row with more cells than the four-column header
    "trace_csv_extra_cell": (["simulate", *SMALL, "--trace", INPUT],
                             TRACE_HEADER + "0,0.0,16,3,999\n", "line 2: 1 cell(s) beyond"),
    "trace_csv_trailing_comma": (["simulate", *SMALL, "--trace", INPUT],
                                 TRACE_HEADER + "0,0.0,16,3\n1,0.1,16,3,\n",
                                 "line 3: 1 cell(s) beyond"),
    # a bad row is named by its line in the file, blank lines counted
    "trace_csv_bad_row_after_blank_line": (["simulate", *SMALL, "--trace", INPUT],
                                           TRACE_HEADER + "0,0.0,16,3\n\n1,0.1,2.5,3\n",
                                           "line 4 (rid=1"),
}
for keys in (("flops_scale",), ("pe", "sram_banks"), ("pe", "noc_flit_bits"),
             ("dram", "page_size_bytes")):
    BAD_INPUTS.update(unread_field_rows(keys))


@pytest.mark.parametrize("argv,content,named", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit2_names_field(tmp_path, capsys, argv, content, named):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    argv = [str(path) if a == INPUT else a for a in argv] + ["--out", str(tmp_path / "x")]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a flag value before main runs a command
        code = e.code
    assert code == 2
    assert named in capsys.readouterr().err
