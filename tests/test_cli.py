"""Smoke tests for the ``repro`` CLI.

Most cases drive :func:`repro.runtime.cli.main` in-process with an explicit
``argv`` (fast, assertable); one case goes through a real subprocess to
prove ``python -m repro.runtime.cli`` works as installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

SWEEP_ARGS = ["sweep", "--families", "wheel", "--sizes", "8",
              "--repetitions", "2", "--master-seed", "7",
              "--max-rounds", "2000"]


def test_parser_has_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert set(actions[0].choices) == {"run", "sweep", "bench", "report",
                                       "protocols", "graphs"}


def test_run_prints_result_table(capsys):
    assert main(["run", "--family", "wheel", "--n", "8", "--seed", "3",
                 "--max-rounds", "2000"]) == 0
    out = capsys.readouterr().out
    assert "tree_degree" in out and "wheel" in out


def test_run_json_output_is_parseable(capsys):
    assert main(["run", "--family", "wheel", "--n", "8", "--seed", "3",
                 "--max-rounds", "2000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["family"] == "wheel"
    assert data["row"]["converged"] is True


def test_sweep_workers_byte_identical_and_cache_short_circuits(tmp_path, capsys):
    """The acceptance criterion: N workers == 1 worker byte-for-byte, and a
    repeat invocation completes from cache without re-running simulations."""
    out1, out4 = tmp_path / "w1.json", tmp_path / "w4.json"
    cache_dir = str(tmp_path / "cache")
    assert main(SWEEP_ARGS + ["--workers", "1", "--output", str(out1)]) == 0
    assert main(SWEEP_ARGS + ["--workers", "4", "--cache-dir", cache_dir,
                              "--output", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    capsys.readouterr()
    # repeat with the cache: everything resolves without execution
    out4b = tmp_path / "w4b.json"
    assert main(SWEEP_ARGS + ["--workers", "4", "--cache-dir", cache_dir,
                              "--output", str(out4b)]) == 0
    stderr = capsys.readouterr().err
    assert "executed 0" in stderr and "cache hits 2" in stderr
    assert out4b.read_bytes() == out1.read_bytes()


def test_run_unknown_family_lists_registered_names(capsys):
    assert main(["run", "--family", "bogus", "--n", "8"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "registered families" in err
    assert "erdos_renyi_sparse" in err and "wheel" in err


def test_sweep_unknown_family_fails_before_any_run(capsys):
    assert main(["sweep", "--families", "wheel,bogus,phantom",
                 "--sizes", "8"]) == 1
    captured = capsys.readouterr()
    assert "bogus" in captured.err and "phantom" in captured.err
    assert "registered families" in captured.err
    # validation fires before the engine: no "sweep: N runs" banner
    assert "sweep:" not in captured.err


def test_run_churn_task_via_cli(capsys):
    assert main(["run", "--task", "churn", "--family", "erdos_renyi_sparse",
                 "--n", "12", "--seed", "5", "--max-rounds", "4000",
                 "--churn-rate", "0.05", "--churn-start", "60",
                 "--churn-events", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["task"] == "churn"
    assert data["row"]["churn_applied"] + data["row"]["churn_skipped"] == 3
    assert data["row"]["converged"] is True


def test_run_rejects_churn_flags_without_churn_task(capsys):
    assert main(["run", "--family", "wheel", "--n", "8",
                 "--churn-rate", "0.1", "--churn-events", "3"]) == 1
    assert "--task churn" in capsys.readouterr().err


def test_protocols_subcommand_lists_registry(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    for name in ("mdst", "spanning_tree", "pif_max_degree"):
        assert name in out
    assert "churn" in out and "initial policies" in out
    assert "array" in out


def test_protocols_subcommand_json(capsys):
    assert main(["protocols", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {row["protocol"] for row in rows}
    assert {"mdst", "spanning_tree", "pif_max_degree"} <= names
    by_name = {row["protocol"]: row for row in rows}
    for row in rows:
        assert set(row) == {"protocol", "churn", "array", "initial policies",
                            "description"}
    assert by_name["mdst"]["churn"] == "yes"
    assert by_name["pif_max_degree"]["churn"] == "no"
    assert by_name["mdst"]["array"] == "yes"
    for name in ("spanning_tree", "pif_max_degree"):
        assert by_name[name]["array"] == "no"


def test_sweep_array_backend_fails_fast_for_non_capable_protocol(capsys):
    """--backend array with a substrate protocol is a pre-run CLI error."""
    for protocol in ("pif_max_degree", "spanning_tree"):
        assert main(["sweep", "--families", "wheel", "--sizes", "8",
                     "--protocols", f"mdst,{protocol}",
                     "--backend", "array"]) == 1
        captured = capsys.readouterr()
        assert (f"protocol {protocol!r} does not support the array "
                f"backend; capable protocols: mdst") in captured.err
        # validation fires before the engine: no "sweep: N runs" banner
        assert "sweep:" not in captured.err
        assert captured.out == ""


def test_run_memory_task_rejects_array_backend(capsys):
    """The memory task accounts the object network: an array run would
    print an object row under an array label."""
    assert main(["run", "--task", "memory", "--family", "wheel", "--n", "8",
                 "--backend", "array"]) == 1
    captured = capsys.readouterr()
    assert "does not support the memory task" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("task", ["reference", "baselines"])
def test_run_simulation_free_tasks_reject_array_backend(task, capsys):
    """The reference and baselines tasks build no network: an array run
    would print the object row under an array label."""
    assert main(["run", "--task", task, "--family", "wheel", "--n", "8",
                 "--backend", "array"]) == 1
    captured = capsys.readouterr()
    assert f"does not support the {task} task" in captured.err
    assert captured.out == ""


def test_run_array_backend_fails_fast_for_non_capable_protocol(capsys):
    assert main(["run", "--family", "wheel", "--n", "8",
                 "--protocol", "spanning_tree", "--backend", "array"]) == 1
    captured = capsys.readouterr()
    assert "capable protocols: mdst" in captured.err
    assert captured.out == ""


def test_run_unknown_protocol_lists_registered_names(capsys):
    assert main(["run", "--family", "wheel", "--n", "8",
                 "--protocol", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "registered protocols" in err
    assert "mdst" in err and "spanning_tree" in err and "pif_max_degree" in err


def test_sweep_unknown_protocol_fails_before_any_run(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--protocols", "mdst,phantom"]) == 1
    captured = capsys.readouterr()
    assert "phantom" in captured.err
    assert "registered protocols" in captured.err
    # validation fires before the engine: no "sweep: N runs" banner
    assert "sweep:" not in captured.err


def test_run_spanning_tree_protocol_via_cli(capsys):
    assert main(["run", "--family", "wheel", "--n", "8", "--seed", "3",
                 "--protocol", "spanning_tree", "--max-rounds", "500",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["protocol"] == "spanning_tree"
    assert data["row"]["protocol"] == "spanning_tree"
    assert data["row"]["converged"] is True


def test_sweep_cross_protocol_runs_every_registry_entry(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--max-rounds", "2000",
                 "--protocols", "mdst,spanning_tree,pif_max_degree"]) == 0
    out = capsys.readouterr().out
    # the display backfills the default protocol's column
    assert "mdst" in out and "spanning_tree" in out and "pif_max_degree" in out


def test_sweep_churn_task_rejects_non_churn_protocol(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--task", "churn", "--churn-rate", "0.1",
                 "--churn-events", "2",
                 "--protocols", "pif_max_degree"]) == 1
    err = capsys.readouterr().err
    assert ("protocol 'pif_max_degree' does not support topology churn; "
            "capable protocols: mdst, spanning_tree") in err


def test_sweep_rejects_churn_flags_without_churn_task(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--churn-rate", "0.1", "--churn-events", "2"]) == 1
    assert "--task churn" in capsys.readouterr().err


def test_sweep_fault_round_flows_into_every_run(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--max-rounds", "2000", "--fault-round", "30",
                 "--protocols", "mdst,spanning_tree", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + one row per protocol
    assert lines[0].startswith("family,")


def test_run_rejects_fault_flags_on_non_fault_task(capsys):
    """--fault-round on a task that never injects faults must error, not
    silently print a clean-run row as a fault measurement."""
    assert main(["run", "--family", "wheel", "--n", "8",
                 "--task", "quality", "--fault-round", "30"]) == 1
    assert "--fault-round" in capsys.readouterr().err


def test_sweep_rejects_fault_flags_on_non_fault_task(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--task", "reference", "--fault-round", "30"]) == 1
    assert "--fault-round" in capsys.readouterr().err


def test_cross_protocol_saved_report_keeps_rows_attributable(tmp_path, capsys):
    """The saved JSON of a cross-protocol sweep backfills the protocol key
    on default-protocol rows, so `repro report --group-by protocol` works."""
    out = tmp_path / "cross.json"
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--max-rounds", "2000",
                 "--protocols", "mdst,spanning_tree",
                 "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["protocol"] for row in rows] == ["mdst", "spanning_tree"]
    capsys.readouterr()
    assert main(["report", str(out), "--group-by", "protocol",
                 "--value", "rounds"]) == 0
    rendered = capsys.readouterr().out
    assert "mdst" in rendered and "spanning_tree" in rendered


def test_single_protocol_saved_report_keeps_historical_shape(tmp_path):
    """Default MDST sweeps must keep their exact historical row shape."""
    out = tmp_path / "plain.json"
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--max-rounds", "2000", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert all("protocol" not in row for row in rows)


def test_sweep_csv_output(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--max-rounds", "2000", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 2


def test_report_renders_saved_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(SWEEP_ARGS + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "tree_degree" in capsys.readouterr().out
    assert main(["report", str(out), "--group-by", "family",
                 "--value", "rounds"]) == 0
    assert "mean_rounds" in capsys.readouterr().out


def test_report_missing_file_fails_cleanly(capsys):
    assert main(["report", "/nonexistent/report.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_runs_selected_experiment(tmp_path, capsys):
    # E3 only builds networks (no protocol runs), so it is fast enough here
    assert main(["bench", "--experiments", "E3", "--profile", "quick",
                 "--workers", "2", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[E3]" in out
    saved = json.loads((tmp_path / "E3.json").read_text(encoding="utf-8"))
    assert saved["experiment"] == "E3" and saved["rows"]


def test_bench_rejects_unknown_experiment(capsys):
    assert main(["bench", "--experiments", "E99"]) == 1
    assert "unknown experiments" in capsys.readouterr().err


def test_cli_module_is_executable_via_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.runtime.cli", "run", "--family", "wheel",
         "--n", "8", "--seed", "3", "--max-rounds", "2000", "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["row"]["converged"] is True


# -- adversary flags ----------------------------------------------------------

def test_run_adversary_task_via_cli(capsys):
    assert main(["run", "--task", "adversary", "--family", "erdos_renyi_sparse",
                 "--n", "12", "--seed", "1", "--max-rounds", "1000",
                 "--loss", "0.05", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["task"] == "adversary"
    assert data["spec"]["loss_rate"] == 0.05
    assert data["row"]["adversary"] == "channel(loss=0.05)"
    assert data["row"]["verdict"] == "recovered"
    assert data["row"]["adversary_dropped"] > 0


def test_run_adversary_crash_recover_via_cli(capsys):
    assert main(["run", "--task", "adversary", "--family", "erdos_renyi_sparse",
                 "--n", "12", "--seed", "1", "--max-rounds", "500",
                 "--protocol", "spanning_tree", "--crash-count", "1",
                 "--crash-round", "5", "--crash-recover", "5", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["row"]
    assert row["node_crashes"] == 1 and row["node_recoveries"] == 1
    assert row["verdict"] == "recovered"
    assert row["recovery_rounds"] is not None


def test_run_adversary_flags_work_with_protocol_task(capsys):
    """The knobs compose with the plain protocol task, like churn does."""
    assert main(["run", "--family", "erdos_renyi_sparse", "--n", "12",
                 "--seed", "1", "--max-rounds", "500",
                 "--byzantine-count", "1", "--byzantine-start", "3",
                 "--byzantine-rounds", "3", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["row"]
    assert row["adversary"].startswith("byzantine")
    assert row["converged"] is True


def test_run_adversary_task_requires_a_knob(capsys):
    assert main(["run", "--task", "adversary", "--family", "wheel",
                 "--n", "8"]) == 1
    assert "at least one adversary knob" in capsys.readouterr().err


def test_run_rejects_adversary_flags_on_non_capable_task(capsys):
    assert main(["run", "--task", "baselines", "--family", "wheel",
                 "--n", "8", "--loss", "0.05"]) == 1
    assert "--task" in capsys.readouterr().err


def test_run_rejects_out_of_range_rates(capsys):
    assert main(["run", "--family", "wheel", "--n", "8",
                 "--loss", "1.5"]) == 1
    assert "must be in [0, 1]" in capsys.readouterr().err


def test_run_rejects_zero_crash_recover(capsys):
    assert main(["run", "--family", "wheel", "--n", "8",
                 "--crash-count", "1", "--crash-recover", "0"]) == 1
    assert "--crash-recover" in capsys.readouterr().err


def test_sweep_with_loss_over_protocols(capsys):
    assert main(["sweep", "--families", "erdos_renyi_sparse", "--sizes", "12",
                 "--seeds", "1", "--max-rounds", "500", "--loss", "0.05",
                 "--protocols", "mdst,spanning_tree",
                 "--columns", "protocol,adversary,converged"]) == 0
    out = capsys.readouterr().out
    assert "mdst" in out and "spanning_tree" in out
    assert "channel(loss=0.05)" in out


def test_sweep_rejects_adversary_flags_on_non_capable_task(capsys):
    assert main(["sweep", "--families", "wheel", "--sizes", "8",
                 "--task", "baselines", "--dup", "0.1"]) == 1
    assert "--task" in capsys.readouterr().err


def test_graphs_subcommand_lists_families(capsys):
    assert main(["graphs"]) == 0
    out = capsys.readouterr().out
    for name in ("powerlaw_cm", "small_world_fast", "kronecker", "wheel"):
        assert name in out
    assert "array-fast" in out


def test_graphs_subcommand_json(capsys):
    assert main(["graphs", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_name = {row["family"]: row for row in rows}
    assert by_name["powerlaw_cm"]["array_fast"] is True
    assert by_name["wheel"]["array_fast"] is False
    assert "exponent" in by_name["powerlaw_cm"]["params"]


def test_run_graph_param_flows_into_spec(capsys):
    assert main(["run", "--family", "powerlaw_cm", "--n", "24", "--seed", "3",
                 "--backend", "array", "--graph-param", "exponent=2.3",
                 "--max-rounds", "4000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["graph_params"] == [["exponent", 2.3]]
    assert data["row"]["graph_params"] == {"exponent": 2.3}
    assert data["row"]["converged"] is True


def test_run_rejects_unknown_graph_param(capsys):
    assert main(["run", "--family", "powerlaw_cm", "--n", "24",
                 "--graph-param", "bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_run_rejects_malformed_graph_param(capsys):
    assert main(["run", "--family", "powerlaw_cm", "--n", "24",
                 "--graph-param", "exponent"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_run_graph_file_route(tmp_path, capsys):
    path = tmp_path / "ring.txt"
    path.write_text("# a comment\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["run", "--graph-file", str(path), "--n", "5",
                 "--max-rounds", "4000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["row"]["graph_file"] == str(path)
    assert data["row"]["family"] == "file"
    assert data["row"]["n"] == 5
    assert data["row"]["converged"] is True


def test_run_rejects_graph_param_with_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    assert main(["run", "--graph-file", str(path),
                 "--graph-param", "p=0.1"]) == 1
    assert "--graph-file" in capsys.readouterr().err
