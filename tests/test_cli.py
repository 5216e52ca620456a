"""CLI contract: flags, exit codes, file determinism, stdout summaries."""

import json
import os

import numpy as np
import pytest

from twinrelay import harness
from twinrelay.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rates_csv(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code, stdout, _ = run_cli(
        capsys, "rates", "--snr-min", "-10", "--snr-max", "30",
        "--step", "0.5", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "snr_db,upper,lattice,jd,envelope,anc,purenc,beta_star"
    assert len(lines) == 1 + 81
    assert "crossover_db: -0.659 3.460" in stdout
    meta = json.loads((tmp_path / "rates.csv.meta.json").read_text())
    assert meta["tool"]["name"] == "twinrelay"
    assert meta["config"]["step"] == 0.5


def test_rates_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "rates", "--out", str(a))
    run_cli(capsys, "rates", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_rates_json_format(tmp_path, capsys):
    out = tmp_path / "rates.json"
    code, _, _ = run_cli(capsys, "rates", "--snr-min", "0", "--snr-max", "2",
                         "--step", "1", "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) == 3
    assert doc["config"]["subcommand"] == "rates"


def test_rates_invalid_grid_exit_2_no_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, _ = run_cli(capsys, "rates", "--step", "-1", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_sim_target_ci_without_error_key_exit_2_no_file(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, stderr = run_cli(capsys, "sim", "anc-power", "--snr-db", "10",
                              "--target-ci", "0.01", "--out", str(out))
    assert code == 2
    assert stderr.startswith("error:") and "Traceback" not in stderr
    assert not out.exists()


def test_sim_trials_with_target_ci_exit_2_no_file(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, stderr = run_cli(capsys, "sim", "lattice", "--snr-db", "20", "--trials", "100",
                              "--target-ci", "0.01", "--out", str(out))
    assert code == 2
    assert stderr.startswith("error:") and "not both" in stderr
    assert not out.exists()


def test_unknown_flag_exit_2(tmp_path, capsys):
    code = main(["rates", "--bogus", "1", "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


def test_sim_bsc_noiseless(tmp_path, capsys):
    out = tmp_path / "bsc.json"
    code, stdout, _ = run_cli(
        capsys, "sim", "bsc", "--p", "0.0", "--code", "hamming74",
        "--trials", "256", "--seed", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["counts"]["relay_error"] == 0
    assert doc["report"]["counts"]["end_error"] == 0
    assert doc["report"]["trials"] == 256
    assert doc["master_seed"] == 1


def test_sim_lattice_report(tmp_path, capsys):
    out = tmp_path / "lat.json"
    code, stdout, _ = run_cli(
        capsys, "sim", "lattice", "--n", "1", "--q", "4", "--k", "1",
        "--snr-db", "20", "--trials", "2000", "--seed", "7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["experiment"] == "lattice"
    assert "relay_error" in doc["report"]["counts"]
    assert "relay_error=" in stdout


def test_sim_minangle_report(tmp_path, capsys):
    out = tmp_path / "ma.json"
    code, stdout, _ = run_cli(
        capsys, "sim", "minangle", "--dim", "3", "--power", "2",
        "--snr-db", "15", "--delta", "1.5", "--trials", "2000",
        "--seed", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["codebook"]["M1"] == 56
    assert doc["codebook"]["Msum_on_shell"] > 0
    assert doc["report"]["counts"]["angle_error"] >= doc["report"]["counts"]["off_shell"]


def test_sim_missing_required_param(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sim", "bsc", "--trials", "10",
                           "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert not (tmp_path / "x.json").exists()


def test_sim_rerun_byte_identical(tmp_path, capsys):
    out = tmp_path / "a.json"
    args = ["sim", "bsc", "--p", "0.02", "--trials", "500", "--seed", "9",
            "--out", str(out)]
    run_cli(capsys, *args)
    first = out.read_bytes()
    run_cli(capsys, *args)
    assert out.read_bytes() == first


def test_multihop_symbolic_table_pass(tmp_path, capsys):
    out = tmp_path / "hop.json"
    code, stdout, _ = run_cli(
        capsys, "multihop", "--relays", "3", "--packets", "6",
        "--mode", "symbolic", "--out", str(out))
    assert code == 0
    assert "table1: PASS" in stdout
    doc = json.loads(out.read_text())
    assert doc["table1"] == "PASS"
    assert doc["schedule"]["relays"] == 3


def test_multihop_numeric_noiseless(tmp_path, capsys):
    out = tmp_path / "hop2.json"
    code, stdout, _ = run_cli(
        capsys, "multihop", "--relays", "2", "--packets", "10",
        "--mode", "numeric-noiseless", "--q", "8", "--n", "2", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["end_errors"] == 0
    assert doc["result"]["end_decodes"] == 20


def test_multihop_steady_state_period(tmp_path, capsys):
    out = tmp_path / "hop4.json"
    code, stdout, _ = run_cli(
        capsys, "multihop", "--relays", "4", "--packets", "10",
        "--mode", "symbolic", "--out", str(out))
    assert code == 0
    assert "decode_periods: A=[2] B=[2]" in stdout


def test_concentration_csv(tmp_path, capsys):
    out = tmp_path / "conc.csv"
    code, stdout, _ = run_cli(
        capsys, "concentration", "--n-list", "8,16,32,64", "--samples", "20000",
        "--seed", "2", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,fraction,ci_low,ci_high"
    assert len(lines) == 5
    fracs = [float(line.split(",")[1]) for line in lines[1:]]
    assert fracs[0] > fracs[-1]


def test_concentration_json_rows(tmp_path, capsys):
    out = tmp_path / "conc.json"
    code, _, _ = run_cli(capsys, "concentration", "--n-list", "3,8", "--samples", "5000",
                         "--seed", "4", "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["samples"] == 5000
    assert [row["n"] for row in doc["rows"]] == [3, 8]
    for row in doc["rows"]:
        assert row["samples"] == 5000
        spec = harness.ExperimentSpec(
            "concentration", {"n": row["n"], "power": 1.0, "delta": 0.1, "batch": 1000}, ())
        off = int(harness.run_trials(spec, trials=5, master_seed=4).counts["off_shell"])
        assert row["fraction"] == pytest.approx(off / 5000, rel=1e-11)
        lo, hi = harness.wilson_interval(off, 5000)
        assert row["ci_low"] == pytest.approx(lo, rel=1e-11)
        assert row["ci_high"] == pytest.approx(hi, rel=1e-11)


def test_concentration_bad_dims(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "concentration", "--n-list", "0,-3",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_version(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("twinrelay ")


def test_provenance_numpy_and_stream_addressing(tmp_path, capsys):
    addressing = {"version": 2, "block": 4096}
    out = tmp_path / "lat.json"
    code, _, _ = run_cli(capsys, "sim", "lattice", "--snr-db", "20", "--trials", "100",
                         "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["numpy"] == np.__version__
    assert doc["stream_addressing"] == addressing
    code, _, _ = run_cli(capsys, "rates", "--out", str(tmp_path / "r.csv"))
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["numpy"] == np.__version__
    assert meta["stream_addressing"] == addressing


def test_failed_write_leaves_target_and_no_temp_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "rates.csv"
    target.write_text("old\n")

    def fail_replace(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", fail_replace)
    code, _, stderr = run_cli(capsys, "rates", "--out", str(target))
    assert code == 1
    assert stderr.startswith("error:") and "replace refused" in stderr
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rates.csv"]


def test_sim_workers_above_cap_exit_2_no_file(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, stderr = run_cli(capsys, "sim", "bsc", "--p", "0.1", "--trials", "10000",
                              "--workers", str(harness.MAX_WORKERS + 1), "--out", str(out))
    assert code == 2
    assert stderr.startswith("error:") and "workers" in stderr
    assert not out.exists()


_PARENT_PID = os.getpid()


def _exit_in_worker(params, rng, count):
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return {"relay_error": 0, "end_error": 0, "union_error": 0}


def test_sim_broken_pool_exit_1_no_file(tmp_path, capsys, monkeypatch):
    harness.get_experiment("bsc")
    monkeypatch.setitem(harness._REGISTRY, "bsc", _exit_in_worker)
    out = tmp_path / "x.json"
    code, _, stderr = run_cli(capsys, "sim", "bsc", "--p", "0.1", "--trials", "8192",
                              "--workers", "2", "--out", str(out))
    assert code == 1
    assert stderr.startswith("error:") and "Traceback" not in stderr
    assert not out.exists()


def _out_of_memory(params, rng, count):
    raise MemoryError("Unable to allocate 11.9 GiB for an array")


@pytest.mark.parametrize("experiment,argv", [
    ("anc-power", ["sim", "anc-power", "--snr-db", "10", "--trials", "4096"]),
    ("concentration", ["concentration", "--n-list", "8", "--samples", "1000"]),
])
def test_memory_error_exit_1_error_line_no_file(tmp_path, capsys, monkeypatch,
                                                 experiment, argv):
    harness.get_experiment(experiment)
    monkeypatch.setitem(harness._REGISTRY, experiment, _out_of_memory)
    code, _, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code == 1
    assert stderr.startswith("error:") and "Unable to allocate" in stderr
    assert "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


def _assert_exit_2_no_file(tmp_path, code, stderr):
    assert code == 2
    assert "error:" in stderr and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["lattice", "--snr-db", "10", "--power", "5"],
    ["lattice", "--snr-db", "10", "--p", "0.3"],
    ["lattice", "--snr-db", "10", "--dim", "9"],
    ["bsc", "--p", "0.01", "--n", "15", "--k", "11"],
    ["bsc", "--p", "0.01", "--snr-db", "10"],
    ["minangle", "--snr-db", "10", "--n", "4"],
    ["minangle", "--snr-db", "10", "--p", "0.3"],
    ["minangle", "--snr-db", "10", "--broadcast", "direct"],
    ["anc-power", "--snr-db", "10", "--q", "8"],
    ["anc-power", "--snr-db", "10", "--power", "2"],
])
def test_sim_flag_of_another_scheme_exit_2_no_file(tmp_path, capsys, argv):
    code, _, stderr = run_cli(capsys, "sim", *argv, "--trials", "100",
                              "--out", str(tmp_path / "x.json"))
    _assert_exit_2_no_file(tmp_path, code, stderr)


@pytest.mark.parametrize("argv", [
    ["bsc", "--p", "0.01", "--code", "random", "--trials", "100"],
    ["minangle", "--trials", "100"],
    ["anc-power", "--n", "16", "--trials", "100"],
])
def test_sim_required_flag_or_code_choice_exit_2_no_file(tmp_path, capsys, argv):
    code, _, stderr = run_cli(capsys, "sim", *argv, "--out", str(tmp_path / "x.json"))
    _assert_exit_2_no_file(tmp_path, code, stderr)


@pytest.mark.parametrize("run", [
    ["--target-ci", "0.01", "--max-trials", "0"],
    ["--target-ci", "0.01", "--max-trials", "-5"],
    ["--trials", "100", "--max-trials", "1000"],
])
def test_sim_max_trials_misuse_exit_2_no_file(tmp_path, capsys, run):
    code, _, stderr = run_cli(capsys, "sim", "lattice", "--snr-db", "10", *run,
                              "--out", str(tmp_path / "l.json"))
    _assert_exit_2_no_file(tmp_path, code, stderr)
    assert "max_trials" in stderr


_FLOAT_FLAGS = [
    (["rates"], "--snr-min"),
    (["rates"], "--snr-max"),
    (["rates"], "--step"),
    (["sim", "lattice", "--trials", "100"], "--snr-db"),
    (["sim", "lattice", "--snr-db", "10"], "--target-ci"),
    (["sim", "bsc", "--trials", "100"], "--p"),
    (["sim", "minangle", "--trials", "100"], "--snr-db"),
    (["sim", "minangle", "--snr-db", "10", "--trials", "100"], "--power"),
    (["sim", "minangle", "--snr-db", "10", "--trials", "100"], "--gamma"),
    (["sim", "minangle", "--snr-db", "10", "--trials", "100"], "--delta"),
    (["sim", "anc-power", "--trials", "100"], "--snr-db"),
    (["multihop", "--relays", "2", "--packets", "4", "--mode", "numeric-awgn"], "--snr-db"),
    (["concentration", "--samples", "1000"], "--power"),
    (["concentration", "--samples", "1000"], "--delta"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv,flag", _FLOAT_FLAGS)
def test_non_finite_float_flag_exit_2_no_file(tmp_path, capsys, argv, flag, value):
    code, _, stderr = run_cli(capsys, *argv, f"{flag}={value}",
                              "--out", str(tmp_path / "x.out"))
    _assert_exit_2_no_file(tmp_path, code, stderr)
    assert "not a finite number" in stderr


@pytest.mark.parametrize("argv", [
    ["sim", "anc-power", "--snr-db", "10", "--n", "0", "--trials", "100"],
    ["sim", "anc-power", "--snr-db", "10", "--n", "-1", "--trials", "100"],
    ["sim", "minangle", "--snr-db", "10", "--dim", "0", "--trials", "100"],
    ["sim", "minangle", "--snr-db", "10", "--dim", "-1", "--trials", "100"],
    ["sim", "lattice", "--snr-db", "4000", "--trials", "100"],
    ["sim", "minangle", "--snr-db=-4000", "--trials", "100"],
    ["concentration", "--n-list", "x"],
    ["concentration", "--n-list", "8,1.5"],
    ["concentration", "--samples", "1500"],
    ["concentration", "--samples", "0"],
])
def test_out_of_range_value_exit_2_error_line_no_file(tmp_path, capsys, argv):
    code, _, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code == 2
    assert stderr.startswith("error:") and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


def test_rates_grid_above_db_bound_exit_2_no_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "rates", "--snr-min", "3000", "--snr-max", "3100",
                              "--step", "10", "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert stderr.startswith("error:") and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


def test_sim_target_ci_zero_exit_2_no_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "sim", "lattice", "--snr-db", "10", "--target-ci", "0",
                              "--max-trials", "8192", "--out", str(tmp_path / "l.json"))
    assert code == 2
    assert stderr.startswith("error:") and "target_ci" in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--mode", "symbolic", "--q", "5", "--n", "7", "--snr-db", "3"],
    ["--mode", "symbolic", "--seed", "4"],
    ["--mode", "numeric-noiseless", "--snr-db", "3"],
    ["--mode", "bogus"],
])
def test_multihop_flag_of_another_mode_exit_2_no_file(tmp_path, capsys, argv):
    code, _, _ = run_cli(capsys, "multihop", "--relays", "3", "--packets", "6", *argv,
                         "--out", str(tmp_path / "h.json"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_multihop_config_lists_only_read_flags(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert run_cli(capsys, "multihop", "--relays", "2", "--packets", "4", "--out", str(out),
                   "--mode=symbolic")[0] == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == {"subcommand": "multihop", "relays": 2, "packets": 4,
                             "mode": "symbolic", "out": str(out)}
    assert "master_seed" not in doc
    assert run_cli(capsys, "multihop", "--relays", "2", "--packets", "4", "--mode",
                   "numeric-awgn", "--snr-db", "20", "--seed", "3", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == {"subcommand": "multihop", "relays": 2, "packets": 4,
                             "mode": "numeric-awgn", "n": 2, "q": 8, "k": 1, "snr_db": 20.0,
                             "out": str(out)}
    assert doc["master_seed"] == 3


def test_rates_grid_guard_exit_1_no_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "rates", "--snr-min", "0", "--snr-max", "1e6",
                              "--step", "1e-4", "--out", str(tmp_path / "rates.csv"))
    assert code == 1
    assert stderr.startswith("error:") and "grid" in stderr
    assert list(tmp_path.iterdir()) == []
