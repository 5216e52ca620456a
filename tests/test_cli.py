"""CLI contract: flags, exit codes, file determinism, stdout summaries."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from twinrelay import harness
from twinrelay.canonical import canonical_dumps
from twinrelay.cli import MULTIHOP_MODES, _mode_first, _parse, build_parser, main
from twinrelay.rates import rate_curve, rate_point, rate_upper
from twinrelay.rng import generator


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


def test_curve_csv_contract(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    argv = ("rates", "--snr-min", "-10", "--snr-max", "30", "--step", "1", "--out", str(out))
    assert run_cli(capsys, *argv)[0] == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "snr_db,upper,lattice,jd,envelope,anc,purenc,beta_star"
    assert lines[0] == ",".join(rate_point(0.0))
    assert len(lines) == 1 + 41
    for line, point in zip(lines[1:], rate_curve(-10.0, 30.0, 1.0)):
        cols = line.split(",")
        assert float(cols[2]) <= float(cols[1]) + 1e-12  # lattice <= upper
        assert float(cols[0]) == pytest.approx(point["snr_db"], abs=1e-9)
    # deterministic: a second rendering is byte-identical
    assert run_cli(capsys, *argv)[0] == 0
    assert out.read_text() == text


def test_curve_csv_12_sig_digits(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    run_cli(capsys, "rates", "--snr-min", "0", "--snr-max", "1", "--step", "1", "--out", str(out))
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[1] == f"{rate_upper(1.0):.12g}"


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
    stderr = capsys.readouterr().err
    assert code == 2
    assert stderr.startswith("usage: twinrelay [-h] [--version] "
                             "{rates,sim,multihop,concentration} ...\n")
    assert "unrecognized arguments: --bogus 1" in stderr


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


@pytest.mark.parametrize("packets,checked", [("2", False), ("3", True)])
def test_multihop_table1_checked_from_three_packets(tmp_path, capsys, packets, checked):
    # the table's slots 1-6 need each end to inject three packets
    out = tmp_path / "hop.json"
    code, stdout, _ = run_cli(
        capsys, "multihop", "--relays", "3", "--packets", packets,
        "--mode", "symbolic", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    lines = [line for line in stdout.splitlines() if line.startswith("table1")]
    if checked:
        assert lines == ["table1: PASS"] and doc["table1"] == "PASS"
    else:
        assert lines == [] and "table1" not in doc


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
            "concentration", {"n": row["n"], "power": 1.0, "delta": 0.1}, ())
        off = int(harness.run_trials(spec, trials=5, master_seed=4).counts["off_shell"])
        assert row["fraction"] == pytest.approx(off / 5000, rel=1e-11)
        lo, hi = harness.wilson_interval(off, 5000)
        assert row["ci_low"] == pytest.approx(lo, rel=1e-11)
        assert row["ci_high"] == pytest.approx(hi, rel=1e-11)


def test_concentration_large_dimension(tmp_path, capsys):
    out = tmp_path / "conc.json"
    code, _, _ = run_cli(capsys, "concentration", "--n-list", "1000000", "--samples", "1000",
                         "--format", "json", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1 and rows[0]["n"] == 1_000_000
    assert 0.0 <= rows[0]["fraction"] <= 1.0


def test_concentration_bad_dims(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "concentration", "--n-list", "0,-3",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_version(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("twinrelay ")


# Run in a fresh interpreter: main(argv), then the exit code and which of
# the modules the command must not load (a JSON list ahead of argv) are loaded.
_FRESH_CLI = """
import json, sys
from twinrelay.cli import main
unwanted = json.loads(sys.argv[1])
code = main(sys.argv[2:])
print(json.dumps([code, [m for m in unwanted if m in sys.modules]]))
"""
_HEAVY = ("numpy", "twinrelay.harness", "concurrent.futures", "dataclasses")


def _fresh_cli(cwd, *argv, unwanted=_HEAVY) -> tuple[int, list[str]]:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _FRESH_CLI, json.dumps(unwanted), *argv],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    return code, loaded


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
    # a fresh process: the version, help, flag errors and `rates` start
    # without numpy, the harness, the process pool or dataclasses, and
    # `rates` still names the numpy version a numpy-loading command records
    for argv, want in ((["--version"], 0), (["--help"], 0), (["sim", "--help"], 0),
                       (["sim", "lattice", "--power", "5", "--out", "x.json"], 2),
                       (["rates", "--bogus"], 2), (["rates", "--out", "fresh.csv"], 0)):
        assert _fresh_cli(tmp_path, *argv) == (want, []), argv
    meta = json.loads((tmp_path / "fresh.csv.meta.json").read_text())
    assert meta["numpy"] == np.__version__
    assert meta["stream_addressing"] == addressing
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv,unwanted", [
    (["sim", "bsc", "--p", "0.05", "--trials", "100", "--out", "b.json"],
     ["twinrelay.twoway", "twinrelay.minangle"]),
    (["sim", "minangle", "--dim", "2", "--snr-db", "15", "--trials", "100", "--out", "m.json"],
     ["twinrelay.twoway", "twinrelay.bsc"]),
    (["sim", "anc-power", "--snr-db", "10", "--trials", "100", "--out", "a.json"],
     ["twinrelay.bsc", "twinrelay.minangle"]),
    (["multihop", "--relays", "3", "--packets", "6", "--mode", "symbolic", "--out", "s.json"],
     ["twinrelay.harness", "concurrent.futures.process"]),
    (["multihop", "--relays", "2", "--packets", "10", "--mode", "numeric-noiseless",
      "--q", "8", "--n", "2", "--out", "n.json"],
     ["twinrelay.harness", "concurrent.futures.process"]),
], ids=["sim-bsc", "sim-minangle", "sim-anc-power", "multihop-symbolic",
        "multihop-numeric-noiseless"])
def test_fresh_command_loads_no_other_experiment(tmp_path, argv, unwanted):
    # a one-block `sim` imports only its own kernel module (the dB to sigma^2
    # conversion is in `rates`, not `twoway`), and `multihop`, which runs
    # outside the harness, loads neither it nor the process pool
    assert _fresh_cli(tmp_path, *argv, unwanted=unwanted) == (0, [])


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


def test_write_error_names_the_requested_path(tmp_path, capsys):
    target = tmp_path / "missing" / "r.csv"
    code, _, stderr = run_cli(capsys, "rates", "--out", str(target))
    assert code == 1
    assert stderr.startswith("error:") and str(target) in stderr and ".tmp" not in stderr
    assert list(tmp_path.iterdir()) == []


def test_write_beside_a_stale_temp_file(tmp_path, capsys):
    # a killed run with this process's PID left its temp file behind
    stale = tmp_path / f".rates.csv.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    target = tmp_path / "rates.csv"
    code, stdout, _ = run_cli(capsys, "rates", "--out", str(target))
    assert code == 0 and "wrote" in stdout
    assert target.read_text().startswith("snr_db,")
    assert stale.read_text() == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        stale.name, "rates.csv", "rates.csv.meta.json"]
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    assert target.stat().st_mode == plain.stat().st_mode


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


@pytest.mark.parametrize("argv", [
    ["sim", "bsc", "--p", "0.1", "--out", "bsc.json"],
    ["concentration", "--out", "conc.csv"],
])
def test_workers_default_is_one_whatever_the_environment(monkeypatch, argv):
    # the flag is the worker count's one source: no environment variable feeds it
    monkeypatch.setenv("TWINRELAY_WORKERS", "4")
    assert _parse(argv).workers == 1


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
    ["concentration", "--power", "-1"],
    ["sim", "lattice", "--q", "0", "--snr-db", "10", "--trials", "100"],
    ["multihop", "--relays", "2", "--packets", "4", "--mode", "numeric-noiseless", "--q", "0"],
])
def test_out_of_range_value_exit_2_error_line_no_file(tmp_path, capsys, argv):
    code, _, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code == 2
    assert stderr.startswith("error:") and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


_SEED_RUNS = [
    ["sim", "lattice", "--snr-db", "8", "--trials", "100"],
    ["multihop", "--relays", "2", "--packets", "4", "--mode", "numeric-noiseless"],
    ["concentration", "--n-list", "8", "--samples", "1000", "--format", "json"],
]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64), "x"])
@pytest.mark.parametrize("argv", _SEED_RUNS)
def test_seed_outside_64_bits_exit_2_no_file(tmp_path, capsys, argv, seed):
    # the streams key on the seed's low 64 bits, so a wider one would alias
    code, _, stderr = run_cli(capsys, *argv, f"--seed={seed}", "--out", str(tmp_path / "x.out"))
    _assert_exit_2_no_file(tmp_path, code, stderr)
    assert "not a seed in [0, 2**64)" in stderr


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
@pytest.mark.parametrize("argv", _SEED_RUNS)
def test_seed_at_either_end_of_64_bits_runs(tmp_path, capsys, argv, seed):
    out = tmp_path / "x.json"
    code, _, _ = run_cli(capsys, *argv, "--seed", str(seed), "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["master_seed"] == seed


@pytest.mark.parametrize("argv,phrase", [
    (["sim", "anc-power", "--snr-db", "10", "--n", "100000000"], "exceeds"),
    # sqrt(nP) overflows, or the box of the ball codebook has ~300-digit sides
    (["sim", "minangle", "--power", "1e308", "--snr-db", "10"], "more than 2000000 points"),
    (["sim", "minangle", "--gamma", "1e-300", "--snr-db", "10"], "more than 2000000 points"),
    (["sim", "minangle", "--gamma", "1e-320", "--snr-db", "10"], "more than 2000000 points"),
    (["sim", "minangle", "--power", "1e200", "--snr-db", "10"], "more than 2000000 points"),
    # q^k and the (q^k, n) codebook are bounded in Python ints, so a modulus
    # past int64 or a dimension past numpy's shapes never reaches an array
    (["sim", "lattice", "--q", str(1 << 70)], "enumeration guard"),
    (["sim", "lattice", "--q", str((1 << 63) - 1)], "enumeration guard"),
    (["sim", "lattice", "--n", "5000000", "--q", "16"], "codebook of 16^1 x 5000000"),
    # the (trials, n) draws are bounded before the pair is built
    (["sim", "lattice", "--n", str(10 ** 20)], "lattice block exceeds"),
    (["sim", "lattice", "--n", "100000000", "--k", "1"], "lattice block exceeds"),
], ids=["anc-power-block", "minangle-power-1e308", "minangle-gamma-1e-300",
        "minangle-gamma-1e-320", "minangle-power-1e200", "lattice-q-2^70", "lattice-q-2^63-1",
        "lattice-codebook", "lattice-n-1e20", "lattice-block"])
def test_guard_exit_1_short_error_line_no_file(tmp_path, capsys, argv, phrase):
    code, _, stderr = run_cli(capsys, *argv, "--trials", "10",
                              "--out", str(tmp_path / "a.json"))
    assert code == 1
    assert stderr.startswith("error:") and phrase in stderr
    assert stderr.count("\n") == 1 and len(stderr) < 300
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,phrase", [
    (["--packets", "1", "--q", str(1 << 70)], "enumeration guard"),
    (["--packets", "1", "--n", str(10 ** 20)], "codebook of 8^1 x"),
    # a 1,000-slot schedule of 50,000-dimensional signals: the pair is small
    (["--packets", "500", "--n", "50000", "--q", "2"], "slot grid exceeds"),
], ids=["q-2^70", "n-1e20", "slot-grid"])
def test_multihop_guard_exit_1_short_error_line_no_file(tmp_path, capsys, argv, phrase):
    code, _, stderr = run_cli(capsys, "multihop", "--mode", "numeric-noiseless",
                              "--relays", "1", *argv, "--out", str(tmp_path / "h.json"))
    assert code == 1
    assert stderr.startswith("error:") and phrase in stderr
    assert stderr.count("\n") == 1 and len(stderr) < 300
    assert list(tmp_path.iterdir()) == []


EXTREME_INPUTS = [
    ["sim", "minangle", "--power", "1e308", "--snr-db", "10", "--trials", "10"],
    ["sim", "minangle", "--gamma", "1e-300", "--snr-db", "10", "--trials", "10"],
    ["sim", "minangle", "--power", "1e200", "--snr-db", "10", "--trials", "10"],
    ["concentration", "--power", "1e-300", "--samples", "10000"],
    ["concentration", "--power", "1e300", "--samples", "10000"],
    ["sim", "lattice", "--snr-db=-1000", "--trials", "100"],
    ["sim", "anc-power", "--snr-db=-400", "--trials", "100"],
    ["rates", "--snr-min=-1000", "--snr-max=-900", "--step", "10"],
    ["multihop", "--mode", "numeric-awgn", "--relays", "2", "--packets", "3",
     "--snr-db", "400"],
    ["concentration", "--n-list", "99999999999999999999", "--samples", "1000"],
    ["sim", "lattice", "--n", "30", "--q", "2", "--k", "15", "--trials", "10"],
]


@pytest.mark.parametrize("argv", EXTREME_INPUTS, ids=[" ".join(a) for a in EXTREME_INPUTS])
def test_extreme_input_exits_cleanly(tmp_path, capsys, argv):
    """No input makes the CLI raise, print a traceback or warn: it exits 0, 1
    or 2, and a failure leaves no file and ends on one short `error:` line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code in (0, 1, 2)
    if code:
        assert list(tmp_path.iterdir()) == []
        last = stderr.strip().splitlines()[-1]
        assert last.startswith("error:") and len(last) < 300


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


@pytest.mark.parametrize("relays,packets", [("3", "5000"), ("5000", "1")])
def test_multihop_ledger_guard_exit_1_no_file(tmp_path, capsys, relays, packets):
    code, _, stderr = run_cli(capsys, "multihop", "--relays", relays, "--packets", packets,
                              "--mode", "symbolic", "--out", str(tmp_path / "h.json"))
    assert code == 1
    assert stderr.startswith("error:") and "ledger guard" in stderr
    assert list(tmp_path.iterdir()) == []


def test_rates_grid_guard_exit_1_no_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "rates", "--snr-min", "0", "--snr-max", "1e6",
                              "--step", "1e-4", "--out", str(tmp_path / "rates.csv"))
    assert code == 1
    assert stderr.startswith("error:") and "grid" in stderr
    assert list(tmp_path.iterdir()) == []


# The README's CLI lines with fixed seeds and trial/sample counts divided by
# 100, each writing into the working directory.
README_LINES = (
    ["rates", "--snr-min", "-10", "--snr-max", "30", "--step", "0.5", "--out", "rates.csv"],
    ["sim", "lattice", "--n", "1", "--q", "4", "--k", "1", "--snr-db", "20",
     "--trials", "1000", "--seed", "7", "--out", "lat.json"],
    ["sim", "bsc", "--p", "0.01", "--code", "hamming74", "--trials", "1000", "--seed", "7",
     "--out", "bsc.json"],
    ["sim", "minangle", "--dim", "3", "--power", "2", "--snr-db", "15", "--delta", "1.5",
     "--trials", "200", "--seed", "7", "--out", "ma.json"],
    ["sim", "anc-power", "--snr-db", "10", "--n", "16", "--trials", "1000", "--seed", "7",
     "--out", "anc.json"],
    ["multihop", "--relays", "3", "--packets", "6", "--mode", "symbolic", "--out", "hop.json"],
    ["multihop", "--relays", "2", "--packets", "10", "--mode", "numeric-noiseless",
     "--q", "8", "--n", "2", "--seed", "7", "--out", "hop2.json"],
    ["concentration", "--n-list", "8,16,32,64", "--samples", "10000", "--seed", "7",
     "--out", "conc.csv"],
)

# sha256 over every README line's stdout, output file and `.meta.json`
# sidecar, with the numpy version dropped from the provenance.  It pins the
# multihop config too, which is every flag the parser set.
README_SHA256 = "04887e5459940d52ffe12ca9bfbc87955b3a2f52304f7efac040dddc02b8180d"


def _pinned_bytes(path) -> bytes:
    if path.suffix != ".json":
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("numpy")
    return canonical_dumps(doc).encode()


def test_readme_lines_pinned_byte_for_byte(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for argv in README_LINES:
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        h.update(stdout.encode())
        out = tmp_path / argv[argv.index("--out") + 1]
        h.update(_pinned_bytes(out))
        if out.suffix == ".csv":
            h.update(_pinned_bytes(tmp_path / (out.name + ".meta.json")))
    assert h.hexdigest() == README_SHA256


@pytest.mark.parametrize("argv,names", [
    (["--help"], ("rates", "sim", "multihop", "concentration")),
    (["sim", "--help"], ("lattice", "bsc", "minangle", "anc-power")),
    (["multihop", "--help"], MULTIHOP_MODES),
])
def test_help_lists_every_name(capsys, argv, names):
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "{" + ",".join(names) + "}" in stdout


@pytest.mark.parametrize("argv,names", [
    (["bogus"], ("rates", "sim", "multihop", "concentration")),
    (["sim", "bogus"], ("lattice", "bsc", "minangle", "anc-power")),
    (["multihop", "--mode", "bogus"], MULTIHOP_MODES),
])
def test_invalid_name_exit_2_lists_choices(capsys, argv, names):
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert "invalid choice: 'bogus'" in stderr
    assert "(choose from " + ", ".join(f"'{name}'" for name in names) + ")" in stderr


@pytest.mark.parametrize("argv", README_LINES, ids=lambda argv: argv[-1])
def test_readme_line_builds_one_parser(argv, monkeypatch, tmp_path, capsys):
    # a complete command parses with its own leaf parser, not the whole tree
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(built) == 1, built


@pytest.mark.parametrize("argv", README_LINES, ids=lambda argv: argv[-1])
def test_leaf_namespace_is_the_trees(argv):
    argv = _mode_first(argv)
    assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))


_LEAF_ARGS = {  # each leaf's path and flags, with every required flag but --out
    "rates": ["rates"],
    "concentration": ["concentration"],
    "lattice": ["sim", "lattice"],
    "bsc": ["sim", "bsc", "--p", "0.1"],
    "minangle": ["sim", "minangle", "--snr-db", "10"],
    "anc-power": ["sim", "anc-power", "--snr-db", "10"],
    "symbolic": ["multihop", "--mode", "symbolic", "--relays", "3", "--packets", "6"],
    "numeric-noiseless": ["multihop", "--mode", "numeric-noiseless", "--relays", "3",
                          "--packets", "6"],
    "numeric-awgn": ["multihop", "--mode", "numeric-awgn", "--relays", "3", "--packets", "6",
                     "--snr-db", "10"],
}
_BAD_TYPE = {"rates": "--step", "concentration": "--samples", "lattice": "--n", "bsc": "--p",
             "minangle": "--dim", "anc-power": "--n", "symbolic": "--relays",
             "numeric-noiseless": "--q", "numeric-awgn": "--snr-db"}
ROUTE_CASES = {
    "help": ["-h"], "sim-help": ["sim", "-h"], "multihop-help": ["multihop", "-h"],
    **{f"{leaf}-help": [*args, "-h"] for leaf, args in _LEAF_ARGS.items()},
    "version": ["--version"], "version-before-leaf": ["--version", "sim", "lattice"],
    "version-after-leaf": ["sim", "lattice", "--version", "--out", "x.json"],
    "version-after-rates": ["rates", "--version", "--out", "x.csv"],
    **{f"{leaf}-bad-type": [*args, _BAD_TYPE[leaf], "abc", "--out", "x.json"]
       for leaf, args in _LEAF_ARGS.items()},
    **{f"{leaf}-missing-required": args for leaf, args in _LEAF_ARGS.items()},
    "unknown-flag": ["rates", "--bogus", "1", "--out", "x.csv"],
    "unknown-scheme-flag": ["sim", "lattice", "--bogus", "--out", "x.json"],
    "other-mode-flag": ["multihop", "--mode", "symbolic", "--relays", "3", "--packets", "6",
                        "--q", "5", "--out", "x.json"],
    "invalid-command": ["bogus"],
    "invalid-scheme": ["sim", "bogus", "--out", "x.json"],
    "invalid-mode": ["multihop", "--mode", "bogus", "--out", "x.json"],
    "no-command": [],
    "rates-abbreviated": ["rates", "--ste", "abc", "--out", "x.csv"],
    "rates-ambiguous": ["rates", "--snr-m", "1", "--out", "x.csv"],
    "concentration-abbreviated": ["concentration", "--sam", "abc", "--out", "x.csv"],
    "scheme-abbreviated": ["sim", "lattice", "--sn", "3", "--out", "x.json"],
    "trailing-mode": ["multihop", "--relays", "3", "--packets", "6", "--out", "x.json",
                      "--mode"],
}


@pytest.mark.parametrize("argv", ROUTE_CASES.values(), ids=ROUTE_CASES)
def test_help_and_errors_read_as_the_trees(argv, monkeypatch, tmp_path, capsys):
    # main parses a complete command with its leaf alone; each help text and
    # error must still be the whole tree's, byte for byte
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    ours = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(_mode_first(list(argv)))
    tree = capsys.readouterr()
    assert (code, ours.out, ours.err) == (exc.value.code or 0, tree.out, tree.err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [argv for argv in README_LINES if argv[0] == "sim"] + [None],
                         ids=lambda argv: argv[1] if argv else "concentration")
def test_kernel_refuses_params_missing_a_cli_key(argv):
    # the CLI writes every key a kernel reads, so the flags' defaults are the
    # only defaults; None stands for the params `cmd_concentration` builds
    if argv is None:
        name, params = "concentration", {"n": 8, "power": 1.0, "delta": 0.1}
    else:
        args = _parse(argv)
        name, (params, _) = args.scheme, args.spec(args)
    kernel = harness.get_experiment(name)
    kernel(params, generator(0), 4)
    for key in params:
        with pytest.raises(KeyError):
            kernel({k: v for k, v in params.items() if k != key}, generator(0), 4)
