"""CLI contract: flags, exit codes, file determinism, stdout summaries."""

import json

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


def test_concentration_bad_dims(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "concentration", "--n-list", "0,-3",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_version(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("twinrelay ")
