"""Tests of the benchmark's own checks, tracer and metric definitions.

    python3 -m pytest perfbench/selftest.py

Each correctness check is shown to pass on a plausible result and to fail
on a wrong one: a swapped report, an off-by-one count, a wrong Golay row.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads as wk  # noqa: E402

SEED = 5


def failures(found: list[dict]) -> set[str]:
    return {c["name"] for c in found if not c["ok"]}


def lattice_report(trials, relay, end=None, union=None):
    end = relay if end is None else end
    union = max(relay, end) if union is None else union
    return {"trials": trials,
            "counts": {"relay_error": float(relay), "end_error": float(end),
                       "union_error": float(union)}}


# ---------------------------------------------------------------------------
# acceptance-mc
# ---------------------------------------------------------------------------

def split_rounds(totals: dict, rounds: int) -> list[dict]:
    """`rounds` rounds whose reports sum to `totals`: trials split evenly, all
    counts in round 0."""
    out = []
    for rnd in range(rounds):
        reports = {}
        for name, rep in totals.items():
            counts = rep["counts"] if rnd == 0 else {k: 0.0 for k in rep["counts"]}
            reports[name] = {"trials": rep["trials"] // rounds, "counts": dict(counts)}
        out.append({"round": rnd, "reports": reports})
    return out


def acceptance_totals() -> dict:
    return {
        "c5_random_pairs": lattice_report(10, 0),
        "c6_snr12": lattice_report(1000, 80),
        "c6_snr16": lattice_report(1000, 6),
        "c6_snr20": lattice_report(1000, 0),
        "c7_r05_n2": lattice_report(2000, 0),
        "c7_r05_n4": lattice_report(2000, 1),
        "c7_r05_n8": lattice_report(2000, 0),
        "c7_r20_n2": lattice_report(500, 200, 500),
        "c7_r20_n4": lattice_report(500, 210, 500),
        "c7_r20_n8": lattice_report(500, 220, 500),
        "c8_bsc": lattice_report(1000, 2, 6),
        "c11_n8": {"trials": 10, "counts": {"off_shell": 9046.0, "samples": 10000.0}},
        "c11_n64": {"trials": 10, "counts": {"off_shell": 6962.0, "samples": 10000.0}},
        "c12_minangle": {"trials": 200, "counts": {"angle_error": 132.0,
                                                   "angle_error_on_shell": 5.0,
                                                   "off_shell": 127.0, "ml_error": 3.0}},
    }


def run_acceptance(mutate=None) -> set[str]:
    totals = acceptance_totals()
    if mutate is not None:
        mutate(totals)
    # the totals are ten rounds at ACCEPTANCE_SCALE = 1000
    return failures(checks.check_acceptance(split_rounds(totals, 10), SEED, ROOT))


def test_acceptance_passes_on_plausible_result():
    assert run_acceptance() == set()


def _swap(a, b):
    def mutate(reports):
        reports[a], reports[b] = reports[b], reports[a]
    return mutate


def _bump(name, key, delta):
    def mutate(reports):
        reports[name]["counts"][key] += delta
    return mutate


@pytest.mark.parametrize("mutate, expected", [
    (_swap("c6_snr12", "c6_snr20"), {"c6.relay_vs_quadrature_12db"}),
    (_swap("c8_bsc", "c6_snr12"), {"c8.bsc_relay_vs_formula"}),
    (_swap("c11_n8", "c11_n64"), {"c11.offshell_vs_beta_sampler_n8"}),
    (_bump("c5_random_pairs", "relay_error", 1), {"c5.noiseless_zero_errors"}),
    (_bump("c7_r20_n4", "end_error", -1), {"c7.index_above_capacity_n4"}),
    (_bump("c7_r05_n4", "end_error", 1), {"c7.index_end_equals_relay_n4"}),
    (_bump("c12_minangle", "angle_error", 1), {"reports.consistent"}),
    (_bump("c12_minangle", "off_shell", 60), {"c12.minangle_offshell_vs_enumeration"}),
    (lambda r: r["c6_snr16"].update(trials=999), {"reports.consistent"}),
    (_bump("c7_r05_n8", "relay_error", 40), {"c7.relay_vs_soft_decoder_n8"}),
])
def test_acceptance_check_fails_on_wrong_result(mutate, expected):
    assert expected <= run_acceptance(mutate)


def test_shared_runs_match_acceptance_suite():
    import test_acceptance

    for name, (spec, trials, seed) in test_acceptance.SHARED_RUNS.items():
        experiment, params, keys, ours_trials, ours_seed = wk.SHARED_RUNS[name]
        assert (spec.name, dict(spec.params), tuple(spec.error_keys), trials, seed) == (
            experiment, params, keys, ours_trials, ours_seed), name
    assert set(test_acceptance.SHARED_RUNS) == set(wk.SHARED_RUNS)


# ---------------------------------------------------------------------------
# long-code-direct
# ---------------------------------------------------------------------------

def golay_rounds(relay=15, end=73, trials=150) -> list[dict]:
    return split_rounds({"golay": lattice_report(trials, relay, end)}, trials // wk.GOLAY_TRIALS)


def test_golay_generator_weight_enumerator():
    assert checks.weight_enumerator(wk.golay_generator()) == checks.GOLAY_WEIGHTS


def test_long_code_passes_on_plausible_result():
    assert failures(checks.check_long_code(golay_rounds(), SEED, ROOT)) == set()


def test_long_code_fails_on_wrong_golay_row(monkeypatch):
    rows = wk.golay_generator()
    rows[3][7] ^= 1
    monkeypatch.setattr(wk, "golay_generator", lambda: [list(r) for r in rows])
    found = failures(checks.check_long_code(golay_rounds(), SEED, ROOT))
    assert "golay.weight_enumerator" in found


def test_long_code_fails_on_swapped_counts_and_trials():
    assert "golay.relay_error_vs_soft_decoder" in failures(
        checks.check_long_code(golay_rounds(73, 73), SEED, ROOT))
    rounds = golay_rounds()
    rounds[-1]["reports"]["golay"]["trials"] -= 1
    assert "reports.consistent" in failures(checks.check_long_code(rounds, SEED, ROOT))


# ---------------------------------------------------------------------------
# ci-stop-2w
# ---------------------------------------------------------------------------

def ci_round() -> dict:
    return {"round": 0, "reports": {
        "bsc_p023": lattice_report(2 * wk.CI_BLOCK, 4128, 6000, 6300),
        "lattice_n1_12db": lattice_report(2 * wk.CI_BLOCK, 655),
    }}


def run_ci(mutate_round=None, mutate_verify=None) -> set[str]:
    rnd = ci_round()
    verify = copy.deepcopy(rnd["reports"])
    if mutate_round is not None:
        mutate_round(rnd["reports"])
    if mutate_verify is not None:
        mutate_verify(verify)
    return failures(checks.check_ci_stop([rnd], verify, SEED, ROOT))


def test_ci_stop_passes_on_plausible_result():
    assert run_ci() == set()


def test_ci_stop_fails_on_wrong_result():
    assert "stop.two_workers_equal_one_worker" in run_ci(
        mutate_verify=_bump("bsc_p023", "relay_error", 1))
    assert "stop.rule" in run_ci(lambda r: r["bsc_p023"].update(trials=2 * wk.CI_BLOCK + 1))
    assert "bsc.relay_vs_formula" in run_ci(_swap("bsc_p023", "lattice_n1_12db"))


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

def cli_round() -> dict:
    def sim(trials, counts):
        return {"report": {"trials": trials, "counts": counts}}

    conc = "n,fraction,ci_low,ci_high\n8,0.9046,0,1\n16,0.8554,0,1\n32,0.7881,0,1\n64,0.6962,0,1\n"
    lines = {
        "rates": ("crossover_db: -0.659 3.460\nwrote 81 grid points to rates.csv\n",
                  "header\n" + "row\n" * 81),
        "sim_lattice": ("", sim(1000, {"relay_error": 0.0, "end_error": 0.0,
                                       "union_error": 0.0})),
        "sim_bsc": ("", sim(1000, {"relay_error": 2.0, "end_error": 6.0, "union_error": 6.0})),
        "sim_minangle": ("", sim(200, {"angle_error": 132.0, "angle_error_on_shell": 5.0,
                                       "off_shell": 127.0, "ml_error": 3.0})),
        "sim_anc_power": ("", sim(1000, {"relay_energy_per_dim": 1000.0})),
        "multihop_symbolic": ("table1: PASS\ndecode_periods: A=[2] B=[2]\n", {}),
        "multihop_noiseless": ("decode_periods: A=[2] B=[2]\nend_errors: 0/20 hop_errors: 0/30\n",
                               {}),
        "concentration": ("", conc),
    }
    out = {name: {"code": 0, "stdout": stdout, "output": output}
           for name, (stdout, output) in lines.items()}
    out["concentration"]["meta"] = {"config": {"samples": 10000}}
    return {"round": 0, "lines": out}


def run_cli(mutate=None) -> set[str]:
    rnd = cli_round()
    if mutate is not None:
        mutate(rnd["lines"])
    return failures(checks.check_cli([rnd], SEED, ROOT))


def test_cli_passes_on_plausible_result():
    assert run_cli() == set()


def _stdout(name, old, new):
    def mutate(lines):
        lines[name]["stdout"] = lines[name]["stdout"].replace(old, new)
    return mutate


@pytest.mark.parametrize("mutate, expected", [
    (_stdout("rates", "-0.659", "-0.700"), "rates.crossover_closed_form"),
    (_stdout("multihop_symbolic", "PASS", "FAIL"), "multihop.table1_pass"),
    (_stdout("multihop_noiseless", "end_errors: 0/", "end_errors: 1/"),
     "multihop.noiseless_zero_end_errors"),
    (_stdout("multihop_noiseless", "A=[2]", "A=[2, 3]"), "multihop.steady_period_2"),
    (lambda lines: lines["sim_anc_power"]["output"]["report"]["counts"].update(
        relay_energy_per_dim=1100.0), "sim_anc_power.power_contract"),
    (lambda lines: lines["sim_minangle"]["output"]["report"]["counts"].update(off_shell=128.0),
     "reports.consistent"),
    (lambda lines: lines["sim_bsc"]["output"]["report"]["counts"].update(relay_error=80.0),
     "sim_bsc.relay_vs_formula"),
    (lambda lines: lines.update(concentration=dict(
        lines["concentration"], output=lines["concentration"]["output"].replace(
            "8,0.9046", "8,0.6962"))), "concentration.offshell_vs_beta_sampler_n8"),
])
def test_cli_check_fails_on_wrong_result(mutate, expected):
    assert expected in run_cli(mutate)


# ---------------------------------------------------------------------------
# references, tracer and metric names
# ---------------------------------------------------------------------------

def test_bsc_end_enumeration_matches_relay_formula_at_small_p():
    p = 1e-4
    # end error ~ three independent block errors for small p
    assert checks.bsc_end_error(checks.hamming74_generator(), p) == pytest.approx(
        3 * checks.hamming74_block_error(p), rel=1e-3)


def test_minangle_enumeration_counts_56_points():
    # {+-1/2, +-3/2}^3 without the 8 corners (+-3/2)^3, whose norm 27/4 exceeds 6
    pts = checks.half_integer_ball(3, 2.0)
    assert len(pts) == 56 and {abs(c) for c in pts.ravel()} == {0.5, 1.5}


def test_tracer_records_nested_spans_and_restores_everything():
    from twinrelay import bsc, harness, minangle, multihop, rates, twoway

    owners = {"harness": harness, "twoway": twoway, "multihop": multihop, "rates": rates,
              "minangle": minangle, "code": bsc.BinaryLinearCode}
    before = {(k, a): getattr(o, a) for k, o in owners.items() for a in dir(o)
              if not a.startswith("__")}
    trials_before = {n: harness.get_experiment(n) for n in ("lattice", "bsc", "minangle")}
    tracer = tracing.Tracer()
    tracing.install(tracer)
    spec = harness.ExperimentSpec("lattice", wk.lattice_params(2, 2, 1, 10.0, wk.REP_2_1),
                                  wk.LATTICE_KEYS)
    harness.run_trials(spec, trials=3, master_seed=1)
    tracing.uninstall(tracer)
    after = {(k, a): getattr(o, a) for k, o in owners.items() for a in dir(o)
             if not a.startswith("__")}
    assert after == before
    assert {n: harness.get_experiment(n) for n in trials_before} == trials_before
    names = [s[0] for s in tracer.spans]
    assert names.count("twoway.trial") == 3 and names.count("rng.generator") == 3
    trial_idx = {i for i, s in enumerate(tracer.spans) if s[0] == "twoway.trial"}
    relay = [s for s in tracer.spans if s[0] == "twoway.relay_decode_sum"]
    assert len(relay) == 3 and all(s[3] in trial_idx for s in relay)
    quant = [s for s in tracer.spans if s[0] == "lattice.quantize_fine"]
    assert all(tracer.spans[s[3]][0] == "twoway.relay_decode_sum" for s in quant)


def test_self_time_subtracts_direct_children_only():
    spans = [("twoway.trial", 0, 1000, -1), ("twoway.relay_decode_sum", 100, 600, 0),
             ("lattice.quantize_fine", 200, 500, 1), ("lattice.mod_coarse", 700, 800, 0)]
    out = layers.layer_metrics(spans, 0, {}, 1, [], 0.0)
    assert out["twoway.trial_self_us"]["value"] == pytest.approx(0.4)
    assert out["twoway.trial_us"]["value"] == pytest.approx(1.0)
    assert out["lattice.quantize_fine_calls"]["value"] == 1


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "trials_per_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(wk.WORKLOAD_NAMES)
