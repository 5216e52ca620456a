"""Correctness checks on a run's outputs, each against a result computed apart
from the program or against a property the method must have.

The Monte Carlo checks test the program's counts, summed over a run's
rounds, against a binomial band of two-sided mass 1e-7 (about 5.3 standard
errors) around the reference rate; where the reference is itself a Monte
Carlo estimate, the band is widened by 5.3 of its standard errors.  None of
them compares against a stored copy of the program's counts, so they keep
holding when the program's random streams are re-addressed.
"""

from __future__ import annotations

import math
import re
import sys
from itertools import product
from pathlib import Path

import numpy as np

import workloads as wk

ALPHA = 1e-7
Z_BAND = 5.3
GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def binomial_band(n: int, p_lo: float, p_hi: float | None = None) -> tuple[int, int]:
    """Counts outside [lo, hi] have probability below ALPHA for p in [p_lo, p_hi]."""
    from scipy.stats import binom

    p_hi = p_lo if p_hi is None else p_hi
    return int(binom.ppf(ALPHA / 2, n, p_lo)), int(binom.isf(ALPHA / 2, n, p_hi))


def estimate_range(hits: int, n: int) -> tuple[float, float]:
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
    return max(0.0, p - Z_BAND * se), min(1.0, p + Z_BAND * se)


def rate_check(name: str, hits: int, trials: int, p_lo: float, p_hi: float | None = None,
               what: str = "reference") -> dict:
    lo, hi = binomial_band(trials, p_lo, p_hi)
    ref = f"{p_lo:.5g}" if p_hi is None else f"[{p_lo:.5g},{p_hi:.5g}]"
    return check(name, lo <= hits <= hi,
                 f"{hits}/{trials} = {hits / trials:.5g}; {what} {ref}; band [{lo},{hi}]")


def is_count(x) -> bool:
    return float(x) == int(x) and x >= 0


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def codewords(gen) -> np.ndarray:
    """All 2^k codewords of a binary code, message index order (row 0 is zero)."""
    G = np.asarray(gen, dtype=np.int64) % 2
    k = G.shape[0]
    msgs = (np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1
    return msgs @ G % 2


def weight_enumerator(gen) -> dict[int, int]:
    weights, counts = np.unique(codewords(gen).sum(axis=1), return_counts=True)
    return {int(w): int(c) for w, c in zip(weights, counts)}


def soft_decode(u: np.ndarray, words: np.ndarray, chunk: int = 1000) -> np.ndarray:
    """Nearest point of C + 2Z^n to each row of u (gamma units), as a codeword index.

    Each coordinate costs its squared distance to the nearest even or odd
    integer; a codeword's cost is the sum of its coordinates' costs, so the
    decision is the argmin of (odd - even) costs times the codeword matrix.
    """
    words_f = words.astype(float).T
    out = np.empty(u.shape[0], dtype=np.int64)
    for a in range(0, u.shape[0], chunk):
        x = u[a:a + chunk]
        even = (x - 2.0 * np.round(x / 2.0)) ** 2
        odd = (x - 2.0 * np.round((x - 1.0) / 2.0) - 1.0) ** 2
        out[a:a + chunk] = np.argmin((odd - even) @ words_f, axis=1)
    return out


def construction_a_errors(gen, snr_db: float, samples: int, rng: np.random.Generator,
                          power: float = 1.0) -> tuple[int, int]:
    """Relay and direct-downlink end block errors of Construction A at q = 2.

    The relay's effective noise alpha*z - (1-alpha)*(x1+x2) is drawn here, with
    x1, x2 uniform over the coarse cell [-gamma, gamma)^n (the dithered
    signals) and z Gaussian.  A node's decode error is the codeword of its
    lattice error; node A recovers B's message iff its downlink error
    codeword equals the relay's.  Returns (relay errors, end errors).
    """
    words = codewords(gen)
    n = words.shape[1]
    gamma = math.sqrt(12.0 * power) / 2.0
    sigma2 = power / 10.0 ** (snr_db / 10.0)
    alpha = 2.0 * power / (2.0 * power + sigma2)
    sigma = math.sqrt(sigma2)
    relay_err = end_err = 0
    for a in range(0, samples, 10_000):
        m = min(10_000, samples - a)
        x = rng.uniform(-gamma, gamma, (m, n)) + rng.uniform(-gamma, gamma, (m, n))
        w = alpha * rng.normal(0.0, sigma, (m, n)) - (1.0 - alpha) * x
        c_r = soft_decode(w / gamma, words)
        c_a = soft_decode(rng.normal(0.0, sigma, (m, n)) / gamma, words)
        c_b = soft_decode(rng.normal(0.0, sigma, (m, n)) / gamma, words)
        relay_err += int(np.count_nonzero(c_r != 0))
        end_err += int(np.count_nonzero((c_r != c_a) | (c_r != c_b)))
    return relay_err, end_err


def hamming74_block_error(p: float) -> float:
    return 1.0 - (1.0 - p) ** 7 - 7.0 * p * (1.0 - p) ** 6


def bsc_end_error(gen, p: float) -> float:
    """End error of the XOR relay by enumerating all 2^n error patterns.

    pi(c) is the probability that a pattern decodes to codeword c (nearest
    codeword; unique for a perfect code); a node recovers its partner's
    message iff its downlink decodes to the relay's codeword, so the end
    success probability is sum_c pi(c)^3.
    """
    words = codewords(gen)
    n = words.shape[1]
    patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    probs = p ** patterns.sum(axis=1) * (1 - p) ** (n - patterns.sum(axis=1))
    nearest = np.argmin((patterns[:, None, :] != words[None, :, :]).sum(axis=2), axis=1)
    pi = np.bincount(nearest, weights=probs, minlength=words.shape[0])
    return float(1.0 - np.sum(pi ** 3))


def offshell_alt(n: int, power: float, delta: float, samples: int,
                 rng: np.random.Generator) -> int:
    """Off-shell count of |u+v|^2 for u, v uniform in the radius-sqrt(nP) ball.

    A different sampler from the program's: radii R*Beta(n, 1) and the cosine
    between two uniform directions, 2*Beta((n-1)/2, (n-1)/2) - 1; n >= 2.
    """
    radius = math.sqrt(n * power)
    r1 = radius * rng.beta(n, 1.0, samples)
    r2 = radius * rng.beta(n, 1.0, samples)
    cos = 2.0 * rng.beta((n - 1) / 2.0, (n - 1) / 2.0, samples) - 1.0
    s2 = r1 * r1 + r2 * r2 + 2.0 * r1 * r2 * cos
    return int(np.count_nonzero((s2 < n * (2 * power - delta)) | (s2 > n * (2 * power + delta))))


def half_integer_ball(n: int, power: float) -> np.ndarray:
    """Points of Z^n + 1/2 within radius sqrt(nP), by enumeration."""
    reach = int(math.ceil(math.sqrt(n * power))) + 1
    coords = [m + 0.5 for m in range(-reach, reach)]
    return np.array([p for p in product(coords, repeat=n)
                     if sum(c * c for c in p) <= n * power + 1e-12])


def minangle_offshell_fraction(n: int, power: float, delta: float) -> float:
    """Exact off-shell share of the pairs of `half_integer_ball` points."""
    pts = half_integer_ball(n, power)
    sums = pts[:, None, :] + pts[None, :, :]
    norms = (sums ** 2).sum(axis=2)
    off = (norms < n * (2 * power - delta)) | (norms > n * (2 * power + delta))
    return float(off.mean())


def crossover_closed_form() -> tuple[float, float]:
    return (10.0 * math.log10((math.e - 1.0) / 2.0), 10.0 * math.log10(math.e - 0.5))


def quadrature_oracle(root: Path):
    sys.path.insert(0, str(root / "tests"))
    from oracles import relay_symbol_error_oracle

    return relay_symbol_error_oracle


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def sum_reports(rounds: list[dict]) -> dict[str, dict]:
    total: dict[str, dict] = {}
    for rnd in rounds:
        for name, rep in rnd["reports"].items():
            agg = total.setdefault(name, {"trials": 0, "counts": {}})
            agg["trials"] += rep["trials"]
            for key, val in rep["counts"].items():
                agg["counts"][key] = agg["counts"].get(key, 0) + val
    return total


def consistency_checks(reports: dict[str, dict], expected_trials: dict[str, int] | None
                       ) -> list[dict]:
    """Counts are whole and within [0, trials] (concentration: [0, samples]),
    and the union error bounds the relay and end errors."""
    bad = []
    for name, rep in reports.items():
        t, c = rep["trials"], rep["counts"]
        if expected_trials is not None and t != expected_trials[name]:
            bad.append(f"{name}: {t} trials, expected {expected_trials[name]}")
        limit = c.get("samples", t)
        for key, val in c.items():
            if key != "relay_energy_per_dim" and not (is_count(val) and val <= limit):
                bad.append(f"{name}: {key}={val} is not a count within [0, {limit}]")
        if all(k in c for k in wk.LATTICE_KEYS):
            r, e, u = (c[k] for k in wk.LATTICE_KEYS)
            if not max(r, e) <= u <= r + e:
                bad.append(f"{name}: union {u} outside [max({r},{e}), {r}+{e}]")
        if "angle_error" in c:
            if c["angle_error"] != c["angle_error_on_shell"] + c["off_shell"]:
                bad.append(f"{name}: angle_error {c['angle_error']} != on-shell "
                           f"{c['angle_error_on_shell']} + off-shell {c['off_shell']}")
    return [check("reports.consistent", not bad, "; ".join(bad) or f"{len(reports)} reports")]


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def check_acceptance(rounds: list[dict], seed: int, root: Path) -> list[dict]:
    reports = sum_reports(rounds)
    expected = {name: len(rounds) * (trials // wk.ACCEPTANCE_SCALE)
                for name, (_, _, _, trials, _) in wk.SHARED_RUNS.items()}
    out = consistency_checks(reports, expected)
    rng = np.random.default_rng([seed, 1])
    c5 = reports["c5_random_pairs"]["counts"]
    out.append(check("c5.noiseless_zero_errors",
                     c5["relay_error"] == 0 and c5["end_error"] == 0,
                     f"relay {c5['relay_error']}, end {c5['end_error']}"))
    oracle = quadrature_oracle(root)
    for snr in (12, 16, 20):
        rep = reports[f"c6_snr{snr}"]
        out.append(rate_check(f"c6.relay_vs_quadrature_{snr}db", int(rep["counts"]["relay_error"]),
                              rep["trials"], oracle(q=4, power=1.0, snr_db=float(snr)),
                              what="quadrature"))
    for n in (2, 4, 8):
        name = f"c7_r05_n{n}"
        _, params, _, _, _ = wk.SHARED_RUNS[name]
        rep = reports[name]
        samples = 400_000
        hits, _ = construction_a_errors(params["generator"], params["snr_db"], samples, rng)
        lo, hi = estimate_range(hits, samples)
        out.append(rate_check(f"c7.relay_vs_soft_decoder_n{n}", int(rep["counts"]["relay_error"]),
                              rep["trials"], lo, hi, what=f"soft decoder {hits}/{samples}"))
        c = rep["counts"]
        out.append(check(f"c7.index_end_equals_relay_n{n}", c["end_error"] == c["relay_error"],
                         f"end {c['end_error']}, relay {c['relay_error']} (rate 1/2 below "
                         "capacity)"))
    for n in (2, 4, 8):
        rep = reports[f"c7_r20_n{n}"]
        out.append(check(f"c7.index_above_capacity_n{n}",
                         rep["counts"]["end_error"] == rep["trials"],
                         f"end {rep['counts']['end_error']} of {rep['trials']} (rate 2 at 10 dB)"))
    rep = reports["c8_bsc"]
    gen = hamming74_generator()
    out.append(rate_check("c8.bsc_relay_vs_formula", int(rep["counts"]["relay_error"]),
                          rep["trials"], hamming74_block_error(0.01), what="1-(1-p)^7-7p(1-p)^6"))
    out.append(rate_check("c8.bsc_end_vs_enumeration", int(rep["counts"]["end_error"]),
                          rep["trials"], bsc_end_error(gen, 0.01), what="enumeration"))
    for n in (8, 64):
        rep = reports[f"c11_n{n}"]
        out.append(concentration_check(f"c11.offshell_vs_beta_sampler_n{n}",
                                       int(rep["counts"]["off_shell"]),
                                       int(rep["counts"]["samples"]), n, 1.0, 0.1, rng))
    rep = reports["c12_minangle"]
    p = wk.MINANGLE_PARAMS
    frac = minangle_offshell_fraction(p["n"], p["power"], p["delta"])
    out.append(rate_check("c12.minangle_offshell_vs_enumeration", int(rep["counts"]["off_shell"]),
                          rep["trials"], frac, what="enumerated pairs"))
    return out


def concentration_check(name: str, off: int, samples: int, n: int, power: float,
                        delta: float, rng: np.random.Generator) -> dict:
    ref_samples = 2_000_000
    hits = offshell_alt(n, power, delta, ref_samples, rng)
    lo, hi = estimate_range(hits, ref_samples)
    return rate_check(name, off, samples, lo, hi, what=f"beta sampler {hits}/{ref_samples}")


def hamming74_generator() -> np.ndarray:
    P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    return np.hstack([np.eye(4, dtype=np.int64), P])


def check_long_code(rounds: list[dict], seed: int, root: Path) -> list[dict]:
    gen = wk.golay_generator()
    enum = weight_enumerator(gen)
    out = [check("golay.weight_enumerator", enum == GOLAY_WEIGHTS,
                 f"{enum}, expected {GOLAY_WEIGHTS}")]
    reports = sum_reports(rounds)
    out += consistency_checks(reports, {"golay": len(rounds) * wk.GOLAY_TRIALS})
    rep = reports["golay"]
    samples = 30_000
    relay, end = construction_a_errors(gen, wk.GOLAY_SNR_DB, samples,
                                       np.random.default_rng([seed, 2]))
    for key, hits in (("relay_error", relay), ("end_error", end)):
        lo, hi = estimate_range(hits, samples)
        out.append(rate_check(f"golay.{key}_vs_soft_decoder", int(rep["counts"][key]),
                              rep["trials"], lo, hi, what=f"soft decoder {hits}/{samples}"))
    return out


def wilson_half_width(k: int, n: int, z: float = 1.959963984540054) -> float:
    p = k / n
    return z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)


def check_ci_stop(rounds: list[dict], verify: dict, seed: int, root: Path) -> list[dict]:
    out = []
    first = rounds[0]["reports"]
    same = {name: first[name] == verify[name] for name in wk.CI_SPECS}
    out.append(check("stop.two_workers_equal_one_worker", all(same.values()),
                     "; ".join(f"{n}: {first[n]['trials']} trials vs {verify[n]['trials']}"
                               for n in wk.CI_SPECS)))
    bad = []
    for rnd in rounds:
        for name, (_, _, target, _) in wk.CI_SPECS.items():
            rep = rnd["reports"][name]
            t, k = rep["trials"], int(rep["counts"]["relay_error"])
            if t % wk.CI_BLOCK or not (wilson_half_width(k, t) <= target or t == wk.CI_CAP):
                bad.append(f"round {rnd['round']} {name}: stopped at {t} with half-width "
                           f"{wilson_half_width(k, t):.5g} > {target}")
    out.append(check("stop.rule", not bad, "; ".join(bad) or "every stop on a block boundary "
                     "with the half-width at or below its target"))
    reports = sum_reports(rounds)
    out += consistency_checks(reports, None)
    rep = reports["bsc_p023"]
    out.append(rate_check("bsc.relay_vs_formula", int(rep["counts"]["relay_error"]),
                          rep["trials"], hamming74_block_error(0.23), what="1-(1-p)^7-7p(1-p)^6"))
    rep = reports["lattice_n1_12db"]
    out.append(rate_check("lattice.relay_vs_quadrature", int(rep["counts"]["relay_error"]),
                          rep["trials"], quadrature_oracle(root)(q=4, power=1.0, snr_db=12.0),
                          what="quadrature"))
    return out


_CROSSOVER = re.compile(r"crossover_db: (\S+) (\S+)")
_PERIODS = re.compile(r"decode_periods: A=\[([0-9, ]*)\] B=\[([0-9, ]*)\]")
_END_ERRORS = re.compile(r"end_errors: (\d+)/(\d+)")


def check_cli(rounds: list[dict], seed: int, root: Path) -> list[dict]:
    """Checks on the lines that exited 0; a non-zero exit counts as failed."""
    ok_lines = {name: [r["lines"][name] for r in rounds if r["lines"][name]["code"] == 0]
                for name, _ in wk.CLI_LINES}
    out = []
    lo_ref, hi_ref = crossover_closed_form()
    bad = []
    for line in ok_lines["rates"]:
        m = _CROSSOVER.search(line["stdout"])
        if not m or abs(float(m[1]) - lo_ref) > 0.01 or abs(float(m[2]) - hi_ref) > 0.01:
            bad.append(line["stdout"].splitlines()[0] if line["stdout"] else "no output")
        elif not line["output"] or len(line["output"].splitlines()) != 82:
            bad.append("rates.csv does not hold a header and 81 grid rows")
    out.append(check("rates.crossover_closed_form", not bad,
                     "; ".join(bad) or f"within 0.01 dB of ({lo_ref:.4f}, {hi_ref:.4f})"))
    bad = [line["stdout"] for line in ok_lines["multihop_symbolic"]
           if "table1: PASS" not in line["stdout"]]
    out.append(check("multihop.table1_pass", not bad, "; ".join(bad) or "table1: PASS"))
    bad = []
    for line in ok_lines["multihop_noiseless"]:
        m = _END_ERRORS.search(line["stdout"])
        if not m or int(m[1]) != 0 or int(m[2]) == 0:
            bad.append(m[0] if m else "no end_errors line")
    out.append(check("multihop.noiseless_zero_end_errors", not bad, "; ".join(bad) or "0/N"))
    bad = []
    for name in ("multihop_symbolic", "multihop_noiseless"):
        for line in ok_lines[name]:
            m = _PERIODS.search(line["stdout"])
            if not m or m[1] != "2" or m[2] != "2":
                bad.append(f"{name}: {m[0] if m else 'no decode_periods line'}")
    out.append(check("multihop.steady_period_2", not bad, "; ".join(bad) or "A=[2] B=[2]"))

    sims = sum_reports([{"reports": {name: line["output"]["report"]}}
                        for name in ("sim_lattice", "sim_bsc", "sim_minangle", "sim_anc_power")
                        for line in ok_lines[name]])
    out += consistency_checks(sims, None)
    rep = sims.get("sim_lattice")
    if rep:
        out.append(rate_check("sim_lattice.relay_vs_quadrature", int(rep["counts"]["relay_error"]),
                              rep["trials"],
                              quadrature_oracle(root)(q=4, power=1.0, snr_db=20.0),
                              what="quadrature"))
    rep = sims.get("sim_bsc")
    if rep:
        out.append(rate_check("sim_bsc.relay_vs_formula", int(rep["counts"]["relay_error"]),
                              rep["trials"], hamming74_block_error(0.01),
                              what="1-(1-p)^7-7p(1-p)^6"))
    rep = sims.get("sim_minangle")
    if rep:
        out.append(rate_check("sim_minangle.offshell_vs_enumeration",
                              int(rep["counts"]["off_shell"]), rep["trials"],
                              minangle_offshell_fraction(3, 2.0, 1.5), what="enumerated pairs"))
    rep = sims.get("sim_anc_power")
    if rep:
        mean = rep["counts"]["relay_energy_per_dim"] / rep["trials"]
        # x_R is N(0, P) per dimension, so energy/dim over n = 16 is chi2_16/16.
        bound = 6.0 * math.sqrt(2.0 / 16 / rep["trials"])
        out.append(check("sim_anc_power.power_contract", abs(mean - 1.0) <= bound,
                         f"mean energy/dim {mean:.5f}, |mean - P| bound {bound:.5f}"))
    lines = ok_lines["concentration"]
    if lines:
        rng = np.random.default_rng([seed, 4])
        for n in (8, 16, 32, 64):
            off = samples = 0
            for line in lines:
                rows = dict(row.split(",", 1) for row in line["output"].splitlines()[1:])
                per_n = line["meta"]["config"]["samples"]
                if str(n) in rows:
                    off += round(float(rows[str(n)].split(",")[0]) * per_n)
                    samples += per_n
            if samples == 0:
                out.append(check(f"concentration.offshell_vs_beta_sampler_n{n}", False,
                                 f"no row for n={n} in conc.csv"))
                continue
            out.append(concentration_check(f"concentration.offshell_vs_beta_sampler_n{n}",
                                           off, samples, n, 1.0, 0.1, rng))
    return out
