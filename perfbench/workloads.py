"""The benchmark's four workloads: their inputs, set-up and one round each.

A round is one pass over a workload's fixed mix of operations; an operation
is one trial report (one ``run_trials`` call) or one CLI invocation (one
``twinrelay.cli.main`` call).  Every
round of a workload attempts the same operations, with inputs drawn from the
``--seed`` argument and the round number, so a run is a whole number of
rounds however long it lasts.  Each round reports the time of each of its
operations under ``op_times``.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def round_seed(base: int, seed: int, rnd: int) -> int:
    """63-bit master seed for one operation of one round."""
    digest = hashlib.blake2b(f"{base}:{seed}:{rnd}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def report_record(report) -> dict:
    return {"trials": report.trials, "counts": dict(report.counts)}


def timed_reports(run_one, names) -> dict:
    """Run one report per name; the round record with per-operation times."""
    reports, op_times = {}, {}
    for name in names:
        start = time.perf_counter()
        reports[name] = report_record(run_one(name))
        op_times[name] = time.perf_counter() - start
    return {"ops": len(reports), "failed": 0,
            "trials": sum(r["trials"] for r in reports.values()),
            "reports": reports, "op_times": op_times}


def fastest_round_s(rounds: list[dict]) -> float:
    """One round's time with each operation taken at its fastest in the run.

    The host's speed drifts by up to 2x over seconds (CPU time drifts with it),
    and that only ever slows an operation, so the per-operation minimum is the
    steadiest estimate of what the code costs.
    """
    names = rounds[0]["op_times"]
    return sum(min(r["op_times"][name] for r in rounds) for name in names)


# ---------------------------------------------------------------------------
# acceptance-mc: the SHARED_RUNS of tests/test_acceptance.py, trials / 1000
# ---------------------------------------------------------------------------

REP_2_1 = [[1, 1]]
CODE_4_2 = [[1, 1, 1, 0], [1, 0, 1, 1]]
EXT_HAMMING_8_4 = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]
MINANGLE_PARAMS = {"n": 3, "gamma": 1.0, "power": 2.0,
                   "sigma2": 2.0 / 10 ** 1.5, "delta": 1.5}
LATTICE_KEYS = ("relay_error", "end_error", "union_error")
MINANGLE_KEYS = ("angle_error", "ml_error")


def lattice_params(n, q, k, snr_db, gen=None, mode="index") -> dict:
    params = {"n": n, "q": q, "k": k, "snr_db": snr_db, "power": 1.0, "mode": mode}
    if gen is not None:
        params["generator"] = gen
    return params


# name -> (experiment, params, error keys, acceptance trial count, master seed)
SHARED_RUNS = {
    "c5_random_pairs": ("lattice", lattice_params(4, 16, 2, None), LATTICE_KEYS, 1000, 1605),
    "c6_snr12": ("lattice", lattice_params(1, 4, 1, 12.0), LATTICE_KEYS, 100_000, 1612),
    "c6_snr16": ("lattice", lattice_params(1, 4, 1, 16.0), LATTICE_KEYS, 100_000, 1616),
    "c6_snr20": ("lattice", lattice_params(1, 4, 1, 20.0), LATTICE_KEYS, 100_000, 1620),
    "c7_r05_n2": ("lattice", lattice_params(2, 2, 1, 10.0, REP_2_1), LATTICE_KEYS, 200_000, 1702),
    "c7_r05_n4": ("lattice", lattice_params(4, 2, 2, 10.0, CODE_4_2), LATTICE_KEYS, 200_000, 1704),
    "c7_r05_n8": ("lattice", lattice_params(8, 2, 4, 10.0, EXT_HAMMING_8_4), LATTICE_KEYS,
                  200_000, 1708),
    "c7_r20_n2": ("lattice", lattice_params(2, 4, 2, 10.0), LATTICE_KEYS, 50_000, 1712),
    "c7_r20_n4": ("lattice", lattice_params(4, 4, 4, 10.0), LATTICE_KEYS, 50_000, 1714),
    "c7_r20_n8": ("lattice", lattice_params(8, 4, 8, 10.0), LATTICE_KEYS, 50_000, 1718),
    "c8_bsc": ("bsc", {"p": 0.01, "code": "hamming74"}, LATTICE_KEYS, 100_000, 1800),
    "c11_n8": ("concentration", {"n": 8, "power": 1.0, "delta": 0.1, "batch": 1000}, (),
               1000, 2108),
    "c11_n64": ("concentration", {"n": 64, "power": 1.0, "delta": 0.1, "batch": 1000}, (),
                1000, 2164),
    "c12_minangle": ("minangle", MINANGLE_PARAMS, MINANGLE_KEYS, 20_000, 2200),
}
# Short rounds (about 0.2 s) give each operation many timings per run.
ACCEPTANCE_SCALE = 1000


def _warm(harness, specs) -> None:
    """One trial per spec, which builds the pair, code and decoder caches."""
    for spec in specs:
        harness.run_trials(spec, trials=1, master_seed=0, workers=1)


class AcceptanceMC:
    def setup(self) -> dict:
        from twinrelay import harness

        specs = {name: (harness.ExperimentSpec(exp, params, keys),
                        trials // ACCEPTANCE_SCALE, seed)
                 for name, (exp, params, keys, trials, seed) in SHARED_RUNS.items()}
        _warm(harness, [spec for spec, _, _ in specs.values()])
        return {"harness": harness, "specs": specs}

    def run_round(self, ctx: dict, seed: int, rnd: int, traced: bool) -> dict:
        def run_one(name):
            spec, trials, base = ctx["specs"][name]
            return ctx["harness"].run_trials(spec, trials=trials,
                                             master_seed=round_seed(base, seed, rnd), workers=1)

        return timed_reports(run_one, ctx["specs"])


# ---------------------------------------------------------------------------
# long-code-direct: Construction A of the extended Golay code, direct downlink
# ---------------------------------------------------------------------------

# g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, lowest degree first.
GOLAY_POLY = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
GOLAY_SNR_DB = 4.5          # about 10% relay and 45% end block error
GOLAY_TRIALS = 30           # per round, about 0.2 s at 7 ms a trial
GOLAY_SEED = 2400


def golay_generator(poly=GOLAY_POLY) -> list[list[int]]:
    """12 x 24 generator: cyclic shifts of g(x) in length 23 plus a parity bit."""
    rows = []
    for shift in range(12):
        row = [0] * 23
        for j, bit in enumerate(poly):
            row[shift + j] = bit
        rows.append(row + [sum(row) % 2])
    return rows


def golay_params() -> dict:
    return lattice_params(24, 2, 12, GOLAY_SNR_DB, golay_generator(), mode="direct")


class LongCodeDirect:
    def setup(self) -> dict:
        from twinrelay import harness

        spec = harness.ExperimentSpec("lattice", golay_params(), LATTICE_KEYS)
        _warm(harness, [spec])
        return {"harness": harness, "spec": spec}

    def run_round(self, ctx: dict, seed: int, rnd: int, traced: bool) -> dict:
        return timed_reports(
            lambda name: ctx["harness"].run_trials(
                ctx["spec"], trials=GOLAY_TRIALS,
                master_seed=round_seed(GOLAY_SEED, seed, rnd), workers=1),
            ["golay"])


# ---------------------------------------------------------------------------
# ci-stop-2w: sequential stopping on two workers
# ---------------------------------------------------------------------------

CI_BLOCK = 4096
CI_CAP = 16 * CI_BLOCK
CI_WORKERS = 2
# Each target is the geometric mean of the Wilson half-widths after one and
# two blocks at the reference error rate, so both specs stop after 2 blocks
# on every seed: bsc p = 0.23 has block error 0.504 (half-widths 0.01530,
# 0.01082); lattice n=1 q=4 at 12 dB has relay error 0.0800 (0.00831,
# 0.00588), with more than five standard errors of margin.  Two blocks keep
# an operation near 0.5 s, so a run times each one about 14 times.
CI_SPECS = {
    "bsc_p023": ("bsc", {"p": 0.23, "code": "hamming74"}, 0.01287, 2501),
    "lattice_n1_12db": ("lattice", lattice_params(1, 4, 1, 12.0), 0.006989, 2502),
}


class CiStop2W:
    def setup(self) -> dict:
        from twinrelay import harness

        specs = {name: (harness.ExperimentSpec(exp, params, LATTICE_KEYS), target, base)
                 for name, (exp, params, target, base) in CI_SPECS.items()}
        _warm(harness, [spec for spec, _, _ in specs.values()])
        return {"harness": harness, "specs": specs}

    def run_round(self, ctx: dict, seed: int, rnd: int, traced: bool,
                  workers: int = CI_WORKERS) -> dict:
        def run_one(name):
            spec, target, base = ctx["specs"][name]
            return ctx["harness"].run_trials(
                spec, trials=None, master_seed=round_seed(base, seed, rnd), workers=workers,
                target_ci=target, max_trials=CI_CAP, block=CI_BLOCK)

        return timed_reports(run_one, ctx["specs"])

    def verify(self, ctx: dict, seed: int) -> dict:
        """Round 0 again on one worker, outside the timed part."""
        return self.run_round(ctx, seed, 0, False, workers=1)["reports"]


# ---------------------------------------------------------------------------
# cli-readme: every CLI line of the README, in order, counts / 100
# ---------------------------------------------------------------------------

CLI_SCALE = 100
CLI_LINES = (
    ("rates", ["rates", "--snr-min", "-10", "--snr-max", "30", "--step", "0.5",
               "--out", "rates.csv"]),
    ("sim_lattice", ["sim", "lattice", "--n", "1", "--q", "4", "--k", "1", "--snr-db", "20",
                     "--trials", str(100_000 // CLI_SCALE), "--seed", "{seed}",
                     "--out", "lat.json"]),
    ("sim_bsc", ["sim", "bsc", "--p", "0.01", "--code", "hamming74",
                 "--trials", str(100_000 // CLI_SCALE), "--seed", "{seed}", "--out", "bsc.json"]),
    ("sim_minangle", ["sim", "minangle", "--dim", "3", "--power", "2", "--snr-db", "15",
                      "--delta", "1.5", "--trials", str(20_000 // CLI_SCALE),
                      "--seed", "{seed}", "--out", "ma.json"]),
    ("sim_anc_power", ["sim", "anc-power", "--snr-db", "10", "--n", "16",
                       "--trials", str(100_000 // CLI_SCALE), "--seed", "{seed}",
                       "--out", "anc.json"]),
    ("multihop_symbolic", ["multihop", "--relays", "3", "--packets", "6", "--mode", "symbolic",
                           "--out", "hop.json"]),
    ("multihop_noiseless", ["multihop", "--relays", "2", "--packets", "10",
                            "--mode", "numeric-noiseless", "--q", "8", "--n", "2",
                            "--seed", "{seed}", "--out", "hop2.json"]),
    ("concentration", ["concentration", "--n-list", "8,16,32,64",
                       "--samples", str(1_000_000 // CLI_SCALE), "--seed", "{seed}",
                       "--out", "conc.csv"]),
)
CLI_SEED = 2600


def package_caches() -> list:
    """Every functools cache in the loaded twinrelay modules (through wrappers)."""
    caches = []
    for name, module in sorted(sys.modules.items()):
        if name != "twinrelay" and not name.startswith("twinrelay."):
            continue
        for obj in vars(module).values():
            while not hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__"):
                obj = obj.__wrapped__
            if hasattr(obj, "cache_clear") and not any(obj is c for c in caches):
                caches.append(obj)
    return caches


def _read_output(path: Path):
    if not path.exists():
        return None
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else text


class CliReadme:
    """The README's CLI lines through ``twinrelay.cli.main``, in this process.

    Every functools cache of the package is cleared before each line, so a
    line rebuilds its codebooks, codes and decoder tables as a fresh
    ``twinrelay`` process would; the interpreter and import start-up of that
    process is ``setup_s``.  A line that raises counts as exit code 1, as
    the console script's would.
    """

    def __init__(self, rundir: Path) -> None:
        self.rundir = rundir

    def setup(self) -> dict:
        from twinrelay import cli

        return {"cli": cli, "caches": package_caches()}

    def run_round(self, ctx: dict, seed: int, rnd: int, traced: bool) -> dict:
        workdir = self.rundir / f"cli-r{rnd}"
        workdir.mkdir(parents=True, exist_ok=True)
        line_seed = str(round_seed(CLI_SEED, seed, rnd))
        lines, trials = {}, 0
        for name, template in CLI_LINES:
            args = [a.replace("{seed}", line_seed) for a in template]
            out_at = args.index("--out") + 1
            out_path = workdir / args[out_at]
            args[out_at] = str(out_path)
            for cache in ctx["caches"]:
                cache.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = ctx["cli"].main(args)
            except Exception:
                code = 1
                stderr.write(traceback.format_exc())
            wall = time.perf_counter() - t0
            lines[name] = {"args": args, "code": code, "wall_s": wall,
                           "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-2000:],
                           "output": _read_output(out_path)}
            if out_path.suffix == ".csv":
                lines[name]["meta"] = _read_output(Path(str(out_path) + ".meta.json"))
            trials += _cli_trials(name, args)
        return {"ops": len(lines), "failed": sum(1 for v in lines.values() if v["code"] != 0),
                "trials": trials, "lines": lines,
                "op_times": {name: line["wall_s"] for name, line in lines.items()}}


def _cli_trials(name: str, args: list[str]) -> int:
    """Monte Carlo trials a line asks for (concentration: 1000-sample batches)."""
    if "--trials" in args:
        return int(args[args.index("--trials") + 1])
    if name == "concentration":
        dims = args[args.index("--n-list") + 1].split(",")
        return len(dims) * int(args[args.index("--samples") + 1]) // 1000
    return 0


def make(name: str, rundir: Path):
    if name == "acceptance-mc":
        return AcceptanceMC()
    if name == "long-code-direct":
        return LongCodeDirect()
    if name == "ci-stop-2w":
        return CiStop2W()
    if name == "cli-readme":
        return CliReadme(rundir)
    raise KeyError(name)


WORKLOAD_NAMES = ("acceptance-mc", "long-code-direct", "ci-stop-2w", "cli-readme")
