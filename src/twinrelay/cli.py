"""Command-line entry point wiring the modules into reproducible experiments.

Subcommands: rates, sim, multihop, concentration.  All user-facing SNR
flags are in dB with snr_db = 10*log10(P/sigma2); transmit power is fixed
at P = 1 and sigma2 is derived, since only the ratio matters.  Every
output file is written after computation succeeds, through a temporary
file renamed into place (invalid flags and failed writes never leave
partial files), and is byte-identical across reruns of the same
configuration; provenance (tool and numpy versions, the stream-addressing
scheme, full config, master seed) is embedded in JSON outputs and written
as a `.meta.json` sidecar next to CSV outputs.  Exit codes: 0 success, 1 runtime failure, 2
validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import __version__, harness, minangle, multihop, rates
from .bsc import BSC_ERROR_KEYS
from .errors import TwinrelayError, ValidationError
from .minangle import MINANGLE_ERROR_KEYS
from .twoway import LATTICE_ERROR_KEYS, pair_from_params

DEFAULT_POWER = 1.0


def _default_workers() -> int:
    raw = os.environ.get("TWINRELAY_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _provenance(config: dict, seed: int | None = None) -> dict:
    out = {"tool": {"name": "twinrelay", "version": __version__},
           "numpy": np.__version__,
           "stream_addressing": {"version": harness.STREAM_VERSION, "block": harness.BLOCK},
           "config": config}
    if seed is not None:
        out["master_seed"] = seed
    return out


def _write_text(path: str, text: str) -> None:
    """Write to a temporary file beside `path`, then rename it into place, so
    `path` holds either its old content or all of `text`."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path: str, obj: dict) -> None:
    _write_text(path, harness.canonical_dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def cmd_rates(args: argparse.Namespace) -> int:
    grid = rates.GridSpec(args.snr_min, args.snr_max, args.step)
    config = {"subcommand": "rates", "snr_min": args.snr_min, "snr_max": args.snr_max,
              "step": args.step, "format": args.format, "out": args.out}
    curve = rates.rate_curve(grid)
    lo, hi = rates.crossover_window()
    if args.format == "csv":
        _write_text(args.out, rates.curve_csv(curve))
        _write_json(args.out + ".meta.json", _provenance(config))
    else:
        rows = [
            {"snr_db": p.snr_db, "upper": p.upper, "lattice": p.lattice, "jd": p.jd,
             "envelope": p.envelope, "anc": p.anc, "purenc": p.pure_nc,
             "beta_star": p.beta_star}
            for p in curve.points
        ]
        _write_json(args.out, {**_provenance(config), "points": rows})
    print(f"crossover_db: {lo:.3f} {hi:.3f}")
    print(f"wrote {len(curve.points)} grid points to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _sim_spec(args: argparse.Namespace) -> harness.ExperimentSpec:
    if args.scheme == "lattice":
        params = {"n": args.n, "q": args.q, "k": args.k, "snr_db": args.snr_db,
                  "power": DEFAULT_POWER, "mode": args.broadcast}
        pair_from_params(params)  # validate codebook parameters up front
        return harness.ExperimentSpec("lattice", params, LATTICE_ERROR_KEYS)
    if args.scheme == "bsc":
        if args.p is None:
            raise ValidationError("bsc scheme needs --p")
        return harness.ExperimentSpec(
            "bsc", {"p": args.p, "code": args.code}, BSC_ERROR_KEYS)
    if args.scheme == "anc-power":
        if args.snr_db is None:
            raise ValidationError("anc-power scheme needs --snr-db")
        sigma2 = DEFAULT_POWER / 10.0 ** (args.snr_db / 10.0)
        return harness.ExperimentSpec(
            "anc-power", {"n": args.n, "power": DEFAULT_POWER, "sigma2": sigma2}, ())
    if args.scheme == "minangle":
        if args.snr_db is None:
            raise ValidationError("minangle scheme needs --snr-db")
        sigma2 = args.power / 10.0 ** (args.snr_db / 10.0)
        delta = args.delta if args.delta is not None else 0.1 * args.power
        return harness.ExperimentSpec(
            "minangle",
            {"n": args.dim, "gamma": args.gamma, "power": args.power,
             "sigma2": sigma2, "delta": delta},
            MINANGLE_ERROR_KEYS)
    raise ValidationError(f"unknown scheme {args.scheme!r}")


def cmd_sim(args: argparse.Namespace) -> int:
    spec = _sim_spec(args)
    config = {"subcommand": "sim", "scheme": args.scheme, "params": dict(spec.params),
              "trials": args.trials, "target_ci": args.target_ci,
              "max_trials": args.max_trials, "out": args.out}
    report = harness.run_trials(
        spec, trials=args.trials, master_seed=args.seed, workers=args.workers,
        target_ci=args.target_ci, max_trials=args.max_trials,
    )
    payload = {**_provenance(config, seed=args.seed), "report": report.to_dict()}
    if args.scheme == "minangle":
        sums = minangle._decoder_instance(
            args.dim, args.gamma, args.power, spec.params["delta"], None, None)[2]
        payload["codebook"] = {
            "M1": sums.m1, "M2": sums.m2,
            "Msum_on_shell": int(sums.on_shell.sum()),
        }
    _write_json(args.out, payload)
    if spec.error_keys:
        lo, hi = report.interval(spec.error_keys[0])
        print(f"{args.scheme}: {spec.error_keys[0]}={report.estimate:.6g} "
              f"ci95=[{lo:.6g},{hi:.6g}] trials={report.trials}")
    else:
        key = next(iter(sorted(report.counts)))
        print(f"{args.scheme}: mean {key}={report.counts[key] / report.trials:.6g} "
              f"trials={report.trials}")
    print(f"wall_time_s={report.wall_time_s:.3f}", file=sys.stderr)
    print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# multihop
# ---------------------------------------------------------------------------

def cmd_multihop(args: argparse.Namespace) -> int:
    schedule = multihop.build_schedule(args.relays, args.packets)
    config = {"subcommand": "multihop", "relays": args.relays, "packets": args.packets,
              "mode": args.mode, "n": args.n, "q": args.q, "k": args.k,
              "snr_db": args.snr_db, "out": args.out}
    payload = {**_provenance(config, seed=args.seed),
               "schedule": multihop.schedule_json(schedule)}

    if args.mode == "symbolic":
        if args.relays == 3:
            fixture = _load_table1()
            ok = multihop.table_json(schedule) == fixture
            print(f"table1: {'PASS' if ok else 'FAIL'}")
            payload["table1"] = "PASS" if ok else "FAIL"
        result = multihop.run_multihop(schedule, "symbolic")
    else:
        pair = pair_from_params({"n": args.n, "q": args.q, "k": args.k,
                                 "power": DEFAULT_POWER})
        sigma2 = 0.0
        if args.mode == "numeric-awgn":
            if args.snr_db is None:
                raise ValidationError("numeric-awgn needs --snr-db")
            sigma2 = DEFAULT_POWER / 10.0 ** (args.snr_db / 10.0)
        result = multihop.run_multihop(schedule, args.mode, pair=pair,
                                       sigma2=sigma2, seed=args.seed)
    payload["result"] = result.to_dict()
    _write_json(args.out, payload)
    periods = {nd: schedule.steady_state_periods(nd) for nd in ("A", "B")}
    print(f"first_decode: A=slot {schedule.first_decode_slot('A')} "
          f"B=slot {schedule.first_decode_slot('B')}")
    print(f"decode_periods: A={sorted(set(periods['A']))} B={sorted(set(periods['B']))}")
    if args.mode != "symbolic":
        print(f"end_errors: {result.end_errors}/{result.end_decodes} "
              f"hop_errors: {result.hop_errors}/{result.hop_decodes}")
    print(f"wrote schedule and events to {args.out}")
    return 0


def _load_table1() -> str:
    path = os.path.join(os.path.dirname(__file__), "data", "table1.json")
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

def cmd_concentration(args: argparse.Namespace) -> int:
    dims = [int(v) for v in args.n_list.split(",") if v.strip()]
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"bad dimension list {args.n_list!r}")
    delta = args.delta if args.delta is not None else 0.1 * args.power
    config = {"subcommand": "concentration", "n_list": dims, "power": args.power,
              "delta": delta, "samples": args.samples, "format": args.format,
              "out": args.out}
    results = [
        minangle.concentration_experiment(
            n=n, power=args.power, delta=delta, samples=args.samples,
            seed=args.seed, workers=args.workers)
        for n in dims
    ]
    if args.format == "csv":
        lines = ["n,fraction,ci_low,ci_high"]
        for r in results:
            lines.append(f"{r.n},{r.fraction:.12g},{r.ci_low:.12g},{r.ci_high:.12g}")
        _write_text(args.out, "\n".join(lines) + "\n")
        _write_json(args.out + ".meta.json", _provenance(config, seed=args.seed))
    else:
        rows = [{"n": r.n, "fraction": r.fraction, "ci_low": r.ci_low,
                 "ci_high": r.ci_high, "samples": r.samples} for r in results]
        _write_json(args.out, {**_provenance(config, seed=args.seed), "rows": rows})
    for r in results:
        print(f"n={r.n}: off_shell_fraction={r.fraction:.6g} "
              f"ci95=[{r.ci_low:.6g},{r.ci_high:.6g}]")
    print(f"wrote {len(results)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinrelay",
        description="Two-way relay exchange: rate curves and Monte Carlo experiments",
    )
    parser.add_argument("--version", action="version", version=f"twinrelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="emit the closed-form rate curves")
    p.add_argument("--snr-min", type=float, default=-10.0)
    p.add_argument("--snr-max", type=float, default=30.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sim", help="run a Monte Carlo experiment")
    p.add_argument("scheme", choices=("lattice", "bsc", "anc-power", "minangle"))
    p.add_argument("--n", type=int, default=1, help="block dimension (lattice/anc-power)")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--broadcast", choices=("index", "direct"), default="index")
    p.add_argument("--p", type=float, default=None, help="BSC crossover probability")
    p.add_argument("--code", default="hamming74")
    p.add_argument("--dim", type=int, default=3, help="minangle dimension")
    p.add_argument("--power", type=float, default=2.0, help="minangle ball power")
    p.add_argument("--gamma", type=float, default=1.0, help="minangle lattice cell")
    p.add_argument("--delta", type=float, default=None, help="minangle shell half-width")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--target-ci", type=float, default=None,
                   help="stop when the primary 95%% half-width drops below this")
    p.add_argument("--max-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("multihop", help="schedule and run the relay chain")
    p.add_argument("--relays", type=int, required=True)
    p.add_argument("--packets", type=int, required=True)
    p.add_argument("--mode", choices=("symbolic", "numeric-noiseless", "numeric-awgn"),
                   default="symbolic")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=8)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multihop)

    p = sub.add_parser("concentration", help="off-shell fraction of ball-pair sums")
    p.add_argument("--n-list", default="8,16,32,64")
    p.add_argument("--power", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=None, help="default 0.1 * power")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_concentration)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse validation failure -> exit code 2
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwinrelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
