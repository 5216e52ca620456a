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

Each command imports its modules when it runs, and building the parser
imports none that loads numpy: `--version`, help, every argparse error and
`rates` start without numpy, the process pool or a kernel module.  A `sim`
scheme's parser holds a spec function that imports the scheme's kernel
module for its params and error keys only when `cmd_sim` calls it.

A complete command (`rates`, `concentration`, `sim SCHEME`, `multihop
--mode MODE`) parses with its own leaf parser alone.  Anything else (no
name, an unknown name, `--version`, top-level help) and a flag the leaf
does not know parse with the whole tree (`build_parser`), so help and
errors read as the tree's.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import Sequence

from . import __version__, rates
from .canonical import BLOCK, STREAM_VERSION, canonical_dumps
from .errors import TwinrelayError, ValidationError

DEFAULT_POWER = 1.0
MULTIHOP_MODES = ("symbolic", "numeric-noiseless", "numeric-awgn")


def _numpy_version() -> str:
    """numpy's version without importing it: from the module when a command
    has loaded it, else from the installed distribution's metadata."""
    np = sys.modules.get("numpy")
    if np is not None:
        return np.__version__
    from importlib.metadata import version

    return version("numpy")


def _provenance(config: dict, seed: int | None = None) -> dict:
    out = {"tool": {"name": "twinrelay", "version": __version__},
           "numpy": _numpy_version(),
           "stream_addressing": {"version": STREAM_VERSION, "block": BLOCK},
           "config": config}
    if seed is not None:
        out["master_seed"] = seed
    return out


def _write_text(path: str, text: str) -> None:
    """Write to a temporary file beside `path`, then rename it into place, so
    `path` holds either its old content or all of `text`.  The temporary name
    is random and taken only if free, so a file another run left behind is
    neither reused nor touched; a plain `open` creates it, so `path` gets the
    permissions the umask gives."""
    stem = os.path.join(os.path.dirname(os.path.abspath(path)), f".{os.path.basename(path)}.")
    while True:
        tmp = f"{stem}{os.urandom(6).hex()}.tmp"
        try:
            fh = open(tmp, "x", newline="")
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the file asked for, not the hidden one
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path: str, obj: dict) -> None:
    _write_text(path, canonical_dumps(obj) + "\n")


def _write_table(path: str, fmt: str, provenance: dict, key: str, rows: Sequence[dict],
                 columns: Sequence[str] | None = None) -> None:
    """Write row dicts as CSV, the `columns` (default every key) with floats
    at 12 significant digits and the provenance in a `.meta.json` sidecar,
    or as JSON, the rows under `key` inside the provenance."""
    if fmt == "json":
        _write_json(path, {**provenance, key: rows})
        return
    columns = columns or list(rows[0])
    lines = [",".join(columns)] + [
        ",".join(f"{r[c]:.12g}" if isinstance(r[c], float) else str(r[c]) for c in columns)
        for r in rows]
    _write_text(path, "\n".join(lines) + "\n")
    _write_json(path + ".meta.json", provenance)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def cmd_rates(args: argparse.Namespace) -> int:
    config = {"subcommand": "rates", "snr_min": args.snr_min, "snr_max": args.snr_max,
              "step": args.step, "format": args.format, "out": args.out}
    rows = rates.rate_curve(args.snr_min, args.snr_max, args.step)
    lo, hi = rates.crossover_window()
    _write_table(args.out, args.format, _provenance(config), "points", rows)
    print(f"crossover_db: {lo:.3f} {hi:.3f}")
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _minangle_codebook(params: dict) -> dict:
    from .minangle import decoder_instance

    sums = decoder_instance(params)
    m = sums.codebook.size
    return {"M1": m, "M2": m, "Msum_on_shell": int(sums.shell_points.shape[0])}


def cmd_sim(args: argparse.Namespace) -> int:
    from . import harness

    spec = harness.ExperimentSpec(args.scheme, *args.spec(args))
    config = {"subcommand": "sim", "scheme": args.scheme, "params": dict(spec.params),
              "trials": args.trials, "target_ci": args.target_ci,
              "max_trials": args.max_trials, "out": args.out}
    report = harness.run_trials(
        spec, trials=args.trials, master_seed=args.seed, workers=args.workers,
        target_ci=args.target_ci, max_trials=args.max_trials,
    )
    payload = {**_provenance(config, seed=args.seed), "report": report.to_dict()}
    if args.codebook is not None:
        payload["codebook"] = args.codebook(spec.params)
    if spec.error_keys:
        summary = (f"{spec.error_keys[0]}={report.estimate:.6g} "
                   f"ci95=[{report.ci_low:.6g},{report.ci_high:.6g}] trials={report.trials}")
    else:
        key = next(iter(sorted(report.counts)))
        summary = f"mean {key}={report.rate(key):.6g} trials={report.trials}"
    _write_json(args.out, payload)
    print(f"{args.scheme}: {summary}")
    print(f"wall_time_s={report.wall_time_s:.3f}", file=sys.stderr)
    print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# multihop
# ---------------------------------------------------------------------------

def cmd_multihop(args: argparse.Namespace) -> int:
    from . import multihop
    from .twoway import pair_from_params

    schedule = multihop.build_schedule(args.relays, args.packets)
    # The mode's parser defines only the flags it reads, so the config is
    # every parsed flag; the seed goes in the provenance.
    config = {"subcommand": "multihop", **{key: value for key, value in vars(args).items()
                                           if key not in ("command", "func", "seed")}}
    payload = {**_provenance(config, seed=getattr(args, "seed", None)),
               "schedule": multihop.schedule_json(schedule)}

    if args.mode == "symbolic":
        if args.relays == 3 and args.packets >= 3:  # table1's slots 1-6 inject 3 a side
            fixture = _load_table1()
            ok = multihop.table_json(schedule) == fixture
            print(f"table1: {'PASS' if ok else 'FAIL'}")
            payload["table1"] = "PASS" if ok else "FAIL"
        result = multihop.run_multihop(schedule)
    else:
        pair = pair_from_params({"n": args.n, "q": args.q, "k": args.k,
                                 "power": DEFAULT_POWER})
        sigma2 = rates.sigma2_from_snr_db(getattr(args, "snr_db", None), DEFAULT_POWER)
        result = multihop.run_multihop(schedule, pair=pair, sigma2=sigma2, seed=args.seed)
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
    from . import harness, minangle

    try:
        dims = [int(v) for v in args.n_list.split(",") if v.strip()]
    except ValueError:
        dims = []
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"bad dimension list {args.n_list!r}")
    batch = minangle.CONC_BATCH
    if args.samples < 1 or args.samples % batch:
        raise ValidationError(
            f"samples must be a positive multiple of {batch}, got {args.samples}")
    delta = args.delta if args.delta is not None else 0.1 * args.power
    config = {"subcommand": "concentration", "n_list": dims, "power": args.power,
              "delta": delta, "samples": args.samples, "format": args.format,
              "out": args.out}
    rows = []
    for n in dims:
        spec = harness.ExperimentSpec(
            "concentration", {"n": n, "power": args.power, "delta": delta}, ())
        report = harness.run_trials(spec, trials=args.samples // batch,
                                    master_seed=args.seed, workers=args.workers)
        off, samples = int(report.counts["off_shell"]), int(report.counts["samples"])
        lo, hi = harness.wilson_interval(off, samples)
        rows.append({"n": n, "fraction": off / samples, "ci_low": lo, "ci_high": hi,
                     "samples": samples})
    _write_table(args.out, args.format, _provenance(config, seed=args.seed), "rows", rows,
                 columns=("n", "fraction", "ci_low", "ci_high"))
    for r in rows:
        print(f"n={r['n']}: off_shell_fraction={r['fraction']:.6g} "
              f"ci95=[{r['ci_low']:.6g},{r['ci_high']:.6g}]")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """A master seed: an integer in [0, 2**64), the width the streams key on."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"not a seed in [0, 2**64): {text!r}")
    return value


def _rates_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snr-min", type=_finite_float, default=-10.0)
    p.add_argument("--snr-max", type=_finite_float, default=30.0)
    p.add_argument("--step", type=_finite_float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_rates)


def _scheme_parser(p: argparse.ArgumentParser, spec) -> None:
    """The run flags every `sim` scheme shares; the scheme's builder adds its
    own flags, which `spec(args)` reads into the experiment's (params, error
    keys)."""
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--target-ci", type=_finite_float, default=None,
                   help="stop when the primary 95%% half-width drops below this")
    p.add_argument("--max-trials", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sim, spec=spec, codebook=None)


def _lattice_spec(a: argparse.Namespace) -> tuple[dict, tuple[str, ...]]:
    from .twoway import LATTICE_ERROR_KEYS

    return {"n": a.n, "q": a.q, "k": a.k, "snr_db": a.snr_db, "power": DEFAULT_POWER,
            "mode": a.broadcast}, LATTICE_ERROR_KEYS


def _lattice_parser(p: argparse.ArgumentParser) -> None:
    _scheme_parser(p, _lattice_spec)
    p.add_argument("--n", type=int, default=1, help="block dimension")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--snr-db", type=_finite_float, default=None, help="default noiseless")
    p.add_argument("--broadcast", choices=("index", "direct"), default="index")


def _bsc_spec(a: argparse.Namespace) -> tuple[dict, tuple[str, ...]]:
    from .bsc import BSC_ERROR_KEYS

    return {"p": a.p, "code": a.code}, BSC_ERROR_KEYS


def _bsc_parser(p: argparse.ArgumentParser) -> None:
    _scheme_parser(p, _bsc_spec)
    p.add_argument("--p", type=_finite_float, required=True,
                   help="BSC crossover probability")
    p.add_argument("--code", choices=("hamming74",), default="hamming74")


def _minangle_spec(a: argparse.Namespace) -> tuple[dict, tuple[str, ...]]:
    from .minangle import MINANGLE_ERROR_KEYS

    return {"n": a.dim, "gamma": a.gamma, "power": a.power,
            "sigma2": rates.sigma2_from_snr_db(a.snr_db, a.power),
            "delta": a.delta if a.delta is not None else 0.1 * a.power}, MINANGLE_ERROR_KEYS


def _minangle_parser(p: argparse.ArgumentParser) -> None:
    _scheme_parser(p, _minangle_spec)
    p.set_defaults(codebook=_minangle_codebook)
    p.add_argument("--dim", type=int, default=3, help="dimension")
    p.add_argument("--power", type=_finite_float, default=2.0, help="ball power")
    p.add_argument("--gamma", type=_finite_float, default=1.0, help="lattice cell")
    p.add_argument("--delta", type=_finite_float, default=None,
                   help="shell half-width, default 0.1 * power")
    p.add_argument("--snr-db", type=_finite_float, required=True)


def _anc_power_spec(a: argparse.Namespace) -> tuple[dict, tuple[str, ...]]:
    return {"n": a.n, "power": DEFAULT_POWER,
            "sigma2": rates.sigma2_from_snr_db(a.snr_db, DEFAULT_POWER)}, ()


def _anc_power_parser(p: argparse.ArgumentParser) -> None:
    _scheme_parser(p, _anc_power_spec)
    p.add_argument("--n", type=int, default=1, help="block dimension")
    p.add_argument("--snr-db", type=_finite_float, required=True)


def _symbolic_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--relays", type=int, required=True)
    p.add_argument("--packets", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multihop)


def _noiseless_parser(p: argparse.ArgumentParser) -> None:
    _symbolic_parser(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=8)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0)


def _awgn_parser(p: argparse.ArgumentParser) -> None:
    _noiseless_parser(p)
    p.add_argument("--snr-db", type=_finite_float, required=True)


def _concentration_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-list", default="8,16,32,64")
    p.add_argument("--power", type=_finite_float, default=1.0)
    p.add_argument("--delta", type=_finite_float, default=None, help="default 0.1 * power")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_concentration)


# The leaves: a command that is complete by itself, and the namespace key and
# leaves of a command with a second level, each name -> its flag builder.
COMMANDS = {"rates": _rates_parser, "concentration": _concentration_parser}
LEVELS = {
    "sim": ("scheme", {"lattice": _lattice_parser, "bsc": _bsc_parser,
                       "minangle": _minangle_parser, "anc-power": _anc_power_parser}),
    "multihop": ("mode", dict(zip(MULTIHOP_MODES,
                                  (_symbolic_parser, _noiseless_parser, _awgn_parser)))),
}


def _leaf(make, command: str, name: str | None = None) -> argparse.ArgumentParser:
    """The parser of a complete command, `command` or `command name` (a `sim`
    scheme or a `multihop` mode), as `make(prog=..., allow_abbrev=...)`
    returns it with the leaf's flags: a subparser in the tree, a standalone
    parser in `_parse`, with the same prog, abbreviation rule and flags."""
    if name is None:
        parser = make(prog=f"twinrelay {command}")
        COMMANDS[command](parser)
        return parser
    label = f"--mode {name}" if command == "multihop" else name
    parser = make(prog=f"twinrelay {command} {label}", allow_abbrev=False)
    LEVELS[command][1][name](parser)
    return parser


def _level(parser: argparse.ArgumentParser, command: str, **kwargs) -> None:
    """Subparsers over the leaves of `command`'s second level."""
    dest, leaves = LEVELS[command]
    sub = parser.add_subparsers(dest=dest, required=True, **kwargs)
    for name in leaves:
        _leaf(functools.partial(sub.add_parser, name), command, name)


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree.  `main` parses a complete command with its
    leaf alone, and builds this only for help and errors."""
    parser = argparse.ArgumentParser(
        prog="twinrelay",
        description="Two-way relay exchange: rate curves and Monte Carlo experiments",
    )
    parser.add_argument("--version", action="version", version=f"twinrelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _leaf(functools.partial(sub.add_parser, "rates", help="emit the closed-form rate curves"),
          "rates")
    _level(sub.add_parser("sim", help="run a Monte Carlo experiment"), "sim")
    _level(sub.add_parser("multihop", help="schedule and run the relay chain",
                          usage=f"%(prog)s --mode {{{','.join(MULTIHOP_MODES)}}} ..."),
           "multihop", title="modes (--mode)")
    _leaf(functools.partial(sub.add_parser, "concentration",
                            help="off-shell fraction of ball-pair sums"), "concentration")
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's namespace (after `_mode_first`).  A complete command parses the
    rest of argv with its leaf alone, from a namespace that holds the keys
    the tree's levels set (`command`, and `scheme` or `mode`); argparse
    hands a subparser the rest of argv and enters no other, so this is the
    tree's parse.  Anything else, and a leaf's unknown argument, which the
    tree reports in its top-level usage, parses with the whole tree."""
    command, name = (argv + [None, None])[:2]
    if command in COMMANDS:
        leaf, rest = _leaf(argparse.ArgumentParser, command), argv[1:]
        keys = {"command": command}
    elif command in LEVELS and name in LEVELS[command][1]:
        leaf, rest = _leaf(argparse.ArgumentParser, command, name), argv[2:]
        keys = {"command": command, LEVELS[command][0]: name}
    else:
        return build_parser().parse_args(argv)
    args, unknown = leaf.parse_known_args(rest, argparse.Namespace(**keys))
    return build_parser().parse_args(argv) if unknown else args


def _mode_first(argv: list[str]) -> list[str]:
    """`multihop ... --mode M ...` as `multihop M ...` (default symbolic), since
    argparse picks a mode's own parser by position."""
    if not argv or argv[0] != "multihop":
        return argv
    rest, mode = argv[1:], MULTIHOP_MODES[0]
    for i, tok in enumerate(rest):
        if tok.startswith("--mode="):
            mode = rest.pop(i).partition("=")[2]
            break
        if tok == "--mode" and i + 1 < len(rest):
            mode = rest[i + 1]
            del rest[i:i + 2]
            break
    else:
        if "-h" in rest or "--help" in rest:  # the mode list, not one mode's flags
            return argv
    return ["multihop", mode, *rest]


def main(argv: list[str] | None = None) -> int:
    argv = _mode_first(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse validation failure -> exit code 2
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (TwinrelayError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
