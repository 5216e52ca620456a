"""Benchmark worker: runs one workload in a fresh interpreter.

    python3 perfbench/work.py setup --workload W
        set the workload up, print ``ready`` and exit (the set-up probe);
    python3 perfbench/work.py run --workload W --seed S --seconds T --trace 0|1 --rundir D
        set up, run whole rounds for T seconds, write each round's record to
        D/rounds.jsonl and print one JSON line; asks for eight set-up probes
        between the rounds (see SetupProbes).

With ``--trace 1`` the first half of the time runs untraced rounds and the
second half traced ones; the per-layer metrics come from the traced rounds
(and from the traced set-up, for the table builders) and the ratio of the
two halves' `workloads.fastest_round_s` is the tracing overhead.  The spans
are written to D.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
ROUND_SUMMARY = ("round", "traced", "time_s", "ops", "failed", "trials", "op_times")
SETUP_PROBES = 8


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class SetupProbes:
    """Set-up probes spread evenly over the run, between rounds, so that the
    host's slow spells weigh on them as they do on the rounds.

    The parent (run.py) runs each probe when this process prints ``probe``
    and answers on stdin, so the probes' memory stays out of this process's
    children in ``peak_rss_mb``.
    """

    def __init__(self, count: int, seconds: float) -> None:
        self.due = [seconds * i / count for i in range(count)]

    def run_due(self, elapsed: float) -> None:
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            print("probe", flush=True)
            sys.stdin.readline()

    def finish(self) -> None:
        self.run_due(float("inf"))


def run_rounds(wl, ctx, seed: int, first: int, until: float, t0: float, min_rounds: int,
               traced: bool, probes: SetupProbes, log) -> list[dict]:
    """Rounds until `until` seconds after t0; each full record goes to `log`
    at once, so the outputs kept in memory do not grow with the run."""
    rounds = []
    rnd = first
    while len(rounds) < min_rounds or time.perf_counter() - t0 < until:
        probes.run_due(time.perf_counter() - t0)
        start = time.perf_counter()
        out = wl.run_round(ctx, seed, rnd, traced)
        out["time_s"] = time.perf_counter() - start
        out["round"] = rnd
        out["traced"] = traced
        log.write(json.dumps(out) + "\n")
        rounds.append({key: out[key] for key in ROUND_SUMMARY})
        rnd += 1
    return rounds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", default=str(ROOT / ".bench_run"))
    args = ap.parse_args(argv)
    rundir = Path(args.rundir)
    wl = workloads.make(args.workload, rundir)

    if args.mode == "setup":
        wl.setup()
        print("ready", flush=True)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    ctx = wl.setup()
    if tracer is not None:
        tracing.uninstall(tracer)

    # The traced run needs set-up times only for cli.startup_s.
    n_probes = SETUP_PROBES if not args.trace or args.workload == "cli-readme" else 0
    probes = SetupProbes(n_probes, args.seconds)
    rundir.mkdir(parents=True, exist_ok=True)
    with open(rundir / "rounds.jsonl", "w") as log:
        t0 = time.perf_counter()
        plain_until = args.seconds / 2 if args.trace else args.seconds
        rounds = run_rounds(wl, ctx, args.seed, 0, plain_until, t0, MIN_ROUNDS, False, probes,
                            log)
        if tracer is not None:
            round_mark = len(tracer)
            tracing.install(tracer)
            rounds += run_rounds(wl, ctx, args.seed, len(rounds), args.seconds, t0, 2, True,
                                 probes, log)
            tracing.uninstall(tracer)
        rss = peak_rss_mb()
    probes.finish()
    result = {"peak_rss_mb": rss}
    if hasattr(wl, "verify"):
        result["verify"] = wl.verify(ctx, args.seed)
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        overhead = (workloads.fastest_round_s(traced) / workloads.fastest_round_s(plain)
                    - 1.0) * 100.0
        result["layers"] = layers.layer_metrics(tracer.spans, round_mark, tracer.counts,
                                                len(traced), plain, overhead)
        tracer.write(str(rundir / f"trace-{args.workload}-s{args.seed}.json.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
