"""Blocked vs per-die Monte-Carlo campaign throughput.

Times the same yield campaign at two ``mc-block`` sizes — ``block = 1``
(the per-die plan: one job per die) and ``--block`` dies per job — on a
serial, cache-less runner, checks the reduced ``yield_curve`` rows are
identical, times one ``yield_curve_rows`` pass over the blocked leg's
resolved results (``reduce_s``, the reduction layer alone), and writes
a ``BENCH_mc.json`` record::

    python benchmarks/mc_scaling.py --dies 10000 --block 4096 \
        --out benchmarks/results/BENCH_mc.json

For big blocked campaigns the per-die leg would dominate the wall
clock, so ``--compare-dies`` caps it (both legs are reduced to
dies/second before the speedup is computed, which is fair: every die
costs the same).  ``--budget`` fails the run if the *blocked* leg
exceeds a wall-clock budget — the CI guard for throughput regressions.

Exit status: 0 on success, 1 if the two paths disagree or the budget
is blown.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import (
    Experiment,
    ExperimentSpec,
    MonteCarloSpec,
    ParallelRunner,
)
from repro.montecarlo.campaign import yield_curve_rows

#: Dies of the bit-equality cross-check (both paths, always run).
EQUALITY_DIES = 256


def campaign_spec(dies: int, block: int, vcc: list[float],
                  schemes: list[str], seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"mc-scaling-b{block}-{dies}",
        profiles=(),
        vcc_mv=tuple(vcc),
        schemes=tuple(schemes),
        montecarlo=MonteCarloSpec(dies=dies, seed=seed, block=block),
        artifacts=("yield_curve",),
    )


def run_campaign(dies: int, block: int, vcc, schemes, seed):
    """One serial, cache-less campaign: (elapsed_s, yield_curve rows,
    the experiment)."""
    spec = campaign_spec(dies, block, vcc, schemes, seed)
    experiment = Experiment(spec, runner=ParallelRunner(workers=1))
    start = time.perf_counter()
    experiment.run()
    rows = experiment.artifact("yield_curve")
    return time.perf_counter() - start, rows, experiment


def reduce_seconds(experiment: Experiment) -> float:
    """One ``yield_curve_rows`` pass over the resolved results."""
    spec = experiment.spec
    mc = spec.montecarlo
    results = experiment.mc_results()
    start = time.perf_counter()
    yield_curve_rows(results, spec.grid(), spec.schemes, mc.dies,
                     mc.confidence, importance=mc.importance)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dies", type=int, default=10_000,
                        help="dies of the blocked leg (default 10000)")
    parser.add_argument("--block", type=int, default=4096,
                        help="dies per mc-block job (default 4096)")
    parser.add_argument("--compare-dies", type=int, default=None,
                        metavar="N",
                        help="cap the per-die leg at N dies "
                             "(default: same as --dies)")
    parser.add_argument("--vcc", type=float, nargs="+",
                        default=[500.0], help="Vcc grid in mV")
    parser.add_argument("--schemes", nargs="+",
                        default=["baseline", "iraw"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=None, metavar="S",
                        help="fail if the blocked leg exceeds S seconds")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON record here (default stdout)")
    args = parser.parse_args(argv)

    compare_dies = args.compare_dies or args.dies

    # Bit-equality cross-check on a small common slice first: the
    # speedup number is meaningless if the paths disagree.
    check = min(EQUALITY_DIES, args.dies)
    _, die_rows, _ = run_campaign(check, 1, args.vcc, args.schemes,
                                  args.seed)
    _, block_rows, _ = run_campaign(check, min(args.block, check),
                                    args.vcc, args.schemes, args.seed)
    rows_equal = die_rows == block_rows

    per_die_s, _, _ = run_campaign(compare_dies, 1, args.vcc,
                                   args.schemes, args.seed)
    blocked_s, _, blocked = run_campaign(args.dies, args.block, args.vcc,
                                         args.schemes, args.seed)
    reduce_s = reduce_seconds(blocked)

    per_die_rate = compare_dies / per_die_s
    blocked_rate = args.dies / blocked_s
    record = {
        "dies": args.dies,
        "block": args.block,
        "compare_dies": compare_dies,
        "vcc_mv": args.vcc,
        "schemes": args.schemes,
        "seed": args.seed,
        "per_die_s": round(per_die_s, 3),
        "blocked_s": round(blocked_s, 3),
        "reduce_s": round(reduce_s, 4),
        "per_die_dies_per_s": round(per_die_rate, 1),
        "blocked_dies_per_s": round(blocked_rate, 1),
        "speedup": round(blocked_rate / per_die_rate, 2),
        "rows_equal": rows_equal,
        "budget_s": args.budget,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text, end="")

    if not rows_equal:
        print("FAIL: blocked and per-die yield_curve rows differ",
              file=sys.stderr)
        return 1
    if args.budget is not None and blocked_s > args.budget:
        print(f"FAIL: blocked leg took {blocked_s:.1f}s "
              f"(budget {args.budget:g}s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
