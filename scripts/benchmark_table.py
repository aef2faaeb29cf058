#!/usr/bin/env python3
"""Reproduce the method-comparison table across dimensions.

Runs leapfrog HMC and the three conservative-sampler variants of
configs/quartic_d40.yaml on the quartic target for each requested dimension
and prints one summary table per d. Every flag overrides one value of that
config and defaults to it.

Full scale (10 chains x 10000 iterations, d up to 320, all four methods) takes
a few hours on one core; use --chains/--iterations/--dims/--methods to shrink.

    python scripts/benchmark_table.py --dims 40 80 --chains 2 --iterations 2000
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from chmc.cli import EXIT_CONFIG_ERROR, ConfigError, format_table, load_spec, run_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "quartic_d40.yaml"


def main() -> int:
    base = load_spec(str(CONFIG))
    first = base.methods[0]
    first_chmc = next(m for m in base.methods if m.method == "chmc")
    names = [m.name for m in base.methods]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dims", type=int, nargs="+", default=[40, 80, 160, 320])
    parser.add_argument("--chains", type=int, default=base.chains)
    parser.add_argument("--iterations", type=int, default=first.iterations)
    parser.add_argument("--burn-in", type=int, default=first.burn_in)
    parser.add_argument("--max-fpi", type=int, default=first_chmc.max_fpi)
    parser.add_argument("--methods", nargs="+", default=names, choices=names)
    parser.add_argument("--seed", type=int, default=base.seed)
    parser.add_argument("--out", default="out/benchmark_table")
    parser.add_argument("--workers", type=int, default=base.workers)
    args = parser.parse_args()

    by_name = {m.name: m for m in base.methods}
    try:
        # max_fpi is a chmc-only field, which a leapfrog spec refuses
        methods = tuple(replace(m, iterations=args.iterations, burn_in=args.burn_in,
                                **({"max_fpi": args.max_fpi} if m.method == "chmc" else {}))
                        for m in map(by_name.get, args.methods))
        specs = [replace(base, target=replace(base.target, dimension=d), methods=methods,
                         chains=args.chains, seed=args.seed, workers=args.workers,
                         output_dir=os.path.join(args.out, f"d{d}"))
                 for d in args.dims]
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    for spec in specs:
        print(f"== quartic d={spec.target.dimension}: {spec.chains} chains x "
              f"{args.iterations} iterations ==")
        run_experiment(spec)
        print(format_table(spec.output_dir))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
