"""Write the stored training input of the ``train`` and ``rollout`` workloads.

The file is the oracle's 500-day trajectory on the acceptance configuration,
in the schema that ``surropt generate`` writes.  It is kept in the
repository so that those workloads read a fixed input while the oracle
changes, and so that their set-up does not pay for 500 LP solves.

    python3 bench/make_data.py             # data/trajectory_seed20240803_500d.csv
    python3 bench/make_data.py --seed 7    # data/trajectory_seed7_500d.csv

The workloads read only the file of the acceptance seed.

The run takes about 150 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import sys

from run import prepare_process


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None, help="config seed (default 20240803)")
    args = parser.parse_args(argv)
    prepare_process()

    from acceptance import ACCEPT_SEED, HORIZON_DAYS, experiment_config, trajectory_csv
    from surropt.pipeline import oracle_generation_run
    from surropt.simulate import write_trajectory_csv

    seed = ACCEPT_SEED if args.seed is None else args.seed
    out = trajectory_csv(seed)
    run = oracle_generation_run(experiment_config(seed), HORIZON_DAYS)
    write_trajectory_csv(out, run)
    print(f"wrote {out} ({run.days} days, seed {seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
