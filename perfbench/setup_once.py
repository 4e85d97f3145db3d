"""Time one set-up of a workload in a fresh interpreter: importing homoloss
(with numpy) and generating and writing the seeded inputs.

Run by run.py, several times per run, from the root of the checkout:
    python3 perfbench/setup_once.py --workload NAME --seed N --dir DIR
Prints the seconds taken as its last line.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads  # imports homoloss and numpy

    os.makedirs(args.dir, exist_ok=True)
    workloads.WORKLOADS[args.workload](args.seed, args.dir)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
