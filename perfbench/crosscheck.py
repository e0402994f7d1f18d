"""Library driver for the ``crosscheck`` workload.

For seeded random detector phases it evaluates each size in ``SIZES`` both
ways, by subset alternation (``interference``) and by the path-pair oracle
(``interference_oracle``), and prints one JSON line per draw.  (4, 9) is a
vanishing order (N = 2M + 1) and (5, 6) a nonvanishing one; both stay within
the oracle's default budget of 1e9 pair terms.

    PYTHONPATH=src python3 perfbench/crosscheck.py --seed 7
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from manyslit import DetectorPhases, SlitSet, interference, interference_oracle

SIZES = ((4, 9), (5, 6))
DRAWS = 1


def pair_terms() -> int:
    """Work units of one run: path pairs the oracle visits, N**(2M) per draw."""
    return DRAWS * sum(n ** (2 * m) for m, n in SIZES)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    for m, n in SIZES:
        slits = SlitSet.contiguous(n)
        for _ in range(DRAWS):
            phases = DetectorPhases(tuple(rng.uniform(0.0, 2.0 * math.pi, size=m)))
            row = {"m": m, "n": n, "phases": list(phases.phases),
                   "subset": interference(m, slits, phases).value,
                   "oracle": interference_oracle(m, slits, phases).value}
            print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
