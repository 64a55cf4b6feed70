#!/usr/bin/env python3
"""Print effective birationality bounds over a small parameter grid.

Deterministic: the same arguments always print the same table. Values
small enough to materialize are shown exactly; the rest appear as
log10 with the stated relative error.
"""

import argparse

from hklat import BoundQuery, birationality_bound, moduli_bound, moduli_dimension
from hklat.bounds import KIND_EXACT
from hklat.errors import DegenerateDimensionError


def fmt(bv):
    if bv.kind == KIND_EXACT:
        s = str(bv.exact_decimal)
        return s if len(s) <= 24 else f"~1e{len(s) - 1} ({s[:6]}...)"
    return f"log10 = {str(bv.log10_value)[:18]}  (rel err {bv.rel_err})"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-card", type=int, default=3)
    parser.add_argument("--max-rho", type=int, default=4)
    parser.add_argument("--exact-threshold", type=int, default=10**6)
    args = parser.parse_args()

    print("birationality bounds  (n+1)(2n+3) * ((4*cardA)^(rho-1))!")
    print(f"{'n':>3} {'cardA':>6} {'rho':>4}  value")
    for n in range(1, args.max_n + 1):
        for card in range(1, args.max_card + 1):
            for rho in range(1, args.max_rho + 1):
                bv = birationality_bound(
                    BoundQuery(n, card, rho), args.exact_threshold)
                print(f"{n:>3} {card:>6} {rho:>4}  {fmt(bv)}")

    print()
    print("moduli-family bounds  dim = 2 a^2 k + 2 eps")
    print(f"{'a':>3} {'k':>3} {'eps':>4} {'rho':>4} {'dim':>4}  value")
    for a in (1, 2):
        for k in (1, 2):
            for eps in (1, -1):
                try:
                    dim = moduli_dimension(a, k, eps)
                except DegenerateDimensionError:
                    print(f"{a:>3} {k:>3} {eps:>4} {'-':>4} {'-':>4}  degenerate")
                    continue
                for rho in range(1, args.max_rho + 1):
                    bv = moduli_bound(a, k, eps, rho, args.exact_threshold)
                    print(f"{a:>3} {k:>3} {eps:>4} {rho:>4} {dim:>4}  {fmt(bv)}")


if __name__ == "__main__":
    main()
