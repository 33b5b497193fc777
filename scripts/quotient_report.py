#!/usr/bin/env python3
"""Expand the three weight-2 level-120 eta quotients, print their modular
data, and cross-check the closed coefficient formulas and the theta-series
difference of the <1,2,3,10> genus pair."""

import argparse
import sys

from qflab.qseries import (LEVEL120_QUOTIENTS, cusp_orders,
                           eta_quotient_expansion, quotient_coefficient,
                           newman_check, sturm_bound)
from qflab.regularity import theta_difference_vs_quotients


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prec", type=int, default=60)
    args = parser.parse_args()

    ok = True
    for i in (1, 2, 3):
        eq = LEVEL120_QUOTIENTS[i]
        series = eta_quotient_expansion(eq, args.prec)
        newman = newman_check(eq)
        cusps = cusp_orders(eq)
        nonzero = [(series.low + j, c)
                   for j, c in enumerate(series.coeffs) if c]
        terms = " ".join(f"{c:+d}q^{n}" for n, c in nonzero[:8])
        print(f"quotient {i}: {dict(eq.exponents)} at level {eq.level}")
        print(f"  weight {newman.weight}, congruences "
              f"{newman.cond24a and newman.cond24b}, "
              f"cusp form {cusps.is_cusp_form}")
        print(f"  expansion {terms} ...")
        sums_agree = all(series.coeff(n) == quotient_coefficient(i, n)
                         for n in range(1, args.prec + 1))
        print(f"  closed lattice sums agree to {args.prec}: {sums_agree}")
        ok = ok and sums_agree and cusps.is_cusp_form

    bound = sturm_bound(120, 2)
    match = theta_difference_vs_quotients(bound)
    print(f"theta-difference comparison through the coefficient bound "
          f"{bound}: {match}")
    ok = ok and match
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
