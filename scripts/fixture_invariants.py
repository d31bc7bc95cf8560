#!/usr/bin/env python3
"""Print Hilbert polynomial, degree, and genus for every fixture ideal,
cross-checked against the rank-based Hilbert function."""

import argparse
from pathlib import Path

from halphen.graded import hilbert_function_table
from halphen.groebner import hilbert_polynomial
from halphen.invariants import invariants_of
from halphen.parsing import parse_ideal_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check-degree", type=int, default=8,
                        help="cross-check the two Hilbert paths up to this degree")
    args = parser.parse_args()

    print(f"{'fixture':15s} {'P(m)':>12s} {'m0':>3s} {'dim':>3s} {'deg':>3s} {'genus':>5s} agree")
    for path in sorted(FIXTURES.glob("*.ideal")):
        spec = parse_ideal_file(path.read_text())
        data = hilbert_polynomial(spec)
        inv = invariants_of(data.polynomial)
        values = hilbert_function_table(spec, max(args.check_degree, 0)).values
        agree = all(
            data.polynomial(m) == values[m]
            for m in range(data.stabilizes_from, args.check_degree + 1)
        )
        genus = "-" if inv.genus is None else str(inv.genus)
        print(
            f"{path.stem:15s} {str(data.polynomial):>12s} {data.stabilizes_from:>3d} "
            f"{inv.dimension:>3d} {inv.degree:>3d} {genus:>5s} {agree}"
        )


if __name__ == "__main__":
    main()
