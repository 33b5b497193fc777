#!/usr/bin/env python3
"""Reproduce the classification of diagonal quaternary forms representing 1:
re-verify the bundled table at a chosen bound, then re-discover it by
exhaustive search over <1,a,b,c> with c <= 121."""

import argparse
import sys
import time

from qflab.search import SearchConfig, search_diagonal
from qflab.verify import run_table1, table1_markdown


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=300,
                        help="verification bound for the table (default 300)")
    parser.add_argument("--cmax", type=int, default=121,
                        help="search ceiling for diagonal entries")
    parser.add_argument("--search-bound", type=int, default=50)
    args = parser.parse_args()

    t0 = time.monotonic()
    table = run_table1(args.bound)
    print(table1_markdown(table))
    print()
    print(table.to_text().splitlines()[-1],
          f"[{time.monotonic() - t0:.1f}s]")
    print()

    t0 = time.monotonic()
    result = search_diagonal(SearchConfig(args.cmax, args.search_bound),
                             progress=True)
    print(f"search: {result.examined} forms examined, "
          f"{result.filtered_out} pruned, "
          f"{len(result.survivors)} survivors "
          f"[{time.monotonic() - t0:.1f}s]")
    for diag in result.survivors:
        print("  <" + ",".join(map(str, diag)) + ">")
    expected = 34
    ok = table.passed and len(result.survivors) == expected
    print(f"classification reproduced: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
