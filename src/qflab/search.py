"""Search for diagonal quaternary forms <1,a,b,c> passing the
square-regularity check, with sound good-prime pre-filters.

Each filter is one instance of the full check (the equation at n = 3, 5
or 11 when that prime is at most the bound and coprime to the
discriminant), so filtered and unfiltered runs return identical
survivor sets.  For each a the filters test every (b, c) at once with
numpy, from the theta of <1,a>; each form that passes them gets one
full check, which shares partial theta halves with earlier checks.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from math import comb, isqrt

import numpy as np

from .arith import h_factor
from .forms import QuadForm
from .regularity import RegularityReport, is_strongly_s_regular
from .theta import _product, _unary_terms


@dataclass(frozen=True)
class SearchFilters:
    lemma41: bool = True
    mod3: bool = True
    mod5: bool = True


@dataclass(frozen=True)
class SearchConfig:
    c_max: int
    bound: int
    filters: SearchFilters = field(default_factory=SearchFilters)

    def __post_init__(self):
        if self.c_max < 1 or self.bound < 1:
            raise ValueError("c_max and bound must be positive")


@dataclass
class SearchResult:
    config: SearchConfig
    survivors: list[tuple[int, int, int, int]]
    examined: int
    filtered_out: int
    elapsed: float
    reports: dict[tuple[int, int, int, int], RegularityReport]

    def to_dict(self) -> dict:
        return {
            "cMax": self.config.c_max,
            "bound": self.config.bound,
            "filters": {
                "lemma41": self.config.filters.lemma41,
                "mod3": self.config.filters.mod3,
                "mod5": self.config.filters.mod5,
            },
            "examined": self.examined,
            "filteredOut": self.filtered_out,
            "elapsedSeconds": round(self.elapsed, 3),
            "survivors": [",".join(map(str, d)) for d in self.survivors],
        }


def _filter_pass(a: int, c_max: int, primes):
    """Arrays (b, c, keep) over a <= b <= c <= c_max in search order:
    keep holds where <1,a,b,c> satisfies r(p^2) = r(1) h_p(dF, 1) for
    each p in primes coprime to dF = 16abc.  r(p^2) is the sum over v, w
    of theta_<1,a>[p^2 - b v^2 - c w^2] (v, w bounded through b, c >= a);
    h_p(dF, 1) depends on abc only through kronecker(abc, p), so it is
    read from a table indexed by abc mod p."""
    bs, cs = np.triu_indices(c_max - a + 1)
    bs += a
    cs += a
    front = _product([_unary_terms(1, 121), _unary_terms(a, 121)], 121)
    r1 = 2 * (1 + (a == 1) + (bs == 1) + (cs == 1))
    keep = np.ones(len(bs), dtype=bool)
    for p in primes:
        m = p * p
        rep = np.zeros(len(bs), dtype=np.int64)
        for v in range(isqrt(m // a) + 1):
            for w in range(isqrt((m - a * v * v) // a) + 1):
                idx = m - bs * (v * v) - cs * (w * w)
                ok = idx >= 0
                rep[ok] += (2 - (v == 0)) * (2 - (w == 0)) * front[idx[ok]]
        residue = a * bs * cs % p
        table = np.array([h_factor(16 * t, p, 1, 4) if t else 0
                          for t in range(p)])
        keep &= (residue == 0) | (rep == r1 * table[residue])
    return bs, cs, keep


def search_diagonal(config: SearchConfig, progress: bool = False,
                    cache=None) -> SearchResult:
    """Enumerate <1,a,b,c> with 1 <= a <= b <= c <= c_max and keep the
    forms passing the full check to the configured bound.  Distinct
    sorted diagonals are never isometric (Eichler's unique decomposition
    of positive definite lattices), so no survivor duplicates another up
    to isometry."""
    start = time.monotonic()
    filters = config.filters
    flags = ((3, filters.mod3), (5, filters.mod5), (11, filters.lemma41))
    filter_primes = [p for p, on in flags if on and p <= config.bound]
    survivors: list[tuple[int, int, int, int]] = []
    reports: dict[tuple[int, int, int, int], RegularityReport] = {}
    examined = 0
    filtered = 0
    total = comb(config.c_max + 2, 3)
    last_tick = start
    for a in range(1, config.c_max + 1):
        bs, cs, keep = _filter_pass(a, config.c_max, filter_primes)
        idx = np.flatnonzero(keep)
        filtered += len(bs) - len(idx)
        for i, b, c in zip(idx.tolist(), bs[idx].tolist(), cs[idx].tolist()):
            form = QuadForm.diagonal((1, a, b, c))
            report = is_strongly_s_regular(form, config.bound, cache=cache)
            if report.passed:
                survivors.append((1, a, b, c))
                reports[(1, a, b, c)] = report
            if progress:
                now = time.monotonic()
                if now - last_tick > 2.0:
                    print(f"search: {examined + i + 1}/{total} examined, "
                          f"{len(survivors)} survivors",
                          file=sys.stderr, flush=True)
                    last_tick = now
        examined += len(bs)
    elapsed = time.monotonic() - start
    return SearchResult(config, survivors, examined, filtered, elapsed,
                        reports)

