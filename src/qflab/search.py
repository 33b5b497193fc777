"""Search for diagonal quaternary forms <1,a,b,c> passing the
square-regularity check, with sound good-prime pre-filters.

Each filter is one instance of the full check (the equation at n = 3, 5
or 11 when that prime is coprime to the discriminant), so filtered and
unfiltered runs return identical survivor sets whenever the full bound
covers the filter primes.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import h_factor
from .forms import QuadForm
from .reduction import is_isometric
from .regularity import RegularityReport, is_strongly_s_regular
from .theta import _product, _theta_unary


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


def _pair_theta(a: int, b: int) -> np.ndarray:
    """Representation counts of a x^2 + b y^2 through 121 = 11^2, the
    largest filter query; search_diagonal memoises it per search."""
    return _product([_theta_unary(a, 121), _theta_unary(b, 121)], 121)


def _good_prime_instance(pair_theta, a: int, b: int, c: int,
                         d_f: int, p: int) -> bool:
    """The regularity equation at n = p for a good prime p:
    r(p^2) = r(1) h_p(dF, 1)."""
    front = pair_theta(1, a)
    back = pair_theta(b, c)
    m = p * p
    actual = int(np.dot(front[:m + 1], back[m::-1]))
    r1 = 2 * (1 + (a == 1) + (b == 1) + (c == 1))
    return actual == r1 * h_factor(d_f, p, 1, 4)


def search_diagonal(config: SearchConfig, progress: bool = False,
                    cache=None) -> SearchResult:
    """Enumerate <1,a,b,c> with 1 <= a <= b <= c <= c_max and keep the
    forms passing the full check to the configured bound, deduplicated
    up to isometry."""
    start = time.monotonic()
    filters = config.filters
    filter_primes = [p for p, flag in ((3, filters.mod3), (5, filters.mod5),
                                       (11, filters.lemma41)) if flag]
    pair_theta = lru_cache(maxsize=None)(_pair_theta)
    survivors: list[tuple[int, int, int, int]] = []
    reports: dict[tuple[int, int, int, int], RegularityReport] = {}
    examined = 0
    filtered = 0
    total = sum(1 for a in range(1, config.c_max + 1)
                for b in range(a, config.c_max + 1)
                for c in range(b, config.c_max + 1))
    last_tick = start
    for a in range(1, config.c_max + 1):
        for b in range(a, config.c_max + 1):
            for c in range(b, config.c_max + 1):
                examined += 1
                d_f = 16 * a * b * c
                pruned = False
                for p in filter_primes:
                    if d_f % p == 0:
                        continue
                    if not _good_prime_instance(pair_theta, a, b, c,
                                                d_f, p):
                        pruned = True
                        break
                if pruned:
                    filtered += 1
                    continue
                form = QuadForm.diagonal((1, a, b, c))
                report = is_strongly_s_regular(form, config.bound, cache=cache)
                if report.passed:
                    survivors.append((1, a, b, c))
                    reports[(1, a, b, c)] = report
                if progress:
                    now = time.monotonic()
                    if now - last_tick > 2.0:
                        print(f"search: {examined}/{total} examined, "
                              f"{len(survivors)} survivors",
                              file=sys.stderr, flush=True)
                        last_tick = now
    survivors = _dedupe_isometric(survivors)
    elapsed = time.monotonic() - start
    return SearchResult(config, survivors, examined, filtered, elapsed,
                        {d: reports[d] for d in survivors})


def _dedupe_isometric(diagonals):
    kept: list[tuple[int, int, int, int]] = []
    kept_forms: list[QuadForm] = []
    for diag in sorted(diagonals):
        form = QuadForm.diagonal(diag)
        if any(form.discriminant == other.discriminant
               and is_isometric(form, other) for other in kept_forms):
            continue
        kept.append(diag)
        kept_forms.append(form)
    return kept
