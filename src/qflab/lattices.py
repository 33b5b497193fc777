"""Bundled lattice constants: the classification table of diagonal
quaternary forms representing 1, and the three class-number-2 genus pairs
with the auxiliary lattices their representation identities use."""

from __future__ import annotations

from dataclasses import dataclass, field

from .forms import QuadForm

GROUP_COPRIME3 = "3-coprime"
GROUP_ONLY3 = "3-divides-5-coprime"
GROUP_15 = "15-divides-7-coprime"


@dataclass(frozen=True)
class ClassificationEntry:
    diagonal: tuple[int, int, int, int]
    group: str
    expected_pass: bool = True

    @property
    def form(self) -> QuadForm:
        return QuadForm.diagonal(self.diagonal)


def _entries(group, diags, expected_pass=True):
    return tuple(ClassificationEntry(d, group, expected_pass) for d in diags)


CLASSIFICATION_TABLE: tuple[ClassificationEntry, ...] = (
    _entries(GROUP_COPRIME3, (
        (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 4), (1, 1, 1, 5), (1, 1, 1, 8),
        (1, 1, 2, 2), (1, 1, 2, 4), (1, 1, 4, 4), (1, 1, 4, 8), (1, 2, 2, 2),
        (1, 2, 2, 4), (1, 2, 2, 8), (1, 2, 4, 4), (1, 2, 8, 8), (1, 4, 4, 4),
        (1, 4, 4, 8), (1, 5, 5, 5), (1, 8, 8, 8),
    ))
    + _entries(GROUP_ONLY3, (
        (1, 1, 1, 3), (1, 1, 2, 3), (1, 1, 2, 6), (1, 1, 3, 3), (1, 1, 3, 9),
        (1, 2, 2, 3), (1, 2, 2, 6), (1, 2, 4, 6), (1, 2, 6, 16), (1, 3, 3, 3),
        (1, 3, 3, 6), (1, 3, 3, 9), (1, 3, 6, 6), (1, 3, 9, 9),
    ))
    + _entries(GROUP_15, (
        (1, 1, 3, 5), (1, 2, 3, 10),
    ))
    + _entries(GROUP_ONLY3, ((1, 2, 3, 3), (1, 3, 3, 18)), expected_pass=False)
)


def classification_passing() -> tuple[ClassificationEntry, ...]:
    return tuple(e for e in CLASSIFICATION_TABLE if e.expected_pass)


@dataclass(frozen=True)
class GenusPair:
    """A two-class genus: the diagonal representative, its mate, and the
    named auxiliary lattices entering its square-counting identities."""

    name: str
    primary: QuadForm
    mate: QuadForm
    auxiliaries: dict[str, QuadForm] = field(default_factory=dict)

    def __post_init__(self):
        if self.primary.rank != self.mate.rank:
            raise ValueError("genus pair must have equal ranks")
        if self.primary.discriminant != self.mate.discriminant:
            raise ValueError("genus pair must have equal discriminants")


_D = QuadForm.diagonal
_B = QuadForm.block_diag

GENUS_PAIRS: dict[str, GenusPair] = {
    "1,2,6,16": GenusPair(
        name="1,2,6,16",
        primary=_D((1, 2, 6, 16)),
        mate=_B(1, [[6, 2, -2], [2, 6, 2], [-2, 2, 8]]),
    ),
    "1,1,3,5": GenusPair(
        name="1,1,3,5",
        primary=_D((1, 1, 3, 5)),
        mate=_B(1, 1, [[2, 1], [1, 8]]),
        auxiliaries={
            # index-3 structures carrying the counts in residue class 1 mod 3
            # and at arguments 9 n^2
            "unit-core": _B(1, 3, [[6, 3], [3, 9]]),
            "square-core": _B(3, [[6, 3], [3, 9]], 9),
        },
    ),
    "1,2,3,10": GenusPair(
        name="1,2,3,10",
        primary=_D((1, 2, 3, 10)),
        mate=_B(1, [[3, -1, 1], [-1, 5, 1], [1, 1, 5]]),
        auxiliaries={
            # lattices of the two-step descent at arguments 25 n^2
            "step-diag": _D((1, 2, 5, 6)),
            "step-even": _B(2, [[3, 0, 1], [0, 3, 1], [1, 1, 4]]),
            "bridge": _B(3, [[3, 0, 5], [0, 10, 0], [5, 0, 25]]),
            "bridge-mate": _B(1, [[6, 6, 10], [6, 21, 35], [10, 35, 75]]),
        },
    ),
}

# discriminants of every bundled constant, used as a transcription checksum
EXPECTED_DISCRIMINANTS: dict[str, int] = {
    "1,2,6,16": 3072,
    "1,2,6,16/mate": 3072,
    "1,1,3,5": 240,
    "1,1,3,5/mate": 240,
    "1,1,3,5/unit-core": 2160,
    "1,1,3,5/square-core": 19440,
    "1,2,3,10": 960,
    "1,2,3,10/mate": 960,
    "1,2,3,10/step-diag": 960,
    "1,2,3,10/step-even": 960,
    "1,2,3,10/bridge": 24000,
    "1,2,3,10/bridge-mate": 24000,
}


def all_bundled_forms() -> dict[str, QuadForm]:
    out: dict[str, QuadForm] = {}
    for name, pair in GENUS_PAIRS.items():
        out[name] = pair.primary
        out[f"{name}/mate"] = pair.mate
        for key, aux in pair.auxiliaries.items():
            out[f"{name}/{key}"] = aux
    return out
