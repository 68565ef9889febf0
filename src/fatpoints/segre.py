"""The Segre-type upper bound from point subsets on low-dimensional flats.

For each j the quantity T_j maximizes floor((sum of multiplicities + j - 2)/j)
over groups of points lying on a common j-flat, and the bound is the
largest T_j.  An optimal flat can always be taken to be the span of at
most j+1 of the points, so the candidates are the flats spanned by the
points: ``FatPointScheme.flats`` (see
:func:`fatpoints.geometry.spanned_flats`), found once per scheme and
shared with the verdict and the generators.  Each candidate is scored by
the total multiplicity of the scheme points it contains, in one pass for
every j.  The table is numbers and index sets: a witness flat is the span
of its witness points, built only by the CLI's ``segre`` report, which
prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from fatpoints.schemes import FatPointScheme, _as_int


@dataclass(frozen=True)
class SegreEntry:
    """Best flat of dimension at most j and the value it contributes.

    The flat is the span of the points at ``witness_indices``, which are
    every scheme point on it.
    """

    j: int
    value: int
    total_mult: int
    witness_indices: tuple[int, ...]


@dataclass(frozen=True)
class SegreReport:
    entries: tuple[SegreEntry, ...]
    bound: int
    argmax_j: int

    def entry(self, j: int) -> SegreEntry:
        j = _as_int(j, "flat dimension")
        if not 1 <= j <= len(self.entries):
            raise ValueError("flat dimension out of range")
        return self.entries[j - 1]


def _winners(z: FatPointScheme) -> list[tuple[int, tuple[int, ...]]]:
    """For j = 1..n, the best flat of dimension <= j as (total, witness).

    Ties are broken by the lexicographically smallest witness index set;
    distinct flats have distinct witness sets, so the best is unique.  The
    flats come smallest first, so one pass keeps a running best and
    records it for j just before the first flat of dimension above j.
    """
    winners: list[tuple[int, tuple[int, ...]]] = []
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for dim, witness in z.flats:
        while len(winners) < dim - 1:
            winners.append(best)
        total = sum(z.mults[i] for i in witness)
        if best is None or total > best[0] or (total == best[0] and witness < best[1]):
            best = (total, witness)
    winners.extend([best] * (z.n - len(winners)))
    return winners


def segre_bound(z: FatPointScheme) -> SegreReport:
    """Full table of T_1..T_n with witness index sets; the bound is the maximum."""
    entries = tuple(
        SegreEntry(j=j, value=(q + j - 2) // j, total_mult=q, witness_indices=witness)
        for j, (q, witness) in enumerate(_winners(z), start=1)
    )
    bound = max(e.value for e in entries)
    argmax_j = next(e.j for e in entries if e.value == bound)
    return SegreReport(entries, bound, argmax_j)
