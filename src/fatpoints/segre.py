"""The Segre-type upper bound from point subsets on low-dimensional flats.

For each j the quantity T_j maximizes floor((sum of multiplicities + j - 2)/j)
over groups of points lying on a common j-flat, and the bound is the
largest T_j.  An optimal flat can always be taken to be the span of at
most j+1 of the points.  The flats spanned by the points are found once
per scheme, lazily: a subset is spanned only when no flat found so far
holds it, and the points on its span are found by integer dot products
with its normals.  Each candidate is scored by the total multiplicity of
the scheme points it contains, and a :class:`Flat` is built only for the
winner at each j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from fatpoints.geometry import Flat, incident, span
from fatpoints.linalg import integer_kernel
from fatpoints.schemes import FatPointScheme


@dataclass(frozen=True)
class SegreEntry:
    """Best flat of dimension at most j and the value it contributes."""

    j: int
    value: int
    total_mult: int
    witness_indices: tuple[int, ...]
    witness_flat: Flat


@dataclass(frozen=True)
class SegreReport:
    entries: tuple[SegreEntry, ...]
    bound: int
    argmax_j: int

    def entry(self, j: int) -> SegreEntry:
        return self.entries[j - 1]


@lru_cache(maxsize=256)
def _candidate_flats(
    z: FatPointScheme,
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """Every flat spanned by the points, each found once, smallest first.

    Returns (dim, witness index tuple, spanning index tuple) triples; the
    witness set is every point on the flat.  The points are distinct, so
    each 0-flat holds its own point only.  Larger subsets are walked by
    size, and one whose indices all lie in a witness set already found is
    skipped: it spans nothing new.  ``covered`` holds the subsets of every
    witness set, of each size still to come, so that test is one lookup.
    By induction on the size, a dependent subset is always skipped
    (dropping a dependent point keeps its span, which was found from the
    smaller subset), so every subset that is not skipped is independent
    and spans a new flat of dimension size-1.  The flats therefore appear
    in the order of a deduplicated scan of all subsets.  Each subset's
    integer normals are found once, and point i lies on its span exactly
    when it is incident to them.  No :class:`Flat` is built here:
    ``max_multiplicity_on_flats`` spans only the winning subset at each j.
    """
    ints = [p.integer_rep() for p in z.points]
    width = z.n + 1
    found: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [
        (0, (i,), (i,)) for i in range(z.size)
    ]
    top = min(z.size, width)
    covered: set[tuple[int, ...]] = set()
    for size in range(2, top + 1):
        for sub in combinations(range(z.size), size):
            if sub in covered:
                continue
            normals = integer_kernel([ints[i] for i in sub], width)
            witness = tuple(
                i for i in range(z.size) if i in sub or incident(normals, z.points[i])
            )
            found.append((size - 1, witness, sub))
            for k in range(size, min(len(witness), top) + 1):
                covered.update(combinations(witness, k))
    return tuple(found)


def max_multiplicity_on_flats(z: FatPointScheme, j: int):
    """Largest total multiplicity carried by a flat of dimension <= j.

    Returns (total, witness flat, witness indices); ties are broken by
    the lexicographically smallest witness index set.
    """
    if not 1 <= j <= z.n:
        raise ValueError("flat dimension out of range")
    best: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]] = None
    for dim, witness, sub in _candidate_flats(z):
        if dim > j:
            continue
        total = sum(z.mults[i] for i in witness)
        if best is None or total > best[0] or (total == best[0] and witness < best[1]):
            best = (total, witness, sub)
    assert best is not None  # singletons always qualify
    return best[0], span([z.points[i] for i in best[2]]), best[1]


def segre_T(z: FatPointScheme, j: int) -> int:
    """floor((q_j + j - 2) / j) for the maximal on-flat multiplicity q_j."""
    q, _, _ = max_multiplicity_on_flats(z, j)
    return (q + j - 2) // j


def segre_bound(z: FatPointScheme) -> SegreReport:
    """Full table of T_1..T_n with witnesses; the bound is the maximum."""
    entries = []
    for j in range(1, z.n + 1):
        q, flat, witness = max_multiplicity_on_flats(z, j)
        entries.append(
            SegreEntry(
                j=j,
                value=(q + j - 2) // j,
                total_mult=q,
                witness_indices=witness,
                witness_flat=flat,
            )
        )
    bound = max(e.value for e in entries)
    argmax_j = next(e.j for e in entries if e.value == bound)
    return SegreReport(tuple(entries), bound, argmax_j)
