"""Points, flats and hyperplanes of projective n-space over the rationals.

Points, hyperplanes and flats are their primitive integer rows: a
point's field is its representative with a positive first nonzero entry,
a hyperplane's its coefficients with a positive lead, a flat's the
reduced echelon rows of its cone, each primitive with a positive pivot.
Each constructor takes any input that ``Fraction()`` accepts and brings
it to that canonical form, so structural equality is geometric equality,
equal objects hash by ints, incidence is an integer dot product, and
changes of coordinates move points in integers.  ``Fraction`` text (a
point's coordinates with lead 1, a flat's reduced row echelon basis) is
made only where it is printed, by :func:`_lead_one`.

The flats spanned by a point set are enumerated once, by
:func:`spanned_flats`: a pruned tree of fraction-free steps on r spanning
coordinates finds the bases of the points' matroid as bitmasks, and each
subset's flat is read off the union of the bases that hold it.  The
Segre bound, the degeneracy index (:func:`degeneracy_of`), the span
dimension and the generators' incidence checks all read that one list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterable, Optional, Sequence

from fatpoints.linalg import (
    _annihilator_step,
    _bareiss_forward,
    _echelon,
    _fraction_rows,
    _kernel_rows,
    _reduce,
    primitive_row,
)

Coords = tuple[Fraction, ...]

#: (dim, witness indices) of one flat spanned by points: the witnesses are
#: every point on the flat, so it is span(points at witness)
SpannedFlat = tuple[int, tuple[int, ...]]


def _primitive(v: Iterable[object]) -> list:
    """The primitive integer row proportional to v, whose entries ``Fraction()`` takes."""
    return primitive_row([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v])


def _primitive_rep(v: Iterable[object], kind: str) -> tuple[int, ...]:
    """The primitive integer row proportional to v, with a positive lead, in Python ints."""
    rep = _primitive(v)
    lead = next((x for x in rep if x), None)
    if lead is None:
        raise ValueError(f"{kind} must have a nonzero coordinate vector")
    if lead < 0:
        rep = [-x for x in rep]
    return tuple(map(int, rep))


def _lead_one(rows: Sequence[Sequence[int]]) -> list[Coords]:
    """Each integer row divided by its first nonzero entry, in ``Fraction``.

    The one renderer of rows as rationals: the CLI's flat reports, scheme
    files and :attr:`ProjPoint.coords` read it.
    """
    return _fraction_rows(rows, (next(x for x in row if x) for row in rows))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def incident(normals: Sequence[Sequence[int]], p: "ProjPoint") -> bool:
    """Whether p lies on the flat cut out by these integer normals.

    The normals are those of :func:`fatpoints.linalg.integer_kernel`: p is on
    the flat exactly when its integer representative dots each of them to 0.
    """
    return not any(_dot(v, p.rep) for v in normals)


# cached_property values live in the instance __dict__, off the dataclass
# fields, so repr, ==, hash and asdict never see them
@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n, as its primitive integer representative with a positive lead."""

    rep: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rep", _primitive_rep(self.rep, "point"))

    @property
    def ambient_n(self) -> int:
        return len(self.rep) - 1

    @cached_property
    def coords(self) -> Coords:
        """Canonical homogeneous coordinates: the representative divided by its lead.

        No package code reads it; it is kept as the accessor that
        ``perfbench/workloads.py`` reads.
        """
        return _lead_one([self.rep])[0]

    @classmethod
    def unit(cls, n: int, i: int) -> "ProjPoint":
        return cls(tuple(int(j == i) for j in range(n + 1)))


@dataclass(frozen=True)
class LinearForm:
    """A hyperplane of P^n: its form's primitive integer coefficients, with a positive lead."""

    rep: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rep", _primitive_rep(self.rep, "linear form"))

    @property
    def ambient_n(self) -> int:
        return len(self.rep) - 1

    def vanishes_at(self, p: ProjPoint) -> bool:
        """Whether the hyperplane passes through p: one integer dot product."""
        if self.ambient_n != p.ambient_n:
            raise ValueError("ambient dimensions disagree")
        return not _dot(self.rep, p.rep)


@dataclass(frozen=True)
class Flat:
    """A linear subvariety of P^n, as the integer echelon rows of its cone.

    A d-dimensional flat keeps d+1 rows: its cone's reduced row echelon
    basis, each row scaled to a primitive integer row with a positive
    pivot.  The constructor takes any vectors, with entries that
    ``Fraction()`` accepts, that span the cone and brings them to that
    form with one integer echelon pass, so two flats are equal exactly
    when the dataclasses are equal.
    """

    ambient_n: int
    integer_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        width = self.ambient_n + 1
        rows = [_primitive(v) for v in self.integer_rows]
        if any(len(row) != width for row in rows):
            raise ValueError("cone vector length does not match ambient dimension")
        rows = _echelon(rows, width)[0]
        if not rows:
            raise ValueError("a flat needs at least one cone vector")
        object.__setattr__(self, "integer_rows", tuple(tuple(map(int, row)) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.integer_rows) - 1

    @cached_property
    def normals(self) -> tuple[list[int], ...]:
        """Primitive integer normals of the cone, n - dim of them, computed once.

        Read off :attr:`integer_rows`, which are already reduced.  A point
        lies on the flat exactly when it is :func:`incident` to them.
        """
        rows = self.integer_rows
        pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
        return tuple(w for _, w in _kernel_rows(rows, pivots, self.ambient_n + 1))


def _cone_rows(points: Sequence[ProjPoint]) -> list[tuple[int, ...]]:
    if not points:
        raise ValueError("span of an empty point set is undefined")
    n = points[0].ambient_n
    if any(p.ambient_n != n for p in points):
        raise ValueError("ambient dimensions disagree")
    return [p.rep for p in points]


def span(points: Sequence[ProjPoint]) -> Flat:
    """Smallest flat containing the given points: the flat of their integer reps."""
    rows = _cone_rows(points)
    return Flat(len(rows[0]) - 1, rows)


def flat_contains(f: Flat, p: ProjPoint) -> bool:
    """Whether the point lies on the flat."""
    if p.ambient_n != f.ambient_n:
        raise ValueError("ambient dimensions disagree")
    return incident(f.normals, p)


def spanned_flats(points: Sequence[ProjPoint]) -> tuple[SpannedFlat, ...]:
    """Every flat spanned by the points, each found once, smallest first.

    Returns (dim, witness index tuple) pairs; the witness set is every
    point on the flat, which is therefore the span of those points, and
    the last pair is the span of all the points.  The points must be
    pairwise distinct, so each 0-flat holds its own point only.  Larger
    subsets are walked by size, in ``combinations`` order, and one whose
    indices all lie in a witness set already found is skipped: it spans
    nothing new.  By induction on the size, a dependent subset is always
    skipped (dropping a dependent point keeps its span, which was found
    from the smaller subset), so every subset that is not skipped is
    independent and spans a new flat of dimension size-1.  The flats
    therefore appear in the order of a deduplicated scan of all subsets.
    An independent subset S of size k is skipped exactly when its own
    flat is already listed: a listed flat that holds S has dimension at
    least k-1, and one found at a size up to k at most k-1, so it is
    span(S).  So the walk skips a subset that is dependent or whose
    witness set is already listed.

    Incidence is read off the bases of the points' matroid, the sets of r
    points that span the span, r its rank:

    * Spanning coordinates.  One fraction-free forward pass over the
      points' representatives gives r and r pivot coordinates.  Those
      coordinates' rows of the coordinates x points matrix span its row
      space, so a set of points is independent in that r x s matrix
      exactly when it is independent in the whole one.
    * The pruned tree.  A depth-first walk over index-increasing prefixes
      keeps, for a prefix of k independent points, r-k rows on the columns
      after its last index: the values there of a basis of the linear
      forms (in the spanning coordinates) that vanish on the prefix.  The
      root's rows are the spanning coordinates' rows.  The prefix and q
      are independent exactly when some row is nonzero at q; then one
      fraction-free step (:func:`fatpoints.linalg._annihilator_step`, its
      entries minors of the root's rows, so every division is exact)
      gives the child's rows.  A k-point prefix is extended only by q <=
      s-(r-k), which leaves room for a basis, and a prefix of r-1 points
      reads its bases straight off its one row.  Each basis is a bitmask.
    * Closures.  ``union[m]``, for an independent set m, is the OR of the
      bases that contain m, filled downward from the bases one size at a
      time by clearing one bit.  Every independent set lies in a basis, so
      it has an entry, and a point j outside m is on span(m) exactly when
      m + {j} is dependent, that is, when no basis holds m and j: when j
      is not in ``union[m]``.  The witness set of m is m together with
      the points outside ``union[m]``.
    * The whole span.  No flat of dimension below r-1 holds a basis, so
      at size r the first subset not skipped is a basis; it spans
      everything and gives (r-1, every point), and every larger subset
      lies in that witness set.  The walk stops there.  (For r = 1, a
      single point, that flat is the point's 0-flat, already listed.)
    * The uniform case.  When all C(s, r) r-subsets are bases, every
      ``union`` entry is every point, so each subset of size below r is
      its own witness set and none is skipped; the list is written out
      directly.
    """
    reps = [p.rep for p in points]
    if len(set(reps)) != len(reps):  # primitive reps are canonical
        raise ValueError("points must be pairwise distinct")
    _cone_rows(points)  # span's errors for no points or mixed ambient spaces
    size_all = len(reps)
    everyone = tuple(range(size_all))
    found: list[SpannedFlat] = [(0, (i,)) for i in everyone]
    coords = _bareiss_forward([list(rep) for rep in reps], len(reps[0]))
    rank = len(coords)
    bases: list[int] = []

    def grow(rows: list[list[int]], prev: int, lo: int, mask: int, k: int) -> None:
        # rows: r-k rows on the columns lo.. of the k-point prefix in mask
        if k == rank - 1:
            bases.extend(mask | 1 << q for q, x in enumerate(rows[0], lo) if x)
            return
        for q in range(lo, size_all - rank + k + 1):
            if any(row[q - lo] for row in rows):
                grow(*_annihilator_step(rows, prev, q - lo), q + 1, mask | 1 << q, k + 1)

    grow([[rep[c] for rep in reps] for c in coords], 1, 0, 0, 0)

    if len(bases) == comb(size_all, rank):
        found.extend(
            (size - 1, sub) for size in range(2, rank) for sub in combinations(everyone, size)
        )
    else:
        full = (1 << size_all) - 1
        union = _unions(bases, rank)
        seen: set[int] = set()
        powers = [1 << i for i in everyone]
        for size in range(2, rank):
            for sub in combinations(powers, size):
                m = sum(sub)
                u = union.get(m)
                if u is None:  # a dependent subset
                    continue
                witness = m | (full ^ u)
                if witness not in seen:
                    seen.add(witness)
                    found.append((size - 1, tuple(i for i in everyone if witness >> i & 1)))
    if rank > 1:
        found.append((rank - 1, everyone))
    return tuple(found)


def _unions(bases: Sequence[int], rank: int) -> dict[int, int]:
    """For every independent set of 2..rank-1 points, as a bitmask, the OR of the bases holding it.

    Filled downward from the bases, one size at a time: a set's entry
    is the OR of the entries of the sets one point larger that hold it.
    """
    union: dict[int, int] = {}
    level = {b: b for b in bases}
    for _ in range(rank - 2):
        below: dict[int, int] = {}
        for m, u in level.items():
            rest = m
            while rest:
                bit = rest & -rest
                below[m ^ bit] = below.get(m ^ bit, 0) | u
                rest ^= bit
        union.update(below)
        level = below
    return union


def degeneracy_of(flats: Sequence[SpannedFlat]) -> Optional[int]:
    """The degeneracy index read off :func:`spanned_flats`' list.

    The least dim below the span's whose flat holds at least dim+2 of the
    points, or None.  It equals the minimal h such that some h+2 points lie
    on an h-flat: such points span a flat of some dimension e <= h that
    holds at least e+2 of them, and a 0-flat holds one point only.
    """
    top = flats[-1][0]
    return next(
        (dim for dim, witness in flats if dim < top and len(witness) >= dim + 2), None
    )


def general_position_on(points: Sequence[ProjPoint], r: int) -> bool:
    """General position on a linear r-space.

    True when all points lie on some r-flat and no j+2 of them lie on a
    j-flat for any j < r.
    """
    flats = spanned_flats(points)
    d = flats[-1][0]
    # below r, any d+2 of the points already lie on the d-flat they span
    return d <= r and degeneracy_of(flats) is None and (d == r or len(points) <= d + 1)


def degeneracy_index(points: Sequence[ProjPoint]) -> Optional[int]:
    """Minimal h < dim span such that some h-flat holds h+2 of the points.

    Returns None when the points are in general position on their span.
    """
    return degeneracy_of(spanned_flats(points))


def extend_flat_avoiding(f: Flat, target_dim: int, avoid: ProjPoint, seed: int) -> Flat:
    """Grow a flat to the requested dimension while avoiding a point.

    A flat already of the target dimension is returned as it is, with no
    generator made.  Otherwise directions are drawn from a generator seeded
    with ``seed``, so the result is a deterministic function of (flat,
    target_dim, avoid, seed).  Each dimension step retries at most 32
    random directions, each kept when it raises the rank of the integer
    rows and the point still reduces to nonzero.
    """
    n = f.ambient_n
    if not f.dim <= target_dim <= n - 1:
        raise ValueError("target dimension out of range")
    if flat_contains(f, avoid):
        raise ValueError("cannot avoid a point already on the flat")
    if f.dim == target_dim:
        return f
    rng = random.Random(seed)
    rows = f.integer_rows
    while len(rows) <= target_dim:
        for _ in range(32):
            v = [rng.randint(-9, 9) for _ in range(n + 1)]
            if not any(v):
                continue
            cand, pivots = _echelon([list(row) for row in rows] + [v], n + 1)
            if len(cand) > len(rows) and any(_reduce(avoid.rep, cand, pivots)):
                rows = cand
                break
        else:
            raise RuntimeError("exhausted retries while extending a flat")
    return Flat(n, rows)


def frame_change(
    n: int, leading: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]] = ()
) -> tuple[list[list], list, tuple[int, ...]]:
    """Invertible change of coordinates sending a greedy basis to the coordinate frame.

    The basis of Q^(n+1) starts with ``leading``, which must be independent.
    It then takes, in order, every candidate and after them every unit
    vector e_0, e_1, ... that is independent of the vectors already taken,
    until it has n+1 vectors.  Every vector must have n+1 integer entries.

    Returns the change as integer rows D E, the pivot values v_k > 0 that
    make up D = diag(v_k), and the indices of the candidates taken, in
    basis order: candidate ``taken[i]`` is basis vector len(leading) + i.
    E sends the k-th basis vector to e_k, so D E sends it to v_k * e_k.

    One integer elimination both picks the basis and inverts it.  The
    reduced echelon form E M of M = [leading | candidates | I] has n+1
    pivots, at the columns independent of those before them: the greedy
    basis, in order.  Its integer rows are D E M, whose I block is D E.
    """
    vectors = [*leading, *candidates]
    if any(len(v) != n + 1 for v in vectors):
        raise ValueError("ambient dimensions disagree")
    lead, width = len(leading), len(vectors)
    rows = [[v[i] for v in vectors] + [int(j == i) for j in range(n + 1)] for i in range(n + 1)]
    rows, pivot_cols = _echelon(rows, width + n + 1)
    if pivot_cols[:lead] != list(range(lead)):
        raise ValueError("the leading vectors are dependent")
    taken = tuple(c - lead for c in pivot_cols if lead <= c < width)
    return [row[width:] for row in rows], [row[c] for row, c in zip(rows, pivot_cols)], taken


def transform_points(
    change: Sequence[Sequence[int]], points: Sequence[ProjPoint]
) -> tuple[ProjPoint, ...]:
    """The images of the points under a change of coordinates given as integer rows.

    Coordinate i of a point's image is row i of the change dotted with the
    point's integer representative, so the image is exact and needs no
    common denominator.  A row of another length than the representative
    raises ``ValueError``, and so does a point the change sends to zero,
    as ``ProjPoint`` does.
    """
    moved = []
    for p in points:
        if any(len(row) != len(p.rep) for row in change):
            raise ValueError("dimension mismatch")
        moved.append(ProjPoint(tuple(_dot(row, p.rep) for row in change)))
    return tuple(moved)


def transform_point(change: Sequence[Sequence[int]], p: ProjPoint) -> ProjPoint:
    return transform_points(change, [p])[0]
