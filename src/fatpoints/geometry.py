"""Points, flats and hyperplanes of projective n-space over the rationals.

Each object is built once from primitive integer rows, which it keeps
off the dataclass fields: a point its representative, a hyperplane its
coefficients (both with a positive lead), a flat the integer echelon rows
of its cone and the normals read off them.  The canonical ``Fraction``
fields are views of those rows: coordinates with lead 1, the reduced row
echelon basis of a flat's cone.  So structural equality is geometric
equality, incidence is an integer dot product, and changes of
coordinates move points in integers.

The flats spanned by a point set are enumerated once, by
:func:`spanned_flats`: one fraction-free elimination step per subset, on
the values that a basis of the subset's annihilator takes at every point.
The Segre bound, the degeneracy index (:func:`degeneracy_of`), the span
dimension and the generators' incidence checks all read that one list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import getitem, mul
from typing import Iterable, Optional, Sequence

from fatpoints.linalg import (
    Matrix,
    _annihilator_step,
    _echelon,
    _fraction_rows,
    _kernel_rows,
    _reduce,
    primitive_row,
    rank_rows,
)

Coords = tuple[Fraction, ...]

#: (dim, witness indices, spanning indices) of one flat spanned by points
SpannedFlat = tuple[int, tuple[int, ...], tuple[int, ...]]


def _rational_row(v: Iterable[object]) -> list:
    """Entries that ``Fraction()`` takes, as ints or ``Fraction``s."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]


def _normalize(obj: object, field: str, kind: str) -> None:
    """Make the field rep / lead, rep primitive with a positive lead, and keep rep as ``_rep``.

    ``_rep`` lives in the instance ``__dict__``: repr, ==, hash and asdict never see it.
    """
    rep = primitive_row(_rational_row(getattr(obj, field)))
    lead = next((x for x in rep if x), None)
    if lead is None:
        raise ValueError(f"{kind} must have a nonzero coordinate vector")
    if lead < 0:
        lead, rep = -lead, [-x for x in rep]
    rep = tuple(map(int, rep))
    object.__setattr__(obj, field, _fraction_rows([rep], [lead])[0])
    object.__setattr__(obj, "_rep", rep)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def incident(normals: Sequence[Sequence[int]], p: "ProjPoint") -> bool:
    """Whether p lies on the flat cut out by these integer normals.

    The normals are those of :func:`fatpoints.linalg.integer_kernel`: p is on
    the flat exactly when its integer representative dots each of them to 0.
    """
    rep = p.integer_rep()
    return not any(_dot(v, rep) for v in normals)


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n in canonical homogeneous coordinates."""

    coords: Coords

    def __post_init__(self) -> None:
        _normalize(self, "coords", "point")

    @property
    def ambient_n(self) -> int:
        return len(self.coords) - 1

    def integer_rep(self) -> tuple[int, ...]:
        """A primitive integer representative of the same point, in Python ints.

        Its first nonzero entry is positive; computed once per point.
        """
        return self._rep

    @classmethod
    def unit(cls, n: int, i: int) -> "ProjPoint":
        return cls(tuple(int(j == i) for j in range(n + 1)))


@dataclass(frozen=True)
class LinearForm:
    """A hyperplane of P^n, identified with its defining linear form."""

    coeffs: Coords

    def __post_init__(self) -> None:
        _normalize(self, "coeffs", "linear form")

    @property
    def ambient_n(self) -> int:
        return len(self.coeffs) - 1

    def integer_rep(self) -> tuple[int, ...]:
        """The primitive integer coefficients of the same form, computed once."""
        return self._rep

    def evaluate(self, p: ProjPoint) -> Fraction:
        if len(self.coeffs) != len(p.coords):
            raise ValueError("ambient dimensions disagree")
        return sum((c * x for c, x in zip(self.coeffs, p.coords)), Fraction(0))

    def vanishes_at(self, p: ProjPoint) -> bool:
        """Whether the hyperplane passes through p: one integer dot product."""
        if len(self.coeffs) != len(p.coords):
            raise ValueError("ambient dimensions disagree")
        return not _dot(self.integer_rep(), p.integer_rep())


@dataclass(frozen=True)
class Flat:
    """A linear subvariety of P^n, as the rref basis of its cone.

    A d-dimensional flat is represented by d+1 independent vectors in
    reduced row echelon form, which is the unique canonical basis of the
    cone; two flats are equal exactly when the dataclasses are equal.
    """

    ambient_n: int
    cone_basis: tuple[Coords, ...]

    def __post_init__(self) -> None:
        if not self.cone_basis:
            raise ValueError("a flat needs at least one cone vector")
        width = self.ambient_n + 1
        prev_pivot = -1
        for i, row in enumerate(self.cone_basis):
            if len(row) != width:
                raise ValueError("cone vector length does not match ambient dimension")
            pivot = next((j for j, x in enumerate(row) if x != 0), None)
            if pivot is None or row[pivot] != 1 or pivot <= prev_pivot:
                raise ValueError("cone basis is not in canonical echelon form")
            if any(self.cone_basis[k][pivot] != 0 for k in range(len(self.cone_basis)) if k != i):
                raise ValueError("cone basis is not fully reduced")
            prev_pivot = pivot

    @property
    def dim(self) -> int:
        return len(self.cone_basis) - 1

    # cached_property values live in the instance __dict__, as a point's rep
    @cached_property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer rows, positive multiples of the cone basis rows.

        A flat built by :meth:`from_vectors` keeps the echelon rows it came from.
        """
        return tuple(tuple(map(int, primitive_row(row))) for row in self.cone_basis)

    @cached_property
    def normals(self) -> tuple[list[int], ...]:
        """Primitive integer normals of the cone, n - dim of them, computed once.

        Read off :attr:`integer_rows`, which are already reduced.  A point
        lies on the flat exactly when it is :func:`incident` to them.
        """
        rows = self.integer_rows
        pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
        return tuple(w for _, w in _kernel_rows(rows, pivots, self.ambient_n + 1))

    @classmethod
    def from_vectors(cls, ambient_n: int, vectors: Iterable[Sequence[object]]) -> "Flat":
        """The flat whose cone the vectors (entries as ``Fraction()`` takes) span."""
        rows = [_rational_row(v) for v in vectors]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        rows, pivots = _echelon([primitive_row(row) for row in rows], width)
        if not rows:
            raise ValueError("a flat needs at least one cone vector")
        if width != ambient_n + 1:
            raise ValueError("cone vector length does not match ambient dimension")
        return cls._of_echelon(ambient_n, rows, pivots)

    @classmethod
    def _of_echelon(cls, ambient_n: int, rows: list[list], pivots: list[int]) -> "Flat":
        """The flat of nonempty ``_echelon`` rows of width ambient_n + 1, kept as its integer rows.

        Those rows are canonical by construction, so ``__post_init__``'s
        check, which stays for flats given from outside, is skipped.
        """
        flat = object.__new__(cls)
        vars(flat).update(
            ambient_n=ambient_n,
            cone_basis=tuple(_fraction_rows(rows, map(getitem, rows, pivots))),
            integer_rows=tuple(tuple(map(int, row)) for row in rows),
        )
        return flat


def _cone_rows(points: Sequence[ProjPoint]) -> list[tuple[int, ...]]:
    if not points:
        raise ValueError("span of an empty point set is undefined")
    n = points[0].ambient_n
    if any(p.ambient_n != n for p in points):
        raise ValueError("ambient dimensions disagree")
    return [p.integer_rep() for p in points]


def span(points: Sequence[ProjPoint]) -> Flat:
    """Smallest flat containing the given points: the flat of their integer reps.

    The reps are already primitive, so they go to the echelon as they are.
    """
    rows = _cone_rows(points)
    width = len(rows[0])
    return Flat._of_echelon(width - 1, *_echelon([list(row) for row in rows], width))


def span_dim(points: Sequence[ProjPoint]) -> int:
    """Dimension of span(points), read off the rank of their integer rows."""
    rows = _cone_rows(points)
    return rank_rows(rows, len(rows[0])) - 1


def flat_contains(f: Flat, p: ProjPoint) -> bool:
    """Whether the point lies on the flat."""
    if p.ambient_n != f.ambient_n:
        raise ValueError("ambient dimensions disagree")
    return incident(f.normals, p)


def spanned_flats(points: Sequence[ProjPoint]) -> tuple[SpannedFlat, ...]:
    """Every flat spanned by the points, each found once, smallest first.

    Returns (dim, witness index tuple, spanning index tuple) triples; the
    witness set is every point on the flat, and the last triple is the
    span of all the points.  The points must be pairwise distinct, so
    each 0-flat holds its own point only.  Larger subsets are walked by
    size, and one whose indices all lie in a witness set already found is
    skipped: it spans nothing new.  ``covered`` holds the subsets of every
    witness set, of each size still to come, so that test is one lookup.
    By induction on the size, a dependent subset is always skipped
    (dropping a dependent point keeps its span, which was found from the
    smaller subset), so every subset that is not skipped is independent
    and spans a new flat of dimension size-1.  The flats therefore appear
    in the order of a deduplicated scan of all subsets.

    Incidence is read off one matrix per subset: the values at every point
    of a basis of the linear forms vanishing on the subset.  The empty
    subset's basis is the coordinate functionals, whose values are the
    points' integer representatives, as columns.  Adding an independent
    point q is one fraction-free (Bareiss) step: the first row nonzero at
    q is the pivot, every other row becomes (pv row - row[q] prow) / prev
    (an exact division: each entry is a minor of the starting matrix), and
    the pivot row is dropped.  A point is on the subset's span exactly
    when its column is then zero.  Each prefix's matrix is kept for the
    call, so every subset costs one step.
    """
    reps = [p.integer_rep() for p in points]
    if len(set(reps)) != len(reps):  # primitive reps are canonical
        raise ValueError("points must be pairwise distinct")
    _cone_rows(points)  # span_dim's errors for no points or mixed ambient spaces
    size_all, width = len(reps), len(reps[0])
    found: list[SpannedFlat] = [(0, (i,), (i,)) for i in range(size_all)]
    # prefix -> (rows, pivot of the step that made them)
    states: dict[tuple[int, ...], tuple[list[list[int]], int]] = {
        (): ([list(col) for col in zip(*reps)], 1)
    }

    def state(sub: tuple[int, ...]) -> tuple[list[list[int]], int]:
        if sub not in states:
            states[sub] = _annihilator_step(*state(sub[:-1]), sub[-1])
        return states[sub]

    top = min(size_all, width)
    covered: set[tuple[int, ...]] = set()
    for size in range(2, top + 1):
        for sub in combinations(range(size_all), size):
            if sub in covered:
                continue
            rows = state(sub)[0]
            if rows:
                witness = tuple(i for i, col in enumerate(zip(*rows)) if not any(col))
            else:  # the subset spans the whole space
                witness = tuple(range(size_all))
            found.append((size - 1, witness, sub))
            for k in range(size, min(len(witness), top) + 1):
                covered.update(combinations(witness, k))
    return tuple(found)


def degeneracy_of(flats: Sequence[SpannedFlat]) -> Optional[int]:
    """The degeneracy index read off :func:`spanned_flats`' list.

    The least dim below the span's whose flat holds at least dim+2 of the
    points, or None.  It equals the minimal h such that some h+2 points lie
    on an h-flat: such points span a flat of some dimension e <= h that
    holds at least e+2 of them, and a 0-flat holds one point only.
    """
    top = flats[-1][0]
    return next(
        (dim for dim, witness, _ in flats if dim < top and len(witness) >= dim + 2), None
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


def hyperplane_containing_avoiding(f: Flat, avoid: ProjPoint) -> LinearForm:
    """A hyperplane through the flat that misses the given point."""
    if avoid.ambient_n != f.ambient_n:
        raise ValueError("ambient dimensions disagree")
    if f.dim > f.ambient_n - 1:
        raise ValueError("the whole space is contained in no hyperplane")
    if flat_contains(f, avoid):
        raise ValueError("the point lies on the flat; no hyperplane can separate them")
    rep = avoid.integer_rep()
    return LinearForm(next(v for v in f.normals if _dot(v, rep)))


def extend_flat_avoiding(f: Flat, target_dim: int, avoid: ProjPoint, seed: int) -> Flat:
    """Grow a flat to the requested dimension while avoiding a point.

    Directions are drawn from a seeded generator, so the result is a
    deterministic function of (flat, target_dim, avoid, seed).  Each
    dimension step retries at most 32 random directions, each kept when it
    raises the rank of the integer rows and the point still reduces to nonzero.
    """
    n = f.ambient_n
    if not f.dim <= target_dim <= n - 1:
        raise ValueError("target dimension out of range")
    if flat_contains(f, avoid):
        raise ValueError("cannot avoid a point already on the flat")
    rng = random.Random(seed)
    rows = f.integer_rows
    while len(rows) <= target_dim:
        for _ in range(32):
            v = [rng.randint(-9, 9) for _ in range(n + 1)]
            if not any(v):
                continue
            cand, pivots = _echelon([list(row) for row in rows] + [v], n + 1)
            if len(cand) > len(rows) and any(_reduce(avoid.integer_rep(), cand, pivots)):
                rows = cand
                break
        else:
            raise RuntimeError("exhausted retries while extending a flat")
    return f if len(rows) == len(f.integer_rows) else Flat.from_vectors(n, rows)


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


def canonical_change(
    n: int, leading: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]] = ()
) -> tuple[Matrix, tuple[int, ...]]:
    """:func:`frame_change` with each row divided by its pivot value: E, and ``taken``."""
    rows, pivots, taken = frame_change(n, leading, candidates)
    entries = tuple(x for row in _fraction_rows(rows, pivots) for x in row)
    return Matrix(n + 1, n + 1, entries), taken


def coordinate_change_to_origin(p: ProjPoint) -> Matrix:
    """Invertible change of coordinates sending p to (1, 0, ..., 0)."""
    return canonical_change(p.ambient_n, [p.integer_rep()])[0]


def transform_points(change: Matrix, points: Sequence[ProjPoint]) -> tuple[ProjPoint, ...]:
    """The images of the points under the change, moved in integers.

    The change's entries are brought to one common denominator and its
    numerators dotted with each point's integer representative: a positive
    multiple of the image, hence the same projective point.  A point the
    change sends to zero raises ``ValueError``, as ``ProjPoint`` does.
    """
    lcm = 1
    for x in change.entries:
        lcm = lcm // gcd(lcm, x.denominator) * x.denominator
    rows = [
        [x.numerator * (lcm // x.denominator) for x in change.row(i)] for i in range(change.rows)
    ]
    moved = []
    for p in points:
        if len(p.coords) != change.cols:
            raise ValueError("dimension mismatch")
        rep = p.integer_rep()
        moved.append(ProjPoint(tuple(_dot(row, rep) for row in rows)))
    return tuple(moved)


def transform_point(change: Matrix, p: ProjPoint) -> ProjPoint:
    return transform_points(change, [p])[0]


def random_invertible_change(n: int, rng: random.Random) -> Matrix:
    """A random invertible (n+1) x (n+1) matrix with small integer entries."""
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n + 1)]
        if rank_rows(rows, n + 1) == n + 1:
            return Matrix.from_rows(rows)
