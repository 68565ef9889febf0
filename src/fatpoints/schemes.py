"""Fat point schemes and their degree-by-degree invariants.

A fat point scheme assigns a multiplicity m_i to each of finitely many
distinct points of P^n.  Its graded invariants are computed here without
any ideal-theoretic machinery: for each degree t we build the condition
matrix of derivative-evaluation functionals, whose rank is the value of
the Hilbert function and whose kernel is the degree-t piece of the
defining ideal.  At (1, 0, ..., 0) the monomials of order <= i are a
prefix of the basis, so artinian reductions at that point cut the
matrix's columns or its kernel vectors there.

Derivative rows use order exactly min(m_i - 1, t) per point.  For
t >= m_i - 1 the Euler relation makes top-order vanishing imply all lower
orders (characteristic zero), and for smaller t the order-t conditions
already force the form to vanish identically, which is the correct
condition since a nonzero degree-t form cannot vanish to order above t.

The Hilbert function is computed in a simplex frame: a change of
coordinates that puts up to n+1 independent points, heaviest first, on
the coordinate vertices e_k (Catalisano-Trung-Valla).  At e_k every
order-min(m-1, t) derivative row is a scaled unit vector, and these rows
hit exactly the degree-t monomials X^b with b_k >= t - m + 1.  Their row
space is therefore spanned by the unit vectors of the union U of these
blocks, and H(t) = |U| + the rank of the other points' rows restricted
to the columns outside U.  This is exact at every degree: only the row
space of the vertex rows enters, so blocks may overlap (t < m_i + m_j - 1)
or cover every monomial (t < m - 1).  One builder, :func:`_free_rows`,
gives every degree question the columns outside U and the other points'
rows on them; :func:`condition_rows` reads it on a frame with no vertex.

The artinian reductions at a point p use the same frame with p sent to
e_0 first and up to n points of the scheme, heaviest first, on e_1, ...
In it the monomials of order <= i at p are a prefix of the basis, and
only the non-vertex points' rows on the columns outside the vertex
blocks are built and eliminated.  From the artinian scan's start degree
on, no vertex block reaches a column of order < a at p, so each degree
is one yes/no: one forward pass over these rows with the free columns
of order >= a put first, whose pivots all fall among them exactly when
the quotient vanishes there.

The regularity index is computed in the span P^d of the points.  The
simplex frame puts d+1 independent points on e_0, ..., e_d, so every
other point has zero coordinates beyond index d, and the frame's
coordinates cut to their first d+1 entries are the scheme in P^d.  The
regularity index does not depend on the ambient space (see
:func:`regularity_index`), so the scan counts the degree-t monomials in
d+1 variables, not n+1.  The scan asks its first degree the mod-p
question alone.  On a "no" it computes the curve lower bound L of
:func:`curve_lower_bound` from the scheme's flats: a rational normal
curve through the points of a line, or through at most d+3 points in
general position in P^d, meets the scheme in a divisor whose Hilbert
function is known.  Every degree below L is then a proven "no", so the
scan goes on from L, or from its first degree if that is larger, and
asks :func:`fatpoints.linalg.rank_rows` at each degree.  A scan whose
first degree is a "yes" never enumerates the flats.

Frames are applied in integers: :func:`fatpoints.geometry.transform_points`
moves the non-vertex points by the rows D E of
:func:`fatpoints.geometry.frame_change`, E the canonical change and
D = diag(v_k), all v_k > 0.  D fixes every coordinate point, so it
changes no vertex block, rank, artinian regularity or criterion answer,
and scaling D E to a multiple of E would only grow its entries.

Three functions memoize, each in a bounded ``lru_cache`` of 64 entries:
:func:`regularity_index` per scheme, :func:`artinian_quotient_regularity`
per (scheme, point, order) and the origin frame of an artinian reduction
per (scheme, point), which :func:`monomial_bound_check` shares.  The keys
are equal schemes and points, not the same objects: the removal
recursion and its caller each build their own ``z.without_point(i0)``,
so a cache kept on one scheme object would miss the repeat.  The calls
that reuse an entry run back to back, over the removals of one scheme,
so 64 entries hold them; a larger cache only keeps schemes alive.  A
miss checks the arguments before any work, an exception is never cached,
and a hit returns only what an equal call with arguments of the same
types returned.

Two more caches, of 256 entries each, hold what depends on the shape of
a matrix and never on coordinates.  The entry of the derivative d^alpha
at the monomial X^b, at the point c, is
prod_j b_j! / (b_j - alpha_j)! * c^(b - alpha) when b >= alpha, else 0,
so its coefficient and its monomial X^(b - alpha) of degree t - order
depend on (t, nvars, order, columns) alone: :func:`_stencil` holds them
per such key, and :func:`_point_condition_rows` evaluates the monomials
at the point once and builds each entry with one product, always on
given columns: the free ones of a frame, all of them with no vertex.
:func:`_free_columns` holds the columns outside the vertex blocks per
(t, n + 1, vertex multiplicities).  As the keys hold no coordinates,
every point of one multiplicity in a frame reads one stencil, and the
schemes with the same multiplicities and vertex multiplicities, such as
a generated family or the removals of one scheme, read the same
entries.  Both are typed, so a float degree misses and raises as it
does with the caches cold.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, perm, prod
from operator import index, sub
from typing import Sequence

from fatpoints.geometry import (
    ProjPoint,
    SpannedFlat,
    degeneracy_of,
    frame_change,
    spanned_flats,
    transform_points,
)
from fatpoints.linalg import (
    _echelon,
    _pivot_columns,
    integer_kernel,
    modular_rank,
    rank_rows,
)


# ---------------------------------------------------------------------------
# monomials and forms
# ---------------------------------------------------------------------------

def _as_int(value: object, what: str, error: type[ValueError] = ValueError) -> int:
    """An integer-valued argument as a Python int; anything else, 2.5 or "3", raises error."""
    try:
        return int(index(value))
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


# typed: monomial_basis(3.0, n) is its own miss, so a float degree raises
# whether or not monomial_basis(3, n) ran before
@lru_cache(maxsize=None, typed=True)
def monomial_basis(degree: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the monomials of one degree, degree-lexicographically.

    The first variable is greatest, so the basis starts at X0^t and ends
    at Xlast^t.  Holds comb(degree + nvars - 1, nvars - 1) exponent
    vectors.  The order t - b_0 of X^b at (1, 0, ..., 0) never decreases
    along the basis, so the comb(i + nvars - 1, nvars - 1) monomials of
    order <= i come first.
    """
    if degree < 0 or nvars < 1:
        raise ValueError("degree must be >= 0 and nvars >= 1")
    return tuple(_descending_exponents(degree, nvars))


def _descending_exponents(total: int, nvars: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _descending_exponents(total - head, nvars - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class Form:
    """A homogeneous form as a coefficient vector over a monomial basis."""

    degree: int
    nvars: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        expected = comb(self.degree + self.nvars - 1, self.nvars - 1)
        if len(self.coeffs) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FatPointScheme:
    """Distinct points of P^n with positive multiplicities."""

    n: int
    points: tuple[ProjPoint, ...]
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_int(self.n, "ambient dimension"))
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "mults", tuple(_as_int(m, "multiplicity") for m in self.mults))
        if self.n < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not self.points:
            raise ValueError("a scheme needs at least one point")
        if len(self.points) != len(self.mults):
            raise ValueError("point and multiplicity counts disagree")
        if any(p.ambient_n != self.n for p in self.points):
            raise ValueError("point does not live in the declared ambient space")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive")

    @property
    def size(self) -> int:
        return len(self.points)

    # cached_property keeps its value in the instance __dict__, off the
    # dataclass fields, so repr, ==, hash and asdict never see it
    @cached_property
    def flats(self) -> tuple[SpannedFlat, ...]:
        """:func:`fatpoints.geometry.spanned_flats` of the points, found once per scheme.

        The last flat is the span of all the points.
        """
        return spanned_flats(self.points)

    def without_point(self, i: int) -> "FatPointScheme":
        if not 0 <= i < self.size:
            raise ValueError(f"point index {i} is out of range 0..{self.size - 1}")
        if self.size < 2:
            raise ValueError("cannot remove the only point")
        pts = self.points[:i] + self.points[i + 1 :]
        ms = self.mults[:i] + self.mults[i + 1 :]
        return FatPointScheme(self.n, pts, ms)

    def transform(self, change: Sequence[Sequence[int]]) -> "FatPointScheme":
        return FatPointScheme(self.n, transform_points(change, self.points), self.mults)

    def permuted(self, order: Sequence[int]) -> "FatPointScheme":
        """The same scheme with its points listed in ``order``, a permutation of 0..size-1."""
        if sorted(order) != list(range(self.size)):
            raise ValueError(f"{list(order)} is not a permutation of 0..{self.size - 1}")
        return FatPointScheme(
            self.n,
            tuple(self.points[i] for i in order),
            tuple(self.mults[i] for i in order),
        )


# ---------------------------------------------------------------------------
# condition matrices
# ---------------------------------------------------------------------------

# typed, as monomial_basis: a float degree is its own miss and raises there
@lru_cache(maxsize=256, typed=True)
def _stencil(
    t: int, nvars: int, order: int, columns: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The coordinate-free part of the order-``order`` derivative rows in degree t.

    The entry of d^alpha at the column X^b, at the point c, is
    prod_j b_j! / (b_j - alpha_j)! * c^(b - alpha) when b >= alpha, else
    0 (see the module docstring).  Returns the exponents of the monomials
    X^(b - alpha) of degree t - order that the columns reach, and for each
    alpha one (coefficient, index into those exponents) pair per column,
    (0, 0) where b >= alpha fails.  Every column b is >= some alpha, as
    order <= t, so the exponents are empty only when the columns are.

    The bound: over more rounds than a 30 s benchmark run completes (800
    of artinian_oracle, 400 of verdict_mix, seed 1) at most 166 keys
    occur, which 256 entries hold.  An entry holds
    C(order + nvars - 1, nvars - 1) pairs per column, at most 60 kB there
    and about 2 MB for an order-7 point in P^3 at degree 16 (120 rows by
    489 free columns), so the bound also caps the memory kept.
    """
    basis = monomial_basis(t, nvars)
    exponents = [basis[k] for k in columns]
    refs: dict[tuple[int, ...], int] = {}
    rows = []
    for alpha in monomial_basis(order, nvars):
        row = []
        for b in exponents:
            gamma = tuple(map(sub, b, alpha))
            if min(gamma) < 0:
                row.append((0, 0))
            else:
                row.append((prod(map(perm, b, alpha)), refs.setdefault(gamma, len(refs))))
        rows.append(tuple(row))
    return tuple(refs), tuple(rows)


def _point_condition_rows(
    coords: tuple[int, ...], mult: int, t: int, columns: Sequence[int]
) -> list[list[int]]:
    """All order-min(mult-1, t) derivative evaluations at one point.

    Each row has one entry per degree-t monomial at the given basis
    indices.  The cached :func:`_stencil` holds each entry's coefficient
    and monomial of degree t - order; the referenced monomials are
    evaluated at the point once, and each entry is then one product.
    Integer coordinates give Python ``int`` entries.
    """
    order = min(mult - 1, t)
    refs, rows = _stencil(t, len(coords), order, tuple(columns))
    values = [prod(map(pow, coords, g)) for g in refs]
    return [[k * values[i] for k, i in row] for row in rows]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def multiplicity(z: FatPointScheme) -> int:
    """Degree of the scheme: the stable value of its Hilbert function."""
    return sum(comb(m + z.n - 1, z.n) for m in z.mults)


@dataclass(frozen=True)
class SimplexFrame:
    """A scheme in coordinates with up to n+1 of its points on the vertices.

    ``vertices`` pairs each occupied vertex index k with the multiplicity
    of the point sent to e_k; ``others`` holds the primitive integer
    coordinates and the multiplicity of every other point, in the new
    coordinates.  In the frame of an artinian reduction e_0 holds the
    distinguished point, which is not in the scheme, so the vertices
    start at 1.  The coordinates are those of the integer change D E, the
    canonical ones scaled by v_k > 0, which changes no rank (see the
    module docstring).  ``n`` is the dimension of the projective space
    the coordinates live in: the scheme's, or that of the span of the
    points in :func:`regularity_index`.
    """

    vertices: tuple[tuple[int, int], ...]
    others: tuple[tuple[tuple[int, ...], int], ...]
    n: int


def _frame(z: FatPointScheme, leading: list[tuple[int, ...]]) -> SimplexFrame:
    """Send ``leading`` to the first vertices, then independent points of z.

    The points go heaviest first, ties by index.
    """
    order = sorted(range(z.size), key=lambda i: (-z.mults[i], i))
    rows, _, taken = frame_change(z.n, leading, [z.points[i].rep for i in order])
    on_vertex = [order[i] for i in taken]
    rest = [i for i in range(z.size) if i not in on_vertex]
    moved = transform_points(rows, [z.points[i] for i in rest])
    others = tuple((q.rep, z.mults[i]) for q, i in zip(moved, rest))
    first = len(leading)
    vertices = tuple((first + k, z.mults[i]) for k, i in enumerate(on_vertex))
    return SimplexFrame(vertices, others, z.n)


def simplex_frame(z: FatPointScheme) -> SimplexFrame:
    """Move independent points, heaviest first (ties by index), to the vertices."""
    return _frame(z, [])


# typed, as monomial_basis: a float degree is its own miss and raises there
@lru_cache(maxsize=256, typed=True)
def _free_columns(t: int, nvars: int, vertices: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Basis indices of the degree-t monomials outside every vertex block.

    Called with ``frame.n + 1`` and ``frame.vertices``.  The vertex rows
    span the unit vectors of the other columns, the union U of the blocks,
    so the rank of any set of columns C of the condition matrix is |U & C|
    plus the rank of the other points' rows on the free columns in C.
    The key holds the vertex multiplicities and no coordinates (see the
    module docstring).  Over the rounds counted for :func:`_stencil` at
    most 139 keys occur, so its bound holds them too.
    """
    exponents = monomial_basis(t, nvars)
    return tuple(c for c, b in enumerate(exponents) if all(b[k] <= t - m for k, m in vertices))


def _free_rows(frame: SimplexFrame, t: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """The free columns of degree t and the non-vertex points' rows on them.

    No row is built when no column is free or no other point exists.
    """
    free = _free_columns(t, frame.n + 1, frame.vertices)
    rows: list[list[int]] = []
    if free:
        for coords, m in frame.others:
            rows.extend(_point_condition_rows(coords, m, t, free))
    return free, rows


def condition_rows(z: FatPointScheme, t: int) -> list[list[int]]:
    """Integer rows of the degree-t condition matrix: a frame with no vertex."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    frame = SimplexFrame((), tuple((p.rep, m) for p, m in zip(z.points, z.mults)), z.n)
    return _free_rows(frame, t)[1]


def _frame_hilbert(frame: SimplexFrame, t: int) -> int:
    """H(t) of the frame's points in P^frame.n: the covered monomials plus a rank.

    The monomials covered by the vertex points' rows are counted; only the
    other rows on the free columns are eliminated (rank_rows).
    """
    free, rows = _free_rows(frame, t)
    covered = comb(t + frame.n, frame.n) - len(free)
    if not rows:
        return covered
    return covered + rank_rows(rows, len(free))


def hilbert_function(z: FatPointScheme, t: int) -> int:
    """Dimension of the degree-t piece of the homogeneous coordinate ring.

    Computed in the simplex frame of the scheme (see the module
    docstring), in P^n.  The count is exact at every t >= 0, with no
    lower degree threshold.
    """
    t = _as_int(t, "degree")
    if t < 0:
        raise ValueError("degree must be nonnegative")
    return _frame_hilbert(simplex_frame(z), t)


def curve_lower_bound(z: FatPointScheme) -> int:
    """The curve lower bound L <= reg(Z), read off the scheme's flats.

    The largest of max(m_i) - 1, the regularity index of the heaviest
    point; W - 1 over every listed line, W the multiplicity sum of the
    points on it; and ceil((sum m_i - 1)/d) when the points span P^d,
    d >= 2, with s <= d+3 and no h-flat, h < d, holding h+2 of them.

    Proof: the points of a line, or of such a span, lie on a rational
    normal curve C of degree j (j = 1, or j = d and s <= d+3 points in
    linear general position).  Z n C is a subscheme of Z and a divisor of
    degree W on C = P^1.  C is projectively normal, so
    H_{Z n C}(t) = min(jt + 1, W).  H_Z(t) = e forces H_Y(t) = e(Y) for
    every subscheme Y, so reg(Z) >= ceil((W - 1)/j).  The line term
    generalises m_1 + m_2 - 1, the two heaviest points' line.
    """
    flats = z.flats
    bound = max(z.mults) - 1
    for dim, witness in flats:
        if dim == 1:
            bound = max(bound, sum(z.mults[i] for i in witness) - 1)
    d = flats[-1][0]
    if d >= 2 and z.size <= d + 3 and degeneracy_of(flats) is None:
        bound = max(bound, -(-(sum(z.mults) - 1) // d))
    return bound


# reg(Z) is reused only across the removals of one scheme, which run back to
# back; a larger cache only keeps schemes alive.  The artinian caches below
# are bounded at 64 for the same reason (see the module docstring).
@lru_cache(maxsize=64)
def regularity_index(z: FatPointScheme) -> int:
    """Least degree at which the Hilbert function reaches the multiplicity.

    The scan runs in the span P^d of the points, read off the simplex
    frame: its d+1 = len(vertices) vertex points span it, every other
    point has zero frame coordinates beyond index d, and cutting them to
    their first d+1 entries keeps them primitive.  So the scheme in P^d
    has multiplicity e = sum C(m_i + d - 1, d), and degree t has C(t+d, d)
    monomials.  This gives the regularity index in P^n:

    * Splitting.  In coordinates where the span is x_{d+1} = ... = x_n = 0,
      with c = n - d, H_{Z in P^n}(t) = sum_k C(k+c-1, c-1) H_{Z_k in P^d}(t-k),
      where Z_k has multiplicities (m_i - k)_+.  Each H_{Z_k} is at most
      e(Z_k), with equality exactly from reg(Z_k) on, and the e(Z_k) add
      up to e(Z) in the same way, so
      reg_{P^n}(Z) = max_k (k + reg_{P^d}(Z_k)).
    * The k = 0 term decides: reg(Z_1) <= reg(Z) - 1.  Suppose the
      order-(m_i - 2) rows of Z_1 are dependent in degree t - 1, by
      coefficients c_{i,alpha}.  Applied to df/dx_j for every f of degree
      t, that relation is one among Z's order-(m_i - 1) rows in degree t,
      and it is nonzero: a nonzero c_{i,alpha} lands on row
      (i, alpha + e_j).  So H_Z(t) = e(Z) implies
      H_{Z_1}(t - 1) = e(Z_1) for every t >= max(m_i) - 1, which holds
      from reg(Z) on.  By induction on k, k + reg(Z_k) <= reg(Z) in P^d,
      hence reg_{P^n}(Z) = reg_{P^d}(Z).

    The search ascends from the larger of two lower bounds.  One is
    m_1 + m_2 - 1 for the two largest multiplicities (m_1 - 1 for a single
    point): the regularity index of the two heaviest points, which lie on
    a line, and the index cannot fall when passing to a subscheme.  The
    other is the least t with C(t+d, d) >= e, since H(t) <= C(t+d, d).
    Every degree of the scan is computed in the one frame, as in
    :func:`hilbert_function`.  From both bounds on, the vertex blocks are
    disjoint and the other rows fit in the free columns, so H(t) = e asks
    for full row rank.

    The scan has two phases.  First, the start degree asks the mod-p
    question alone (:func:`fatpoints.linalg.modular_rank`) of the rows of
    :func:`_free_rows`, whose full row rank is a proven "yes".  A mod-p
    "no" proves nothing, so then the scan computes the curve lower bound
    L of :func:`curve_lower_bound`: every degree below L is a proven "no".  Second, from the larger of
    L and the start, each degree asks whether H(t) = e by the
    :func:`_frame_hilbert` of :func:`hilbert_function`, whose rank is
    :func:`fatpoints.linalg.rank_rows`, the package's one rank rule.  L
    reads ``z.flats``, so it is left until a "no" asks for it: a scan
    whose first degree is a "yes" enumerates no flats.

    A single point is d = 0, where the scan returns m - 1; points that
    span P^n are d = n, where the cut keeps every coordinate.  A hard cap
    at sum(m_i) - 1 guards against bugs; it is mathematically unreachable.
    """
    frame = simplex_frame(z)
    d = len(frame.vertices) - 1
    frame = SimplexFrame(frame.vertices, tuple((c[: d + 1], m) for c, m in frame.others), d)
    e = sum(comb(m + d - 1, d) for m in z.mults)
    cap = sum(z.mults) - 1
    heaviest = sorted(z.mults, reverse=True)[:2]
    t = sum(heaviest) - 1
    while comb(t + d, d) < e:
        t += 1
    if not frame.others:  # the disjoint vertex blocks alone cover e monomials
        return t
    if t <= cap:
        free, rows = _free_rows(frame, t)
        if modular_rank(rows, len(free)) == len(rows):
            return t
        t = max(t, curve_lower_bound(z))
    while t <= cap:
        if _frame_hilbert(frame, t) == e:
            return t
        t += 1
    raise RuntimeError("regularity search passed its cap; this indicates a bug")


def in_fat_ideal(f: Form, z: FatPointScheme) -> bool:
    """Whether a form vanishes to order m_i at every point of the scheme."""
    if f.nvars != z.n + 1:
        raise ValueError("variable counts disagree")
    if f.is_zero():
        return True
    coeffs = f.coeffs
    for row in condition_rows(z, f.degree):
        total = Fraction(0)
        for rv, c in zip(row, coeffs):
            if rv and c:
                total += rv * c
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# artinian reductions at a distinguished point
# ---------------------------------------------------------------------------

def _check_artinian_args(j: FatPointScheme, p: ProjPoint, a: int) -> None:
    if a < 1:
        raise ValueError("the vanishing order must be positive")
    if p.ambient_n != j.n:
        raise ValueError("ambient dimensions disagree")
    if p in j.points:
        raise ValueError("the distinguished point coincides with a point of the scheme")


# Shared by artinian_quotient_regularity and monomial_bound_check, which
# check their arguments before asking for it.
@lru_cache(maxsize=64)
def _origin_frame(j: FatPointScheme, p: ProjPoint) -> SimplexFrame:
    """The simplex frame of j with p sent to e_0 first."""
    return _frame(j, [p.rep])


# typed: a call with a = 2.0 is its own miss, so it raises as it did uncached
@lru_cache(maxsize=64, typed=True)
def artinian_quotient_regularity(j: FatPointScheme, p: ProjPoint, a: int) -> int:
    """Regularity index of the quotient by the scheme plus p's a-th power.

    The quotient is artinian, so its Hilbert function stabilizes at 0 and
    the regularity index is the first degree where it vanishes.  With p
    at (1, 0, ..., 0), the degree-t dimension of the quotient equals the
    rank of the condition matrix minus the rank of its columns at
    monomials of order >= a at p, the basis from index C(a-1+n, n) on.
    Both ranks are invariant under changes of coordinates fixing p, so
    they are computed in the frame that also puts up to n points of the
    scheme on the other vertices e_1, e_2, ...

    The quotient maps onto the quotient by q's m-th power plus p's a-th
    power for each point q of multiplicity m, which is nonzero up to
    degree a + m - 2, so the scan starts at a + max(m_i) - 1 and stops at
    the first zero, since an artinian standard graded quotient cannot
    revive.

    From that start on, no vertex block meets the first ``low`` columns.
    Such a column is a monomial X^b of order < a at p, so b_k <= a - 1 for
    every k >= 1; it lies in vertex k's block when b_k >= t - m_k + 1.
    Both hold only when t <= a + m_k - 2, below the start.  So the first
    ``low`` free columns are columns 0..low-1, both ranks count the same
    covered columns, and the quotient vanishes in degree t exactly when
    the other points' rows have the same rank on the free columns from
    ``low`` on as on all of them.  One forward pass over the rows rotated
    to put those columns first answers it (see
    :func:`fatpoints.linalg._pivot_columns`): the ranks agree exactly when
    every pivot falls among the first len(free) - low columns.
    """
    _check_artinian_args(j, p, a)
    frame = _origin_frame(j, p)
    low = comb(a - 1 + j.n, j.n)
    for t in range(a + max(j.mults) - 1, sum(j.mults) + a + 1):
        free, rows = _free_rows(frame, t)
        pivots = _pivot_columns([row[low:] + row[:low] for row in rows], len(free)) if rows else []
        if not pivots or pivots[-1] < len(free) - low:
            return t
    raise RuntimeError("artinian quotient failed to terminate; this indicates a bug")


def _ideal_piece(frame: SimplexFrame, b: int, low: int) -> list[list]:
    """The degree-b piece of the scheme's ideal, cut to its first low columns.

    A form lies in the ideal exactly when it is zero on the vertex blocks
    and its free coefficients lie in the kernel of the other points' rows
    on the free columns: one ``integer_kernel`` vector per non-pivot column,
    a positive multiple of the ``kernel_basis`` one, which spans the same.
    The vectors stay lists: short tuples freed in bulk are kept on
    CPython's tuple free lists and raise the peak RSS.
    """
    free, rows = _free_rows(frame, b)
    split = bisect_left(free, low)
    if not rows:
        return [[int(c == free[f]) for c in range(low)] for f in range(split)]
    piece = []
    for kernel_vec in integer_kernel(rows, len(free)):
        vec: list = [0] * low
        for f in range(split):
            vec[free[f]] = kernel_vec[f]
        piece.append(vec)
    return piece


def monomial_bound_check(j: FatPointScheme, p: ProjPoint, a: int, b: int) -> bool:
    """Monomial-by-monomial certificate that the artinian regularity is <= b.

    With p at (1, 0, ..., 0), checks for every i < a and every degree-i
    monomial M in the last n variables that X0^(b-i) * M lies in the span
    of the degree-b ideal piece together with the monomials of order
    >= i+1 at p.  These are the basis from index w = C(i+n, n) on, so the
    test asks whether the unit vector of X0^(b-i) * M, index k < w, lies
    in the span of the ideal piece cut to its first w columns.  Equivalent
    to artinian_quotient_regularity(j, p, a) <= b.

    One integer reduced echelon form of the piece, cut to its first
    C(a-1+n, n) columns, answers every i.  A row whose pivot is at w or
    beyond is zero on the first w columns.  The rows whose pivot lies
    below w, cut to w columns, keep their pivots and the zeros above and
    below them, so they are a reduced echelon basis of the cut piece.  A
    vector in their span is determined by its entries at their pivots, so
    the unit vector at k lies in it exactly when k is a pivot and that
    row is zero on every other column below w (it is zero left of its
    pivot already).  Taken over every i, the answer is yes exactly when
    every column is a pivot, for then the rows are unit vectors; the zero
    test keeps each monomial's own answer exact.

    The ideal piece is taken in the frame of
    :func:`artinian_quotient_regularity`.  The answer does not depend on
    that frame: a change fixing p keeps the forms of order >= i+1 at p,
    and modulo them it sends X0^(b-i) * M to a multiple of X0^(b-i) * M',
    where M' is M under an invertible linear substitution of the last n
    variables, so the family tested at each i spans the same space.  The
    test reads pivots and zeros, with no rank count, so it stays an
    independent check of the artinian regularity: it shares only the
    cached change of coordinates with :func:`artinian_quotient_regularity`,
    and itself is not cached.
    """
    if b < a - 1:
        raise ValueError("the degree must be at least a - 1")
    _check_artinian_args(j, p, a)
    low = comb(a - 1 + j.n, j.n)
    rows, pivots = _echelon(_ideal_piece(_origin_frame(j, p), b, low), low)
    row_at = dict(zip(pivots, rows))
    for i in range(a):
        width = comb(i + j.n, j.n)
        for k in range(comb(i - 1 + j.n, j.n), width):
            row = row_at.get(k)
            if row is None or any(row[k + 1 : width]):
                return False
    return True
