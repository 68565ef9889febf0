"""Constructive machinery behind the regularity bound.

Three layers:

* ``distribute_flats`` realizes the inductive covering argument: given
  points with multiplicities and a point to avoid, it produces t flats of
  dimension r-1, all avoiding the distinguished point, such that each
  point lies on at least as many flats as its multiplicity.

* certificates: a :class:`Certificate` witnesses an upper bound for the
  regularity of an artinian reduction by listing, per monomial, a product
  of hyperplanes avoiding the distinguished point whose product with the
  monomial vanishes to the scheme's orders.  ``build_certificate`` tries
  one hyperplane through every point, then one grouped covering
  construction with two groups (split) or one (single group), its scans,
  spans and lifts computed once per build, not per monomial; the trusted
  component is ``verify_certificate``, which re-checks everything from
  scratch.  It never expands a product: the order of vanishing at a point
  is a valuation, so a product of linear factors vanishes there to the
  number of its factors through the point (``vanishing_orders``).

* verdicts: ``removal_recursion_check`` confirms the regularity recursion
  for a removed point, and ``segre_verdict`` classifies a scheme and
  compares its regularity index against the Segre-type bound.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from itertools import chain, combinations
from math import lcm
from typing import Optional, Sequence

from fatpoints.geometry import (
    Flat,
    LinearForm,
    ProjPoint,
    degeneracy_of,
    extend_flat_avoiding,
    flat_contains,
    frame_change,
    span,
    spanned_flats,
    transform_point,
)
from fatpoints.linalg import integer_kernel, rank_rows
from fatpoints.schemes import (
    FatPointScheme,
    _as_int,
    _check_artinian_args,
    artinian_quotient_regularity,
    monomial_basis,
    regularity_index,
)
from fatpoints.segre import SegreReport, segre_bound

_LOG = logging.getLogger("fatpoints.constructions")


class ConstructionError(RuntimeError):
    """A constructive step failed outside the supported geometric cases."""


# ---------------------------------------------------------------------------
# flat distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """t flats of dimension r-1 covering each point with its multiplicity."""

    flats: tuple[Flat, ...]
    coverage: tuple[tuple[int, ...], ...]


def cover_threshold(mults: Sequence[int], r: int) -> int:
    """Least admissible flat count: max of the multiplicities and
    floor((sum + r - 1) / r)."""
    if r < 1:
        raise ValueError("r must be positive")
    if not mults:
        raise ValueError("at least one multiplicity is required")
    return max(max(mults), (sum(mults) + r - 1) // r)


def _span_of(points: Sequence[ProjPoint], spans: dict) -> Flat:
    """span(points), memoized in ``spans`` under the point set."""
    key = frozenset(points)
    return spans[key] if key in spans else spans.setdefault(key, span(points))


def _scan_avoiding(points: Sequence[ProjPoint], avoid: ProjPoint, r: int, spans: dict) -> None:
    """Check that no span of min(r, len(points)) points captures the avoided point."""
    size = min(r, len(points))
    for sub in combinations(range(len(points)), size):
        if flat_contains(_span_of([points[i] for i in sub], spans), avoid):
            raise ValueError(
                f"avoided point lies on the span of points {list(sub)}; "
                "the covering construction cannot proceed"
            )


def _check_cover_args(points: Sequence[ProjPoint], mults: Sequence[int], r: int, t: int) -> None:
    """The argument checks of :func:`distribute_flats`, run on every cover."""
    if not points or len(points) != len(mults):
        raise ValueError("points and multiplicities must be nonempty and aligned")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    if not 1 <= r <= points[0].ambient_n:
        raise ValueError("r must be between 1 and the ambient dimension")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    threshold = cover_threshold(mults, r)
    if t < threshold:
        raise ValueError(f"t={t} is below the admissible threshold {threshold}")


def distribute_flats(
    points: Sequence[ProjPoint],
    avoid: ProjPoint,
    mults: Sequence[int],
    r: int,
    t: int,
    seed: int,
) -> Distribution:
    """Cover each point with at least its multiplicity of (r-1)-flats.

    Implements the inductive covering argument: with multiplicities
    sorted descending, a flat through the r heaviest points is split off
    and their multiplicities decremented; once at most r points remain,
    one flat through all of them fills every remaining slot.  All flats
    avoid the distinguished point, and the construction is deterministic
    per seed.
    """
    points = list(points)
    mults = [_as_int(m, "multiplicity") for m in mults]
    _check_cover_args(points, mults, r, t)
    spans: dict = {}
    _scan_avoiding(points, avoid, r, spans)
    return _cover(points, avoid, mults, r, t, seed, spans)


def _cover(points, avoid, mults, r, t, seed, spans) -> Distribution:
    """The loop of :func:`distribute_flats` on checked, scanned arguments.

    ``spans`` memoizes spans by point set; coverage is tested once per distinct flat.
    """
    remaining = list(mults)
    flats: list[Flat] = []
    step = 0
    while len(flats) < t:
        active = [i for i, m in enumerate(remaining) if m > 0]
        slots = t - len(flats)
        step += 1
        if len(active) <= r:
            base = _span_of([points[i] for i in active], spans)
            flat = extend_flat_avoiding(base, r - 1, avoid, seed * 1009 + step)
            flats.extend([flat] * slots)
            break
        order = sorted(active, key=lambda i: (-remaining[i], i))
        heavy = order[:r]
        base = _span_of([points[i] for i in heavy], spans)
        flat = extend_flat_avoiding(base, r - 1, avoid, seed * 1009 + step)
        flats.append(flat)
        for i in heavy:
            remaining[i] -= 1

    on = {f: [flat_contains(f, p) for p in points] for f in set(flats)}
    hits = [on[f] for f in flats]
    coverage = tuple(
        tuple(k for k, row in enumerate(hits) if row[i]) for i in range(len(points))
    )
    for i, m in enumerate(mults):
        if len(coverage[i]) < m:
            raise ConstructionError(
                f"coverage of point {i} fell short ({len(coverage[i])} < {m})"
            )
    return Distribution(tuple(flats), coverage)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateEntry:
    """Hyperplanes whose product, times the monomial, vanishes to order."""

    monomial: tuple[int, ...]  # exponents of X_1..X_n in certificate coordinates
    hyperplanes: tuple[LinearForm, ...]


@dataclass(frozen=True)
class Certificate:
    """A per-monomial hyperplane-product witness for an artinian bound.

    All hyperplanes and monomials live in the coordinates obtained by
    applying ``change`` to the scheme, which sends the distinguished
    point to (1, 0, ..., 0).  The change is a tuple of n+1 integer rows,
    row i giving coordinate i of a moved point (see
    :func:`fatpoints.geometry.transform_points`).  ``positions`` records,
    for audit, which scheme point (if any) was normalized to which
    coordinate point.
    """

    order: int
    change: tuple[tuple[int, ...], ...]
    entries: tuple[CertificateEntry, ...]
    positions: tuple[Optional[int], ...]
    strategy: str
    delta: int


def _origin(n: int) -> ProjPoint:
    return ProjPoint.unit(n, 0)


def _monomial_order_at(mono: tuple[int, ...], q: ProjPoint) -> int:
    """Vanishing order of a monomial in X_1..X_n at a point."""
    return sum(c for c, x in zip(mono, q.rep[1:]) if not x)


def vanishing_orders(
    monomial: tuple[int, ...],
    hyperplanes: Sequence[LinearForm],
    points: Sequence[ProjPoint],
    zeros: dict[LinearForm, list[int]],
) -> list[int]:
    """Vanishing order at each point of X^monomial (in X_1..X_n) times the hyperplanes.

    The order is the number of linear factors through the point, repeats
    counted (see :func:`verify_certificate`).  ``zeros`` caches the indices
    of each hyperplane's points; share it only between calls on the same
    points.
    """
    orders = [_monomial_order_at(monomial, q) for q in points]
    for h in hyperplanes:
        if h not in zeros:
            zeros[h] = [i for i, q in enumerate(points) if h.vanishes_at(q)]
        for i in zeros[h]:
            orders[i] += 1
    return orders


def _normalizing_change(j: FatPointScheme, p: ProjPoint):
    """Coordinates with p at (1, 0, ...) and independent scheme points on the axes.

    The change is L E: row k of :func:`frame_change`'s D E times L / v_k,
    L the lcm of the pivot values v_k, so every point moves as under E.
    """
    rows, pivots, taken = frame_change(j.n, [p.rep], [q.rep for q in j.points])
    scale = lcm(*map(int, pivots))
    change = tuple(tuple(int(x) * (scale // int(v)) for x in row) for row, v in zip(rows, pivots))
    positions: list[Optional[int]] = [None] * j.size
    for axis, idx in enumerate(taken, start=1):
        positions[idx] = axis
    return change, tuple(positions)


def _all_entry_monomials(a: int, n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(a):
        out.extend(monomial_basis(i, n))
    return out


def _lift_to_hyperplane(vectors: Sequence[Sequence[int]]) -> LinearForm:
    """A hyperplane through the integer cone vectors' span missing e_0, by one integer kernel.

    The kernel depends only on the row space, and the flat is the zero set
    of its forms; so no basis form misses e_0 (has coefficient 0 nonzero)
    exactly when the flat is the whole space or passes through e_0.
    """
    for coeffs in integer_kernel(vectors, len(vectors[0])):
        if coeffs[0] != 0:
            return LinearForm(coeffs)
    raise ConstructionError("no hyperplane through the flat avoids the origin")


def _covering_certificate(moved, origin, a, change, positions) -> Optional[Certificate]:
    try:
        h = _lift_to_hyperplane([q.rep for q in moved.points])
    except ConstructionError:
        return None
    power = max(moved.mults)
    entries = tuple(
        CertificateEntry(mono, (h,) * power) for mono in _all_entry_monomials(a, moved.n)
    )
    delta = power + a - 1
    return Certificate(a, change, entries, positions, "covering_hyperplane", delta)


def _entry_seed(seed: int, index: int, group: int) -> int:
    return seed * 1000003 + index * 2 + group


def _grouped_certificate(
    moved, origin, a, seed, change, positions, groups, strategy
) -> Certificate:
    """The covering construction: per monomial, cover each group, join slot by slot, lift.

    ``groups`` lists (point indices, r) pairs.  Each point's multiplicity
    drops by the monomial's vanishing order there; every group with points
    left is covered by t (r-1)-flats avoiding the origin, t the largest of
    their thresholds, and the t joins of one flat per group are lifted to
    hyperplanes avoiding the origin.

    Geometry is computed once per build.  Each group is scanned up front:
    the first monomial, (0, ..., 0), leaves every member, and a subset of a
    set that passes the scan passes too (a span of at most r of its points
    lies in a span of r of the set's, or in the whole set's if it has fewer),
    so errors come in the same order.  Spans are shared by all covers, and
    each distinct slot join is lifted once.
    """
    spans: dict = {}
    lifts: dict = {}  # a slot's flats -> the hyperplane
    for members, r in groups:
        _scan_avoiding([moved.points[i] for i in members], origin, r, spans)
    entries = []
    delta = 0
    for index, mono in enumerate(_all_entry_monomials(a, moved.n)):
        adjusted = [
            max(0, m - _monomial_order_at(mono, q))
            for q, m in zip(moved.points, moved.mults)
        ]
        covers = []  # (position in groups, points left, their multiplicities, r)
        for g, (members, r) in enumerate(groups):
            left = [i for i in members if adjusted[i] > 0]
            if left:
                covers.append((g, [moved.points[i] for i in left], [adjusted[i] for i in left], r))
        t = max((cover_threshold(mults, r) for _, _, mults, r in covers), default=0)
        dists = []
        for g, points, mults, r in covers:
            _check_cover_args(points, mults, r, t)
            dists.append(_cover(points, origin, mults, r, t, _entry_seed(seed, index, g), spans))
        hyperplanes = []
        for slot in range(t):
            flats = tuple(d.flats[slot] for d in dists)
            if flats not in lifts:
                lifts[flats] = _lift_to_hyperplane([v for f in flats for v in f.integer_rows])
            hyperplanes.append(lifts[flats])
        entries.append(CertificateEntry(mono, tuple(hyperplanes)))
        delta = max(delta, t + sum(mono))
    return Certificate(a, change, tuple(entries), positions, strategy, delta)


def _split_groups(moved: FatPointScheme, origin: ProjPoint) -> Optional[tuple[int, list[int]]]:
    """The minimal degeneracy k of the points and the origin, and the points on alpha.

    alpha is the span of the first (k+2)-subset of points+origin, in
    ``combinations`` order, whose span has dimension <= k and passes
    through the origin; None when there is no such subset.  Both are read
    off one :func:`spanned_flats`.  k is minimal, so such a subset spans a
    k-flat, and any k+2 points on a k-flat span it: the subset is the
    least W[:k+2] over the k-flats whose witness set W holds the origin.
    Distinct k-flats share no k+2 of the points, so that is the least W.
    """
    everyone = list(moved.points) + [origin]
    flats = spanned_flats(everyone)
    k = degeneracy_of(flats)
    if k is None:
        return None
    o = moved.size
    through_origin = [w for dim, w in flats if dim == k and o in w and len(w) >= k + 2]
    if not through_origin:
        return None
    return k, [i for i in min(through_origin) if i != o]


def _split_certificate(moved, origin, a, seed, change, positions) -> Optional[Certificate]:
    """Two-group construction for a degenerate flat through the origin.

    Needs a witness flat of the minimal degeneracy of points+origin that
    passes through the origin (:func:`_split_groups`); the on-flat points
    and the remaining points are covered separately by low-dimensional
    flats, matched up pairwise, and each joined pair is lifted to a
    hyperplane avoiding the origin.
    """
    split = _split_groups(moved, origin)
    if split is None:
        return None
    k, group_a = split
    group_b = [i for i in range(moved.size) if i not in group_a]
    r_a, r_b = k, len(group_b) - 1
    if not group_a or r_b < 1 or r_a + r_b > moved.n:
        return None
    groups = [(group_a, r_a), (group_b, r_b)]
    return _grouped_certificate(moved, origin, a, seed, change, positions, groups, "split")


def _single_group_certificate(moved, origin, a, seed, change, positions) -> Certificate:
    """Cover all points at once with (r-1)-flats and lift each to a hyperplane."""
    r = 1
    for candidate in range(min(moved.n, moved.size), 1, -1):
        try:
            _scan_avoiding(moved.points, origin, candidate, {})
        except ValueError:
            continue
        r = candidate
        break
    groups = [(range(moved.size), r)]
    return _grouped_certificate(moved, origin, a, seed, change, positions, groups, "single_group")


def build_certificate(j: FatPointScheme, p: ProjPoint, a: int, seed: int) -> Certificate:
    """Construct a hyperplane-product certificate for the artinian bound.

    Tries, in order: one hyperplane through every point avoiding p; the
    grouped covering construction with two groups, the points on and off
    a degenerate flat through p; then with one group, at the largest
    workable flat dimension.  The result always verifies; the
    independently trusted check is :func:`verify_certificate`.
    """
    _check_artinian_args(j, p, a)
    change, positions = _normalizing_change(j, p)
    moved = j.transform(change)
    origin = _origin(j.n)

    cert = _covering_certificate(moved, origin, a, change, positions)
    if cert is None:
        try:
            cert = _split_certificate(moved, origin, a, seed, change, positions)
        except (ValueError, ConstructionError) as exc:
            _LOG.info("split construction rejected: %s", exc)
            cert = None
    if cert is None:
        try:
            cert = _single_group_certificate(moved, origin, a, seed, change, positions)
        except (ValueError, ConstructionError, RuntimeError) as exc:
            raise ConstructionError(
                f"no supported construction applies to this configuration: {exc}"
            ) from exc
    return cert


def verify_certificate(
    cert: Certificate, j: FatPointScheme, p: ProjPoint, a: int
) -> tuple[bool, int]:
    """Re-check a certificate from scratch; returns (valid, delta).

    Valid means: the stored coordinate change is invertible and sends p to
    (1, 0, ..., 0), every monomial of degree < a appears, every listed
    hyperplane misses p, and each hyperplane product times its monomial
    vanishes to the scheme's orders.  A singular change, such as one that
    sends a point to zero or merges two, or one that is not n+1 rows of
    n+1 integers, makes the certificate invalid and raises nothing.  The
    last check expands nothing.  In the local ring at a moved point q the
    order of vanishing is a valuation, so
    ord_q(fg) = ord_q f + ord_q g, and a linear form (X_k among them) has
    order 1 at q if it vanishes there and 0 otherwise.  The product's order
    at q is therefore the number of its factors through q, repeats counted
    (:func:`vanishing_orders`): exact integer incidence, nothing modular.
    An entry whose monomial is not n nonnegative exponents, or with a
    hyperplane of another ambient dimension, raises ``ValueError``.
    Soundness (delta bounds the artinian regularity) is a theorem about
    valid certificates, checked separately in the tests.
    """
    if a < 1:
        raise ValueError("the vanishing order must be positive")
    n = j.n
    origin = _origin(n)
    for k, e in enumerate(cert.entries):
        if len(e.monomial) != n or min(e.monomial, default=0) < 0:
            raise ValueError(
                f"certificate entry {k} (monomial {e.monomial}) needs {n} nonnegative exponents"
            )
        if any(h.ambient_n != n for h in e.hyperplanes):
            raise ValueError(
                f"certificate entry {k} (monomial {e.monomial}) has a hyperplane outside P^{n}"
            )
    delta = max((len(e.hyperplanes) + sum(e.monomial) for e in cert.entries), default=0)
    guard = sum(j.mults) + a
    if any(len(e.hyperplanes) + sum(e.monomial) > guard for e in cert.entries):
        raise ValueError("certificate degree exceeds the overflow guard")

    if cert.order != a:
        _LOG.warning("certificate order %d does not match requested %d", cert.order, a)
        return False, delta
    try:
        for x in chain.from_iterable(cert.change):
            operator.index(x)
    except TypeError as exc:
        _LOG.warning("coordinate change is not integer rows: %s", exc)
        return False, delta
    try:
        if transform_point(cert.change, p) != origin:
            _LOG.warning("coordinate change does not send the point to the origin")
            return False, delta
    except ValueError as exc:
        _LOG.warning("coordinate change cannot move the point: %s", exc)
        return False, delta
    # square now: each row is as long as p's n+1 coordinates, and its image as many
    if rank_rows(cert.change, n + 1) < n + 1:
        _LOG.warning("coordinate change is singular")
        return False, delta
    moved = j.transform(cert.change)

    needed = set(_all_entry_monomials(a, n))
    provided = {e.monomial for e in cert.entries}
    if needed - provided:
        _LOG.warning("certificate is missing %d monomials", len(needed - provided))
        return False, delta

    zeros: dict[LinearForm, list[int]] = {}  # each hyperplane's moved points
    for e in cert.entries:
        for h in e.hyperplanes:
            if h not in zeros and h.vanishes_at(origin):
                _LOG.warning(
                    "hyperplane %s passes through the distinguished point (monomial %s)",
                    h.coeffs,
                    e.monomial,
                )
                return False, delta
        orders = vanishing_orders(e.monomial, e.hyperplanes, moved.points, zeros)
        if any(o < m for o, m in zip(orders, moved.mults)):
            _LOG.warning("product fails the vanishing conditions (monomial %s)", e.monomial)
            return False, delta
    return True, delta


# ---------------------------------------------------------------------------
# recursion and bound verdicts
# ---------------------------------------------------------------------------

def removal_recursion_check(z: FatPointScheme, i0: int) -> bool:
    """Regularity via removal of one point: both sides computed and compared."""
    if z.size < 2:
        raise ValueError("the recursion needs at least two points")
    rest = z.without_point(i0)
    lhs = regularity_index(z)
    rhs = max(
        z.mults[i0] - 1,
        regularity_index(rest),
        artinian_quotient_regularity(rest, z.points[i0], z.mults[i0]),
    )
    return lhs == rhs


@dataclass(frozen=True)
class Verdict:
    """Classification of a scheme and the outcome of the bound comparison."""

    point_count: int
    span_dim: int
    equimultiple: bool
    general_position: bool
    degeneracy: Optional[int]
    hypothesis_class: str
    reg: int
    bound: int
    holds: bool
    tight: bool
    report: SegreReport


def classify_scheme(z: FatPointScheme) -> str:
    """Which proven hypothesis family the configuration belongs to."""
    d = z.flats[-1][0]  # the span of all the points
    s2 = z.size - 2
    if 1 <= s2 <= z.n and d >= s2:
        return "lemma24"
    s3 = z.size - 3
    if 1 <= s3 <= z.n and d >= s3 and len(set(z.mults)) == 1:
        return "theorem34"
    return "outside_proven_cases"


def segre_verdict(z: FatPointScheme) -> Verdict:
    """Compute regularity and bound, classify, and compare."""
    report = segre_bound(z)
    d = z.flats[-1][0]  # the span of all the points
    reg = regularity_index(z)
    # on their own span, general position is exactly the absence of degeneracy
    degeneracy = degeneracy_of(z.flats)
    return Verdict(
        point_count=z.size,
        span_dim=d,
        equimultiple=len(set(z.mults)) == 1,
        general_position=degeneracy is None,
        degeneracy=degeneracy,
        hypothesis_class=classify_scheme(z),
        reg=reg,
        bound=report.bound,
        holds=reg <= report.bound,
        tight=reg == report.bound,
        report=report,
    )
