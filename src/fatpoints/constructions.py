"""Constructive machinery behind the regularity bound: the hyperplane-product
coverings of the method of Catalisano, Trung and Valla.

* ``distribute_flats`` realizes the inductive covering argument: given
  points with multiplicities and a point to avoid, it produces t flats of
  dimension r-1, all avoiding the distinguished point, such that each
  point lies on at least as many flats as its multiplicity.

* certificates: a :class:`Certificate` witnesses an upper bound for the
  regularity of an artinian reduction by listing, per monomial, a product
  of hyperplanes avoiding the distinguished point whose product with the
  monomial vanishes to the scheme's orders.  ``build_certificate`` builds
  every certificate: one hyperplane through every point, else the grouped
  covering construction with two groups (split) or one (single group),
  both chosen from one ``spanned_flats`` of the points and the origin,
  with scans, spans and lifts computed once per build.  The trusted
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
    SpannedFlat,
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
    r = _as_int(r, "r")
    if r < 1:
        raise ValueError("r must be positive")
    if not mults:
        raise ValueError("at least one multiplicity is required")
    mults = [_as_int(m, "multiplicity") for m in mults]
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
    r, t = _as_int(r, "r"), _as_int(t, "t")
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
    spans: dict = {}
    on: dict = {}
    _scan_avoiding(points, avoid, r, spans)
    flats = _cover(points, avoid, mults, r, t, seed, spans, on)
    coverage = tuple(
        tuple(k for k, f in enumerate(flats) if on[f][i]) for i in range(len(points))
    )
    return Distribution(flats, coverage)


def _cover(points, avoid, mults, r, t, seed, spans, on) -> tuple[Flat, ...]:
    """The loop of :func:`distribute_flats` on checked, scanned arguments: the t flats.

    A point of multiplicity 0 takes no part, so a caller can cover any
    subset of ``points`` and share the memos between covers.  Every span
    of at most r points with positive multiplicity must avoid ``avoid``
    (a scan, or the single group's choice of r, proves it), so a span of
    r points is already an (r-1)-flat avoiding it, and only a smaller one
    is grown.  ``spans`` memoizes spans by point set, and ``on`` each
    flat's incidence with every point, so each distinct flat is tested
    once per memo.
    """
    remaining = list(mults)
    flats: list[Flat] = []
    hits = []  # (a step's flat's incidence row, the slots it fills)
    step = 0
    while len(flats) < t:
        active = [i for i, m in enumerate(remaining) if m > 0]
        step += 1
        last = len(active) <= r  # one flat through all of them fills every slot
        chosen = active if last else sorted(active, key=lambda i: (-remaining[i], i))[:r]
        flat = _span_of([points[i] for i in chosen], spans)
        if flat.dim < r - 1:
            flat = extend_flat_avoiding(flat, r - 1, avoid, seed * 1009 + step)
        if flat not in on:
            on[flat] = [flat_contains(flat, p) for p in points]
        slots = t - len(flats) if last else 1
        hits.append((on[flat], slots))
        flats.extend([flat] * slots)
        if last:
            break
        for i in chosen:
            remaining[i] -= 1

    for i, m in enumerate(mults):
        covered = sum(slots for row, slots in hits if row[i])
        if covered < m:
            raise ConstructionError(f"coverage of point {i} fell short ({covered} < {m})")
    return tuple(flats)


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


def _covering_hyperplane(moved: FatPointScheme) -> Optional[LinearForm]:
    """The hyperplane through every point that misses the origin, or None."""
    try:
        return _lift_to_hyperplane([q.rep for q in moved.points])
    except ConstructionError:
        return None


def _entry_seed(seed: int, index: int, group: int) -> int:
    return seed * 1000003 + index * 2 + group


def _grouped_entries(moved, origin, monomials, seed, groups):
    """The covering construction: per monomial, cover each group, join slot by slot, lift.

    ``groups`` lists (point indices, r) pairs.  Each point's multiplicity
    drops by the monomial's vanishing order there; every group with points
    left is covered by t (r-1)-flats avoiding the origin, t the largest of
    their thresholds, and the t joins of one flat per group are lifted to
    hyperplanes avoiding the origin.  Returns the entries and their delta.

    No span of at most r of a group's points may hold the origin.  The two
    split groups are scanned up front (:func:`_scan_avoiding`); the single
    group is not, since its r is chosen so that its scan cannot fail
    (:func:`build_certificate`).  The first monomial, (0, ..., 0), leaves
    every member, and a subset of a set that passes the scan passes too (a
    span of at most r of its points lies in a span of r of the set's, or
    in the whole set's if it has fewer), so errors come in the order of
    per-cover scans.  Every cover passes :func:`distribute_flats`' checks
    by construction, so none are run.

    Geometry is computed once per build: each point's zero coordinates,
    the spans (shared with the scan), each flat's incidence with
    its group's points, and the hyperplane of each distinct slot join.
    """
    spans: dict = {}
    if len(groups) > 1:  # split; the single group's scan cannot fail
        for members, r in groups:
            _scan_avoiding([moved.points[i] for i in members], origin, r, spans)
    members_of = [[moved.points[i] for i in members] for members, _ in groups]
    on = [{} for _ in groups]  # per group: a flat -> whether each member lies on it
    lifts: dict = {}  # a slot's flats -> the hyperplane
    zero_axes = [[k for k, x in enumerate(q.rep[1:]) if not x] for q in moved.points]
    entries = []
    delta = 0
    for index, mono in enumerate(monomials):
        adjusted = [
            max(0, m - sum(mono[k] for k in axes)) for axes, m in zip(zero_axes, moved.mults)
        ]
        covers = []  # (position in groups, the members' multiplicities left, r)
        for g, (members, r) in enumerate(groups):
            mults = [adjusted[i] for i in members]
            if any(mults):
                covers.append((g, mults, r))
        t = max((cover_threshold(mults, r) for _, mults, r in covers), default=0)
        dists = [
            _cover(members_of[g], origin, mults, r, t, _entry_seed(seed, index, g), spans, on[g])
            for g, mults, r in covers
        ]
        hyperplanes = []
        for slot in range(t):
            flats = tuple(d[slot] for d in dists)
            if flats not in lifts:
                lifts[flats] = _lift_to_hyperplane([v for f in flats for v in f.integer_rows])
            hyperplanes.append(lifts[flats])
        entries.append(CertificateEntry(mono, tuple(hyperplanes)))
        delta = max(delta, t + sum(mono))
    return tuple(entries), delta


def _split_groups(flats: Sequence[SpannedFlat], n: int) -> Optional[list[tuple[list[int], int]]]:
    """The split construction's [(group a, k), (group b, b - 1)], or None.

    ``flats`` is :func:`spanned_flats` of the points, then the origin.  k
    is their minimal degeneracy and group a the points on alpha, the span
    of the first (k+2)-subset, in ``combinations`` order, whose span has
    dimension <= k and holds the origin.  Such a subset spans a k-flat (k
    is minimal), as do any k+2 points on it, so it is the least W[:k+2]
    over the k-flats whose witness set W holds the origin; distinct
    k-flats share no k+2 points, so that is the least W.  None when there
    is no alpha, or the b points of group b give b < 2 or k + b - 1 > n.
    """
    k = degeneracy_of(flats)
    if k is None:
        return None
    o = len(flats[-1][1]) - 1  # the origin's index
    through_origin = [w for dim, w in flats if dim == k and o in w and len(w) >= k + 2]
    if not through_origin:
        return None
    group_a = [i for i in min(through_origin) if i != o]
    group_b = [i for i in range(o) if i not in group_a]
    r_b = len(group_b) - 1
    if r_b < 1 or k + r_b > n:
        return None
    return [(group_a, k), (group_b, r_b)]


def _single_group_dim(flats: Sequence[SpannedFlat], n: int) -> int:
    """The single group's r, read off the flats as :func:`build_certificate` proves."""
    o = len(flats[-1][1]) - 1  # the origin's index, and the point count s
    listed = set(flats)
    # witness tuples ascend, so a flat holds the origin exactly when it ends with it
    fewest = min(
        (dim + 1 for dim, w in flats if dim and w[-1] == o and (dim - 1, w[:-1]) not in listed),
        default=o + 1,
    )
    return min(n, o, fewest - 1)


def build_certificate(j: FatPointScheme, p: ProjPoint, a: int, seed: int) -> Certificate:
    """Construct a hyperplane-product certificate for the artinian bound.

    In coordinates with p at the origin e_0, tries one hyperplane through
    every point that misses the origin; then the grouped covering
    construction with two groups, the points on and off a degenerate flat
    through the origin (:func:`_split_groups`); then with one group of
    (r-1)-flats.  Both groupings read one :func:`spanned_flats` of the
    points and the origin.  The result always verifies; the independently
    trusted check is :func:`verify_certificate`.

    r is the largest value <= min(n, s) such that no r of the s points
    span a flat through the origin, or 1.  So r = min(n, s, D - 1), D the
    fewest points whose span holds the origin (infinite if none, and
    D >= 2 as the origin is no point): r >= D points include D such
    points, and fewer never span one.  D such points are independent, so
    they span a listed (D-1)-flat through the origin, spanned by its
    other witnesses.  A listed d-flat F through the origin, d >= 1, is
    the span of its other witnesses W and the origin, so W spans F (and
    D <= d + 1) or a (d-1)-flat, which is then listed with witness set
    exactly W.  Witness sets are distinct, so D - 1 is the least such d
    with (d - 1, W) not listed.
    """
    _check_artinian_args(j, p, a)
    change, positions = _normalizing_change(j, p)
    moved = j.transform(change)
    monomials = _all_entry_monomials(a, j.n)

    h = _covering_hyperplane(moved)
    if h is not None:
        power = max(moved.mults)
        entries = tuple(CertificateEntry(mono, (h,) * power) for mono in monomials)
        return Certificate(a, change, entries, positions, "covering_hyperplane", power + a - 1)

    origin = ProjPoint.unit(j.n, 0)
    flats = spanned_flats([*moved.points, origin])
    groups = _split_groups(flats, j.n)
    if groups is not None:
        try:
            entries, delta = _grouped_entries(moved, origin, monomials, seed, groups)
            return Certificate(a, change, entries, positions, "split", delta)
        except (ValueError, ConstructionError) as exc:
            _LOG.info("split construction rejected: %s", exc)
    groups = [(range(moved.size), _single_group_dim(flats, j.n))]
    try:
        entries, delta = _grouped_entries(moved, origin, monomials, seed, groups)
    except (ValueError, ConstructionError, RuntimeError) as exc:
        raise ConstructionError(
            f"no supported construction applies to this configuration: {exc}"
        ) from exc
    return Certificate(a, change, entries, positions, "single_group", delta)


def verify_certificate(
    cert: Certificate, j: FatPointScheme, p: ProjPoint, a: int
) -> tuple[bool, int]:
    """Re-check a certificate from scratch; returns (valid, delta).

    Valid means: the stored coordinate change is invertible and sends p to
    (1, 0, ..., 0), every monomial of degree < a appears, every listed
    hyperplane misses p, and each hyperplane product times its monomial
    vanishes to the scheme's orders.  A singular change, such as one that
    sends a point to zero or merges two, or one that is not n+1 rows of
    n+1 integers, makes the certificate invalid and raises nothing.
    Invertibility is one :func:`fatpoints.linalg.rank_rows`, which a full
    rank mod p settles with no exact pass.  The last check expands nothing.  In the local ring at a moved point q the
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
    origin = ProjPoint.unit(n, 0)
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
                    h.rep,
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
