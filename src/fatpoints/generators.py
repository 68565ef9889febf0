"""Seeded generators for the configuration families under test.

Each pattern produces a scheme that provably satisfies its incidence
hypotheses: candidates are rejection-sampled from integer coordinates of
bounded height and every hypothesis is re-checked on the output before it
is returned, so generation is verified rather than trusted.  Generation
is a deterministic function of the spec (including its seed).

The checks that ask which subsets lie on which flats (degeneracy, general
position, lem42's crowded flats) read the scheme's own flat enumeration
(``FatPointScheme.flats``), and so does the span dimension of all the
points, the last flat listed: the candidate scheme is built first, and
the verdict later reuses the flats its generator paid for.  Anchor
points are checked by the dimension of the flat they span.

Patterns:

``general``
    s points whose degeneracy index is None (general position in their
    span).
``on_flat``
    s points in general position on a flat of the requested dimension.
``lemma24``
    s+2 points that do not lie on any (s-1)-flat, s <= n; arbitrary
    multiplicities.
``theorem34``
    s+3 equimultiple points not on any (s-1)-flat, s <= n.
``prop43``
    s+3 equimultiple points spanning exactly an s-flat, with a planted
    minimal degeneracy k (some k-flat holds k+2 of them), 2 <= s <= n.
``lem42``
    s+3 equimultiple points on an s-flat carrying two distinguished
    (s-1)-flats with s+1 points each, no (s-1)-flat with s+2 points and
    no (s-2)-flat with s points, 3 <= s <= n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import lcm
from operator import mul
from typing import Optional, Sequence

from fatpoints.geometry import (
    Flat,
    ProjPoint,
    SpannedFlat,
    degeneracy_of,
    flat_contains,
    span,
)
from fatpoints.schemes import FatPointScheme, _as_int

PATTERNS = ("general", "on_flat", "lemma24", "theorem34", "prop43", "lem42")

MAX_ATTEMPTS = 256


class GeneratorError(ValueError):
    """The requested pattern is unsatisfiable or sampling gave up."""


@dataclass(frozen=True)
class PatternSpec:
    """Parameters of one generated configuration family."""

    pattern: str
    n: int
    s: int
    m: Optional[int] = None
    mults: Optional[tuple[int, ...]] = None
    seed: int = 0
    height: int = 50
    flat_dim: Optional[int] = None
    k: Optional[int] = None

    def with_seed(self, seed: int) -> "PatternSpec":
        return replace(self, seed=seed)


def _resolve_mults(spec: PatternSpec, count: int) -> tuple[int, ...]:
    if spec.mults is not None:
        if len(spec.mults) != count:
            raise GeneratorError(
                f"pattern {spec.pattern!r} needs {count} multiplicities, got {len(spec.mults)}"
            )
        mults = tuple(_as_int(m, "multiplicity", GeneratorError) for m in spec.mults)
        if any(m < 1 for m in mults):
            raise GeneratorError("multiplicities must be positive")
        return mults
    m = 1 if spec.m is None else _as_int(spec.m, "multiplicity", GeneratorError)
    if m < 1:
        raise GeneratorError("multiplicities must be positive")
    return (m,) * count


def _random_point_in_sflat(rng: random.Random, n: int, s: int, height: int) -> ProjPoint:
    """A random point of the coordinate s-flat x_{s+1} = ... = x_n = 0 (all of P^n when s = n)."""
    while True:
        coords = [rng.randint(-height, height) for _ in range(s + 1)] + [0] * (n - s)
        if any(coords):
            return ProjPoint(tuple(coords))


def _random_point_on(rng: random.Random, flat: Flat, height: int) -> ProjPoint:
    """A random point of the flat: sum c_i e_i, each c_i drawn from -height..height.

    e_i = row_i / v_i is the reduced echelon basis, row_i the flat's
    integer rows and v_i > 0 their pivots.  The sum is computed times the
    lcm L of the pivots, as sum c_i (L / v_i) row_i, in integers: the same
    point, zero for the same draws.
    """
    rows = flat.integer_rows
    pivots = [next(x for x in row if x) for row in rows]
    scale = lcm(*pivots)
    cols = list(zip(*([scale // v * x for x in row] for row, v in zip(rows, pivots))))
    while True:
        coeffs = [rng.randint(-height, height) for _ in rows]
        coords = [sum(map(mul, coeffs, col)) for col in cols]
        if any(coords):
            return ProjPoint(tuple(coords))


def _distinct_points(sampler, count: int) -> Optional[list[ProjPoint]]:
    pts: list[ProjPoint] = []
    for _ in range(count * 16):
        p = sampler()
        if p not in pts:
            pts.append(p)
            if len(pts) == count:
                return pts
    return None


def generate(spec: PatternSpec) -> FatPointScheme:
    """Produce a scheme satisfying the pattern, verified before return."""
    if spec.pattern not in PATTERNS:
        raise GeneratorError(f"unknown pattern {spec.pattern!r}")
    n, s, height = (_as_int(getattr(spec, f), f, GeneratorError) for f in ("n", "s", "height"))
    spec = replace(spec, n=n, s=s, height=height)
    if spec.n < 1:
        raise GeneratorError("ambient dimension must be positive")
    if spec.height < 1:
        raise GeneratorError("height bound must be positive")
    builder = globals()[f"_gen_{spec.pattern}"]
    rng = random.Random(spec.seed)
    for _ in range(MAX_ATTEMPTS):
        scheme = builder(spec, rng)
        if scheme is not None:
            return scheme
    raise GeneratorError(
        f"gave up after {MAX_ATTEMPTS} attempts on pattern {spec.pattern!r} "
        f"(n={spec.n}, s={spec.s}, height={spec.height})"
    )


# ---------------------------------------------------------------------------
# pattern builders (one attempt each; None on rejection)
# ---------------------------------------------------------------------------

def _gen_general(spec: PatternSpec, rng: random.Random) -> Optional[FatPointScheme]:
    if spec.s < 1:
        raise GeneratorError("general pattern needs s >= 1")
    mults = _resolve_mults(spec, spec.s)
    pts = _distinct_points(lambda: _random_point_in_sflat(rng, spec.n, spec.n, spec.height), spec.s)
    if pts is None:
        return None
    z = FatPointScheme(spec.n, tuple(pts), mults)
    if spec.s >= 3 and degeneracy_of(z.flats) is not None:
        return None
    return z


def _gen_on_flat(spec: PatternSpec, rng: random.Random) -> Optional[FatPointScheme]:
    if spec.s < 1:
        raise GeneratorError("on_flat pattern needs s >= 1")
    d = 1 if spec.flat_dim is None else _as_int(spec.flat_dim, "flat_dim", GeneratorError)
    if not 1 <= d <= spec.n:
        raise GeneratorError("flat dimension out of range")
    if spec.s < d + 1:
        raise GeneratorError("too few points to span the requested flat")
    mults = _resolve_mults(spec, spec.s)
    sampler = lambda: _random_point_in_sflat(rng, spec.n, spec.n, spec.height)
    anchors = _distinct_points(sampler, d + 1)
    if anchors is None or (flat := span(anchors)).dim != d:
        return None
    pts = _distinct_points(lambda: _random_point_on(rng, flat, spec.height), spec.s)
    if pts is None:
        return None
    z = FatPointScheme(spec.n, tuple(pts), mults)
    if z.flats[-1][0] != d:
        return None
    if spec.s >= 3 and degeneracy_of(z.flats) is not None:
        return None
    return z


def _gen_lemma24(spec: PatternSpec, rng: random.Random) -> Optional[FatPointScheme]:
    if not 1 <= spec.s <= spec.n:
        raise GeneratorError("lemma24 pattern needs 1 <= s <= n")
    count = spec.s + 2
    mults = _resolve_mults(spec, count)
    pts = _distinct_points(lambda: _random_point_in_sflat(rng, spec.n, spec.n, spec.height), count)
    if pts is None:
        return None
    z = FatPointScheme(spec.n, tuple(pts), mults)
    return z if z.flats[-1][0] >= spec.s else None


def _gen_theorem34(spec: PatternSpec, rng: random.Random) -> Optional[FatPointScheme]:
    if not 1 <= spec.s <= spec.n:
        raise GeneratorError("theorem34 pattern needs 1 <= s <= n")
    count = spec.s + 3
    mults = _resolve_mults(spec, count)
    if len(set(mults)) != 1:
        raise GeneratorError("theorem34 pattern is equimultiple")
    pts = _distinct_points(lambda: _random_point_in_sflat(rng, spec.n, spec.n, spec.height), count)
    if pts is None:
        return None
    z = FatPointScheme(spec.n, tuple(pts), mults)
    return z if z.flats[-1][0] >= spec.s else None


def _gen_prop43(spec: PatternSpec, rng: random.Random) -> Optional[FatPointScheme]:
    if not 2 <= spec.s <= spec.n:
        raise GeneratorError("prop43 pattern needs 2 <= s <= n")
    count = spec.s + 3
    mults = _resolve_mults(spec, count)
    if len(set(mults)) != 1:
        raise GeneratorError("prop43 pattern is equimultiple")
    k = rng.randint(1, spec.s - 1) if spec.k is None else _as_int(spec.k, "k", GeneratorError)
    if not 1 <= k <= spec.s - 1:
        raise GeneratorError("planted degeneracy must satisfy 1 <= k <= s-1")

    sampler = lambda: _random_point_in_sflat(rng, spec.n, spec.s, spec.height)
    anchors = _distinct_points(sampler, k + 1)
    if anchors is None or (alpha := span(anchors)).dim != k:
        return None
    extra = _random_point_on(rng, alpha, spec.height)
    if extra in anchors:
        return None
    rest = []
    for _ in range(64):
        p = sampler()
        if p not in anchors and p != extra and p not in rest and not flat_contains(alpha, p):
            rest.append(p)
            if len(rest) == spec.s + 1 - k:
                break
    pts = anchors + [extra] + rest
    if len(pts) != count or len(set(pts)) != count:
        return None
    z = FatPointScheme(spec.n, tuple(pts), mults)
    if z.flats[-1][0] != spec.s or degeneracy_of(z.flats) != k:
        return None
    return z


def _gen_lem42(spec: PatternSpec, rng: random.Random) -> Optional[FatPointScheme]:
    if not 3 <= spec.s <= spec.n:
        raise GeneratorError("lem42 pattern needs 3 <= s <= n")
    n, s = spec.n, spec.s
    count = s + 3
    mults = _resolve_mults(spec, count)
    if len(set(mults)) != 1:
        raise GeneratorError("lem42 pattern is equimultiple")

    unit = lambda i: ProjPoint.unit(n, i)
    # fixed coordinate points of the construction
    p_last = unit(0)                       # the distinguished point of the family
    p2 = unit(1)
    p3 = unit(2)
    tail = [unit(i) for i in range(3, s + 1)]  # fills positions 5..s+2
    beta = span([p_last, p3] + tail)           # (s-1)-flat missing coordinate 1
    p4 = _random_point_on(rng, beta, spec.height)
    alpha_anchors = [unit(i) for i in range(1, s - 1 + 1)]  # e_1 .. e_{s-1}
    if flat_contains(span(alpha_anchors), p4):
        return None
    alpha = span(alpha_anchors + [p4])
    p1 = _random_point_on(rng, alpha, spec.height)

    pts = [p1, p2, p3, p4] + tail + [p_last]
    if len(set(pts)) != count:
        return None
    z = FatPointScheme(spec.n, tuple(pts), mults)
    if z.flats[-1][0] != s:
        return None
    # alpha holds P_1..P_{s+1} and beta P_3..P_{s+3}: each lies on a listed
    # (s-1)-flat; on a lower one, s of them lie on an (s-2)-flat, rejected below
    for held in (range(s + 1), range(2, s + 3)):
        if not any(dim == s - 1 and set(held).issubset(witness) for dim, witness in z.flats):
            return None
    if _crowded_flat(z.flats, s):
        return None
    return z


def _crowded_flat(flats: Sequence[SpannedFlat], s: int) -> bool:
    """Whether some (s-1)-flat holds s+2 of the points or some (s-2)-flat holds s.

    Every flat spanned by the points is in ``flats``, so k of the points
    lie on a flat of dimension <= d exactly when a listed flat of
    dimension <= d has at least k witnesses: their span is such a flat.
    """
    return any(
        (dim <= s - 1 and len(witness) >= s + 2) or (dim <= s - 2 and len(witness) >= s)
        for dim, witness in flats
    )
