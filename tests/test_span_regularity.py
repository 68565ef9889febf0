"""The regularity index computed in the span of the points, against the scan in P^n.

``full_scan_regularity_index`` is the scan ``regularity_index`` ran before
it moved to the span P^d of the points: every degree through
``hilbert_function`` in P^n, with e and the start bound of P^n.  Schemes
are drawn in P^d and embedded in P^n by random injective integer maps, so
the simplex frame has to find the span; none of them lies on coordinate
subspaces by construction.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints.geometry import ProjPoint
from fatpoints.linalg import rank_rows
from fatpoints.schemes import (
    FatPointScheme,
    hilbert_function,
    multiplicity,
    regularity_index,
    simplex_frame,
)


def full_scan_regularity_index(z):
    """The P^n scan: from max(m_1 + m_2 - 1, least t with C(t+n, n) >= e) up."""
    e = multiplicity(z)
    cap = sum(z.mults) - 1
    t = sum(sorted(z.mults, reverse=True)[:2]) - 1
    while comb(t + z.n, z.n) < e:
        t += 1
    while t <= cap:
        if hilbert_function(z, t) == e:
            return t
        t += 1
    raise RuntimeError("regularity search passed its cap")


def embed(n, matrix, reps, mults):
    """The scheme of P^n whose points are the images of the reps under the columns' map."""
    pts = tuple(
        ProjPoint(tuple(sum(a * x for a, x in zip(row, rep)) for row in matrix)) for rep in reps
    )
    return FatPointScheme(n, pts, tuple(mults))


@st.composite
def embedded_schemes(draw):
    """(reps in P^d, multiplicities, n, the scheme embedded in P^n).

    d is 0..3 and n is d..4 (at least 1); 1..6 distinct points, or one
    for d = 0, with multiplicities 1..3.  Small coordinates make points
    on proper flats of P^d common.  The map is an (n+1) x (d+1) integer
    matrix of rank d+1, so distinct points stay distinct.
    """
    d = draw(st.integers(0, 3))
    n = draw(st.integers(max(d, 1), 4))
    coords = st.tuples(*[st.integers(-2, 2)] * (d + 1)).filter(any)
    drawn = draw(st.lists(coords, min_size=1, max_size=1 if d == 0 else 6))
    reps = list(dict.fromkeys(ProjPoint(c).rep for c in drawn))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(reps), max_size=len(reps)))
    entry = st.integers(-3, 3)
    row = st.lists(entry, min_size=d + 1, max_size=d + 1)
    matrix = draw(
        st.lists(row, min_size=n + 1, max_size=n + 1).filter(lambda m: rank_rows(m, d + 1) == d + 1)
    )
    return reps, mults, n, embed(n, matrix, reps, mults)


def _case(n, matrix, reps, mults):
    return [tuple(r) for r in reps], list(mults), n, embed(n, matrix, reps, mults)


# a single fat point, d = 0, in P^1, P^2 and P^4
SINGLE = [
    _case(n, [[k + 2] for k in range(n + 1)], [(1,)], [m]) for n in (1, 2, 4) for m in (1, 2, 5)
]


@settings(max_examples=300, deadline=None)
@given(embedded_schemes())
# a line of P^3, the heaviest points listed last, so the spanning pair differs from the frame's
@example(_case(3, [[1, 2], [3, -1], [2, 2], [-1, 3]], [(1, 0), (0, 1), (1, 1), (1, -1)], [1, 1, 3, 3]))
# points spanning P^2 (d = n), three of them collinear
@example(_case(2, [[1, 1, 0], [0, 2, 1], [1, 0, 3]], [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], [1, 2, 2, 3]))
def test_regularity_in_the_span_matches_the_full_scan(case):
    reps, mults, n, z = case
    assert regularity_index(z) == full_scan_regularity_index(z)
    d = len(reps[0]) - 1
    if d >= 1:  # the same points as a scheme of P^d
        flat = FatPointScheme(d, tuple(ProjPoint(r) for r in reps), tuple(mults))
        assert regularity_index(z) == regularity_index(flat)


@pytest.mark.parametrize("case", SINGLE, ids=lambda c: f"n{c[2]}-m{c[1][0]}")
def test_single_fat_point_is_m_minus_one(case):
    _, (m,), _, z = case
    assert regularity_index(z) == full_scan_regularity_index(z) == m - 1


def _lowered(reps, mults, k):
    """Z_k of the scheme of P^d: the points with m_i > k, of multiplicity m_i - k."""
    kept = [(r, m - k) for r, m in zip(reps, mults) if m > k]
    return FatPointScheme(
        len(reps[0]) - 1, tuple(ProjPoint(r) for r, _ in kept), tuple(m for _, m in kept)
    )


@settings(max_examples=150, deadline=None)
@given(embedded_schemes().filter(lambda c: 1 <= len(c[0][0]) - 1 < c[2]))
def test_splitting_formula(case):
    """H_{Z in P^n}(t) = sum_k C(k+c-1, c-1) H_{Z_k in P^d}(t-k), on both sides of reg."""
    reps, mults, n, z = case
    d = len(reps[0]) - 1
    c = n - d
    lowered = [_lowered(reps, mults, k) for k in range(max(mults))]
    for t in range(regularity_index(z) + 3):
        split = sum(
            comb(k + c - 1, c - 1) * hilbert_function(zk, t - k)
            for k, zk in enumerate(lowered)
            if k <= t
        )
        assert split == hilbert_function(z, t)


def test_frame_of_a_line_in_space_keeps_its_points_off_the_last_coordinates():
    """The simplex frame puts the span on the first vertices: other points are zero beyond d."""
    pts = (
        ProjPoint((Fraction(1), 2, 3, 4)),
        ProjPoint((2, 1, 0, 1)),
        ProjPoint((3, 3, 3, 5)),
        ProjPoint((1, -1, -3, -3)),
    )
    frame = simplex_frame(FatPointScheme(3, pts, (1, 2, 2, 1)))
    assert [k for k, _ in frame.vertices] == [0, 1]
    assert all(not any(coords[2:]) for coords, _ in frame.others)
