"""The artinian caches: ``artinian_quotient_regularity`` per (scheme, point,
order) and the origin frame per (scheme, point), shared by the removal
recursion, its caller and the monomial criterion.

Cached answers are compared with cold-cache ones on equal but distinct
scheme and point objects, in both call orders; every argument error must
still raise after a successful call on the same (J, p); and one removal's
sequence must build its origin frame once and scan its artinian quotient
once.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatpoints import schemes
from fatpoints.constructions import removal_recursion_check
from fatpoints.geometry import ProjPoint
from fatpoints.schemes import (
    FatPointScheme,
    _origin_frame,
    artinian_quotient_regularity,
    monomial_bound_check,
    regularity_index,
)


def _cold() -> None:
    artinian_quotient_regularity.cache_clear()
    _origin_frame.cache_clear()


def _copy(p: ProjPoint) -> ProjPoint:
    return ProjPoint(tuple(Fraction(c) for c in p.coords))


@st.composite
def removals(draw):
    """A scheme Z (n 1..3, s 2..5 points, multiplicities 1..3) and a point index i0.

    Coordinates lie in -3..3, so points often share coordinate flats.
    The removed point's multiplicity is the order a of the artinian reduction.
    """
    n = draw(st.integers(1, 3))
    s = draw(st.integers(2, 5))
    coords = st.tuples(*[st.integers(-3, 3)] * (n + 1)).filter(any)
    raw = draw(st.lists(coords, min_size=s, max_size=s))
    pts = tuple(dict.fromkeys(ProjPoint(tuple(Fraction(c) for c in v)) for v in raw))
    assume(len(pts) == s)
    mults = tuple(draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
    return FatPointScheme(n, pts, mults), draw(st.integers(0, s - 1))


@settings(max_examples=60, deadline=None)
@given(removals(), st.booleans())
def test_cached_answers_equal_cold_ones(removal, recursion_first):
    z, i0 = removal
    p, a = z.points[i0], z.mults[i0]
    _cold()
    expected = artinian_quotient_regularity.__wrapped__(z.without_point(i0), p, a)
    _cold()
    expected_at = {
        b: monomial_bound_check(z.without_point(i0), p, a, b) for b in (expected - 1, expected) if b >= a - 1
    }

    _cold()
    # equal to, but not the objects that removal_recursion_check builds
    rest, q = z.without_point(i0), _copy(p)
    if recursion_first:
        assert removal_recursion_check(z, i0)
        b = artinian_quotient_regularity(rest, q, a)
    else:
        b = artinian_quotient_regularity(rest, q, a)
        assert removal_recursion_check(z, i0)
    assert b == expected
    assert artinian_quotient_regularity.cache_info().hits == 1
    assert regularity_index(z) == max(a - 1, regularity_index(rest), b)

    # the criterion holds at b and fails at b - 1, on the shared frame as on a cold one
    assert {bb: monomial_bound_check(rest, q, a, bb) for bb in expected_at} == expected_at
    assert expected_at[b]
    if b - 1 >= a - 1:
        assert not expected_at[b - 1]


def _error_calls(j: FatPointScheme, p: ProjPoint, a: int, b: int):
    """(call, expected exception) for every argument error on (j, p)."""
    other_dim = ProjPoint.unit(j.n + 1, 0)
    on_j = j.points[0]
    return [
        (lambda: artinian_quotient_regularity(j, p, 0), ValueError),
        (lambda: artinian_quotient_regularity(j, on_j, a), ValueError),
        (lambda: artinian_quotient_regularity(j, other_dim, a), ValueError),
        (lambda: artinian_quotient_regularity(j, p, float(a)), TypeError),
        (lambda: monomial_bound_check(j, p, 0, b), ValueError),
        (lambda: monomial_bound_check(j, on_j, a, b), ValueError),
        (lambda: monomial_bound_check(j, other_dim, a, b), ValueError),
        (lambda: monomial_bound_check(j, p, a, a - 2), ValueError),
        (lambda: monomial_bound_check(j, p, float(a), b), TypeError),
    ]


@settings(max_examples=20, deadline=None)
@given(removals())
def test_argument_errors_raise_on_every_call(removal):
    z, i0 = removal
    j, p, a = z.without_point(i0), z.points[i0], z.mults[i0]
    _cold()
    b = artinian_quotient_regularity(j, p, a)
    assert monomial_bound_check(j, p, a, b)
    for call, error in _error_calls(j, p, a, b):
        for _ in range(2):
            with pytest.raises(error):
                call()
    # the errors left the good entries in place and added none
    assert artinian_quotient_regularity(j, _copy(p), a) == b
    info = artinian_quotient_regularity.cache_info()
    assert info.currsize == 1 and info.hits == 1


def test_one_removal_builds_one_origin_frame_and_one_scan(monkeypatch):
    """Recursion, artinian regularity, then the criterion at b and at b - 1.

    The origin frame is the only ``frame_change`` call with one leading
    vector (the simplex frames of ``regularity_index`` have none).
    """
    z = FatPointScheme(
        2,
        (ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1)), ProjPoint((1, 2, 3))),
        (2, 2, 2, 2),
    )
    i0 = 3
    leading_calls = []
    frame_change = schemes.frame_change

    def counting(n, leading, candidates=()):
        if len(leading) == 1:
            leading_calls.append(leading)
        return frame_change(n, leading, candidates)

    monkeypatch.setattr(schemes, "frame_change", counting)
    _cold()
    regularity_index.cache_clear()

    assert removal_recursion_check(z, i0)
    rest, p, a = z.without_point(i0), z.points[i0], z.mults[i0]
    b = artinian_quotient_regularity(rest, p, a)
    assert b - 1 >= a - 1
    assert monomial_bound_check(rest, p, a, b)
    assert not monomial_bound_check(rest, p, a, b - 1)

    assert len(leading_calls) == 1
    info = artinian_quotient_regularity.cache_info()
    assert (info.misses, info.hits) == (1, 1)
