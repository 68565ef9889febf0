"""Which rank path answers: the question asked.

``hilbert_function`` is the only caller that passes ``modular=True`` to
``rank_rows``, the mod-p question and then the exact finish; every other
rank is rational.  The ``regularity_index`` scan asks the two halves
apart: a mod-p "no" below the curve lower bound L is a proven "no" that
no elimination finishes, and L is computed, from the scheme's flats, only
once such a "no" asks for it.
"""

import logging

from fatpoints.geometry import ProjPoint, span
from fatpoints.linalg import MODULAR_PRIME, modular_stats, rank_rows, reset_modular_stats
from fatpoints.schemes import (
    FatPointScheme,
    hilbert_function,
    multiplicity,
    regularity_index,
)

P0 = MODULAR_PRIME


def _scheme(points, m=2):
    pts = tuple(ProjPoint(tuple(p)) for p in points)
    return FatPointScheme(len(points[0]) - 1, pts, (m,) * len(pts))


def _hilbert_scan(z):
    """The least t with H(t) = e, through ``hilbert_function`` from degree 0."""
    e, t = multiplicity(z), 0
    while hilbert_function(z, t) != e:
        t += 1
    return t


def test_regularity_scan_falls_back_when_the_prime_is_bad(caplog):
    # (P0 : 1 : 1) is (0 : 1 : 1) mod P0, so the degree-4 rows of the fourth
    # point lose rank mod P0 and the scan's "no" must go to Bareiss
    z = _scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (P0, 1, 1)])
    regularity_index.cache_clear()
    reset_modular_stats()
    with caplog.at_level(logging.WARNING, logger="fatpoints.linalg"):
        assert regularity_index(z) == 4
    stats = modular_stats()
    assert _hilbert_scan(z) == 4
    assert stats["disagreements"] >= 1
    assert any("disagreed" in rec.message for rec in caplog.records)


def test_ranks_are_rational_unless_the_caller_asks():
    reset_modular_stats()
    assert rank_rows([[1, 1], [1, 1 + P0]], 2) == 2
    assert span([ProjPoint((1, 1, 0)), ProjPoint((1, 1 + P0, 0))]).dim == 1
    assert modular_stats() == dict.fromkeys(modular_stats(), 0)

    z = _scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
    regularity_index.cache_clear()
    assert regularity_index(z) == 4
    assert modular_stats()["short_circuits"] >= 1


def test_a_scan_answered_at_its_start_enumerates_no_flats():
    z = _scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
    regularity_index.cache_clear()
    reset_modular_stats()
    assert regularity_index(z) == 4
    assert modular_stats()["short_circuits"] == 1
    assert "flats" not in z.__dict__


def test_degrees_below_the_curve_bound_take_no_elimination():
    # three of the double points lie on a line, so L = 6 - 1 = 5 = reg: the
    # mod-p "no" at t0 = 4 is settled by L and bumps no counter
    z = _scheme([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    regularity_index.cache_clear()
    reset_modular_stats()
    assert regularity_index(z) == 5
    assert modular_stats() == {"short_circuits": 1, "certified": 0, "fallbacks": 0, "disagreements": 0}
    assert "flats" in z.__dict__
    assert _hilbert_scan(z) == 5
