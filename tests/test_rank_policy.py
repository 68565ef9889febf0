"""Which rank path answers: the question asked, not the global modular flag.

The Hilbert function in the simplex frame (``hilbert_function`` and the
``regularity_index`` scan) is the only caller that passes ``modular=True``
to ``rank_rows``; every other rank is rational.  The flag that
``set_modular_filter`` and the CLI's ``--modular`` set is read by no rank.
"""

import logging

from fatpoints import linalg
from fatpoints.geometry import ProjPoint, span_dim
from fatpoints.linalg import MODULAR_PRIMES, modular_stats, rank_rows, reset_modular_stats
from fatpoints.schemes import (
    FatPointScheme,
    hilbert_function,
    multiplicity,
    regularity_index,
    simplex_frame,
)

P0 = MODULAR_PRIMES[0]


def _scheme(points, m=2):
    pts = tuple(ProjPoint(tuple(p)) for p in points)
    return FatPointScheme(len(points[0]) - 1, pts, (m,) * len(pts))


def _hilbert_scan(z):
    """The least t with H(t) = e, through ``hilbert_function`` from degree 0."""
    e, frame, t = multiplicity(z), simplex_frame(z), 0
    while hilbert_function(z, t, frame=frame) != e:
        t += 1
    return t


def test_regularity_scan_falls_back_when_the_prime_is_bad(caplog):
    # (P0 : 1 : 1) is (0 : 1 : 1) mod P0, so the degree-4 rows of the fourth
    # point lose rank mod P0 and the scan's "no" must go to Bareiss
    z = _scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (P0, 1, 1)])
    before = linalg.modular_filter_enabled()
    try:
        linalg.set_modular_filter(False)
        regularity_index.cache_clear()
        reset_modular_stats()
        with caplog.at_level(logging.WARNING, logger="fatpoints.linalg"):
            assert regularity_index(z) == 4
        stats = modular_stats()
    finally:
        linalg.set_modular_filter(before)
    assert _hilbert_scan(z) == 4
    assert stats["disagreements"] >= 1
    assert any("disagreed" in rec.message for rec in caplog.records)


def test_the_global_flag_picks_no_rank_path():
    before = linalg.modular_filter_enabled()
    try:
        linalg.set_modular_filter(True)
        reset_modular_stats()
        assert rank_rows([[1, 1], [1, 1 + P0]], 2) == 2
        assert span_dim([ProjPoint((1, 1, 0)), ProjPoint((1, 1 + P0, 0))]) == 1
        assert modular_stats() == dict.fromkeys(modular_stats(), 0)

        linalg.set_modular_filter(False)
        z = _scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
        regularity_index.cache_clear()
        assert regularity_index(z) == 4
        assert modular_stats()["short_circuits"] >= 1
    finally:
        linalg.set_modular_filter(before)
