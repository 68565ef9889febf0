"""Which rank path answers: one rule for every rank.

``rank_rows`` asks every rank mod p first, trusts it only when it equals
min(rows, cols), and otherwise finishes with one exact pass, which counts
a fallback and logs a disagreeing modular rank.  The ``regularity_index``
scan asks its start degree the mod-p question alone (``modular_rank``);
on a "no" it computes the curve lower bound L from the scheme's flats,
since every degree below L is a proven "no", and asks ``rank_rows`` from
the larger of L and the start on.
"""

import logging

import pytest

from fatpoints import linalg, schemes
from fatpoints.constructions import build_certificate, verify_certificate
from fatpoints.geometry import ProjPoint, span
from fatpoints.linalg import MODULAR_PRIME, modular_stats, rank_rows, reset_modular_stats
from fatpoints.schemes import (
    FatPointScheme,
    _free_columns,
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


def _spy(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that records (name, rows, cols) of each call."""
    fn = getattr(module, name)

    def spy(rows, ncols):
        calls.append((name, len(rows), ncols))
        return fn(rows, ncols)

    monkeypatch.setattr(module, name, spy)


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


def test_every_rank_asks_mod_p_first(caplog):
    # the rows are dependent mod P0 but not over Q: the mod-p rank 1 is not
    # full, so one exact pass decides and the disagreement is logged
    reset_modular_stats()
    with caplog.at_level(logging.WARNING, logger="fatpoints.linalg"):
        assert rank_rows([[1, 1], [1, 1 + P0]], 2) == 2
    assert modular_stats() == {"short_circuits": 0, "certified": 0, "fallbacks": 1, "disagreements": 1}
    assert any("disagreed" in rec.message for rec in caplog.records)

    reset_modular_stats()
    assert span([ProjPoint((1, 1, 0)), ProjPoint((1, 1 + P0, 0))]).dim == 1
    assert modular_stats() == dict.fromkeys(modular_stats(), 0)


def test_a_certificate_check_is_one_mod_p_rank():
    j = _scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    p = ProjPoint((1, 1, 1))
    cert = build_certificate(j, p, 2, seed=5)
    reset_modular_stats()
    assert verify_certificate(cert, j, p, 2)[0]
    assert modular_stats() == {"short_circuits": 1, "certified": 0, "fallbacks": 0, "disagreements": 0}


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


def test_the_scan_asks_mod_p_at_its_start_then_rank_rows_from_the_curve_bound(monkeypatch):
    # the scheme above: modular_rank's "no" at t0 = 4, then rank_rows at
    # L = 5, a mod-p "yes", so no exact pass runs
    z = _scheme([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    calls = []
    _spy(monkeypatch, schemes, "modular_rank", calls)
    _spy(monkeypatch, schemes, "rank_rows", calls)
    _spy(monkeypatch, linalg, "_pivot_columns", calls)
    regularity_index.cache_clear()
    assert regularity_index(z) == 5
    vertices = z.frame.vertices
    assert calls == [
        ("modular_rank", 3, len(_free_columns(4, 3, vertices))),
        ("rank_rows", 3, len(_free_columns(5, 3, vertices))),
    ]


def test_a_scan_past_its_cap_raises(monkeypatch):
    # a curve bound above the cap sum(m_i) - 1 = 7 leaves no degree to ask
    z = _scheme([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    calls = []
    monkeypatch.setattr(schemes, "curve_lower_bound", lambda z: sum(z.mults))
    _spy(monkeypatch, schemes, "rank_rows", calls)
    regularity_index.cache_clear()
    with pytest.raises(RuntimeError, match="passed its cap"):
        regularity_index(z)
    assert calls == []
    monkeypatch.undo()
    assert regularity_index(z) == 5
