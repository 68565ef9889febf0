import hashlib
import json
import re
from collections import Counter
from itertools import combinations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints.constructions import cover_threshold, distribute_flats
from fatpoints.generators import PATTERNS, GeneratorError, PatternSpec, _random_point_on, generate
from fatpoints.geometry import Flat, ProjPoint, degeneracy_index, span
from fatpoints.harness import scheme_to_obj
from fatpoints.schemes import FatPointScheme, hilbert_function
from fatpoints.segre import segre_bound
from oracles import fraction_point_on


def test_general_pattern_no_degeneracy():
    z = generate(PatternSpec("general", n=3, s=5, seed=7))
    assert z.size == 5
    assert degeneracy_index(list(z.points)) is None


def test_on_flat_pattern_collinear():
    z = generate(PatternSpec("on_flat", n=3, s=5, flat_dim=1, seed=3))
    assert span(list(z.points)).dim == 1


def test_on_flat_pattern_planar():
    z = generate(PatternSpec("on_flat", n=3, s=5, flat_dim=2, seed=5))
    assert span(list(z.points)).dim == 2
    assert degeneracy_index(list(z.points)) is None


def test_lemma24_pattern_span():
    z = generate(PatternSpec("lemma24", n=3, s=3, mults=(1, 2, 3, 1, 2), seed=11))
    assert z.size == 5
    assert span(list(z.points)).dim >= 3
    assert z.mults == (1, 2, 3, 1, 2)


def test_theorem34_pattern():
    z = generate(PatternSpec("theorem34", n=4, s=3, m=2, seed=5))
    assert z.size == 6
    assert len(set(z.mults)) == 1
    assert span(list(z.points)).dim >= 3


def test_prop43_pattern_plants_requested_degeneracy():
    for k in (1, 2):
        z = generate(PatternSpec("prop43", n=3, s=3, m=2, k=k, seed=29))
        assert z.size == 6
        assert span(list(z.points)).dim == 3
        assert degeneracy_index(list(z.points)) == k


def test_prop43_random_k_is_deterministic():
    a = generate(PatternSpec("prop43", n=4, s=3, m=1, seed=15))
    b = generate(PatternSpec("prop43", n=4, s=3, m=1, seed=15))
    assert a == b


def test_lem42_pattern_hypotheses():
    z = generate(PatternSpec("lem42", n=4, s=3, m=2, seed=13))
    pts = list(z.points)
    s = 3
    assert z.size == s + 3
    assert span(pts).dim == s
    # the two distinguished flats
    assert span(pts[: s + 1]).dim == s - 1
    assert span(pts[2:]).dim == s - 1
    # no (s-1)-flat with s+2 points, no (s-2)-flat with s points
    for sub in combinations(range(s + 3), s + 2):
        assert span([pts[i] for i in sub]).dim >= s
    for sub in combinations(range(s + 3), s):
        assert span([pts[i] for i in sub]).dim >= s - 1


def test_lem42_small_s_rejected():
    with pytest.raises(GeneratorError):
        generate(PatternSpec("lem42", n=4, s=2, m=2, seed=1))


def test_pattern_bounds_validation():
    with pytest.raises(GeneratorError):
        generate(PatternSpec("lemma24", n=2, s=3, seed=1))
    with pytest.raises(GeneratorError):
        generate(PatternSpec("prop43", n=3, s=1, m=2, seed=1))
    with pytest.raises(GeneratorError):
        generate(PatternSpec("nonsense", n=2, s=2, seed=1))
    with pytest.raises(GeneratorError):
        generate(PatternSpec("general", n=2, s=3, mults=(1, 1), seed=1))


_E = [ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1))]
_Z = FatPointScheme(2, tuple(_E[1:]), (2, 1))


@pytest.mark.parametrize(
    "build, bad, error",
    [
        (lambda: FatPointScheme(2, tuple(_E[:2]), (2.5, 1)), 2.5, ValueError),
        (lambda: FatPointScheme(2, tuple(_E[:1]), ("3",)), "3", ValueError),
        (lambda: generate(PatternSpec("theorem34", n=3, s=2, m=2.7)), 2.7, GeneratorError),
        (lambda: generate(PatternSpec("lemma24", n=3, s=1, mults=(1, 2.0, 1))), 2.0, GeneratorError),
        (lambda: generate(PatternSpec("on_flat", n=3, s=4, flat_dim=1.5)), 1.5, GeneratorError),
        (lambda: generate(PatternSpec("prop43", n=3, s=3, k=1.0)), 1.0, GeneratorError),
        (lambda: distribute_flats(_E[1:], _E[0], (1, 1.5), 1, 2, 0), 1.5, ValueError),
        (lambda: distribute_flats(_E[1:], _E[0], (1, 1), 1.5, 2, 0), 1.5, ValueError),
        (lambda: distribute_flats(_E[1:], _E[0], (1, 1), 1, 2.5, 0), 2.5, ValueError),
        (lambda: cover_threshold([2.5, 1], 2), 2.5, ValueError),
        (lambda: cover_threshold([2, 1], 2.0), 2.0, ValueError),
        (lambda: hilbert_function(_Z, 2.5), 2.5, ValueError),
        (lambda: segre_bound(_Z).entry(1.5), 1.5, ValueError),
        (lambda: generate(PatternSpec("general", n=2, s=2.5)), 2.5, GeneratorError),
        (lambda: generate(PatternSpec("general", n=2, s="2")), "2", GeneratorError),
        (lambda: generate(PatternSpec("general", n=3.0, s=2)), 3.0, GeneratorError),
        (lambda: generate(PatternSpec("general", n=2, s=2, height=2.5)), 2.5, GeneratorError),
    ],
    ids=[
        "scheme-float", "scheme-str", "spec-m", "spec-mults", "flat_dim", "k", "distribute",
        "distribute-r", "distribute-t", "threshold-mult", "threshold-r", "hilbert-degree",
        "segre-entry",
        "spec-s", "spec-s-str", "spec-n", "spec-height",
    ],
)
def test_a_non_integer_count_raises_instead_of_truncating(build, bad, error):
    with pytest.raises(error, match=re.escape(f"must be an integer, got {bad!r}")):
        build()


def test_generation_deterministic_per_seed():
    for pattern, kwargs in [
        ("general", dict(n=3, s=5)),
        ("lemma24", dict(n=3, s=2, m=2)),
        ("theorem34", dict(n=3, s=2, m=3)),
        ("lem42", dict(n=3, s=3, m=2)),
    ]:
        a = generate(PatternSpec(pattern, seed=99, **kwargs))
        b = generate(PatternSpec(pattern, seed=99, **kwargs))
        c = generate(PatternSpec(pattern, seed=100, **kwargs))
        assert a == b
        assert isinstance(c, FatPointScheme)


def test_height_bound_respected():
    z = generate(PatternSpec("general", n=2, s=4, height=5, seed=3))
    for p in z.points:
        ints = p.rep
        assert all(abs(c) <= 5 for c in ints)


def _pinned_spec(pattern: str, n: int, s: int, seed: int) -> PatternSpec:
    extra = {}
    if pattern == "on_flat":
        extra["flat_dim"] = 1 + seed % n
    if pattern == "prop43" and s >= 2:
        extra["k"] = 1 + seed % (s - 1)
    return PatternSpec(pattern, n=n, s=s, m=1 + seed % 3, seed=seed, height=9, **extra)


#: sha256 of every pinned spec's output, one line each: the scheme's JSON
#: object, or "error: " and the GeneratorError's message
GENERATOR_DIGEST = "2f855a5a5e56b90e9cceca8bca8d3742444c199fc98fa66c0f2bd1bb93e9e1a8"


def test_generated_schemes_match_pinned_digest():
    """Every pattern x n 1..4 x s 1..5 x seed 0..5 gives the pinned points and errors."""
    h = hashlib.sha256()
    outcomes = Counter()
    for pattern in PATTERNS:
        for n in range(1, 5):
            for s in range(1, 6):
                for seed in range(6):
                    try:
                        line = json.dumps(scheme_to_obj(generate(_pinned_spec(pattern, n, s, seed))))
                        outcomes["scheme"] += 1
                    except GeneratorError as exc:
                        line = "error: " + str(exc)
                        outcomes["error"] += 1
                    h.update((line + "\n").encode())
    assert outcomes == {"scheme": 374, "error": 346}
    assert h.hexdigest() == GENERATOR_DIGEST


@st.composite
def flats_to_sample(draw):
    """A flat of P^n, n 1..5, spanned by 1..n+1 vectors of entries -4..4."""
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1).filter(any)
    return Flat(n, draw(st.lists(vec, min_size=1, max_size=n + 1)))


@settings(max_examples=200, deadline=None)
@given(flats_to_sample(), st.integers(0, 2**32), st.sampled_from([1, 2, 9]))
@example(Flat(2, [(0, 0, 3)]), 0, 1)  # a point: every draw but 0 is the point
@example(Flat(3, [(2, 1, 0, 0), (0, 0, 3, 1)]), 7, 9)  # pivots 2 and 3, lcm 6
@example(Flat(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1, 1)  # all of P^2
def test_random_point_on_matches_fraction_sampler(flat, seed, height):
    """The integer sampler returns the point of the ``Fraction`` one and
    leaves the generator in the same state: the same draws, the same redraws."""
    ours, theirs = random.Random(seed), random.Random(seed)
    got = _random_point_on(ours, flat, height)
    assert got == fraction_point_on(theirs, Flat(flat.ambient_n, flat.integer_rows), height)
    assert ours.getstate() == theirs.getstate()
    assert "cone_basis" not in vars(flat)  # no Fraction view is built
