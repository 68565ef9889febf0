import pytest

from fatpoints.generators import PatternSpec
from fatpoints.harness import (
    REPORT_VERSION,
    batch_check,
    load_scheme,
    save_scheme,
    scheme_from_obj,
    scheme_to_obj,
)
from fatpoints.geometry import ProjPoint
from fatpoints.schemes import FatPointScheme


def sample_scheme():
    return FatPointScheme(
        2,
        (
            ProjPoint((1, 0, 0)),
            ProjPoint((0, 1, 0)),
            ProjPoint((1, 1, 1)),
        ),
        (2, 1, 3),
    )


# ---------------------------------------------------------------------------
# scheme files
# ---------------------------------------------------------------------------

def test_round_trip_object():
    z = sample_scheme()
    assert scheme_from_obj(scheme_to_obj(z)) == z


def test_round_trip_with_fractions(tmp_path):
    z = FatPointScheme(
        2,
        (ProjPoint(("1", "1/2", "-3/4")), ProjPoint(("0", "1", "5/7"))),
        (1, 2),
    )
    path = tmp_path / "scheme.json"
    save_scheme(z, path)
    assert load_scheme(path) == z


def test_documented_example_parses():
    obj = {
        "n": 2,
        "points": [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
            ["1", "1", "1"],
            ["1", "2", "3"],
        ],
        "multiplicities": [2, 2, 2, 2, 2],
    }
    z = scheme_from_obj(obj)
    assert z.size == 5 and z.n == 2


def test_duplicate_points_diagnostic():
    obj = {
        "n": 1,
        "points": [["1", "2"], ["2", "4"]],
        "multiplicities": [1, 1],
    }
    with pytest.raises(ValueError, match="point 1 duplicates point 0"):
        scheme_from_obj(obj)


def test_malformed_coordinate_diagnostic():
    obj = {"n": 1, "points": [["1", "x"]], "multiplicities": [1]}
    with pytest.raises(ValueError, match="point 0, coordinate 1"):
        scheme_from_obj(obj)


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1/1e2"])
def test_exponent_notation_is_rejected(text):
    obj = {"n": 1, "points": [["1", text]], "multiplicities": [1]}
    with pytest.raises(ValueError, match="point 0, coordinate 1: exponent notation"):
        scheme_from_obj(obj)


def test_decimal_coordinates_stay_accepted():
    z = scheme_from_obj({"n": 1, "points": [["1", "0.25"]], "multiplicities": [1]})
    assert z.points[0] == ProjPoint((4, 1))


def test_wrong_width_diagnostic():
    obj = {"n": 2, "points": [["1", "0"]], "multiplicities": [1]}
    with pytest.raises(ValueError, match="expected 3 coordinates"):
        scheme_from_obj(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": True, "points": [["1", "0"]], "multiplicities": [1]}, "field 'n'"),
        ({"n": 1, "points": [["1", "0"], ["0", "1"]], "multiplicities": [2, True]}, "multiplicity 1"),
        ({"n": 1, "points": [["1", "0"]], "multiplicities": [False]}, "multiplicity 0"),
    ],
)
def test_boolean_integers_rejected(obj, message):
    # JSON true/false load as bool, a subclass of int; they are not counts
    with pytest.raises(ValueError, match=message):
        scheme_from_obj(obj)


def test_bad_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "points": [[,]]}')
    with pytest.raises(ValueError, match="line 1"):
        load_scheme(path)


# ---------------------------------------------------------------------------
# batch reports
# ---------------------------------------------------------------------------

def test_batch_report_shape_and_version():
    spec = PatternSpec("theorem34", n=2, s=1, m=2, height=9)
    report = batch_check(spec, trials=3, base_seed=50)
    obj = report.to_obj()
    assert obj["version"] == REPORT_VERSION
    assert obj["trials"] == 3
    assert [r["seed"] for r in obj["results"]] == [50, 51, 52]
    assert obj["aggregates"]["violations"] == 0
    for r in obj["results"]:
        assert r["holds"] is True
        assert "scheme" not in r


def test_batch_single_trial_reproducible():
    spec = PatternSpec("lemma24", n=2, s=2, m=1, height=9)
    a = batch_check(spec, trials=1, base_seed=7).to_json()
    b = batch_check(spec, trials=1, base_seed=7).to_json()
    assert a == b


def test_batch_byte_identical_across_worker_counts():
    spec = PatternSpec("theorem34", n=2, s=1, m=1, height=9)
    seq = batch_check(spec, trials=6, base_seed=11, workers=1).to_json()
    par = batch_check(spec, trials=6, base_seed=11, workers=3).to_json()
    assert seq == par


def test_batch_generator_errors_are_counted_not_fatal():
    # lem42 needs s >= 3: every trial errors but the batch completes
    spec = PatternSpec("lem42", n=4, s=2, m=2)
    report = batch_check(spec, trials=2, base_seed=0)
    assert report.generator_errors == 2
    obj = report.to_obj()
    assert all("error" in r for r in obj["results"])
    assert obj["aggregates"]["max_reg"] is None


def test_batch_requires_positive_trials():
    with pytest.raises(ValueError):
        batch_check(PatternSpec("general", n=2, s=3), trials=0, base_seed=0)


@pytest.mark.parametrize("workers", [0, -4])
def test_batch_requires_a_worker(workers):
    with pytest.raises(ValueError, match="at least one worker is required"):
        batch_check(PatternSpec("general", n=2, s=3), trials=1, base_seed=0, workers=workers)


def test_histogram_keys_are_reg_minus_bound():
    spec = PatternSpec("lemma24", n=2, s=2, m=2, height=9)
    report = batch_check(spec, trials=4, base_seed=3)
    hist = report.to_obj()["aggregates"]["histogram"]
    assert set(hist) == {"0"}  # equality family: reg == bound every time
    assert sum(hist.values()) == 4


def test_batch_equality_family_all_tight():
    spec = PatternSpec("lemma24", n=3, s=2, mults=(2, 1, 3, 1), height=9)
    report = batch_check(spec, trials=25, base_seed=500)
    assert report.violations == 0
    assert report.generator_errors == 0
    for r in report.results:
        assert r.holds is True and r.tight is True
