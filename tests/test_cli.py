import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from fatpoints.cli import cli_dispatch
from fatpoints.generators import GeneratorError, PatternSpec, generate
from fatpoints.geometry import ProjPoint
from fatpoints.harness import load_scheme, save_scheme, scheme_from_obj
from fatpoints.schemes import FatPointScheme, hilbert_function, multiplicity, regularity_index


@pytest.fixture
def double_point_scheme(tmp_path):
    obj = {
        "n": 2,
        "points": [["1", "0", "0"]],
        "multiplicities": [2],
    }
    path = tmp_path / "double.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def two_doubles_p3(tmp_path):
    obj = {
        "n": 3,
        "points": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        "multiplicities": [2, 2],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_reg_subcommand(double_point_scheme, capsys):
    assert cli_dispatch(["reg", "--scheme", double_point_scheme]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_hilbert_single_degree(double_point_scheme, capsys):
    assert cli_dispatch(["hilbert", "--scheme", double_point_scheme, "--degree", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_hilbert_degree_past_reg_prints_e_fast(tmp_path, capsys):
    """A degree at or past the regularity index builds no condition matrix."""
    path = tmp_path / "three.json"
    obj = {"n": 2, "points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "1"]],
           "multiplicities": [2, 1, 1]}
    path.write_text(json.dumps(obj))
    for degree, want in (("1", "3"), ("2", "5"), ("1000000", "5")):
        start = time.perf_counter()
        assert cli_dispatch(["hilbert", "--scheme", str(path), "--degree", degree]) == 0
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().out.strip() == want


def test_hilbert_table_csv(double_point_scheme, capsys):
    assert cli_dispatch(["hilbert", "--scheme", double_point_scheme, "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,h"
    assert lines[1:] == ["0,1", "1,3"]


@pytest.mark.parametrize(
    "points, mults",
    [
        ([["1", "0", "0"]], [2]),
        ([["1", "0", "0"], ["1", "1", "0"], ["1", "2", "0"]], [2, 3, 1]),
        (
            [["1", "2", "0", "1"], ["0", "1", "0", "0"], ["1", "0", "1", "0"], ["3", "1", "1", "1"], ["1", "1", "1", "1"]],
            [1, 3, 2, 2, 1],
        ),
    ],
)
def test_hilbert_table_matches_library(tmp_path, capsys, points, mults):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"n": len(points[0]) - 1, "points": points, "multiplicities": mults}))
    z = load_scheme(str(path))
    reg = regularity_index(z)
    values = [hilbert_function(z, t) for t in range(reg + 1)]

    assert cli_dispatch(["hilbert", "--scheme", str(path)]) == 0
    expected = [f"H({t}) = {h}" for t, h in enumerate(values)]
    expected.append(f"multiplicity = {multiplicity(z)}; regularity index = {reg}")
    assert capsys.readouterr().out == "\n".join(expected) + "\n"

    assert cli_dispatch(["hilbert", "--scheme", str(path), "--csv"]) == 0
    expected = ["t,h"] + [f"{t},{h}" for t, h in enumerate(values)]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


@pytest.mark.parametrize(
    "points, mults",
    [
        ([["1", "2", "3", "4"]], [3]),  # one fat point of P^3
        ([["1", "2", "3", "4"], ["2", "1", "0", "1"], ["3", "3", "3", "5"]], [2, 3, 2]),  # a line
        (
            [["1", "0", "1", "2", "0"], ["0", "1", "1", "0", "3"], ["1", "1", "0", "1", "1"],
             ["2", "2", "2", "3", "4"], ["1", "-1", "0", "2", "-3"]],
            [2, 1, 3, 2, 2],
        ),  # a plane of P^4, three of the points collinear
    ],
)
def test_reg_equals_last_hilbert_row_on_degenerate_schemes(tmp_path, capsys, points, mults):
    """``reg`` scans the span of the points, ``hilbert`` tabulates P^n: they must agree."""
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"n": len(points[0]) - 1, "points": points, "multiplicities": mults}))
    assert cli_dispatch(["reg", "--scheme", str(path)]) == 0
    reg = capsys.readouterr().out.strip()
    assert cli_dispatch(["hilbert", "--scheme", str(path), "--csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    e = multiplicity(load_scheme(str(path)))
    assert rows[-1] == [reg, str(e)]
    if len(rows) > 1:  # the P^n table reaches e no earlier than the P^d scan
        assert int(rows[-2][1]) < e


def test_segre_two_doubles(two_doubles_p3, capsys):
    assert cli_dispatch(["segre", "--scheme", two_doubles_p3]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["bound"] == 3
    assert obj["entries"][0]["T"] == 3


def test_check_exit_zero_and_verdict(two_doubles_p3, capsys):
    code = cli_dispatch(["check", "--scheme", two_doubles_p3, "--lemma21", "--lemma22"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["holds"] is True
    assert obj["recursion_ok"] is True
    assert obj["monomial_criterion_ok"] is True


def test_check_lemma24_file(tmp_path, capsys):
    code = cli_dispatch(
        ["gen", "--pattern", "lemma24", "--n", "3", "--s", "2", "--m", "2",
         "--seed", "12", "--height", "9", "--out", str(tmp_path / "s.json")]
    )
    assert code == 0
    code = cli_dispatch(["check", "--scheme", str(tmp_path / "s.json")])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["hypothesis_class"] == "lemma24"
    assert obj["holds"] and obj["tight"]


def test_certify_subcommand(two_doubles_p3, capsys):
    code = cli_dispatch(["certify", "--scheme", two_doubles_p3, "--i0", "0", "--seed", "4"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verified"] is True
    assert obj["delta"] >= 1


def test_distribute_subcommand(tmp_path, capsys):
    obj = {
        "n": 2,
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]],
        "multiplicities": [1, 1, 1, 1],
    }
    path = tmp_path / "four.json"
    path.write_text(json.dumps(obj))
    code = cli_dispatch(
        ["distribute", "--scheme", str(path), "--i0", "3", "--r", "2", "--seed", "5"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t"] == 2
    assert len(out["flats"]) == 2
    assert all(len(c) >= 1 for c in out["coverage"])


def test_gen_writes_parseable_scheme(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = cli_dispatch(
        ["gen", "--pattern", "general", "--n", "2", "--s", "4", "--m", "2",
         "--seed", "9", "--height", "9", "--out", str(out)]
    )
    assert code == 0
    z = scheme_from_obj(json.loads(out.read_text()))
    assert z.size == 4
    assert z.mults == (2, 2, 2, 2)


def test_batch_roundtrip_and_exit(tmp_path):
    out = tmp_path / "report.json"
    code = cli_dispatch(
        ["batch", "--pattern", "theorem34", "--n", "2", "--s", "1", "--m", "2",
         "--trials", "2", "--seed", "33", "--height", "9", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["version"] == "fatpoints-report/1"
    assert report["aggregates"]["violations"] == 0


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_batch_without_workers_exit_one(tmp_path, capsys, workers):
    out = tmp_path / "report.json"
    code = cli_dispatch(
        ["batch", "--pattern", "theorem34", "--n", "2", "--s", "1", "--m", "2",
         "--trials", "2", "--seed", "33", "--workers", workers, "--out", str(out)]
    )
    assert code == 1
    assert "at least one worker is required" in capsys.readouterr().err
    assert not out.exists()


def test_modular_flag_is_a_usage_error(double_point_scheme, capsys):
    assert cli_dispatch(["--modular", "reg", "--scheme", double_point_scheme]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --modular" in captured.err
    assert captured.out == ""


def test_usage_error_exit_one(capsys):
    assert cli_dispatch(["reg"]) == 1
    assert cli_dispatch(["unknown-command"]) == 1


def test_missing_file_exit_one(capsys):
    assert cli_dispatch(["reg", "--scheme", "/nonexistent/path.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_scheme_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "points": [["1", "0"]], "multiplicities": [1]}))
    assert cli_dispatch(["reg", "--scheme", str(bad)]) == 1
    assert "coordinates" in capsys.readouterr().err


def test_huge_exponent_coordinate_exits_one_fast(tmp_path, capsys):
    bad = tmp_path / "exp.json"
    bad.write_text(json.dumps({"n": 1, "points": [["1", "1e100000000"]], "multiplicities": [1]}))
    start = time.perf_counter()
    assert cli_dispatch(["reg", "--scheme", str(bad)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "point 0, coordinate 1: exponent notation" in capsys.readouterr().err


def test_duplicate_points_exit_one(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(
        json.dumps({"n": 1, "points": [["1", "1"], ["2", "2"]], "multiplicities": [1, 1]})
    )
    assert cli_dispatch(["reg", "--scheme", str(bad)]) == 1
    assert "duplicates" in capsys.readouterr().err


def test_violation_exit_two_and_scheme_embedding(tmp_path, monkeypatch, capsys):
    # a genuine bound violation cannot be constructed, so fake one to pin
    # down the exit-code and replay-embedding contract
    import fatpoints.cli as cli_mod
    import fatpoints.harness as harness_mod

    real_verdict = harness_mod.segre_verdict

    def fake_verdict(z):
        real = real_verdict(z)
        return type(real)(
            point_count=real.point_count,
            span_dim=real.span_dim,
            equimultiple=real.equimultiple,
            general_position=real.general_position,
            degeneracy=real.degeneracy,
            hypothesis_class=real.hypothesis_class,
            reg=real.bound + 1,
            bound=real.bound,
            holds=False,
            tight=False,
            report=real.report,
        )

    monkeypatch.setattr(cli_mod, "segre_verdict", fake_verdict)
    obj = {
        "n": 2,
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "multiplicities": [1, 1, 1],
    }
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(obj))
    assert cli_dispatch(["check", "--scheme", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["holds"] is False

    monkeypatch.setattr(harness_mod, "segre_verdict", fake_verdict)
    out = tmp_path / "violating_report.json"
    code = cli_dispatch(
        ["batch", "--pattern", "general", "--n", "2", "--s", "3", "--trials", "1",
         "--seed", "5", "--height", "9", "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["aggregates"]["violations"] == 1
    assert "scheme" in report["results"][0]  # embedded verbatim for replay


def test_env_seed_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FATPOINTS_SEED", "123")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli_dispatch(
        ["gen", "--pattern", "general", "--n", "2", "--s", "3", "--out", str(out1)]
    ) == 0
    assert cli_dispatch(
        ["gen", "--pattern", "general", "--n", "2", "--s", "3", "--seed", "123",
         "--out", str(out2)]
    ) == 0
    assert out1.read_text() == out2.read_text()


def test_env_seed_malformed_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FATPOINTS_SEED", "abc")
    out = tmp_path / "a.json"
    code = cli_dispatch(["gen", "--pattern", "general", "--n", "2", "--s", "3", "--out", str(out)])
    assert code == 1
    assert "FATPOINTS_SEED" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_env_seed_is_ignored_by_a_command_without_seed(
    double_point_scheme, monkeypatch, capsys
):
    monkeypatch.setenv("FATPOINTS_SEED", "abc")
    assert cli_dispatch(["reg", "--scheme", double_point_scheme]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_malformed_env_seed_is_ignored_beside_an_explicit_seed(tmp_path, monkeypatch):
    args = ["gen", "--pattern", "general", "--n", "2", "--s", "3", "--seed", "5", "--out"]
    clean = tmp_path / "clean.json"
    assert cli_dispatch(args + [str(clean)]) == 0
    monkeypatch.setenv("FATPOINTS_SEED", "abc")
    bad = tmp_path / "bad.json"
    assert cli_dispatch(args + [str(bad)]) == 0
    assert bad.read_bytes() == clean.read_bytes()


def segre_check_corpus(seed=0, count=60):
    """Seeded schemes for the segre and check reports: prop43, lem42 and
    lemma24 schemes of small height, and random points of height 2, often
    on a coordinate flat, with multiplicities 1..3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = ("prop43", "lem42", "lemma24", "random")[len(out) % 4]
        n = rng.randint(3 if kind == "lem42" else 2 if kind == "prop43" else 1, 4)
        if kind == "random":
            free = rng.randint(1, n + 1)
            pts = []
            for _ in range(rng.randint(1, 7)):
                coords = [rng.randint(-2, 2) for _ in range(free)] + [0] * (n + 1 - free)
                if any(coords):
                    p = ProjPoint(tuple(Fraction(c) for c in coords))
                    if p not in pts:
                        pts.append(p)
            if pts:
                out.append(FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in pts)))
            continue
        s = rng.randint(3 if kind == "lem42" else 2 if kind == "prop43" else 1, n)
        spec_seed = rng.randrange(1 << 30)
        if kind == "lemma24":
            mults = tuple(rng.randint(1, 3) for _ in range(s + 2))
            spec = PatternSpec(kind, n=n, s=s, mults=mults, seed=spec_seed, height=3)
        else:
            spec = PatternSpec(kind, n=n, s=s, m=rng.randint(1, 2), seed=spec_seed, height=5)
        try:
            out.append(generate(spec))
        except GeneratorError:
            continue
    return out


def test_segre_and_check_reports_match_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = Counter()
    path = str(tmp_path / "scheme.json")
    for z in segre_check_corpus():
        save_scheme(z, path)
        for command in ("segre", "check"):
            code = cli_dispatch([command, "--scheme", path])
            codes[command, code] += 1
            digest.update(f"{command} {code}\n{capsys.readouterr().out}".encode())
    assert codes == {("segre", 0): 60, ("check", 0): 60}
    assert digest.hexdigest() == "f9d55f4d056392921775469738b8d6d469d4b0a1ad7d64a82b83f941989c05c0"


def distribute_corpus(seed=0, count=12):
    """(scheme, distribute arguments) pairs: random points of height 2 in
    P^(r+1), r = 1..3, with t at the threshold and one above;
    test_constructions' GROWN_LAST_FILL and AVOIDED_ON_A_SPAN (exit 1), with
    the avoided point at index 0; and the CI step's prop43 scheme, whose
    flats print rational entries."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = len(out) // 2 % 3 + 1
        n = r + 1
        pts = []
        for _ in range(rng.randint(2, 6)):
            coords = [rng.randint(-2, 2) for _ in range(n + 1)]
            if any(coords):
                p = ProjPoint(tuple(coords))
                if p not in pts:
                    pts.append(p)
        if len(pts) < 2:
            continue
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in pts))
        i0 = rng.randrange(z.size)
        rest = [m for i, m in enumerate(z.mults) if i != i0]
        t = max(max(rest), (sum(rest) + r - 1) // r) + len(out) % 2
        out.append((z, ["--i0", str(i0), "--r", str(r), "--t", str(t), "--seed", str(rng.randrange(100))]))
    e = [ProjPoint.unit(3, i) for i in range(4)]
    grown = FatPointScheme(3, (*e, ProjPoint((0, 1, 1, 1))), (1, 2, 1, 1, 1))
    out.append((grown, ["--i0", "0", "--r", "3", "--t", "2", "--seed", "5"]))
    avoided = FatPointScheme(3, (ProjPoint((0, 1, 1, 0)), *e[1:]), (1, 1, 1, 1))
    out.append((avoided, ["--i0", "0", "--r", "2", "--t", "2", "--seed", "5"]))
    prop43 = generate(PatternSpec("prop43", n=3, s=3, m=2, k=1, seed=5, height=9))
    out.append((prop43, ["--i0", "5", "--r", "2", "--seed", "7"]))
    return out


def test_distribute_reports_match_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = Counter()
    path = str(tmp_path / "scheme.json")
    for z, args in distribute_corpus():
        save_scheme(z, path)
        code = cli_dispatch(["distribute", "--scheme", path, *args])
        codes[code] += 1
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert codes == {0: 14, 1: 1}
    assert digest.hexdigest() == "48fc540033b18af3d0f88aa8311b95cc8c5f0f7f5ff996468e52fc3d9b166add"
