"""Command line: worked examples, formats, exit codes, round trips."""

import json
import os
import time

import pytest

import discforge.config
import discforge.defect
from discforge.cli import main
from discforge.config import SIZE_BOUND_ENV, PointConfiguration
from discforge.defect import dirocco_fixtures, dual_variety_dim, rho_bound
from discforge.errors import SizeBound
from discforge.matroid import Flat
from discforge.poly import poly_from_json_dict

SEVEN = "[[0,1],[-3,1],[2,-3],[-1,1],[1,0],[3,0],[-2,0]]"
CUBIC = "[[1,1,1,1],[0,1,2,3]]"
CAY222 = (
    "[[1,1,1,0,0,0,0,0,0],[0,0,0,1,1,1,0,0,0],"
    "[0,0,0,0,0,0,1,1,1],[0,1,2,0,1,2,0,1,2]]"
)
# a dual whose point side repeats a point, and a rank-deficient dual
REPEATED_POINT_B = "[[1,0,0],[0,1,0],[0,0,1],[-3,-3,-2],[2,2,1]]"
RANK_DEFICIENT_B = "[[1,0],[1,0],[-2,0]]"
# a zero row: the point side is a pyramid over the last point
PYRAMID_B = "[[1,0],[0,1],[-1,-1],[0,0]]"


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_gale(capsys):
    rc, out, _ = run(capsys, ["gale", "--matrix", "[[1,1,1],[0,1,2]]"])
    assert rc == 0
    assert json.loads(out) == {"matrix": [[1], [-2], [1]]}


def test_gale_text(capsys):
    rc, out, _ = run(
        capsys, ["--format", "text", "gale", "--matrix", "[[1,1,1],[0,1,2]]"]
    )
    assert rc == 0
    assert out == "1\n-2\n1\n"


def test_index(capsys):
    rc, out, _ = run(capsys, ["index", "--matrix", "[[1],[3],[-2],[-2]]"])
    assert rc == 0
    assert json.loads(out) == {"index": 1}


def test_dual_pyramid_warning(capsys):
    rc, out, err = run(capsys, ["dual", "--matrix", "[[1],[-2],[1],[0]]"])
    assert rc == 0
    assert "pyramid" in err
    assert "matrix" in json.loads(out)


def test_dual_round_trip(capsys):
    rc, out, _ = run(capsys, ["dual", "--matrix", "[[1],[-2],[1]]"])
    assert rc == 0
    # the emitted JSON object feeds straight back into gale
    rc2, out2, _ = run(capsys, ["gale", "--matrix", out.strip()])
    assert rc2 == 0
    assert json.loads(out2) == {"matrix": [[1], [-2], [1]]}


def test_reduce_seven_point(capsys):
    rc, out, _ = run(capsys, ["reduce", "--side", "b", "--matrix", SEVEN])
    assert rc == 0
    obj = json.loads(out)
    assert obj["matrix"] == [[0, 1], [-3, 1], [2, -3], [-1, 1], [2, 0]]
    assert obj["merged"] == [[1], [2], [3], [4], [5, 6, 7]]
    assert obj["removed_splitting"] == []
    assert obj["removed_zero"] == []


def test_defect_three_squares(capsys):
    rc, out, _ = run(capsys, ["defect", "--matrix", CAY222])
    assert rc == 0
    obj = json.loads(out)
    assert obj["defect"] is True
    assert obj["dual_dim"] == 6
    assert obj["method"] == "flag-search"
    assert obj["witness"] == {"kind": "no-nonsplitting-flag", "length": 4}


def test_defect_reads_input_once(tmp_path, capsys, monkeypatch):
    # both sides come from one read, so piped input (/dev/stdin) works
    import builtins

    path = tmp_path / "cay.json"
    path.write_text(json.dumps({"matrix": json.loads(CAY222)}))
    real_open = builtins.open
    opens = []

    def counting_open(file, *a, **k):
        if str(file) == str(path):
            opens.append(file)
        return real_open(file, *a, **k)

    monkeypatch.setattr(builtins, "open", counting_open)
    rc, out, _ = run(capsys, ["defect", "--file", str(path)])
    assert rc == 0
    assert json.loads(out)["dual_dim"] == 6
    assert len(opens) == 1


def test_side_b_is_answered_on_the_gale_side(capsys):
    rc, out, _ = run(capsys, ["defect", "--side", "b", "--matrix", REPEATED_POINT_B])
    assert rc == 0
    obj = json.loads(out)
    assert obj["defect"] is False and obj["dual_dim"] == 3
    rc, out, _ = run(capsys, ["dualdim", "--side", "b", "--matrix", REPEATED_POINT_B])
    assert rc == 0
    assert json.loads(out) == {"dual_dim": 3}


def test_rank_deficient_side_b_is_refused_alike(capsys):
    for cmd in ("dualdim", "defect", "discriminant", "decompose"):
        rc, out, err = run(capsys, [cmd, "--side", "b", "--matrix", RANK_DEFICIENT_B])
        assert (rc, out) == (3, ""), cmd
        assert "DegenerateDual" in err, cmd


def test_pyramid_side_b_is_refused_alike(capsys):
    for cmd in ("dualdim", "defect", "decompose"):
        rc, out, err = run(capsys, [cmd, "--side", "b", "--matrix", PYRAMID_B])
        assert (rc, out) == (3, ""), cmd
        assert "PyramidInput" in err, cmd


def test_defect_takes_the_gale_dual_once(capsys, monkeypatch):
    real = discforge.config.gale_dual
    calls = []
    monkeypatch.setattr(
        discforge.config, "gale_dual", lambda a: calls.append(a) or real(a)
    )
    rc, out, _ = run(capsys, ["defect", "--matrix", CUBIC])
    assert rc == 0
    assert json.loads(out)["dual_dim"] == 2
    assert len(calls) == 1


def test_defect_dim_of_a_non_defect_verdict_skips_the_walk(capsys, monkeypatch):
    # the rational normal curve with n = 14 is past the default size bound,
    # which refuses the walk; its verified flag gives n - 2 without it
    def no_walk(cfg):
        raise AssertionError("dimension walk on a non-defect verdict")

    monkeypatch.setattr(discforge.defect, "dual_variety_dim", no_walk)
    curve = json.dumps([[1] * 14, list(range(14))])
    rc, out, _ = run(capsys, ["defect", "--matrix", curve])
    assert rc == 0
    obj = json.loads(out)
    assert obj["defect"] is False and obj["dual_dim"] == 12


def test_defect_dim_matches_the_walk_on_named_fixtures(capsys):
    for name, a in dirocco_fixtures() + [("cubic", PointConfiguration(json.loads(CUBIC)))]:
        rc, out, _ = run(capsys, ["defect", "--matrix", json.dumps(a.matrix.to_lists())])
        assert rc == 0, name
        assert json.loads(out)["dual_dim"] == dual_variety_dim(a), name


def test_defect_witness_one_based(capsys):
    rc, out, _ = run(capsys, ["defect", "--side", "b", "--matrix", SEVEN])
    assert rc == 0
    obj = json.loads(out)
    assert obj["defect"] is False
    assert obj["witness"] == {"kind": "flag", "flats": [[1]]}


def test_dualdim_cubic(capsys):
    rc, out, _ = run(capsys, ["dualdim", "--matrix", CUBIC])
    assert rc == 0
    assert json.loads(out) == {"dual_dim": 2}


def test_decompose(capsys):
    rc, out, _ = run(capsys, ["decompose", "--matrix", CAY222])
    assert rc == 0
    obj = json.loads(out)
    assert obj == {
        "parts": [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        "ranks": [2, 2, 2],
        "rho": 3,
        "m": 5,
        "sufficient_defect": True,
    }


def test_decompose_past_the_part_search_cap_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(discforge.defect, "MAX_PART_BITS", 0)
    with pytest.raises(SizeBound):
        rho_bound(PointConfiguration(json.loads(CAY222)))
    rc, out, err = run(capsys, ["decompose", "--matrix", CAY222])
    assert (rc, out) == (3, "")
    assert "SizeBound" in err


def test_discriminant_cubic_json(capsys):
    rc, out, _ = run(capsys, ["discriminant", "--matrix", CUBIC])
    assert rc == 0
    obj = json.loads(out)
    assert obj["vars"] == ["x1", "x2", "x3", "x4"]
    assert len(obj["terms"]) == 5
    # coefficients are decimal strings for lossless interchange
    assert all(isinstance(t["coeff"], str) for t in obj["terms"])
    poly, names = poly_from_json_dict(obj)
    assert poly.terms == {
        (0, 2, 2, 0): 1,
        (1, 0, 3, 0): -4,
        (0, 3, 0, 1): -4,
        (1, 1, 1, 1): 18,
        (2, 0, 0, 2): -27,
    }


def test_discriminant_trace(capsys):
    rc, out, _ = run(capsys, ["discriminant", "--trace", "--matrix", CUBIC])
    assert rc == 0
    obj = json.loads(out)
    assert obj["provenance"]["method"] == "implicitize"


def test_discriminant_text(capsys):
    rc, out, _ = run(
        capsys, ["--format", "text", "discriminant", "--matrix", CUBIC]
    )
    assert rc == 0
    assert out.strip() == (
        "x2^2*x3^2 - 4*x1*x3^3 - 4*x2^3*x4 + 18*x1*x2*x3*x4 - 27*x1^2*x4^2"
    )


def test_discriminant_deterministic(capsys):
    rc1, out1, _ = run(
        capsys, ["discriminant", "--side", "b", "--matrix", SEVEN]
    )
    rc2, out2, _ = run(
        capsys, ["discriminant", "--side", "b", "--matrix", SEVEN]
    )
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_member(capsys):
    rc, out, _ = run(
        capsys,
        ["member", "--matrix", CUBIC, "--point", "[-1,3,-3,1]"],
    )
    assert rc == 0
    assert json.loads(out) == {"member": True}
    rc, out, _ = run(
        capsys,
        ["member", "--matrix", CUBIC, "--point", '["1/4","1","1","1"]'],
    )
    assert rc == 0
    assert json.loads(out) == {"member": False}


def test_member_rejects_floats(capsys):
    rc, _, err = run(
        capsys,
        ["member", "--matrix", CUBIC, "--point", "[0.5,1,1,1]"],
    )
    assert rc == 2
    assert "integers or 'p/q'" in err


def test_member_point_grammar(capsys):
    def member(entry):
        return run(capsys, ["member", "--matrix", CUBIC, "--point", f"[{entry},1,1,1]"])

    start = time.perf_counter()
    rc, out, err = member('"1e4000000"')
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert "ParseError" in err
    for bad in ('"0.5"', '" 1/2"', '"1_0"', '"1/0"', '"1e5"', "null"):
        rc, out, err = member(bad)
        assert (rc, out) == (2, ""), bad
        assert "ParseError" in err, bad
    for good in ('"-3/4"', '"6/8"', '"+2"', "-5"):
        rc, out, _ = member(good)
        assert rc == 0, good
        assert json.loads(out) == {"member": False}


def test_cayley(capsys):
    rc, out, _ = run(capsys, ["cayley", "1,1,1"])
    assert rc == 0
    assert json.loads(out) == {
        "matrix": [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1],
        ]
    }


def test_check_specialization(capsys):
    rc, out, _ = run(
        capsys,
        ["check-specialization", "--side", "b", "--matrix", SEVEN, "--j", "5"],
    )
    assert rc == 0
    assert json.loads(out) == {"holds": True}
    rc, _, err = run(
        capsys,
        ["check-specialization", "--side", "b", "--matrix", SEVEN, "--j", "7"],
    )
    assert rc == 3
    assert "NotPositiveMultiple" in err


def test_check_grouping(capsys):
    rc, out, _ = run(
        capsys,
        [
            "check-grouping",
            "--side",
            "b",
            "--matrix",
            SEVEN,
            "--k",
            "5",
            "--l",
            "6",
        ],
    )
    assert rc == 0
    assert json.loads(out) == {"holds": True}


def test_parse_errors(capsys):
    rc, _, err = run(capsys, ["gale", "--matrix", "[[1,1"])
    assert rc == 2
    assert "invalid JSON" in err
    rc, _, err = run(capsys, ["gale", "--matrix", '{"rows": []}'])
    assert rc == 2
    rc, _, err = run(capsys, ["gale", "--matrix", "[1,2,3]"])
    assert rc == 2
    rc, _, err = run(capsys, ["gale", "--file", "/nonexistent/m.json"])
    assert rc == 2
    for empty in ("[]", "[[]]"):
        rc, out, err = run(capsys, ["discriminant", "--matrix", empty])
        assert rc == 2 and out == ""
        assert "ParseError" in err
    for argv, message in (
        (["member", "--matrix", CUBIC, "--point", "3"], "point must be a JSON list"),
        (["cayley", "1,x"], "bad length list"),
        (["cayley", ","], "need at least one segment length"),
    ):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        assert message in err, argv


def test_deeply_nested_json_is_a_parse_error(capsys):
    # deeper than the JSON decoder's recursion limit
    deep = "[" * 5000 + "]" * 5000
    for argv in (
        ["gale", "--matrix", deep],
        ["member", "--matrix", "[[1,1,1],[0,1,2]]", "--point", deep],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert "ParseError" in err


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[1,1,1],[0,1,2]]}')
    rc, out, _ = run(capsys, ["gale", "--file", str(path)])
    assert rc == 0
    assert json.loads(out) == {"matrix": [[1], [-2], [1]]}


def test_precondition_exit_code(capsys):
    rc, _, err = run(
        capsys, ["discriminant", "--side", "b", "--matrix", "[[1,0],[0,1]]"]
    )
    assert rc == 3
    assert "NotHomogeneous" in err


def test_unsupported_exit_code(capsys):
    rc, _, err = run(
        capsys,
        ["discriminant", "--side", "b", "--matrix", "[[2,0],[0,1],[-2,-1]]"],
    )
    assert rc == 4
    assert "index 2" in err


def test_oversized_horn_curve_exit_code(capsys):
    rc, out, err = run(
        capsys,
        [
            "discriminant", "--side", "b", "--matrix",
            "[[1,0],[0,1],[-17,-16],[16,15]]",
        ],
    )
    assert rc == 4
    assert out == ""
    assert "Unsupported" in err and "degree 17" in err


def test_size_bound_flag(monkeypatch, capsys):
    monkeypatch.setenv(SIZE_BOUND_ENV, "12")
    rc, _, err = run(capsys, ["--size-bound", "3", "dualdim", "--matrix", CUBIC])
    assert rc == 3
    assert "SizeBound" in err


def test_size_bound_flag_does_not_outlive_the_call(monkeypatch, capsys):
    # set first so that monkeypatch restores the original state even if
    # main leaks the flag into the environment
    monkeypatch.setenv(SIZE_BOUND_ENV, "12")
    monkeypatch.delenv(SIZE_BOUND_ENV)
    rc, _, err = run(capsys, ["--size-bound", "2", "dualdim", "--matrix", CUBIC])
    assert rc == 3 and "SizeBound" in err
    assert SIZE_BOUND_ENV not in os.environ
    assert dual_variety_dim(PointConfiguration(json.loads(CUBIC))) == 2


def test_size_bound_reads_the_unreduced_n(monkeypatch, capsys):
    # 13 dual rows in four line classes: past the bound, though the
    # reduction has 4 rows
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    rows = [[1, 0, 0]] * 4 + [[0, 1, 0]] * 4 + [[0, 0, 1]] * 4 + [[-4, -4, -4]]
    argv = ["dualdim", "--side", "b", "--matrix", json.dumps(rows)]
    rc, out, err = run(capsys, argv)
    assert rc == 3 and out == ""
    assert "SizeBound" in err and "n <= 12" in err


def test_size_bound_env(monkeypatch, capsys):
    monkeypatch.setenv(SIZE_BOUND_ENV, "3")
    rc, _, err = run(capsys, ["dualdim", "--matrix", CUBIC])
    assert rc == 3
    assert "SizeBound" in err


def test_size_bound_rejects_negative_and_malformed(monkeypatch, capsys):
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    rc, out, err = run(
        capsys, ["--size-bound", "-1", "gale", "--matrix", "[[1,1,1],[0,1,2]]"]
    )
    assert rc == 2 and out == ""
    assert "size-bound" in err and "Traceback" not in err
    # a malformed environment value fails even where the error would
    # otherwise be reported as an unknown dual dimension
    monkeypatch.setenv(SIZE_BOUND_ENV, "junk")
    rc, out, err = run(capsys, ["defect", "--matrix", CUBIC])
    assert rc == 2 and out == ""
    assert SIZE_BOUND_ENV in err


def test_defect_on_a_large_cayley_answers_with_an_unknown_dimension(
    capsys, monkeypatch
):
    # the rho bound gives the verdict at once, and the size bound
    # refuses the dimension of n = 22
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    a = discforge.config.cayley([discforge.config.segment(p) for p in (3, 4, 5, 6)])
    start = time.perf_counter()
    rc, out, _ = run(capsys, ["defect", "--matrix", json.dumps(a.matrix.to_lists())])
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert json.loads(out) == {
        "defect": True,
        "witness": {"kind": "no-nonsplitting-flag", "length": 16},
        "dual_dim": None,
        "method": "flag-search",
    }


def test_broken_invariant_is_an_error_line_not_a_traceback(capsys, monkeypatch):
    # a flag whose first flat has the wrong rank fails the witness re-check
    bogus = (Flat(indices=(0,), rank=2, sigma=(0, 0)),)
    monkeypatch.setattr(
        discforge.defect, "find_nonsplitting_flag", lambda cfg, k: bogus
    )
    rc, out, err = run(capsys, ["defect", "--matrix", CUBIC])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: DiscforgeError: flag search returned an invalid witness")
    assert "Traceback" not in err
