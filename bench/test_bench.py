"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from discforge import errors  # noqa: E402
from discforge.config import GaleConfiguration  # noqa: E402
from discforge.disc import discriminant  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.generate(workload, 7)
    assert json.dumps(first) == json.dumps(workloads.generate(workload, 7))
    if workload != "defect":
        assert json.dumps(first) != json.dumps(workloads.generate(workload, 8))


def test_baseline_rows_name_generated_ops():
    for op_id in run.BASELINE_ROWS:
        workload = op_id.split("/")[0]
        assert op_id in {op["id"] for op in workloads.generate(workload, 0)}


def test_rank2_slots_have_their_curve_degree():
    # the a-priori degree of each implicitize slot is the program's
    for op in workloads.generate("rank2", 3):
        if "/implicitize-" in op["id"]:
            rows = op["args"]["matrix"]
            result = discriminant(GaleConfiguration(rows))
            assert result.provenance["curve_degree"] == workloads.curve_degree(rows)


def _one_coefficient_changed(poly: dict) -> dict:
    changed = copy.deepcopy(poly)
    changed["terms"][-1]["coeff"] = str(int(changed["terms"][-1]["coeff"]) + 1)
    return changed


@pytest.mark.parametrize("golden,side,matrix", [
    ("cubic", "a", workloads.CUBIC_A),
    ("seven_point", "b", workloads.SEVEN_ROWS),
    ("glue_small", "b", workloads.GLUE_SMALL),
])
def test_check_rejects_one_changed_coefficient(golden, side, matrix):
    goldens = verify.load_goldens()
    rng = random.Random(1)
    expect = {"golden": None, "hk": [exact.fmt(exact.hk_point(rng, side, matrix)) for _ in range(2)]}
    verify.check_poly(goldens[golden], expect, goldens)
    with pytest.raises(verify.CheckFailed):
        verify.check_poly(_one_coefficient_changed(goldens[golden]), expect, goldens)


def test_check_rejects_a_changed_golden():
    goldens = verify.load_goldens()
    op = workloads.generate("rank2", 1)[1]
    assert op["expect"]["golden"] == "seven_point"
    with pytest.raises(verify.CheckFailed, match="golden"):
        verify.check_poly(_one_coefficient_changed(goldens["seven_point"]), op["expect"], goldens)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_classifier_maps_every_typed_error_to_its_exit_code():
    subs = [errors.DiscforgeError, *_subclasses(errors.DiscforgeError)]
    assert len(subs) > 20
    for cls in subs:
        outcome, code = verify.classify(cls("x"))
        assert (outcome, code) == ("refused", cls.exit_code), cls
        assert code in (2, 3, 4)
    assert verify.classify(errors.ParseError("x")) == ("refused", 2)
    assert verify.classify(errors.Unsupported("x")) == ("refused", 4)
    assert verify.classify(errors.NotHomogeneous("x")) == ("refused", 3)
    for exc in (ValueError("x"), AssertionError("x"), verify.BudgetExceeded()):
        assert verify.classify(exc) == ("failed", None)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    layer = set(tracer.metrics(1)) | {
        "cli.spawn_ms", "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_ratio",
    }
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    class Fake:
        passes = [[{"seconds": 0.5, "outcome": "ok"}, {"seconds": 1.5, "outcome": "failed"}]]

    e2e = run.end_to_end(Fake(), [2.0], [{"seconds": 0.1}])
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    assert e2e["settled_frac"][0] == 0.5


def test_calibration_scales_by_the_loops_nearest_each_item(monkeypatch):
    loops = iter([0.02, 0.04, 0.01, 0.03, 0.05])
    monkeypatch.setattr(calibrate, "loop_seconds", lambda: next(loops))
    cal = calibrate.Calibration(every=1.0)
    first, second = {"raw_seconds": 1.2}, {"raw_seconds": 0.1}
    cal.add(first)  # a loop runs after it: 0.04
    cal.add(second)
    assert "seconds" not in first  # scaled on flush, once later loops exist
    cal.flush()  # closing loop: 0.01
    ref = calibrate.REF_S
    assert first["seconds"] == pytest.approx(1.2 * ref / 0.02)  # median of 0.02, 0.04, 0.01
    assert second["seconds"] == pytest.approx(0.1 * ref / 0.02)  # median of 0.02, 0.04, 0.01
    third = {"raw_seconds": 0.5}
    cal.add(third)
    cal.flush()  # closing loop: 0.03
    assert third["seconds"] == pytest.approx(0.5 * ref / 0.03)  # median of 0.04, 0.01, 0.03
    assert cal.loops == [0.02, 0.04, 0.01, 0.03]
