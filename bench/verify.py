"""Output checks, outcome classes and output digests.

Every op ends in one of three outcomes:

* ``ok``: the call returned and its output passed every check;
* ``refused``: the call raised a typed ``DiscforgeError``; the CLI
  exits with that class's documented exit code;
* ``failed``: anything else, a wrong or unverifiable output, an
  untyped exception or traceback, a wrong exit code, or a call that ran
  over its budget.

The checks do not trust the route that produced an answer: every
nontrivial discriminant must vanish at seeded Horn-Kapranov points,
fixed inputs must match the goldens byte for byte, and each answer's
canonical-JSON digest must match the one recorded from the seed code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import exact
from workloads import cayley_segments, direction

HERE = Path(__file__).resolve().parent
SEVEN_POINT_GOLDEN = HERE.parent / "tests" / "data" / "d_b_seven_point.json"
DIGESTS = HERE / "digests.json"


class CheckFailed(Exception):
    """An output failed a check; the message says which."""


class BudgetExceeded(BaseException):
    """An op ran past its budget.  A BaseException, so that no
    ``except Exception`` inside the program can swallow it."""


def load_goldens() -> dict:
    goldens = json.loads((HERE / "goldens.json").read_text())
    goldens["seven_point"] = json.loads(SEVEN_POINT_GOLDEN.read_text())
    return goldens


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


def op_key(op: dict) -> str:
    """Names an input independently of workload, seed and position."""
    return digest({"kind": op["kind"], "args": op["args"]})


def classify(exc: BaseException) -> tuple[str, int | None]:
    """Outcome and CLI exit code of an exception raised by an op."""
    from discforge.errors import DiscforgeError

    if isinstance(exc, DiscforgeError):
        return "refused", exc.exit_code
    return "failed", None


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# -- polynomial checks ----------------------------------------------------


def check_poly(poly: dict, expect: dict, goldens: dict, text: str | None = None) -> None:
    """A discriminant in JSON form: golden equality where there is one,
    otherwise nontrivial and vanishing at the Horn-Kapranov points."""
    golden = expect.get("golden")
    if golden is not None:
        ref = goldens[golden]
        if isinstance(ref, str):
            _require(text == ref, f"text differs from golden {golden}")
        else:
            _require(canonical(poly) == canonical(ref), f"differs from golden {golden}")
    _require(
        any(any(t["exps"]) for t in poly["terms"]),
        "constant discriminant for a non-defect input",
    )
    for point in expect["hk"]:
        _require(
            exact.evaluate(poly, point) == 0,
            "does not vanish at a Horn-Kapranov point",
        )


def expected_member(expect: dict, point, goldens: dict) -> bool:
    if "value" in expect:
        return expect["value"]
    return exact.evaluate(goldens[expect["golden"]], point) == 0


def check_flag(rows, witness: dict, m: int) -> None:
    """A non-defect witness: a non-splitting flag of length m - 1 in the
    rational matroid on the dual rows, checked with exact ranks."""
    _require(witness.get("kind") == "flag", "non-defect verdict without a flag")
    flats = witness["flats"]
    _require(len(flats) == max(m - 1, 0), "flag has the wrong length")
    prev: list[int] = []
    for k, flat in enumerate(flats, start=1):
        members = [rows[i] for i in flat]
        _require(set(prev) < set(flat), "flag is not strictly increasing")
        _require(exact.rank(members) == k, "flat has the wrong rank")
        closed = [i for i in range(len(rows)) if exact.rank(members + [rows[i]]) == k]
        _require(closed == sorted(flat), "flat is not closed")
        sigma = [sum(r[c] for r in members) for c in range(len(rows[0]))]
        base = [rows[i] for i in prev]
        _require(
            exact.rank(base + [sigma]) > exact.rank(base),
            "flat sum lies in the span of the previous flat",
        )
        prev = list(flat)


# -- library ops ------------------------------------------------------------


def poly_json(result) -> dict:
    from discforge.poly import poly_to_json_dict

    return poly_to_json_dict(result.poly, result.names)


def check_library(op: dict, value, goldens: dict, gale_rows=None):
    """Check one library op's return value; returns the digested output."""
    kind, expect = op["kind"], op["expect"]
    if kind == "disc":
        poly = poly_json(value)
        check_poly(poly, expect, goldens, text=value.poly.format(value.names))
        return {"poly": poly, "method": value.provenance.get("method")}
    if kind == "member":
        want = expected_member(expect, op["args"]["point"], goldens)
        _require(value is want, f"membership answered {value}, expected {want}")
        return value
    if kind in ("spec", "group"):
        _require(value is expect["value"], f"check answered {value}")
        return value
    if kind == "defect":
        if "defect" in expect:
            _require(value.defect is expect["defect"], f"verdict defect={value.defect}")
        if not value.defect:
            check_flag(gale_rows, value.witness, len(gale_rows[0]))
        return {"defect": value.defect, "method": value.method, "witness": value.witness}
    if kind == "dualdim":
        n = len(op["args"]["matrix"][0])
        _require(isinstance(value, int) and 0 <= value <= n - 2, "dimension out of range")
        return value
    raise ValueError(f"unknown op kind {kind}")


def check_pairs(ops: list[dict], results: list[dict]) -> None:
    """dual_variety_dim(a) < n - 2 exactly when a is defect, wherever a
    pass computed both; a disagreement fails both ops."""
    pairs: dict[str, dict[str, int]] = {}
    for i, op in enumerate(ops):
        if op["kind"] in ("defect", "dualdim") and results[i]["outcome"] == "ok":
            pairs.setdefault(op["expect"]["pair"], {})[op["kind"]] = i
    for idx in pairs.values():
        if len(idx) != 2:
            continue
        n = len(ops[idx["dualdim"]]["args"]["matrix"][0])
        defect = results[idx["defect"]]["output"]["defect"]
        dim = results[idx["dualdim"]]["output"]
        if (dim < n - 2) is not defect:
            for i in idx.values():
                results[i].update(outcome="failed", reason="defect verdict disagrees with dual dimension")


# -- CLI ops ------------------------------------------------------------------


def _matmul_zero(a, b) -> bool:
    return all(
        sum(a[i][j] * b[j][k] for j in range(len(b))) == 0
        for i in range(len(a))
        for k in range(len(b[0]))
    )


def _reduce(rows):
    classes: dict[tuple, list[int]] = {}
    for i, r in enumerate(rows):
        if any(r):
            classes.setdefault(direction(r), []).append(i)
    merged, removed, out = [], [], []
    for cls in sorted(classes.values()):
        s = [sum(rows[i][c] for i in cls) for c in range(len(rows[0]))]
        if any(s):
            merged.append([i + 1 for i in cls])
            out.append(s)
        else:
            removed.append([i + 1 for i in cls])
    return {"matrix": out, "merged": merged, "removed_splitting": removed}


def check_cli(op: dict, code: int, stdout: str, stderr: str, goldens: dict):
    """Check one CLI call; returns the digested output."""
    expect = op["expect"]
    _require("Traceback" not in stderr, "traceback on stderr")
    _require(code in expect["exit"], f"exit code {code}, expected {expect['exit']}")
    check = expect["check"]
    if check == "error":
        _require(stderr.strip() != "", "error exit without a message")
        return {"exit": code}
    if check == "text":
        text = stdout.strip()
        _require(text == goldens[expect["golden"]], "text differs from golden")
        return {"exit": code, "stdout": text}
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckFailed("stdout is not JSON") from None
    if check == "gale":
        a, b = expect["a"], out["matrix"]
        _require(len(b) == len(a[0]), "dual has the wrong row count")
        m = len(a[0]) - exact.rank(a)
        _require(all(len(r) == m for r in b) and exact.rank(b) == m, "dual has the wrong rank")
        _require(_matmul_zero(a, b), "A * B != 0")
    elif check == "dual":
        a, b = out["matrix"], expect["b"]
        _require(exact.rank(a) == len(b) - len(b[0]), "point side has the wrong rank")
        _require(_matmul_zero(a, b), "A * B != 0")
    elif check == "index":
        _require(out["index"] == expect["index"], "wrong index")
    elif check == "reduce":
        want = _reduce(expect["b"])
        _require(all(out[k] == v for k, v in want.items()), "wrong reduction")
    elif check == "cayley":
        _require(out["matrix"] == cayley_segments(expect["lengths"]), "wrong Cayley matrix")
    elif check == "defect":
        dim = out["dual_dim"]
        _require(out["defect"] is True, "Di Rocco fixture classified non-defect")
        _require(isinstance(dim, int) and dim < expect["n"] - 2, "dual dimension contradicts defect")
    elif check == "disc":
        check_poly(out, expect, goldens)
    elif check == "member":
        point = json.loads(op["args"]["argv"][-1])
        want = expected_member(expect, point, goldens)
        _require(out["member"] is want, f"membership answered {out['member']}, expected {want}")
    else:
        raise ValueError(f"unknown CLI check {check}")
    return {"exit": code, "stdout": out}


# -- digests -------------------------------------------------------------------


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def check_digest(result: dict, recorded: dict) -> None:
    """Compare an op's output with the digest recorded from the seed code.

    Only answered ops are recorded.  A recorded input that now ends in a
    refusal has lost its answer and fails; an unrecorded one is checked
    by the other checks alone.
    """
    want = recorded.get(result["key"])
    if want is None or result["outcome"] == "failed":
        return
    if result["outcome"] == "refused":
        result.update(outcome="failed", reason="recorded answer now refused")
    elif result["digest"] != want:
        result.update(outcome="failed", reason="output digest differs from the recorded one")
