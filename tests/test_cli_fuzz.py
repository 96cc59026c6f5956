"""Command line contract under random argv: every call ends with exit
code 0, 2, 3 or 4, no traceback, and no stdout on a nonzero exit.

Besides integer matrices the texts include ragged rows, arbitrary JSON,
lists nested deeper than the JSON decoder's recursion limit, and text
that is not JSON at all."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from discforge.cli import main

SIDED = [
    "reduce",
    "defect",
    "dualdim",
    "decompose",
    "discriminant",
    "member",
    "check-specialization",
    "check-grouping",
]
COMMANDS = ["gale", "dual", "index", "cayley"] + SIDED

json_leaf = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.floats(-2, 2),
    st.text("ab1/", max_size=3),
)
json_values = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["matrix", "m"]), inner, max_size=1),
    max_leaves=12,
)


@st.composite
def matrix_texts(draw):
    """Integer matrices with at most 6 rows and 6 columns, bare or under a
    "matrix" key, ragged rows, arbitrary JSON, deeply nested lists, and
    text that is not JSON."""
    kind = draw(st.sampled_from(["matrix", "matrix", "matrix", "ragged", "json", "deep", "junk"]))
    if kind == "matrix":
        nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        row = st.lists(st.integers(-3, 3), min_size=nc, max_size=nc)
        rows = draw(st.lists(row, min_size=nr, max_size=nr))
        if nr > 1 and draw(st.booleans()):
            # a row of ones: a homogeneous point configuration
            rows = [[1] * nc] + rows[:-1]
        return json.dumps({"matrix": rows} if draw(st.booleans()) else rows)
    if kind == "ragged":
        return json.dumps(draw(st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4)))
    if kind == "json":
        return json.dumps(draw(json_values))
    if kind == "deep":
        depth = draw(st.integers(1, 3000))
        return "[" * depth + "]" * depth
    return draw(st.text("[]{},-0123456789 .e\"matrix:", max_size=16))


@st.composite
def argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text"]))]
    if draw(st.booleans()):
        argv += ["--size-bound", str(draw(st.integers(-2, 8)))]
    cmd = draw(st.sampled_from(COMMANDS))
    argv.append(cmd)
    if cmd == "cayley":
        argv.append(draw(st.sampled_from(["1,1,2", "2,2", "3", "", "a", "0,1", "-1,2", "1,,2"])))
    else:
        argv += ["--matrix", draw(matrix_texts())]
    if cmd in SIDED and draw(st.booleans()):
        argv += ["--side", draw(st.sampled_from(["a", "b"]))]
    if cmd == "discriminant" and draw(st.booleans()):
        argv.append("--trace")
    if cmd == "member":
        points = [
            "[1,2,3,4]", "[1,-1,1]", '["1/2",3,1,1]', "[0,1]", "[1.5]", "x", "[" * 2000,
            '["1e5",1,1,1]', '[" 1/2",1,1,1]',
        ]
        argv += ["--point", draw(st.sampled_from(points))]
    index = st.integers(-1, 7).map(str)
    if cmd == "check-specialization":
        argv += ["--j", draw(index)]
    if cmd == "check-grouping":
        argv += ["--k", draw(index), "--l", draw(index)]
    if draw(st.integers(0, 9)) == 0:
        # an unknown flag, or a required one missing
        argv = argv + ["--bogus"] if draw(st.booleans()) else argv[:-1]
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            # argparse rejects the command line
            rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc:
        assert out.getvalue() == "", (argv, rc)
