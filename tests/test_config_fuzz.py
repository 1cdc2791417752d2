"""Config fuzzing: one key of a working config replaced by a wrong value.

The bases are the bundled configs, run through `verify --check douglas`, and
the construct inputs of _support.py.  Each has every optional top-level
section filled in, so that those keys are fuzzed too.  Whatever the
replacement, `main` must end in a documented exit code with no exception
escaping: 1 only from `verify` with a report whose verdict is "fail"; 2, 3 and
4 with stderr exactly one `config error:`, `numeric failure:` or
`regularity failure:` line.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _support import CONSTRUCT_INPUTS, OVERFLOWING_TABLE
from finslerlab.cli import main

HERE = Path(__file__).resolve().parent
BUNDLED = sorted((HERE.parent / "configs").glob("*.json"))

OPTIONAL = {"tolerances": {"isotropy": 1e-7, "douglas": 1e-6}, "oracle": {"points": 3},
            "seed": 7, "output": {"path": "report.json"}}

BASES = [(["verify", "--check", "douglas"], json.loads(p.read_text())) for p in BUNDLED]
BASES += [(["construct", "--family", family],
           {"n": 2, "metric": {"kind": "general", "phi": "1"}, "construct": body})
          for family, body in CONSTRUCT_INPUTS.items()]
BASES = [(argv, {**OPTIONAL, **body}) for argv, body in BASES]

#: the one stderr line of each failure exit begins with its prefix
PREFIX = {2: "config error: ", 3: "numeric failure: ", 4: "regularity failure: "}

WRONG = ["", "x", "1", "bh", True, False, None, [], [1.0], [2.0, 1.0], ["a", 1.2], {},
         {"table": {}}, float("nan"), float("inf"), float("-inf"), -3, -0.5, 0, 0.0, 2.5,
         10**18, 10**400, OVERFLOWING_TABLE]


def _paths(node, prefix=()):
    """Every key path and list index below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replace(node, path, value):
    body = json.loads(json.dumps(node))
    at = body
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return body


@st.composite
def mutations(draw):
    argv, base = draw(st.sampled_from(BASES))
    path = draw(st.sampled_from(list(_paths(base))))
    return argv, path, _replace(base, path, draw(st.sampled_from(WRONG)))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


#: family_k with r_domain [0.8, 1e18]: its table starts a panel at each decade, so it exits 0
_FAMILY_WIDE_DOMAIN = (BASES[0][0], ("metric", "r_domain", 1),
                       _replace(BASES[0][1], ("metric", "r_domain", 1), 10**18))


@given(mutations())
@example(_FAMILY_WIDE_DOMAIN)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_one_wrong_value_ends_in_a_documented_exit(work, case):
    argv, path, body = case
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(body))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a fuzzed output.path is written relative to here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(cfg)])
        assert code in (0, 1, 2, 3, 4), (path, code)
        if code in PREFIX:
            text = err.getvalue()
            assert text.startswith(PREFIX[code]) and text.count("\n") == 1 \
                and text.endswith("\n"), (path, code, text)
        if code == 1:
            assert argv[0] == "verify", path
            report = out.getvalue() or Path(body["output"]["path"]).read_text()
            assert json.loads(report)["verdict"] == "fail", path
    finally:
        os.chdir(cwd)
