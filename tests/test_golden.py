"""Golden record corpus: the printed output of fixed qhist invocations and
of the five demos, checked against the texts in tests/golden/.

Records are compared through parse_records.  Titles, keys, column names,
strings, booleans and integers must match exactly; a float must lie within
GOLDEN_RTOL of the golden value, relative to the largest magnitude of its
column (a metadata value is its own column).  Demo output is compared line
by line the same way, with the numbers of a line as its column and a scale
of at least 1: the demos print probabilities, informations and times of
order 1 next to roundoff residues.  A few record fields are set by roundoff
alone; each is named in ROUNDOFF and checked against an invariant, not a
value.  Every invocation also runs twice in one process and must print the
same text both times.

After a change that moves an output on purpose, regenerate the corpus with
tests/golden/regen.py and list every changed line in CHANGES.md.
"""

import contextlib
import io
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qhistories import cli, constructions
from qhistories.tolerances import GOLDEN_RTOL

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

INVOCATIONS = [
    ["random", "run"],
    ["random", "analyse", "--d1", "2", "--d2", "16", "--seed", "12"],
    ["random", "run", "--d1", "2", "--d2", "4", "--seed", "5"],
    ["random", "analyse", "--d1", "3", "--d2", "9", "--seed", "1",
     "--eps", "0.9", "--max-histories", "64"],
    ["spin", "recoherence"],
    ["spin", "classify", "--n", "3", "--seed", "1"],
    ["spin", "probs", "--n", "6", "--seed", "1"],
    ["spin", "maxinfo", "--n", "5", "--seed", "2"],
    ["spin", "montecarlo", "--n", "4", "--samples", "20000", "--seed", "1"],
    ["dheg", "--n", "10", "--eps", "0.01"],
    ["zeno", "--n", "200"],
    ["bounds", "--d-max", "10"],
    ["selftest"],
]
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def invocation_path(argv):
    return GOLDEN / ("_".join(a.lstrip("-").replace("-", "_")
                              for a in argv) + ".txt")


def demo_path(stem):
    return GOLDEN / f"demo_{stem}.txt"


def run_invocation(argv):
    """(exit status, printed records) of `qhist argv`, run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def run_demo(stem):
    """stdout of demos/<stem>.py, run with RuntimeWarnings as errors."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "demos" / f"{stem}.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- fields set by roundoff ----------------------------------------------

def _witness_attains_mpv(meta, rows, key):
    # a whole frame and the same frame plus a history whose cross entries
    # are exactly 0 tie, so the witness size is decided by roundoff; some
    # subset of the reported size must attain the reported MPV
    R = constructions.frame_pair_matrix(meta["n"], meta["eps"]).entries.real
    subsets = np.array(list(itertools.combinations(range(len(R)),
                                                   meta[key])))
    X = np.zeros((len(subsets), len(R)))
    X[np.arange(len(subsets))[:, None], subsets] = 1.0
    f = np.einsum("si,ij,sj->s", X, R, X) - X @ np.diag(R)
    mpv = dict((r[0], r[1]) for r in rows)["mpv_exact"]
    assert abs(np.max(np.abs(f)) - mpv) <= GOLDEN_RTOL * mpv


def _within(bound):
    def check(meta, rows, key):
        values = [meta[key]] if key in meta else [r[key] for r in rows]
        assert all(0 <= v <= bound for v in values), (key, values)
    return check


# (title, metadata key or column index) -> invariant(meta, rows, key)
ROUNDOFF = {
    # the tree and the closed form differ by rounding: the command's bound
    ("spin probs", "max_abs_diff"): _within(1e-9),
    # every classification-allowed set is exactly consistent: the bound
    ("spin classify", "worst"): _within(1e-8),
    ("spin classify", 2): _within(1e-8),
    # the cycle returns to the initial state exactly: the bound
    ("spin recoherence", "return_distance"): _within(1e-10),
    ("dheg", "witness_size"): _witness_attains_mpv,
}


# -- comparison ----------------------------------------------------------

def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _assert_same(got, want, scale, where):
    if isinstance(got, int) and isinstance(want, int) \
            and not isinstance(got, bool) and not isinstance(want, bool):
        assert got == want, where
    elif _number(got) and _number(want):
        assert abs(got - want) <= GOLDEN_RTOL * scale, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _scale(values):
    return max([abs(v) for v in values if _number(v)], default=0.0)


def assert_records_match(got_text, want_text):
    title, meta, columns, rows = cli.parse_records(got_text)
    w_title, w_meta, w_columns, w_rows = cli.parse_records(want_text)
    assert (title, columns, sorted(meta)) == (w_title, w_columns,
                                              sorted(w_meta))
    assert [len(r) for r in rows] == [len(r) for r in w_rows]
    for key in sorted(meta):
        if (title, key) in ROUNDOFF:
            ROUNDOFF[title, key](meta, rows, key)
        else:
            _assert_same(meta[key], w_meta[key], abs(w_meta[key])
                         if _number(w_meta[key]) else 0.0, key)
    for j, name in enumerate(columns or []):
        if (title, j) in ROUNDOFF:
            ROUNDOFF[title, j](meta, rows, j)
            continue
        scale = _scale([r[j] for r in w_rows])
        for i, (row, w_row) in enumerate(zip(rows, w_rows)):
            _assert_same(row[j], w_row[j], scale, (name, i))


_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def assert_demo_matches(got_text, want_text):
    got_lines, want_lines = got_text.splitlines(), want_text.splitlines()
    assert len(got_lines) == len(want_lines)
    for i, (line, w_line) in enumerate(zip(got_lines, want_lines)):
        parts, w_parts = _NUMBER.split(line), _NUMBER.split(w_line)
        assert parts[0::2] == w_parts[0::2], (i, line, w_line)
        numbers = [cli._parse_token(p) for p in parts[1::2]]
        w_numbers = [cli._parse_token(p) for p in w_parts[1::2]]
        scale = max(1.0, _scale(w_numbers))
        for got, want in zip(numbers, w_numbers):
            _assert_same(got, want, scale, (i, w_line))


# -- the corpus ----------------------------------------------------------

@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_invocation_matches_its_golden_records(argv):
    code, text = run_invocation(argv)
    assert code == 0
    assert run_invocation(argv) == (code, text)     # bit for bit
    assert_records_match(text, invocation_path(argv).read_text())


@pytest.mark.parametrize("stem", DEMOS)
def test_demo_matches_its_golden_output(stem):
    assert_demo_matches(run_demo(stem), demo_path(stem).read_text())


def test_corpus_holds_exactly_the_listed_outputs():
    want = {invocation_path(a).name for a in INVOCATIONS} \
        | {demo_path(s).name for s in DEMOS}
    assert len(DEMOS) == 5
    assert {p.name for p in GOLDEN.glob("*.txt")} == want


def test_comparison_refuses_a_moved_digit_and_a_flipped_verdict():
    text = invocation_path(INVOCATIONS[2]).read_text()    # two events
    title, meta, columns, rows = cli.parse_records(text)
    moved = [[r[0] + 1e-9] + r[1:] for r in rows]
    buf = io.StringIO()
    cli.emit_records(buf, title, meta, columns, moved)
    with pytest.raises(AssertionError):
        assert_records_match(buf.getvalue(), text)
    selftest = invocation_path(["selftest"]).read_text()
    with pytest.raises(AssertionError):
        assert_records_match(selftest.replace("true", "false", 1), selftest)
    demo = demo_path("spin_chain_sets").read_text()
    with pytest.raises(AssertionError):
        assert_demo_matches(demo.replace("86.0%", "86.1%"), demo)
    # roundoff residues on an order-1 demo line pass
    assert_demo_matches(demo.replace("1.74e-17", "2.5e-17"), demo)
