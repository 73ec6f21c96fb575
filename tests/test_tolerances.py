import ast
import importlib
import inspect

import pytest

from qhistories import consistency, histories, linalg, tolerances

# The value of every threshold before it moved into qhistories.tolerances.
# A constant may tighten but never loosen, and a new constant needs a pin
# here.  A tolerance tightens as it shrinks; the screen's floors (FLOORS)
# tighten as they grow.
PINNED = {
    "NORM_TOL": 1e-10, "HERMITICITY_TOL": 1e-10, "PROJECTOR_TOL": 1e-10,
    "UNIT_VECTOR_TOL": 1e-9, "GENERICITY_TOL": 1e-8, "BLOCH_NORM_TOL": 1e-12,
    "TIME_TOL": 1e-12, "SCHMIDT_WEIGHT_TOL": 1e-12, "DEGENERACY_TOL": 1e-9,
    "TRACE_TOL": 1e-8, "SPLIT_TOL": 1e-12,
    "NEGATIVE_PROBABILITY_TOL": 1e-12, "DISTRIBUTION_SUM_TOL": 1e-8,
    "LIVE_PROBABILITY_TOL": 1e-14, "NULL_STATE_TOL": 1e-12,
    "COMPANION_TOL": 1e-9, "LIMIT_TOL": 1e-9, "EXACT_TOL": 1e-10,
    "PERSISTENCE_TOL": 1e-9, "MPV_GAIN_TOL": 1e-15,
    "MPV_CLOSED_FORM_TOL": 1e-10, "INTEGRITY_TOL": 1e-8,
    "SCREEN_WEIGHT_FLOOR": 1e-9, "SCREEN_GAP_FLOOR": 1e-1,
    "SCREEN_RHO_ERROR": 1e-14,
    "ORACLE_RTOL": 1e-12, "GOLDEN_RTOL": 1e-10,
}

# The floors of selection._Split's Davis-Kahan bound: lowering the gap or
# weight floor, or the assumed error of rho, weakens the bound on how far a
# gapped row's closed-form candidate can sit from its SVD candidate.
FLOORS = {"SCREEN_GAP_FLOOR", "SCREEN_WEIGHT_FLOOR", "SCREEN_RHO_ERROR"}

# Modules whose thresholds all come from qhistories.tolerances.
LINTED = ("linalg", "histories", "consistency", "selection", "randmodel",
          "spin")


def test_no_tolerance_grows():
    names = {k for k in vars(tolerances) if k.isupper()}
    assert names == set(PINNED) and FLOORS <= names
    for name, pinned in PINNED.items():
        value = getattr(tolerances, name)
        if name in FLOORS:
            assert pinned <= value, name
        else:
            assert 0 < value <= pinned, name


def test_the_davis_kahan_bound_fits_the_oracle_tolerance():
    # selection._Split: a gapped row's closed-form projectors sit within
    # eta of an SVD's, so its child probabilities within 2 eta + eta^2 of
    # the SVD candidate's.  The tests hold each closed-form candidate to
    # the SVD reference within eta (test_chunked_scan's _check_candidate),
    # so eta, and the probabilities' bound, must stay well inside
    # ORACLE_RTOL, the tolerance of a fast path against its oracle
    eta = 2 * tolerances.SCREEN_RHO_ERROR / tolerances.SCREEN_GAP_FLOOR
    assert eta <= tolerances.ORACLE_RTOL / 4
    assert 2 * eta + eta ** 2 <= tolerances.ORACLE_RTOL / 2


def test_tolerances_module_imports_nothing():
    tree = ast.parse(inspect.getsource(tolerances))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_old_names_and_exported_defaults_read_the_module():
    assert histories.PROJECTOR_TOL is tolerances.PROJECTOR_TOL
    assert linalg.HERMITICITY_TOL is tolerances.HERMITICITY_TOL
    assert linalg.DEGENERACY_TOL is tolerances.DEGENERACY_TOL
    assert consistency.EXACT_TOL is tolerances.EXACT_TOL
    for func, keyword, name in (
            (linalg.split_degenerate, "tol", "SPLIT_TOL"),
            (consistency.linear_positivity, "tol",
             "NEGATIVE_PROBABILITY_TOL")):
        default = inspect.signature(func).parameters[keyword].default
        assert default == getattr(tolerances, name)


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _bare_thresholds(source):
    """Line numbers of float literals 0 < |x| < 1e-5 other than
    function-signature and dataclass-field defaults."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        defaults = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            defaults = node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None]
        elif (isinstance(node, ast.ClassDef)
              and any(_is_dataclass(d) for d in node.decorator_list)):
            defaults = [s.value for s in node.body
                        if isinstance(s, ast.AnnAssign) and s.value]
        for default in defaults:
            allowed.update(id(n) for n in ast.walk(default))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-5 and id(node) not in allowed]


def test_threshold_lint_sees_a_bare_literal_only():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class C:\n"
              "    tol: float = 1e-8\n"
              "def f(x, tol=1e-9, *, eps=-1e-12):\n"
              "    return x < 1e-14 or x > -1e-12 or x > 1e-3\n")
    assert _bare_thresholds(source) == [6, 6]


@pytest.mark.parametrize("name", LINTED)
def test_no_bare_threshold_literal(name):
    module = importlib.import_module(f"qhistories.{name}")
    assert _bare_thresholds(inspect.getsource(module)) == []


def _names_a_tolerance(node):
    return any(getattr(n, "id", getattr(n, "attr", "")).lower()
               .endswith("_tol") for n in ast.walk(node))


def _nan_passing_guards(source):
    """Line numbers of `<` or `>` comparisons with a *_TOL name in the test
    of an `if` that raises.  NaN makes every such comparison False, so the
    guard lets it through; the `not ... <=` / `not ... >=` form refuses it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If)
                and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        lines += [cmp.lineno for cmp in ast.walk(node.test)
                  if isinstance(cmp, ast.Compare)
                  and any(isinstance(op, (ast.Lt, ast.Gt)) for op in cmp.ops)
                  and _names_a_tolerance(cmp)]
    return sorted(lines)


def test_nan_guard_lint_sees_a_strict_comparison_that_raises_only():
    source = ("def f(x, n, m, tol):\n"
              "    if x > A_TOL:\n"
              "        raise ValueError\n"
              "    if not x <= A_TOL and not x >= -m.B_TOL:\n"
              "        raise ValueError\n"
              "    if x < A_TOL:\n"
              "        return 0\n"
              "    if n > 1 and m.B_TOL * n < x:\n"
              "        raise ValueError\n"
              "    if x > tol:\n"
              "        raise ValueError\n")
    assert _nan_passing_guards(source) == [2, 8]


@pytest.mark.parametrize("name", LINTED)
def test_no_nan_passing_tolerance_guard(name):
    module = importlib.import_module(f"qhistories.{name}")
    assert _nan_passing_guards(inspect.getsource(module)) == []


def test_nan_guard_lint_sees_a_lowercase_tolerance_name():
    source = ("def f(x, norm_tol, tol):\n"
              "    if abs(x - 1.0) > norm_tol:\n"
              "        raise ValueError\n"
              "    if x < self.Split_Tol:\n"
              "        raise ValueError\n"
              "    if x > tol or x < atol:\n"
              "        raise ValueError\n")
    assert _nan_passing_guards(source) == [2, 4]
