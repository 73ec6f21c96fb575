import io
import math
import tracemalloc

import numpy as np
import pytest

from qhistories import cli, histories, spin
from qhistories.histories import (HistoryTree, ProjectiveDecomposition,
                                  decoherence_matrix)
from qhistories.linalg import RandomStream
from qhistories.tolerances import MPV_CLOSED_FORM_TOL, ORACLE_RTOL


def _run(argv):
    buf = io.StringIO()
    import contextlib
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_fmt_and_parse_token_roundtrip():
    for v in (0.123456789012, 3, True, False, "label", 1e-300, -2.5e17):
        assert cli._parse_token(cli.fmt(v)) == v
    # floats survive to 12 significant digits
    assert cli._parse_token(cli.fmt(0.1234567890123)) \
        == pytest.approx(0.1234567890123, rel=1e-12)


def test_fmt_and_parse_records_change_the_type_of_some_values():
    # the record format as it stands: a float that prints as an integer
    # comes back an int (-0.0 as 0, sign lost); a complex comes back as text
    buf = io.StringIO()
    cli.emit_records(buf, "types", {"one": 1.0, "zero": -0.0},
                     ["one", "zero", "z"], [[1.0, -0.0, complex(1, -2)]])
    assert buf.getvalue().splitlines()[1:] == [
        "# one = 1", "# zero = -0", "one zero z", "1 -0 1-2j"]
    _, meta, _, rows = cli.parse_records(buf.getvalue())
    assert meta == {"one": 1, "zero": 0} and rows == [[1, 0, "1-2j"]]
    assert [type(v) for v in rows[0]] == [int, int, str]
    assert [type(v) for v in meta.values()] == [int, int]
    assert math.copysign(1.0, rows[0][1]) == 1.0


def test_emit_parse_roundtrip():
    buf = io.StringIO()
    meta = {"n": 4, "eps": 0.05, "tag": "demo"}
    rows = [[1, 0.5, "a"], [2, 0.25, "b"]]
    cli.emit_records(buf, "sample", meta, ["i", "p", "name"], rows)
    title, got_meta, cols, got_rows = cli.parse_records(buf.getvalue())
    assert title == "sample"
    assert got_meta == meta
    assert cols == ["i", "p", "name"]
    assert got_rows == rows


def test_bounds_command():
    code, out = _run(["bounds", "--d-max", "6"])
    assert code == 0
    title, meta, cols, rows = cli.parse_records(out)
    assert title == "bounds"
    assert cols == ["d", "eps", "upper", "lower"]
    for d, eps, upper, lower in rows:
        assert upper == 2 * d + 1
        assert lower <= upper


def test_bounds_header_names_the_eps_its_rows_use():
    # an explicit --eps 0 is written as 0, and auto only when it is absent
    for argv, want in ((["--eps", "0"], 0), (["--eps", "0.1"], 0.1),
                       ([], "auto")):
        code, out = _run(["bounds", "--d-max", "3"] + argv)
        assert code == 0
        _, meta, _, rows = cli.parse_records(out)
        assert meta["eps"] == want
        if want != "auto":
            assert [r[1] for r in rows] == [want] * len(rows)


def test_zeno_command():
    code, out = _run(["zeno", "--n", "100", "--theta", "1.0"])
    assert code == 0
    _, _, _, rows = cli.parse_records(out)
    assert [r[0] for r in rows] == ["X", "Y", "offdiag"]


def test_dheg_command():
    code, out = _run(["dheg", "--n", "3", "--eps", "0.1"])
    assert code == 0
    _, meta, _, rows = cli.parse_records(out)
    vals = dict((r[0], r[1]) for r in rows)
    assert vals["mpv_exact"] == pytest.approx(vals["mpv_closed_form"],
                                              abs=1e-10)


def test_dheg_scans_each_frame_alone():
    # 40 histories, past a whole-matrix scan's cap of 26: two blocks of 20
    code, out = _run(["dheg", "--n", "20", "--eps", "0.01"])
    assert code == 0
    _, meta, _, rows = cli.parse_records(out)
    vals = dict((r[0], r[1]) for r in rows)
    assert abs(vals["mpv_exact"] - 0.095) <= MPV_CLOSED_FORM_TOL
    assert meta["witness_size"] == 20


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_spin_classify_shares_prefixes_bit_for_bit(monkeypatch, n, seed):
    # each catalogue set is scored with the other children of its prefix,
    # from the prefix tree's frame as the walk stepped it; every row must
    # be the set's own unshared prefix chain, stepped from a fresh tree
    # one prefix time at a time and the set alone scored as a stack of
    # one, to the bit
    emitted = []
    monkeypatch.setattr(cli, "emit_records",
                        lambda out, title, meta, columns, rows:
                        emitted.append(rows))
    assert cli.main(["spin", "classify", "--n", str(n),
                     "--seed", str(seed)]) == 0
    [rows] = emitted
    cfg = cli._random_axes(n, cli.RandomStream(seed, "spin-classify"))
    root = HistoryTree(spin.initial_state(cfg), spin.chain_evolution(cfg))
    want = []
    for form, times in spin.enumerate_consistent_sets(cfg):
        if times:
            *chain, last = [
                ProjectiveDecomposition(t, spin._axis_pair(w), check=False)
                for t, w in spin.measurement_events(cfg, times)]
            tree = root
            for dec in chain:
                tree = spin._score_children(tree, [dec], [0])[1][0]
            violations, _ = spin._score_children(tree, [last])
            want.append([form, len(times), float(violations[0])])
    assert rows == want


def test_spin_commands():
    code, out = _run(["spin", "classify", "--n", "2", "--seed", "3"])
    assert code == 0
    _, meta, _, _ = cli.parse_records(out)
    assert meta["worst"] < 1e-8

    code, out = _run(["spin", "probs", "--n", "3", "--seed", "3"])
    assert code == 0
    _, meta, _, rows = cli.parse_records(out)
    assert meta["max_abs_diff"] < 1e-9
    assert abs(sum(r[1] for r in rows) - 1.0) < 1e-9

    code, out = _run(["spin", "maxinfo", "--n", "3", "--seed", "3"])
    assert code == 0

    code, out = _run(["spin", "montecarlo", "--n", "3", "--samples", "20000",
                      "--seed", "0"])
    assert code == 0
    _, _, _, rows = cli.parse_records(out)
    assert abs(rows[0][1] - 0.857) < 0.02


def test_spin_recoherence_command():
    code, out = _run(["spin", "recoherence"])
    assert code == 0
    _, meta, _, rows = cli.parse_records(out)
    assert meta["return_distance"] < 1e-10
    assert meta["latest_event"] <= math.pi + 1e-6


def test_random_commands():
    code, out = _run(["random", "run", "--tmax", "1.0", "--seed", "5"])
    assert code == 0
    title, meta, cols, rows = cli.parse_records(out)
    assert meta["termination"] in ("t_max", "max_steps", "max_histories")

    code, out = _run(["random", "analyse", "--tmax", "1.0", "--seed", "5"])
    assert code == 0
    _, _, _, rows = cli.parse_records(out)
    vals = dict((r[0], r[1]) for r in rows)
    assert vals["integrity"] is True
    assert vals["mpv"] <= vals["mpv_upper"]


def test_dist_check_command():
    code, out = _run(["dist", "check", "--samples", "5000"])
    assert code == 0
    _, _, _, rows = cli.parse_records(out)
    for law, ks, crit in rows:
        assert ks < crit


def test_selftest_command():
    code, out = _run(["selftest"])
    assert code == 0
    _, _, _, rows = cli.parse_records(out)
    assert all(r[1] is True for r in rows)


def test_out_file_and_config(tmp_path):
    conf = tmp_path / "run.ini"
    conf.write_text("[dheg]\nn = 5\neps = 0.1\n")
    outfile = tmp_path / "records.txt"
    code = cli.main(["--config", str(conf), "--out", str(outfile), "dheg"])
    assert code == 0
    title, meta, _, _ = cli.parse_records(outfile.read_text())
    assert meta["n"] == 5
    assert meta["eps"] == 0.1
    # explicit flags beat the config file
    code = cli.main(["--config", str(conf), "--out", str(outfile),
                     "dheg", "--n", "2"])
    assert code == 0
    _, meta, _, _ = cli.parse_records(outfile.read_text())
    assert meta["n"] == 2



def test_parser_is_shared_but_each_call_keeps_its_own_defaults(tmp_path):
    # the parser is built once; a --config/--out call must not leave its
    # values behind for the next call
    assert cli.build_parser() is cli.build_parser()
    conf = tmp_path / "run.ini"
    conf.write_text("[dheg]\nn = 5\neps = 0.1\n")
    outfile = tmp_path / "records.txt"
    assert cli.main(["--config", str(conf), "--out", str(outfile),
                     "dheg"]) == 0
    code, out = _run(["dheg"])
    assert code == 0
    _, meta, _, _ = cli.parse_records(out)
    assert meta["n"] == 4
    assert meta["eps"] == 0.05
    assert cli.parse_records(outfile.read_text())[1]["n"] == 5


def test_explicit_flags_beat_the_config_in_every_spelling(tmp_path):
    conf = tmp_path / "run.ini"
    conf.write_text("[dheg]\nn = 6\neps = 0.1\n"
                    "[random.run]\nmax-histories = 4\n")
    code, out = _run(["--config", str(conf), "dheg", "--n=3", "--ep", "0.2"])
    assert code == 0
    _, meta, _, _ = cli.parse_records(out)
    assert (meta["n"], meta["eps"]) == (3, 0.2)
    for flags in (["--max-histories=2"], ["--max-hist", "2"],
                  ["--max-hist=2"], ["--max-histories", "2"], []):
        argv = ["--config", str(conf), "random", "run"] + flags
        args = cli.build_parser().parse_args(argv)
        cli._load_config(str(conf), args.section, args, argv)
        assert args.max_histories == (2 if flags else 4)


def test_config_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.ini"
    conf.write_text("[dheg]\nbogus = 1\n")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--config", str(conf), "dheg"])
    assert exit_info.value.code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv, problem", [
    (["random", "run", "--eps", "-0.1"], "epsilon"),
    (["random", "run", "--delta", "1.5"], "delta"),
    (["random", "run", "--sigma", "-1"], "sigma"),
    (["spin", "probs", "--n", "0"], "axes must have shape"),
    (["dheg", "--n", "1"], "n >= 2"),
    # each frame is one block of 27 histories, past the per-block cap
    (["dheg", "--n", "27", "--eps", "0.01"], "exhaustive cap"),
    (["zeno", "--n", "0"], "n >= 1"),
    # no bound holds at these, so every row was skipped: an empty table
    (["bounds", "--eps", "nan"], "--eps must lie in [0, 1)"),
    (["bounds", "--eps", "2"], "--eps must lie in [0, 1)"),
    # no draws: a nan fraction and two RuntimeWarnings
    (["spin", "montecarlo", "--samples", "0"], "samples >= 1"),
    # no draws: numpy's error on an empty reduction
    (["dist", "check", "--samples", "0"], "samples >= 1"),
])
def test_bad_input_exits_2_with_a_message(argv, problem, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "qhist: error:" in err and problem in err
    assert "Traceback" not in err


def test_spin_probs_prints_the_trees_leaf_probabilities():
    # the tree column is the tree's leaf probabilities as fmt prints them,
    # not a 2^n x 2^n decoherence matrix's diagonal: they equal that
    # diagonal to within ORACLE_RTOL, in the same order
    for n in range(1, 9):
        code, text = _run(["spin", "probs", "--n", str(n), "--seed", "3"])
        assert code == 0
        _, _, cols, rows = cli.parse_records(text)
        cfg = cli._random_axes(n, RandomStream(3, "spin-probs"))
        tree = spin.build_tree(cfg,
                               spin.measurement_events(cfg, range(1, n + 1)))
        probs, D = tree.probabilities(), decoherence_matrix(tree)
        assert len(rows) == 2 ** n
        assert [row[cols.index("tree")] for row in rows] \
            == [cli._parse_token(cli.fmt(p)) for p in probs]
        assert np.max(np.abs(probs - D.diag)) <= ORACLE_RTOL * D.diag.max()


def test_spin_probs_past_the_leaf_state_cap_exits_2_at_once(capsys):
    # n = 12 holds 2^13 x 2^12 leaf-state entries, the cap itself; n = 13
    # would hold four times that, and is refused before its tree is
    # extended at all, with one error line and exit status 2
    histories._check_leaf_states(2 ** 13, 2 ** 12)
    assert 2 ** 13 * 2 ** 12 == histories.LEAF_STATE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["spin", "probs", "--n", "13"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error" in line]
    assert len(errors) == 1 and "qhist: error:" in errors[0]
    assert f"{2 ** 27} entries, past the leaf-state cap" in errors[0]
    # a few copies of the initial state, of 2^14 entries, at most
    assert peak < 8 * 16 * 2 ** 14


def test_spin_recoherence_past_the_cap_on_its_gram_stacks_exits_2(
        monkeypatch, capsys):
    # at eps = 2 and delta = 0 every time is admissible, so each event
    # doubles the leaves; with the cap lowered to 2^12 entries, the one-time
    # scan chunk over 64 leaves, whose Gram stack is 2 x 64^2 entries, is
    # refused with one error line and exit status 2 (the default cap is not
    # run here: it lets the leaves reach 4096, whose Gram stack of one time
    # is 2^25 entries, 512 MiB)
    monkeypatch.setattr(histories, "LEAF_STATE_CAP", 2 ** 12)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["spin", "recoherence", "--eps", "2", "--delta", "0"])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error" in line]
    assert len(errors) == 1 and "qhist: error:" in errors[0]
    assert (f"over 64 leaves needs an array of {2 * 64 ** 2} entries, "
            f"past the leaf-state cap {2 ** 12}") in errors[0]


# Edge values of the options, each with the text its error line must hold:
# the option's name or its value.  The first nine are the edge values the
# commands refuse by name; the last five are the bad inputs of CI's
# Packaging job.
_EDGE_VALUES = [
    ("random run --sigma inf", "sigma"),
    ("spin recoherence --eps inf", "--eps"),
    ("spin probs --n -1", "--n"),
    ("spin classify --n -1", "--n"),
    ("dist check --k 0 --samples 50", "k=0"),
    ("dist check --d 0 --samples 50", "d=0"),
    ("bounds --d-max -1", "--d-max"),
    ("zeno --theta nan", "--theta"),
    ("selftest --seed -1", "--seed"),
    ("random run --eps -0.1", "-0.1"),
    ("bounds --eps nan", "--eps"),
    ("spin montecarlo --samples 0", "samples"),
    ("dheg --n 27 --eps 0.01", "27"),
    ("dist check --samples 0", "samples"),
]


@pytest.mark.parametrize("argv,named", _EDGE_VALUES,
                         ids=[argv for argv, _ in _EDGE_VALUES])
def test_an_edge_value_exits_2_with_one_error_line_naming_it(capsys, argv,
                                                            named):
    # exit status 2 and one "qhist: error:" line that names the option or
    # its value, with no record printed (so no NaN record) and no
    # traceback
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv.split())
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("qhist: error:")
    assert named in errors[0], errors[0]
