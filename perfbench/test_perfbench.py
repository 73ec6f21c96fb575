"""Tests of the benchmark itself: seed discipline, oracles, tracer.

    python3 -m pytest -q perfbench

Run from the repository root.  Not part of the library's test suite.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from qhistories import cli, consistency, randmodel, spin  # noqa: E402

CHEAP = {"probs-n4", "probs-n5", "classify-n3", "dheg-n8", "dheg-n9"}


def _in_fresh_process(code, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = "
         f"[{str(ROOT / 'src')!r}, {str(HERE)!r}]\n" + code],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        check=True)
    return proc.stdout


def _task_lists(seed):
    return {name: {"warmup": w.warmup_tasks(seed),
                   "decks": [w.deck_tasks(seed, k) for k in range(3)]}
            for name, w in workloads.WORKLOADS.items()}


LISTS = ("import json, workloads\n"
         "print(json.dumps({n: {'warmup': w.warmup_tasks(7), 'decks': "
         "[w.deck_tasks(7, k) for k in range(3)]} "
         "for n, w in workloads.WORKLOADS.items()}, sort_keys=True))")


def test_task_list_depends_only_on_workload_and_seed():
    first = _in_fresh_process(LISTS, hashseed=1)
    assert first == _in_fresh_process(LISTS, hashseed=2)
    assert json.loads(first) == json.loads(json.dumps(_task_lists(7)))
    assert _task_lists(7) != _task_lists(8)
    for w in workloads.WORKLOADS.values():
        assert sorted(t["cls"] for t in w.deck_tasks(7, 0)) == sorted(w.deck)
        assert [t["cls"] for t in w.warmup_tasks(7)] == list(w.classes)


RECORDS = ("import workloads\n"
           "run_cli = workloads.run_cli\n"
           "def echo(argv):\n"
           "    code, text = run_cli(argv)\n"
           "    print(text, end='')\n"
           "    return code, text\n"
           "workloads.run_cli = echo\n"
           "for w in workloads.WORKLOADS.values():\n"
           "    for t in w.deck_tasks(7, 0):\n"
           "        if t['cls'] in %r:\n"
           "            assert w.run(t)[0]\n"
           % sorted(CHEAP))


def test_cli_records_identical_across_runs():
    first = _in_fresh_process(RECORDS, hashseed=1)
    assert first.count("# spin probs") >= 1 and first.count("# dheg") >= 1
    assert first == _in_fresh_process(RECORDS, hashseed=2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cheap_tasks_pass_their_checks(name):
    w = workloads.WORKLOADS[name]
    tasks = [t for t in w.warmup_tasks(3) if t["cls"] in CHEAP | {
        "quasi-n2", "gram-16", "pairs-32"}]
    for task in tasks:
        ok, _ = w.run(task)
        assert ok, task


def test_oracle_catches_a_wrong_mpv(monkeypatch):
    w = workloads.WORKLOADS["mpv"]
    task = next(t for t in w.warmup_tasks(3) if t["cls"] == "dheg-n8")
    assert w.run(task)[0]
    exact = consistency.mpv_exact
    monkeypatch.setattr(cli, "mpv_exact",
                        lambda D: (exact(D)[0] * (1 + 1e-6), exact(D)[1]))
    assert not w.run(task)[0]


def test_failed_task_is_counted_and_run_continues():
    class Broken:
        def run(self, task):
            if task["cls"] == "raise":
                raise RuntimeError("boom")
            return task["cls"] == "pass", {}

    loop = run.Loop(Broken())
    for cls in ("raise", "fail", "pass"):
        loop.task({"cls": cls})
    assert (loop.attempted, loop.failed) == (3, 2)


def test_reference_speed_cancels_a_uniform_slowdown():
    times = [0.4, 0.1, 0.15, 1.1]
    refs = [run.REF_S] * 5
    assert run.at_reference_speed(times, refs) == pytest.approx(times)
    slow = run.at_reference_speed([2 * t for t in times],
                                  [2 * r for r in refs])
    assert slow == pytest.approx(times)


def test_reference_speed_uses_the_samples_beside_each_task():
    refs = [run.REF_S, 3 * run.REF_S, 3 * run.REF_S]
    assert run.at_reference_speed([1.0, 1.0], refs) \
        == pytest.approx([0.5, 1 / 3])


def _traced(tasks, w):
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        infos = []
        for i, task in enumerate(tasks):
            tr.begin_task(i)
            ok, info = w.run(task)
            assert ok
            infos.append((info, tr.task_calls[:]))
    finally:
        tr.uninstall()
    return tr, infos


def test_tracer_counts_repeat_and_match_the_program():
    w = workloads.WORKLOADS["spin-chain"]
    task = {"cls": "probs-n6", "n": 6, "seed": 5}
    counts = []
    for _ in range(2):
        tr, _ = _traced([task], w)
        metrics = tr.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
        # one unitary per internal node of the 6-level binary tree
        assert metrics["spin.full_unitary.calls"][0] == 2 ** 6 - 1
        assert metrics["histories.decoherence_matrix.histories"][0] == 64
        assert metrics["cli.main.calls"][0] == 1
    assert counts[0] == counts[1]


def test_tracer_sees_name_imports_and_bound_methods():
    w = workloads.WORKLOADS["forward-search"]
    # the search runner on a 2x8 model, smaller than the deck's, for speed
    task = {"cls": "search-2x16", "d1": 2, "d2": 8, "seed": 11}
    tr, [(info, calls)] = _traced([task], w)
    names = tracer_mod.NAMES
    assert calls[names.index("selection.schmidt_candidate")] == info["steps"]
    assert calls[names.index("linalg.HamiltonianFlow.unitary")] > 0
    assert calls[names.index("consistency.mpv_exact")] == 1
    # selection and randmodel import decoherence_matrix by name
    assert calls[names.index("histories.decoherence_matrix")] \
        == info["steps"] + 1
    assert not hasattr(randmodel.run_forward_search, "__wrapped__")
    assert not hasattr(spin.full_unitary, "__wrapped__")
    assert cli.mpv_exact is consistency.mpv_exact
    metrics = tr.layer_metrics()
    for name in names:
        assert metrics[f"{name}.self_s"][0] >= 0.0


def test_bare_directory_fails_without_a_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mpv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=HERE, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
