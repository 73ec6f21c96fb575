"""qhistories benchmark: one closed-loop client running seeded user tasks.

    python3 perfbench/run.py --workload spin-chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  --trace 0 runs whole decks until --seconds have passed and prints
the end-to-end metrics, at the reference speed described below.  --trace 1
runs a fixed number of decks (from --seconds and the workload's baseline
deck time, so the work is the same on every run), each once traced and
once untraced, prints the per-layer metrics and writes the spans to
perfbench/out/.  The last line of standard
output is the JSON result; the exit status is 0 exactly when every task
passed its check.
"""

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import traceback

# One BLAS thread (nproc or fewer): the tasks' matrices are small, and a
# second thread adds run-to-run noise without speeding them up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread setting)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd().resolve()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2          # extra fresh-process set-ups per untraced run
HELD_OUT_SEED = 271828    # reserved for confirming claims; never tune on it

# Reference work: a fixed mix of numpy calls and interpreter-bound Python
# that does not touch the library.  The host is a shared VM whose speed
# drifts by tens of percent within seconds; the reference work drifts with
# it.  A sample runs before every timed task and after the last.  Every
# time metric is reported at the reference speed: raw seconds * REF_S /
# (reference time around it; for set-ups, the run's median).  REF_S is the
# median reference time on the 2-vCPU VM the benchmark was defined on
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).  The '#' lines give raw times
# too.
_REF_RNG = np.random.default_rng(0)
REF_SMALL = _REF_RNG.normal(size=(4, 4)) + 1j * _REF_RNG.normal(size=(4, 4))
REF_LARGE = _REF_RNG.normal(size=(128, 128)) / 128
REF_S = 0.0072


def reference_work():
    """One reference sample: its wall time in seconds.  About equal parts
    of many small-array numpy calls, 128 x 128 products and a dict loop."""
    start = time.perf_counter()
    a = REF_SMALL
    for _ in range(60):
        a = np.kron(a[:2, :2], REF_SMALL[:2, :2]) * 0.25 + a.T.conj() * 0.5
    b = REF_LARGE
    for _ in range(14):
        b = np.tanh(b @ REF_LARGE + 0.5)
    counts = {}
    for i in range(18000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    return time.perf_counter() - start


def at_reference_speed(times, refs):
    """Scale each task by REF_S over the mean of the reference samples
    just before and just after it: refs[i] and refs[i + 1]."""
    return [t * 2 * REF_S / (refs[i] + refs[i + 1])
            for i, t in enumerate(times)]


def import_library():
    """Import qhistories from ./src and nowhere else."""
    if not (SRC / "qhistories" / "__init__.py").is_file():
        sys.exit(f"error: no qhistories sources under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import qhistories
    if pathlib.Path(qhistories.__file__).resolve().parent != SRC / "qhistories":
        sys.exit(f"error: imported qhistories from {qhistories.__file__}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def environment(seed, workload):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "commit": commit(),
        "src_sha256": source_digest(),
    }


def commit():
    """HEAD of ./.git if the checkout is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qhistories").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Loop:
    """Runs tasks, applies their checks, and keeps the per-task times."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.classes = []
        self.attempted = 0
        self.failed = 0
        self.events = 0
        self.tracer = None
        self.refs = None      # reference samples (seconds), if kept

    def task(self, task):
        """Run one task and record its wall time.  A raise or a failed
        check counts as a failed task and does not stop the run."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_task(self.attempted)
        if self.refs is not None:
            self.refs.append(reference_work())
        start = time.perf_counter()
        try:
            ok, info = self.workload.run(task)
        except Exception:
            ok, info = False, {}
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.classes.append(task["cls"])
        if ok and self.tracer is not None and "steps" in info:
            # each admissibility evaluation builds one Schmidt candidate
            ok = info["steps"] == self.tracer.calls_in_task(
                "selection.schmidt_candidate")
        if not ok:
            self.failed += 1
            print(f"FAILED {json.dumps(task)}", file=sys.stderr)
        elif self.tracer is not None:
            self.events += info.get("events", 0)

    def deck(self, tasks):
        start = len(self.times)
        for t in tasks:
            self.task(t)
        return sum(self.times[start:])


def setup(workload, seed):
    """Everything before the first timed task: the first deck and one
    untimed, checked warm-up task per class.  Returns the warm-up loop."""
    warmup = Loop(workload)
    workload.deck_tasks(seed, 0)
    for task in workload.warmup_tasks(seed):
        warmup.task(task)
    return warmup


def probe_setups(args):
    """Raw set-up times of fresh processes, measured the same way as
    ours."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def timed_run(args, workload, loop):
    """Whole decks until --seconds have passed, with a reference sample
    before every task and one after the last."""
    loop.refs = []
    start = time.perf_counter()
    k = 0
    while True:
        loop.deck(workload.deck_tasks(args.seed, k))
        k += 1
        wall = time.perf_counter() - start
        if wall >= args.seconds:
            loop.refs.append(reference_work())
            return wall


def traced_run(args, workload, loop):
    """Fixed deck pairs, alternating which half is traced first."""
    from tracer import Tracer
    tracer = Tracer()
    pairs = max(1, round(args.seconds / (2 * workload.trace_deck_s)))
    traced_s = untraced_s = 0.0
    for k in range(pairs):
        tasks = workload.deck_tasks(args.seed, k)
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
                loop.tracer = tracer
                try:
                    traced_s += loop.deck(tasks)
                finally:
                    loop.tracer = None
                    tracer.uninstall()
            else:
                untraced_s += loop.deck(tasks)
    metrics = tracer.layer_metrics()
    calls = metrics["selection.schmidt_candidate.calls"][0]
    metrics["selection.events_per_candidate"] = (
        loop.events / calls if calls else 0.0, "ratio")
    metrics["trace.overhead"] = (untraced_s / traced_s, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"# traced {pairs} deck pairs; schmidt_candidate calls = {calls} "
          f"(base of events_per_candidate)")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads as workloads_mod
    if args.workload not in workloads_mod.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads_mod.WORKLOADS)}")
    workload = workloads_mod.WORKLOADS[args.workload]
    warmup = setup(workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:     # the parent run counts warm-up failures
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(workload)

    print("# env " + json.dumps(environment(args.seed, args.workload)))
    if args.trace:
        metrics = traced_run(args, workload, loop)
    else:
        setups = [setup_s] + probe_setups(args)
        wall = timed_run(args, workload, loop)
        passed = loop.attempted - loop.failed
        times = at_reference_speed(loop.times, loop.refs)
        ref_median = statistics.median(loop.refs)
        metrics = {
            "setup_s": (statistics.median(setups) * REF_S / ref_median, "s"),
            "task_s.p50": (statistics.median(times), "s"),
            "task_s.tail": (float(np.percentile(times, workload.tail)), "s"),
            "tasks_per_s": (passed / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        print(f"# {loop.attempted} tasks in {wall:.3f} s; task_s.tail is "
              f"p{workload.tail}; raw set-ups "
              f"{[round(raw, 4) for raw in setups]}; "
              f"failed_ratio {loop.failed / loop.attempted}")
        print(f"# reference work median {ref_median:.6f} s"
              f" (REF_S {REF_S}); raw wall-time p50 "
              f"{statistics.median(loop.times):.4f} s, "
              f"p{workload.tail} "
              f"{float(np.percentile(loop.times, workload.tail)):.4f} s, "
              f"tasks/s {passed / sum(loop.times):.4f}")
        for cls in dict.fromkeys(loop.classes):
            ts = [t for c, t in zip(loop.classes, loop.times) if c == cls]
            print(f"# class {cls}: {len(ts)} tasks, raw median "
                  f"{statistics.median(ts):.4f} s, max {max(ts):.4f} s")
        OUT.mkdir(exist_ok=True)
        (OUT / f"times-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"classes": loop.classes, "times": loop.times,
                        "refs": loop.refs}))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    attempted = loop.attempted + warmup.attempted
    failed = loop.failed + warmup.failed
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
