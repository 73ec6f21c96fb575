"""Command-line front end.

Subcommands expose the main computations as plain-text line records:
comment lines (#) echoing the run parameters, a column-name line, then
whitespace-separated rows with 12 significant digits.  parse_records
reads the records of one invocation back to those 12 digits, but not
always to the same type: a float that prints as an integer (1.0 as "1",
-0.0 as "-0") parses back as an int, losing the sign of -0.0, and a
complex parses back as its text.  Exit status is
0 exactly when every reported check passes, 1 when one fails, and 2 for
bad input: a ValueError from the arguments, the config file or the
computation is reported as "qhist: error: <message>" on stderr.
"""

import argparse
import configparser
import functools
import itertools
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import constructions as ctor
from . import distributions as dist_mod
from . import randmodel
from . import selection
from . import spin as spin_mod
from .consistency import consistency_report, mpv_exact
from .histories import decoherence_matrix
from .linalg import RandomStream, sample_unit_vector
from .tolerances import MPV_CLOSED_FORM_TOL


def fmt(x):
    """12-significant-digit text form of a scalar."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def emit_records(out, title, meta, columns, rows):
    out.write(f"# {title}\n")
    for key in sorted(meta):
        out.write(f"# {key} = {fmt(meta[key])}\n")
    out.write(" ".join(columns) + "\n")
    for row in rows:
        out.write(" ".join(fmt(v) for v in row) + "\n")


def _parse_token(tok):
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_records(text):
    """Inverse of emit_records: (title, meta, columns, rows)."""
    title, meta, columns, rows = None, {}, None, []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = _parse_token(val.strip())
            elif title is None:
                title = body
            continue
        if columns is None:
            columns = line.split()
        else:
            rows.append([_parse_token(t) for t in line.split()])
    return title, meta, columns, rows


def _load_config(path, section, args, argv):
    """Apply [section] keys of an INI file; explicit flags keep priority in
    any form argparse accepts, seen by parsing argv again without defaults."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    if not cp.has_section(section):
        return
    parsers = [build_parser.__wrapped__()]    # fresh: the cached is shared
    for p in parsers:
        for action in p._actions:
            action.default = argparse.SUPPRESS
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    given = vars(parsers[0].parse_args(argv))
    for key, raw in cp.items(section):
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r} in [{section}]")
        if dest not in given:
            setattr(args, dest, _parse_token(raw))


# -- subcommands ---------------------------------------------------------

def cmd_bounds(args, out):
    # a row is skipped where its bound does not hold, so an eps that no
    # bound accepts is refused here, not printed as an empty table
    if args.eps is not None and not 0.0 <= args.eps < 1.0:
        raise ValueError(f"--eps must lie in [0, 1), got {args.eps}")
    if not args.d_max >= 1:
        raise ValueError(f"--d-max must be at least 1, got {args.d_max}")
    rows = []
    ok = True
    for d in range(1, args.d_max + 1):
        eps = args.eps if args.eps is not None else 1.0 / (2 * d)
        try:
            upper = bounds_mod.packing_upper_bound(d, eps, args.criterion)
        except ValueError:
            continue
        lower = bounds_mod.shannon_lower_bound(d, eps, args.criterion)
        rows.append([d, eps, upper, lower])
        ok = ok and lower <= upper + 1e-9
    emit_records(out, "bounds",
                 {"criterion": args.criterion,
                  "eps": "auto" if args.eps is None else args.eps,
                  "d_max": args.d_max}, ["d", "eps", "upper", "lower"], rows)
    return ok


def cmd_zeno(args, out):
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    rows = []
    ok = True
    for subset in ("X", "Y"):
        v = ctor.zeno_violation(args.n, args.theta, subset)
        lim = ctor.zeno_violation_limit(args.theta, subset)
        rows.append([subset, v, lim, abs(v - lim)])
        ok = ok and abs(v - lim) <= 5.0 / args.n
    maxod = ctor.zeno_max_offdiag(args.n, args.theta)
    bound = args.theta ** 2 / args.n ** 2
    rows.append(["offdiag", maxod, bound, max(0.0, maxod - bound)])
    ok = ok and maxod <= bound * (1 + 1e-9)
    emit_records(out, "zeno", {"n": args.n, "theta": args.theta},
                 ["quantity", "value", "reference", "gap"], rows)
    return ok


def cmd_dheg(args, out):
    D = ctor.frame_pair_matrix(args.n, args.eps)
    val, witness = mpv_exact(D)
    closed = ctor.frame_pair_mpv(args.n, args.eps)
    rep = consistency_report(D.entries)
    rows = [["mpv_exact", val], ["mpv_closed_form", closed],
            ["max_weak_offdiag", rep.max_weak_violation],
            ["overlap_ratio", rep.dhp]]
    ok = abs(val - closed) <= MPV_CLOSED_FORM_TOL
    emit_records(out, "dheg",
                 {"n": args.n, "eps": args.eps,
                  "witness_size": len(witness)},
                 ["quantity", "value"], rows)
    return ok


def _random_axes(n, rng):
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    vecs = [sample_unit_vector(3, "real", rng.stream(f"axis{i}"))
            for i in range(n + 1)]
    return spin_mod.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))


def cmd_spin_classify(args, out):
    cfg = _random_axes(args.n, RandomStream(args.seed, "spin-classify"))
    # each set's max_medium is the largest off-diagonal |G| of the two Gram
    # blocks of its last split, read with the other children of its prefix
    # from the prefix's tree (spin.classify_catalogue); no D is built
    rows = [[form, len(times), medium] for form, times, medium
            in spin_mod.classify_catalogue(cfg)]
    worst = max([0.0] + [row[2] for row in rows])
    emit_records(out, "spin classify",
                 {"n": args.n, "seed": args.seed, "stream": "spin-classify",
                  "worst": worst},
                 ["form", "n_times", "max_medium"], rows)
    return worst < 1e-8


def _spin_probs(cfg, times):
    """(tree, closed form): the probabilities of every history of the
    spin chain's measurement tree at the integer times, in leaves() order,
    read from the tree (HistoryTree.probabilities) and from the closed
    form's product over all histories (spin.history_probabilities)."""
    tree = spin_mod.build_tree(cfg, spin_mod.measurement_events(cfg, times))
    return tree.probabilities(), spin_mod.history_probabilities(cfg, times)


def cmd_spin_probs(args, out):
    cfg = _random_axes(args.n, RandomStream(args.seed, "spin-probs"))
    n = cfg.n
    # 2^n leaf states of dimension 2^(n+1): n = 12 is the largest tree
    # within histories.LEAF_STATE_CAP
    if n > 12:
        raise ValueError(f"--n must be at most 12, got {n}")
    times = tuple(range(1, n + 1))
    probs, closed = _spin_probs(cfg, times)
    worst = float(np.max(np.abs(closed - probs)))
    # leaves() order: the sign at the first time outermost, + before -
    rows = [["".join(signs), p, cf] for signs, p, cf in zip(
        itertools.product("+-", repeat=n), probs.tolist(), closed.tolist())]
    emit_records(out, "spin probs",
                 {"n": n, "seed": args.seed, "stream": "spin-probs",
                  "max_abs_diff": worst},
                 ["history", "tree", "closed_form"], rows)
    return worst < 1e-9


def cmd_spin_maxinfo(args, out):
    cfg = _random_axes(args.n, RandomStream(args.seed, "spin-maxinfo"))
    res = selection.max_information_select(cfg)
    rows = [[f"S_{k}", E, t] for k, (E, t) in sorted(res["per_k"].items())]
    rows.append(["chain", res["chain"], float(args.n)])
    emit_records(out, "spin maxinfo",
                 {"n": args.n, "seed": args.seed, "stream": "spin-maxinfo",
                  "best": res["best"][0], "best_k": res["best"][1] or 0,
                  "best_value": res["best"][2]},
                 ["set", "information", "time"], rows)
    return True


def cmd_spin_montecarlo(args, out):
    frac = spin_mod.sn_selection_fraction(
        args.n, args.samples, RandomStream(args.seed, "spin-montecarlo"))
    emit_records(out, "spin montecarlo",
                 {"n": args.n, "samples": args.samples, "seed": args.seed,
                  "stream": "spin-montecarlo"},
                 ["n", "fraction_last_set"], [[args.n, frac]])
    return True


def cmd_spin_recoherence(args, out):
    # an infinite eps admits every time, and the events pass pi
    if not math.isfinite(args.eps):
        raise ValueError(f"--eps must be finite, got {args.eps}")
    u = np.array([0.0, 0.0, 1.0])
    a1, a2 = math.sqrt(0.7), math.sqrt(0.3)
    model = selection.recoherence_model(a1, a2, u)
    sel = selection.earliest_time_select(model, args.eps, args.delta,
                                         3 * math.pi / 2)
    psi_back = spin_mod.recoherence_evolve(a1, a2, u, 3 * math.pi / 2)
    ret = float(np.linalg.norm(
        psi_back - spin_mod.recoherence_initial_state(a1, a2, u)))
    rows = [[t] for t in sel.times]
    emit_records(out, "spin recoherence",
                 {"eps": args.eps, "delta": args.delta,
                  "return_distance": ret,
                  "latest_event": max(sel.times) if sel.times else 0.0},
                 ["event_time"], rows)
    return ret < 1e-10 and all(t <= math.pi + 1e-6 for t in sel.times)


def _run_config(args):
    return randmodel.RunConfig(
        d1=args.d1, d2=args.d2, sigma=args.sigma, seed=args.seed,
        epsilon=args.eps, delta=args.delta, t_max=args.tmax,
        max_histories=args.max_histories)


def cmd_random_run(args, out):
    config = _run_config(args)
    rec = randmodel.run_forward_search(config)
    rows = [[ev.time, len(ev.probabilities), ev.report.max_medium_violation,
             ev.report.dhp] for ev in rec.events]
    emit_records(out, "random run",
                 {"d1": args.d1, "d2": args.d2, "sigma": args.sigma,
                  "seed": args.seed, "eps": args.eps, "delta": args.delta,
                  "tmax": args.tmax, "streams": "hamiltonian,state",
                  "termination": rec.termination, "steps": rec.steps},
                 ["time", "n_histories", "max_medium", "overlap_ratio"], rows)
    return True


def cmd_random_analyse(args, out):
    config = _run_config(args)
    rec = randmodel.run_forward_search(config)
    an = randmodel.analyse_run(rec)
    rows = [["n_events", an.n_events], ["n_histories", an.n_histories],
            ["max_medium", an.report.max_medium_violation],
            ["overlap_ratio", an.report.dhp],
            ["entropy", an.entropy],
            ["mpv", an.mpv],
            ["mpv_exact", an.mpv_exact],
            ["mpv_upper", an.mpv_upper],
            ["integrity", an.integrity]]
    emit_records(out, "random analyse",
                 {"d1": args.d1, "d2": args.d2, "sigma": args.sigma,
                  "seed": args.seed, "eps": args.eps, "delta": args.delta,
                  "tmax": args.tmax, "termination": rec.termination},
                 ["quantity", "value"], rows)
    return an.integrity


def _ks_distance(samples, cdf):
    xs = np.sort(samples)
    n = xs.size
    theo = np.array([cdf(x) for x in xs])
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(emp_hi - theo)), np.max(np.abs(theo - emp_lo))))


def cmd_dist_check(args, out):
    d, k = args.d, args.k
    dist_mod._check_kd(k, d)    # before an empty array is reduced
    if k == d:      # the sum is 1, a point mass that 1 +- ulp straddles
        raise ValueError(f"need k < d, got k={k}, d={d}")
    if not args.samples >= 1:
        raise ValueError(f"need samples >= 1, got {args.samples}")
    rng = RandomStream(args.seed, "dist-check")
    g = rng.generator
    z = g.normal(size=(args.samples, d)) + 1j * g.normal(size=(args.samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    comp = np.abs(z[:, :k]) ** 2
    sums = comp.sum(axis=1)
    maxs = comp.max(axis=1)
    ks_sum = _ks_distance(sums, lambda x: dist_mod.component_sum_cdf(x, k, d,
                                                                    "complex"))
    ks_max = _ks_distance(maxs, lambda x: dist_mod.max_component_cdf_complex(
        x, k, d))
    crit = 1.63 / math.sqrt(args.samples)   # 1% Kolmogorov critical value
    rows = [["sum", ks_sum, crit], ["max", ks_max, crit]]
    ok = ks_sum < crit and ks_max < crit
    emit_records(out, "dist check",
                 {"d": d, "k": k, "samples": args.samples, "seed": args.seed,
                  "stream": "dist-check"},
                 ["law", "ks_distance", "critical_1pct"], rows)
    return ok


def cmd_selftest(args, out):
    checks = []

    D = ctor.frame_pair_matrix(4, 0.05)
    checks.append(("frame_pair_mpv",
                   abs(mpv_exact(D)[0] - ctor.frame_pair_mpv(4, 0.05))
                   <= MPV_CLOSED_FORM_TOL))

    tree = ctor.zeno_tree(6, 0.9)
    Dz = decoherence_matrix(tree)
    g, _ = ctor.zeno_class_amplitudes(6, 0.9)
    worst = 0.0
    for label, p in zip(Dz.labels, Dz.diag):
        m = ctor.zeno_history_class([1 if i == 0 else -1 for i in label])
        worst = max(worst, abs(p - g[m] ** 2))
    checks.append(("zeno_classes", worst < 1e-12))

    probs, closed = _spin_probs(
        _random_axes(3, RandomStream(args.seed, "selftest")), (1, 2, 3))
    checks.append(("spin_probs", float(np.max(np.abs(closed - probs)))
                   < 1e-10))

    B = bounds_mod.simplex_packing(3)
    G = B @ B.T
    off = G[~np.eye(7, dtype=bool)]
    checks.append(("simplex_dots", float(np.max(np.abs(off + 1.0 / 6))) < 1e-12))

    checks.append(("jacobi_dominance",
                   bounds_mod.verify_jacobi_inequality(2.0, "beta=0")[0]))

    rows = [[name, ok] for name, ok in checks]
    emit_records(out, "selftest", {"seed": args.seed}, ["check", "pass"], rows)
    return all(ok for _, ok in checks)


# -- argument wiring -----------------------------------------------------

@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="qhist",
                                description="consistent-histories toolkit")
    p.add_argument("--config", help="INI file whose [subcommand] section "
                   "supplies defaults")
    p.add_argument("--out", help="write records to this file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds")
    sp.set_defaults(func=cmd_bounds, section="bounds")
    sp.add_argument("--d-max", type=int, default=10)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--criterion", default="weak", choices=["weak", "medium"])

    sp = sub.add_parser("zeno")
    sp.set_defaults(func=cmd_zeno, section="zeno")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--theta", type=float, default=1.0)

    sp = sub.add_parser("dheg")
    sp.set_defaults(func=cmd_dheg, section="dheg")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--eps", type=float, default=0.05)

    spin = sub.add_parser("spin")
    spin_sub = spin.add_subparsers(dest="spin_command", required=True)

    for name, func, n in [("classify", cmd_spin_classify, 3),
                          ("probs", cmd_spin_probs, 4),
                          ("maxinfo", cmd_spin_maxinfo, 4)]:
        sp = spin_sub.add_parser(name)
        sp.set_defaults(func=func, section=f"spin.{name}")
        sp.add_argument("--n", type=int, default=n)
        sp.add_argument("--seed", type=int, default=0)

    sp = spin_sub.add_parser("montecarlo")
    sp.set_defaults(func=cmd_spin_montecarlo, section="spin.montecarlo")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)

    sp = spin_sub.add_parser("recoherence")
    sp.set_defaults(func=cmd_spin_recoherence, section="spin.recoherence")
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--delta", type=float, default=0.05)

    rnd = sub.add_parser("random")
    rnd_sub = rnd.add_subparsers(dest="random_command", required=True)
    for name, func in [("run", cmd_random_run), ("analyse", cmd_random_analyse)]:
        sp = rnd_sub.add_parser(name)
        sp.set_defaults(func=func, section=f"random.{name}")
        sp.add_argument("--d1", type=int, default=2)
        sp.add_argument("--d2", type=int, default=4)
        sp.add_argument("--sigma", type=float, default=1.0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--eps", type=float, default=0.05)
        sp.add_argument("--delta", type=float, default=0.02)
        sp.add_argument("--tmax", type=float, default=2.0)
        sp.add_argument("--max-histories", type=int, default=16)

    dist = sub.add_parser("dist")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    sp = dist_sub.add_parser("check")
    sp.set_defaults(func=cmd_dist_check, section="dist.check")
    sp.add_argument("--d", type=int, default=8)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("selftest")
    sp.set_defaults(func=cmd_selftest, section="selftest")
    sp.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _load_config(args.config, args.section, args, argv)
        if not getattr(args, "seed", 0) >= 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if args.out:
            with open(args.out, "w") as fh:
                ok = args.func(args, fh)
        else:
            ok = args.func(args, sys.stdout)
    except ValueError as exc:
        parser.error(str(exc))      # exit status 2, no traceback
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
