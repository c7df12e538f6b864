"""Command-line driver: reproducible experiments with machine-readable reports.

Subcommands: ingest, walks, ppr, cluster, compare-baseline, oracle-check.
Every run command requires --seed; every JSON report embeds the resolved
configuration, the seed, and the package version, so re-running a report's
config reproduces it byte-identically. --config FILE (before the subcommand)
reads key=value lines keyed by flag name; each becomes that flag right after
the subcommand, so it is checked like one, an unknown key exits 2, and typed
flags win. store_true flags are written `strict=true`.

Exit codes: 0 success; 1 algorithmic failure (abort-mode stitch failure,
fewer usable walks than --M, a failing oracle check, budgets whose segments
do not fit in memory or in int32 indices); 2 usage or parse error
(bad flag or config line; --seed outside [0, 2^64); --root or --seed-vertex
outside the graph; length above 2^14; malformed, non-UTF-8 or missing input
file, or a vertex twice in a budget file; a graph cache that is truncated,
corrupt, or has unsorted, duplicate, self-loop or one-way adjacency); 3
capacity violation in strict mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import __version__, fixtures, oracle
from .engine import (EngineError, ParameterError, StitchParams, desk_params,
                     run_budgeted, run_multi_source, theory_params,
                     uniform_stitching, validate_walks)
from .graph import Graph, GraphError, load_cache, load_edge_list, save_cache
from .mpc import CapacityError, Cluster, ClusterConfig, ClusterConfigError
from .ppr import (PPRError, PPRParams, WalkBatch, WalkShortfall, approx_ppr,
                  local_cluster, sweep)
from .vectors import ScoreVector

EXIT_OK = 0
EXIT_ALGO = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


class UsageError(ValueError):
    pass


# -- input files -------------------------------------------------------------

@contextmanager
def open_text(path: str):
    """Open an input file as UTF-8 text; undecodable bytes are a UsageError."""
    try:
        with open(path, encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_lines(path: str) -> Iterator[Tuple[str, str]]:
    """Yield ("path:lineno", stripped line) for each line that is neither
    blank nor a '#' comment."""
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield f"{path}:{lineno}", line


def to_ints(where: str, tokens: Sequence[str]) -> List[int]:
    """Tokens as signed 64-bit integers; anything else is a UsageError."""
    try:
        vals = [int(t) for t in tokens]
        if all(-(1 << 63) <= v < 1 << 63 for v in vals):
            return vals
    except ValueError:
        pass
    raise UsageError(f"{where}: expected 64-bit integers in {' '.join(tokens)!r}")


_FLAG_KEYS = {"strict", "verify", "timings"}   # store_true flags


def read_config_file(path: str) -> List[str]:
    """Flat key=value file as command-line tokens: `--key=value`, or a bare
    `--key` for a store_true key set to 1, true, yes or on."""
    tokens: List[str] = []
    for where, line in read_lines(path):
        key, eq, val = line.partition("=")
        key, val = key.strip().replace("_", "-"), val.strip()
        if not eq or not key.replace("-", "_").isidentifier():
            raise UsageError(f"{where}: expected key=value with a flag name as key")
        if key not in _FLAG_KEYS:
            tokens.append(f"--{key}={val}")
        elif val.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{key}")
    return tokens


def splice_config(argv: List[str]) -> List[str]:
    """argv with the --config file's tokens put right after the subcommand,
    so that flags typed on the command line still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    probe.add_argument("command", nargs="?")
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = probe.parse_known_args(argv)
    if not known.config or known.command is None:
        return argv
    head = len(argv) - len(known.rest)
    return argv[:head] + read_config_file(known.config) + argv[head:]


def resolved_config(args: argparse.Namespace) -> Dict[str, object]:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _json_fraction(obj: object) -> List[int]:
    """A Fraction as [numerator, denominator]; json.dumps rejects anything else."""
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report(path: str | None, payload: dict, args: argparse.Namespace,
                 wall_clock: float | None = None) -> dict:
    report = {
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": resolved_config(args),
    }
    report.update(payload)
    if wall_clock is not None and getattr(args, "timings", False):
        report["wall_clock_sec"] = wall_clock
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_fraction) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if wall_clock is not None and not getattr(args, "timings", False):
        print(f"wall clock: {wall_clock:.2f}s", file=sys.stderr)
    return report


def load_graph(path: str) -> Graph:
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == b"LWG1":
        return load_cache(path)
    with open_text(path) as f:
        return load_edge_list(f)


def read_budget_file(path: str) -> Dict[int, int]:
    """Multi-source budgets from "vertex budget" lines, one line per vertex."""
    budgets: Dict[int, int] = {}
    for where, line in read_lines(path):
        toks = line.split()
        if len(toks) != 2:
            raise UsageError(f"{where}: expected 'vertex budget'")
        vertex, budget = to_ints(where, toks)
        if vertex in budgets:
            raise UsageError(f"{where}: vertex {vertex} already has a budget")
        budgets[vertex] = budget
    return budgets


# -- walk files --------------------------------------------------------------

def write_walk_file(path: str, blocks) -> None:
    """Write (cycle, status, rows) blocks one walk per line:
    "root cycle status v0 v1 ... vl", status ok or failed@k for walks whose
    continuation at label k ran dry."""
    with open(path, "w") as f:
        for cycle, status, rows in blocks:
            for row in rows:
                f.write(f"{row[0]} {cycle} {status} "
                        + " ".join(str(v) for v in row) + "\n")


def read_walk_file(path: str, root: int | None = None) -> np.ndarray:
    """Rows of ok walks (optionally restricted to one root)."""
    rows: List[List[int]] = []
    for where, line in read_lines(path):
        toks = line.split()
        if len(toks) < 4:
            raise UsageError(f"{where}: malformed walk line")
        first, _cycle, *verts = to_ints(where, toks[:2] + toks[3:])
        if toks[2] != "ok" or (root is not None and first != root):
            continue
        if rows and len(verts) != len(rows[0]):
            raise UsageError(f"{where}: inconsistent walk length")
        rows.append(verts)
    if not rows:
        raise UsageError(f"{path}: no usable walks" +
                         (f" for root {root}" if root is not None else ""))
    return np.asarray(rows, dtype=np.int64)


# -- shared parameter assembly ----------------------------------------------

def seed_value(text: str) -> int:
    """A --seed: an integer in [0, 2^64), the key space of the substreams,
    so that no two accepted seeds run the same streams."""
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"{seed} is outside [0, 2^64)")
    return seed


def make_cluster(args) -> Cluster:
    return Cluster(ClusterConfig(num_machines=args.machines,
                                 machine_capacity=args.capacity,
                                 enforce_capacity=args.strict))


def make_stitch_params(args, g: Graph) -> StitchParams:
    if args.param_mode == "theory":
        return theory_params(g.n, args.length, args.growth, args.confidence,
                             target=args.target, scale=args.scale,
                             laziness=args.laziness, fail_policy=args.fail_policy)
    return desk_params(length=args.length, target=args.target, growth=args.growth,
                       threshold=args.theta, base_budget=args.b0, tau=args.tau,
                       laziness=args.laziness, fail_policy=args.fail_policy,
                       mode=args.mode)


def add_run_args(p: argparse.ArgumentParser, csv_help: str) -> None:
    """Flags of every run command: graph, simulated cluster, seed, outputs."""
    p.add_argument("--graph", required=True, help="edge-list file or LWG1 cache")
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--capacity", type=int, default=1 << 62,
                   help="words per machine per round")
    p.add_argument("--strict", action="store_true",
                   help="abort on capacity violation instead of recording it")
    p.add_argument("--seed", type=seed_value, required=True)
    p.add_argument("--csv", help=csv_help)
    p.add_argument("--report", help="metrics JSON path (default stdout)")
    p.add_argument("--timings", action="store_true",
                   help="embed wall clock in the report (breaks byte-reproducibility)")


def add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, default=8, help="walk length (rounded to 2^j)")
    p.add_argument("--target", type=int, default=1000, help="rooted walks wanted")
    p.add_argument("--growth", type=float, default=10.0)
    p.add_argument("--param-mode", choices=("desk", "theory"), default="desk")
    p.add_argument("--theta", type=float, default=100.0)
    p.add_argument("--b0", type=float, default=20.0)
    p.add_argument("--tau", type=float, default=1.4)
    p.add_argument("--confidence", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--mode", choices=("theory", "practical"), default="practical",
                   help="bucketed vs pooled serving (desk param-mode only)")
    p.add_argument("--laziness", choices=("none", "half"), default="none")
    p.add_argument("--fail-policy", choices=("abort", "tolerate"), default="tolerate")


# -- subcommands --------------------------------------------------------------

def cmd_ingest(args) -> int:
    with open_text(args.edge_list) as f:
        g = load_edge_list(f)
    save_cache(g, args.cache)
    print(f"n={g.n} m={g.m}")
    return EXIT_OK


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")


def cmd_walks(args) -> int:
    g = load_graph(args.graph)
    cluster = make_cluster(args)
    params = make_stitch_params(args, g)
    t0 = time.perf_counter()
    if args.budgets:
        for flag, value in (("--dump-budgets", args.dump_budgets), ("--csv", args.csv)):
            if value:
                raise UsageError(f"{flag} does not apply to a --budgets (multi-source) run")
        budgets = read_budget_file(args.budgets)
        multi = run_multi_source(g, budgets, params, cluster=cluster, seed=args.seed)
        wall = time.perf_counter() - t0
        if args.out:
            cycles_of = {r: res.metrics.cycles
                         for res in multi.group_results for r in res.roots}
            write_walk_file(args.out, ((cycles_of[root], "ok", multi.walks_by_root[root])
                                       for root in sorted(multi.walks_by_root)))
        payload = {
            "metrics": asdict(multi.metrics),
            "params": asdict(params),
            "shortfall": {str(k): v for k, v in sorted(multi.shortfall.items())},
            "walks_per_root": {str(k): int(multi.walks_by_root[k].shape[0])
                               for k in sorted(multi.walks_by_root)},
        }
        write_report(args.report, payload, args, wall)
        return EXIT_OK

    if args.root is None:
        raise UsageError("need --root (or --budgets for multi-source)")
    run = run_budgeted(g, args.root, params, cluster=cluster, seed=args.seed)
    wall = time.perf_counter() - t0
    if args.out:
        cycle = run.metrics.cycles
        write_walk_file(args.out, [(cycle, "ok", run.walks)] + [
            (cycle, f"failed@{(1 << (phase - 1)) + 1}", chunk)
            for phase, chunk in run.failed_walks])
    if args.dump_budgets:
        vs, ks = np.nonzero(run.budgets)
        _write_csv(args.dump_budgets, "vertex,label,budget",
                   zip(vs.tolist(), (ks + 1).tolist(), run.budgets[vs, ks].tolist()))
    if args.csv:
        _write_csv(args.csv,
                   "cycle,budget_total,rooted_attempted,rooted_ok,failure_rate",
                   ((s.cycle, s.budget_total, s.rooted_attempted, s.rooted_ok,
                     s.failure_rate) for s in run.cycle_stats))
    ok = int(run.walks.shape[0])
    payload = {"metrics": asdict(run.metrics),
               "params": asdict(params),
               "walks_ok": ok,
               "shortfall": max(0, params.target - ok),
               "walks_valid": validate_walks(g, run.walks, params.lazy)}
    write_report(args.report, payload, args, wall)
    return EXIT_OK


def cmd_ppr(args) -> int:
    g = load_graph(args.graph)
    if args.verify and g.n > oracle.ORACLE_MAX_N:
        raise UsageError(f"--verify needs n <= {oracle.ORACLE_MAX_N}")
    if not 0 <= args.root < g.n:
        raise UsageError(f"--root {args.root} out of range [0, {g.n})")
    t0 = time.perf_counter()
    if args.ppr_mode == "theory":
        if args.eta is None:
            raise UsageError("theory mode needs --eta")
        pparams = PPRParams.theory(g.n, args.alpha, args.eta)
    else:
        pparams = PPRParams.desk(args.alpha, args.T, args.M)

    payload: Dict[str, object] = {}
    if args.alpha >= 1.0:
        q = ScoreVector.indicator(args.root, g.n)
    else:
        if args.walks:
            verts = read_walk_file(args.walks, root=args.root)
            if verts.min() < 0 or verts.max() >= g.n:
                raise UsageError(f"{args.walks}: vertex ids must lie in [0, {g.n})")
            lazy = args.laziness == "half"
            if not validate_walks(g, verts, lazy=lazy):
                raise UsageError(f"{args.walks}: a walk step is not an edge of the graph")
            batch = WalkBatch(verts, lazy=lazy)
        elif args.target is not None:
            args_length = max(args.length, pparams.T)
            engine_args = argparse.Namespace(**vars(args))
            engine_args.length = args_length
            engine_args.laziness = "half"
            params = make_stitch_params(engine_args, g)
            cluster = make_cluster(args)
            run = run_budgeted(g, args.root, params, cluster=cluster, seed=args.seed)
            batch = WalkBatch(run.walks, lazy=True)
            payload["params"] = asdict(params)
        else:
            raise UsageError("need --walks FILE or engine params (--target ...)")
        q = approx_ppr(g, args.root, pparams, batch)

    wall = time.perf_counter() - t0
    supp = q.support()
    for path in (args.out, args.csv):
        if path:
            _write_csv(path, "vertex,score", zip(supp.tolist(), q.dense[supp].tolist()))
    payload.update({
        "root": args.root, "alpha": args.alpha, "T": pparams.T, "M": pparams.M,
        "mass": q.mass(), "support_size": len(q),
    })
    if args.verify:
        exact = oracle.exact_ppr(g, args.root, args.alpha)
        err = float(np.abs(q.to_dense(g.n) - exact).max())
        payload["max_abs_error_vs_exact"] = err
    write_report(args.report, payload, args, wall)
    return EXIT_OK


def cmd_cluster(args) -> int:
    g = load_graph(args.graph)
    cluster = make_cluster(args)
    t0 = time.perf_counter()
    res = local_cluster(g, args.seed_vertex, args.alpha, args.target_volume,
                        T=args.T, M=args.M, cluster=cluster, seed=args.seed)
    wall = time.perf_counter() - t0
    if args.out:
        with open(args.out, "w") as f:
            for v in res.cut:
                f.write(f"{v}\n")
    if args.csv:
        _write_csv(args.csv, "prefix,vertex,phi",
                   ((j, v, "" if phi is None else phi)
                    for j, (v, phi) in enumerate(
                        zip(res.sweep.ordering, res.sweep.phi_list), start=1)))
    write_report(args.report, asdict(res), args, wall)
    return EXIT_OK


def cmd_compare_baseline(args) -> int:
    g = load_graph(args.graph)
    t0 = time.perf_counter()
    params = make_stitch_params(args, g)
    local = run_budgeted(g, args.root, params, cluster=make_cluster(args),
                         seed=args.seed)
    b0_uniform = max(1, -(-args.target // int(g.degrees[args.root])))  # ceil
    baseline = uniform_stitching(g, b0_uniform, params.length,
                                 cluster=make_cluster(args), seed=args.seed,
                                 tau=args.baseline_tau, laziness=args.laziness)
    wall = time.perf_counter() - t0
    ratio = baseline.total_budget / local.metrics.total_budget
    # each algorithm's numbers, in CSV column order
    rows = {"budgeted": {"total_budget": local.metrics.total_budget,
                         "supersteps": local.metrics.supersteps,
                         "rooted_ok": local.metrics.rooted_ok},
            "uniform": {"total_budget": baseline.total_budget,
                        "supersteps": baseline.metrics.supersteps,
                        "rooted_ok": int(baseline.ok_per_vertex[args.root])}}
    if args.csv:
        _write_csv(args.csv, ",".join(["algorithm", *rows["budgeted"]]),
                   ((name, *row.values()) for name, row in rows.items()))
    payload = {
        "walk_target": args.target,
        "local": rows["budgeted"],
        "baseline": {**rows["uniform"], "b0_per_degree": b0_uniform},
        "budget_ratio": ratio,
        "params": asdict(params),
    }
    write_report(args.report, payload, args, wall)
    return EXIT_OK


# -- oracle-check -------------------------------------------------------------

def _check_c8_walks() -> bool:
    g = fixtures.cycle_graph(8)
    params = desk_params(length=4, target=10_000, growth=10.0, threshold=10.0,
                         base_budget=20.0, tau=1.5)
    run = run_budgeted(g, 0, params, seed=7)
    if run.walks.shape[0] < 10_000 or not validate_walks(g, run.walks, False):
        return False
    walks = run.walks[:10_000]
    for t in range(1, 5):
        emp = np.bincount(walks[:, t], minlength=g.n) / walks.shape[0]
        if oracle.tvd(emp, oracle.exact_step_dist(g, 0, t)) > 0.05:
            return False
    return True


def _check_ppr_k2() -> bool:
    g = fixtures.path_graph(2)
    p = oracle.exact_ppr(g, 0, 0.5)
    if abs(p[0] - 0.75) > 1e-9 or abs(p[1] - 0.25) > 1e-9:
        return False
    return oracle.ppr_residual(g, p, 0, 0.5) < 1e-12


def _check_k3_paths() -> bool:
    g = fixtures.complete_graph(3)
    paths = oracle.enumerate_walks(g, 0, 2)
    if len(paths) != 4 or any(pr != Fraction(1, 4) for pr in paths.values()):
        return False
    marg = np.zeros(3)
    for path, pr in paths.items():
        marg[path[2]] += float(pr)
    return oracle.tvd(marg, oracle.exact_step_dist(g, 0, 2)) < 1e-12


def _check_cliques_cut() -> bool:
    g = fixtures.two_cliques(4)
    members, phi = oracle.brute_conductance_min(g)
    if phi != Fraction(1, 13):
        return False
    q = ScoreVector.from_dense(oracle.exact_ppr(g, 1, 0.1))
    return sweep(g, q).phi_exact == Fraction(1, 13)


ORACLE_CHECKS = {
    "c8-walks": _check_c8_walks,
    "ppr-k2": _check_ppr_k2,
    "k3-paths": _check_k3_paths,
    "cliques-cut": _check_cliques_cut,
}


def cmd_oracle_check(args) -> int:
    names = list(ORACLE_CHECKS) if args.fixture == "all" else [args.fixture]
    for name in names:
        if name not in ORACLE_CHECKS:
            raise UsageError(f"unknown fixture {name!r}; "
                             f"choose from {', '.join(ORACLE_CHECKS)} or all")
    failures = 0
    for name in names:
        ok = ORACLE_CHECKS[name]()
        print(f"{name:<14} {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_ALGO


# -- main ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="walkstitch", description=__doc__)
    ap.add_argument("--config", help="flat key=value config file; CLI flags override")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an edge list into a binary cache")
    p.add_argument("edge_list")
    p.add_argument("cache")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("walks", help="generate rooted walks")
    add_run_args(p, "per-cycle stats CSV (plot-ready)")
    p.add_argument("--root", type=int)
    p.add_argument("--budgets", help="multi-source budget file: 'vertex budget' lines")
    add_engine_args(p)
    p.add_argument("--out", help="walk output file")
    p.add_argument("--dump-budgets", help="final-cycle budget CSV")
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("ppr", help="approximate personalized PageRank")
    add_run_args(p, "alias of --out (plot-ready scores)")
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--T", type=int, default=64)
    p.add_argument("--M", type=int, default=50_000)
    p.add_argument("--ppr-mode", choices=("desk", "theory"), default="desk")
    p.add_argument("--walks", help="reuse a walk file instead of running the engine")
    add_engine_args(p)
    p.add_argument("--out", help="score CSV path")
    p.add_argument("--verify", action="store_true",
                   help="report max abs error vs the exact solver (small graphs)")
    p.set_defaults(func=cmd_ppr, target=None)

    p = sub.add_parser("cluster", help="seeded sweep-cut clustering")
    add_run_args(p, "sweep prefix conductances CSV (plot-ready)")
    p.add_argument("--seed-vertex", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--target-volume", type=int, required=True)
    p.add_argument("--T", type=int, default=64)
    p.add_argument("--M", type=int, default=50_000)
    p.add_argument("--out", help="cut set file, one vertex per line")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("compare-baseline",
                       help="budget cost of rooted walks vs uniform stitching")
    add_run_args(p, "per-algorithm cost table CSV (plot-ready)")
    p.add_argument("--root", type=int, required=True)
    add_engine_args(p)
    p.add_argument("--baseline-tau", type=float, default=1.0)
    p.set_defaults(func=cmd_compare_baseline)

    p = sub.add_parser("oracle-check", help="run oracle-backed invariant suites")
    p.add_argument("fixture", help=f"one of {', '.join(ORACLE_CHECKS)} or all")
    p.set_defaults(func=cmd_oracle_check)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(splice_config(argv))
        return args.func(args)
    except (EngineError, WalkShortfall, MemoryError) as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return EXIT_ALGO
    except (UsageError, GraphError, ParameterError, PPRError, ClusterConfigError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
