"""Command-line front end.

Subcommands: solve (pick a facility for several objectives), bounds
(print guarantee values), gen (write instance files), verify (run a
sweep and emit a report), graph (dump the ratio graph), curves (write
the guarantee curves as CSV).

Exit codes: 0 success, 1 usage error, 2 invalid input or parameters,
3 verification found violations.
"""

import argparse
import json
import math
import sys
import warnings

from . import __version__, jsonutil
from .bounds import beta_q, pair_bound_f, pair_bound_shared
from .errors import CentrumError
from .generators import (
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
)
from .harness import (
    MultiSweepConfig,
    PairSweepConfig,
    check_inequalities,
    emit_bound_curves,
    sweep_multi,
    sweep_pair,
)
from .metric import instance_to_dict, load_instance, save_instance
from .objectives import ratio_graph
from .selection import (
    select_exhaustive,
    select_largest_objective,
    select_multi_graph,
    select_pair,
)

_METHODS = ("pair", "largest", "graph", "exhaustive")
_FAMILIES = ("line", "triangle", "triple", "euclid", "graph")


def _parse_objectives(text: str) -> tuple:
    try:
        ks = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError("objectives must be comma-separated integers")
    if not ks:
        raise argparse.ArgumentTypeError("objectives list is empty")
    return tuple(ks)


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("tol must be a number")
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("tol must be finite and >= 0, got %s" % text)
    return tol


def _emit(payload, out_path=None) -> None:
    if out_path:
        jsonutil.dump_path(payload, out_path)
    else:
        print(jsonutil.dumps(payload))


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance, tol=args.tol)
    ks = args.objectives
    if args.method == "pair":
        if len(ks) != 2:
            raise CentrumError("method pair needs exactly two objectives, got %d" % len(ks))
        result = select_pair(instance, ks[0], ks[1])
    elif args.method == "largest":
        result = select_largest_objective(instance, ks)
    elif args.method == "graph":
        result = select_multi_graph(instance, ks)
    else:
        result = select_exhaustive(instance, ks)
    payload = result.to_jsonable(instance)
    if args.profile:
        payload["profile"] = result.profile.to_jsonable(instance)
    _emit(payload, args.out)
    return 0


def _cmd_bounds(args) -> int:
    lines = []
    if args.pair is not None:
        lines.append(("pair_bound", pair_bound_f(args.pair)))
    if args.shared is not None:
        lines.append(("shared_bound", pair_bound_shared(args.shared)))
    if args.beta is not None:
        lines.append(("beta", beta_q(args.beta)))
    if not lines:
        raise CentrumError("nothing to compute: pass --pair, --shared, or --beta")
    for name, value in lines:
        print("%s %s" % (name, jsonutil.format_float(value)))
    return 0


def _cmd_gen(args) -> int:
    family = args.family
    if family == "line":
        if args.k is None or args.p is None:
            raise CentrumError("line needs -k and -p")
        instance = gen_tight_pair_line(args.k, args.p)
    elif family == "triangle":
        if args.k is None or args.p is None:
            raise CentrumError("triangle needs -k and -p")
        instance = gen_tight_pair_triangle(args.k, args.p)
    elif family == "triple":
        if args.k is None or args.n is None:
            raise CentrumError("triple needs -k and -n")
        instance = gen_tight_triple(args.k, args.n)
    elif family == "euclid":
        if args.n is None or (args.m is None and not args.shared):
            raise CentrumError("euclid needs -n and -m (or --shared)")
        instance = gen_random_euclidean(
            args.n, args.m, dim=args.dim, seed=args.seed, shared=args.shared
        )
    else:
        if args.vertices is None:
            raise CentrumError("graph needs --vertices")
        instance = gen_random_graph_metric(
            args.vertices,
            edge_density=args.density,
            seed=args.seed,
            n_clients=args.n,
            m_facilities=args.m,
        )
    if args.out:
        save_instance(instance, args.out)
        print("wrote %s (%d clients, %d facilities)" % (
            args.out, instance.n_clients, instance.m_facilities))
    else:
        print(jsonutil.dumps(instance_to_dict(instance)))
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "lemmas":
        if not args.instance:
            raise CentrumError("suite lemmas needs an instance file")
        instance = load_instance(args.instance, tol=args.tol)
        ks = args.objectives or tuple(
            sorted({1, max(1, instance.n_clients // 2), instance.n_clients})
        )
        report = check_inequalities(instance, ks, tol=args.tol)
        report.config = {"suite": "lemmas", "objectives": list(ks), "tol": args.tol}
    elif args.suite in ("pair", "shared"):
        config = PairSweepConfig(
            instances=args.instances,
            seed=args.seed,
            shared=args.suite == "shared",
            tol=args.tol,
        )
        report = sweep_pair(config)
    else:
        config = MultiSweepConfig(instances=args.instances, seed=args.seed, tol=args.tol)
        report = sweep_multi(config)
    if args.out:
        report.save(args.out)
        print("report: %s (%s)" % (args.out, report.summary()))
    else:
        print(jsonutil.dumps(report.to_jsonable()))
    return 3 if report.violations_total > 0 else 0


def _cmd_graph(args) -> int:
    instance = load_instance(args.instance, tol=args.tol)
    graph = ratio_graph(instance, args.objectives)
    _emit(graph.to_jsonable(instance), args.out)
    return 0


def _cmd_curves(args) -> int:
    pair_path, beta_path = emit_bound_curves(
        x_max=args.xmax, x_step=args.xstep, q_max=args.qmax, out_dir=args.out_dir
    )
    print("wrote %s and %s" % (pair_path, beta_path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centrum",
        description="Facility selection under several top-k distance objectives.",
    )
    parser.add_argument("--version", action="version", version="centrum %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def tol(p):
        p.add_argument("--tol", type=_parse_tol, default=1e-9,
                       help="relative tolerance for metric and inequality checks")

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="seed for random generation")

    p = sub.add_parser("solve", help="pick one facility for several objectives")
    p.add_argument("instance", help="instance file (.json or .csv)")
    p.add_argument("--objectives", type=_parse_objectives, required=True,
                   help="comma-separated ranks, e.g. 1,5,20")
    p.add_argument("--method", choices=_METHODS, default="graph")
    p.add_argument("--profile", action="store_true",
                   help="include per-facility costs in the output")
    p.add_argument("--out", help="write JSON here instead of stdout")
    tol(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="print guarantee values")
    p.add_argument("--pair", type=float, help="pair bound at x = p/k")
    p.add_argument("--shared", type=float, help="shared-location pair bound at x")
    p.add_argument("--beta", type=int, help="multi bound for q objectives")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("-k", type=int, help="smaller rank (worst-case families)")
    p.add_argument("-p", type=int, help="larger rank (pair families)")
    p.add_argument("-n", type=int, help="client count")
    p.add_argument("-m", type=int, help="facility count")
    p.add_argument("--dim", type=int, default=2, help="dimension for euclidean")
    p.add_argument("--density", type=float, default=0.3, help="extra-edge probability")
    p.add_argument("--vertices", type=int, help="vertex count for graph family")
    p.add_argument("--shared", action="store_true",
                   help="euclidean: facilities on the client points")
    p.add_argument("-o", "--out", help="output path (default: stdout)")
    seed(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run inequality checks or a sweep")
    p.add_argument("--suite", choices=("lemmas", "pair", "multi", "shared"), required=True)
    p.add_argument("--instance", help="instance file for suite lemmas")
    p.add_argument("--objectives", type=_parse_objectives,
                   help="ranks for suite lemmas (default: 1, n/2, n)")
    p.add_argument("--instances", type=int, default=50,
                   help="random instances for the sweep suites")
    p.add_argument("--out", help="write the JSON report here")
    tol(p)
    seed(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", help="dump the ratio graph of an instance")
    p.add_argument("instance", help="instance file (.json or .csv)")
    p.add_argument("--objectives", type=_parse_objectives, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    tol(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("curves", help="write guarantee curves as CSV")
    p.add_argument("--xmax", type=float, default=20.0)
    p.add_argument("--xstep", type=float, default=0.05)
    p.add_argument("--qmax", type=int, default=20)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_curves)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return 0 if exc.code in (0, None) else 1
    with warnings.catch_warnings():  # library callers keep their handler
        warnings.showwarning = lambda message, category, *_: print(
            "warning: %s: %s" % (category.__name__, message), file=sys.stderr)
        try:
            return args.func(args)
        except (CentrumError, OSError, json.JSONDecodeError, MemoryError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(run())
