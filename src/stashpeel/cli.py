"""stashpeel command line: peel, solve, reduce, lift, verify, generate.

Exit codes: 0 success, 1 infeasible (cap exceeded or a failed gadget
check), 2 input error: a missing or unreadable file, bytes that are not
UTF-8, malformed text or an out-of-range parameter, 3 internal error: any
other exception, reported with its traceback on stderr.  All randomness is
seed-controlled, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import gadgets, reductions, stash_solvers
from .errors import CapExceededError, ParameterError, ParseError, StashpeelError
from .hypergraph import Hypergraph, format_stash, gen_random, parse, parse_stash, serialize
from .peeling import core_subgraph, k_core

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as str.splitlines numbers lines, which parse uses; the
        # bytes before the bad one decode, and "x" stands in for it
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})", line) from None


def _load(path: str) -> Hypergraph:
    return parse(_read(path))


def _print_stash_result(out, kind: str, ids, optimal: bool) -> None:
    out.write(format_stash(kind, ids))
    out.write(f"size={len(set(ids))} optimal={'true' if optimal else 'false'}\n")


def _cmd_peel(args, out) -> int:
    g = _load(args.file)
    trace = k_core(g, args.k)
    out.write(serialize(core_subgraph(g, trace)))
    out.write("# peeled: " + " ".join(str(v) for v in trace.peeled_vertices) + "\n")
    out.write("# core: " + " ".join(str(v) for v in sorted(trace.core_vertices)) + "\n")
    return EXIT_OK


def _cmd_stash_exact(args, out) -> int:
    g = _load(args.file)
    solver = (
        stash_solvers.min_vertex_stash_exact
        if args.mode == "vertex"
        else stash_solvers.min_edge_stash_exact
    )
    result = solver(g, args.k, args.cap)
    _print_stash_result(out, "v" if args.mode == "vertex" else "e", result.stash, result.optimal)
    return EXIT_OK


def _cmd_stash_greedy(args, out) -> int:
    g = _load(args.file)
    result = stash_solvers.greedy_stash(g, args.k, args.mode, args.tie_break, args.seed)
    _print_stash_result(out, "v" if args.mode == "vertex" else "e", result.stash, result.optimal)
    return EXIT_OK


def _cmd_stash_2edge(args, out) -> int:
    g = _load(args.file)
    cert = stash_solvers.two_edge_stash_standard(g)
    _print_stash_result(out, "e", cert.removed_edges, True)
    out.write(f"# h={cert.h} components={cert.components}\n")
    return EXIT_OK


def _cmd_cover(args, out) -> int:
    g = _load(args.file)
    cover = stash_solvers.min_vertex_cover_exact(g, args.cap)
    _print_stash_result(out, "v", cover, True)
    return EXIT_OK


def _cmd_reduce(args, out) -> int:
    reduced, rmap = reductions.REDUCTIONS[args.source](_load(args.file), args.k, args.d)
    map_path = args.map_out or args.file + ".map"
    text = serialize(reduced)
    # the map goes first, so a path that cannot be written leaves stdout empty
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write(reductions._map_text(rmap, text))
    out.write(text)
    out.write(f"# map: {map_path}\n")
    return EXIT_OK


def _cmd_lift(args, out) -> int:
    rmap = reductions.parse_map(_read(args.map))
    kind, ids = parse_stash(_read(args.stash))
    if rmap.direction == "vc":
        if kind != "v":
            raise ParameterError("cover-reduction maps lift vertex stashes only")
        out.write(format_stash("v", reductions.normalize_stash(rmap, ids)))
        return EXIT_OK
    if kind == "e":
        lifted = reductions.lift_edge_stash(rmap, ids)
        out.write(format_stash("v", lifted))
    else:
        pushed = reductions.push_vertex_stash(rmap, ids)
        out.write(format_stash("e", pushed))
    return EXIT_OK


def _report_rows(report: gadgets.GadgetReport) -> list[str]:
    params = ",".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    return [
        f"{report.gadget}\t{params}\t{c.name}\t{'pass' if c.passed else 'FAIL'}\t{c.witness}"
        for c in report.checks
    ]


def _cmd_verify_gadgets(args, out) -> int:
    if args.grid and (args.k, args.d) != (None, None):
        raise ParameterError("verify-gadgets takes --grid or --k and --d, not both")
    if args.grid:
        reports = gadgets.run_gadget_grid()
    elif args.k is not None and args.d is not None:
        reports = gadgets.run_gadget_grid([args.k], [args.d])
    else:
        raise ParameterError("verify-gadgets needs --grid or both --k and --d")
    if not reports:
        raise ParameterError(f"no gadget family exists at k={args.k}, d={args.d}")
    out.write("gadget\tparams\tcheck\tpass\twitness\n")
    for report in reports:
        for row in _report_rows(report):
            out.write(row + "\n")
    return EXIT_OK if all(r.all_passed for r in reports) else EXIT_INFEASIBLE


# each gadget type's builder and the flags it takes, in the builder's order
_GADGET_TYPES = {
    "ck": (gadgets.build_ck_gadget, ("k", "d")),
    "b2": (functools.partial(gadgets.build_b_block, 2), ("k", "d")),
    "b3": (functools.partial(gadgets.build_b_block, 3), ("k", "d")),
    "simple-stable": (gadgets.build_simple_stable_block, ("m", "k", "d")),
    "stable": (gadgets.build_stable_block, ("m", "k", "d")),
    "tree-stable": (gadgets.build_tree_stable_block, ("p", "d")),
}
_GADGET_DEFAULTS = {"k": 3, "d": 2, "m": 1, "p": 1}


def _cmd_gadget(args, out) -> int:
    build, takes = _GADGET_TYPES[args.type]
    # the parser's defaults are None, so a flag given is told from one left out
    given = {f: getattr(args, f) for f in _GADGET_DEFAULTS}
    extra = [f"--{f}" for f, v in given.items() if v is not None and f not in takes]
    if extra:
        raise ParameterError(f"gadget --type {args.type} does not take {' '.join(extra)}")
    g = build(*(_GADGET_DEFAULTS[f] if given[f] is None else given[f] for f in takes))
    out.write(serialize(g.graph))
    for port in g.ports:
        attach = ";".join(" ".join(str(v) for v in e) for e in port.edges)
        shared = " shared" if port.shared_external else ""
        out.write(f"# port {port.name} attach={attach}{shared}\n")
    out.write("# estar " + " ".join(str(e) for e in sorted(g.estar)) + "\n")
    return EXIT_OK


def _cmd_gen_random(args, out) -> int:
    out.write(serialize(gen_random(args.vertices, args.edges, args.d, args.seed)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as a
    ``ParameterError`` instead of printing usage and exiting; its
    subcommand parsers are of the same class."""

    def error(self, message: str):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stashpeel",
        description="k-core peeling, minimum stashes, and stash-hardness gadgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("peel", help="print the k-core of an instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_peel)

    p = sub.add_parser("stash-exact", help="minimum vertex or edge stash")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("vertex", "edge"), required=True)
    p.add_argument("--cap", type=int, default=stash_solvers.DEFAULT_SIZE_CAP)
    p.add_argument("file")
    p.set_defaults(func=_cmd_stash_exact)

    p = sub.add_parser("stash-greedy", help="heuristic stash")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("vertex", "edge"), required=True)
    p.add_argument("--tie-break", choices=stash_solvers.TIE_BREAKS, default="max_degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=_cmd_stash_greedy)

    p = sub.add_parser("stash-2edge", help="minimum 2-edge stash of a standard graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stash_2edge)

    p = sub.add_parser("cover", help="minimum vertex cover of a standard graph")
    p.add_argument("--cap", type=int, default=stash_solvers.DEFAULT_SIZE_CAP)
    p.add_argument("file")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("reduce", help="translate an instance between problems")
    p.add_argument("--from", dest="source", choices=tuple(reductions.REDUCTIONS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--map-out", default=None, help="sidecar map path (default FILE.map)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("lift", help="lift a stash certificate through a reduction map")
    p.add_argument("--map", required=True)
    p.add_argument("--stash", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("verify-gadgets", help="build and check gadget constructions")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--grid", action="store_true", help="run the full CI parameter grid")
    p.set_defaults(func=_cmd_verify_gadgets)

    p = sub.add_parser("gadget", help="emit one gadget in the standard text format")
    p.add_argument("--type", choices=tuple(_GADGET_TYPES), required=True)
    for flag, default in _GADGET_DEFAULTS.items():
        p.add_argument(f"--{flag}", type=int, default=None, help=f"default {default}")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("gen-random", help="seeded random d-uniform instance")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_random)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parsing never changes a parser
    return build_parser()


def run(argv: list[str], out=None, err=None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args, out)
    except CapExceededError as exc:
        err.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except StashpeelError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except Exception:
        # a bug, not an answer: exit 1 must keep meaning "infeasible"
        err.write("internal error: " + traceback.format_exc())
        return EXIT_INTERNAL_ERROR


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
