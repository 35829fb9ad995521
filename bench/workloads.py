"""The four benchmark workloads: seeded corpora, timed operations, checks.

Each workload's ``setup(seed, workdir)`` generates its inputs from the seed
and computes the answers every operation is checked against.  An ``Item`` is
one operation: ``run`` is the timed call into stashpeel and ``check`` judges
its result outside the timed region against ``expected``, returning the
output text whose digest must not change within a run.

Operations look package functions up through module attributes at call
time (``sp.k_core`` rather than a bound name) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import stashpeel as sp
from oracles import (
    WrongAnswer,
    core_edge_ids,
    core_text,
    instance_text,
    parse_instance,
    parse_stash_line,
    random_edges,
    require,
    require_peels,
)


@dataclass
class Item:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    units: float
    expected: Any = None  # the set-up answers that ``check`` compares the result with


@dataclass(frozen=True)
class Workload:
    name: str
    units_metric: str  # name of the workload's own throughput metric
    nominal_pass_s: float  # seconds one pass over the corpus takes on the reference machine
    setup: Callable[[int, Path], list[Item]]


def _edge_list(g: sp.Hypergraph) -> list[tuple[int, ...]]:
    ids = sorted(g.edges)
    require(ids == list(range(len(ids))), "instance edge ids are not contiguous")
    return [g.edge_vertices(e) for e in ids]


# -- exact-stash --------------------------------------------------------------

VERTEX_KD = ((3, 2), (2, 3), (2, 2))
VERTEX_N = (7, 8, 9)
VERTEX_COVERS = (3, 4)
DRAWS_PER_COVER = 1
# cover-5 draws only at (2,2): at (3,2) one takes about 17 s, too long for a run
COVER5_KD_N = ((2, 2), 9)
# (k, d, n, m) of originals whose minimum vertex stash is 2
EDGE_FAMILIES = ((3, 2, 10, 20), (2, 3, 8, 10))
EDGE_DRAWS = 3
# The instances come from this fixed stream and the run's seed only orders
# the solves.  One solve's cost varies by 20-50% between draws of a family
# (up to 30x in edge mode), so corpora drawn from the run's seed moved the
# figures by 10-25% between seeds, on top of the machine's own drift.
CORPUS_SEED = 0


def _stash_item(item_id: str, g: sp.Hypergraph, k: int, mode: str, expected: int) -> Item:
    edges = _edge_list(g)
    name = "min_vertex_stash_exact" if mode == "vertex" else "min_edge_stash_exact"

    def run():
        return getattr(sp, name)(g, k)

    def check(result) -> str:
        stash = sorted(result.stash)
        require(len(stash) == expected, f"stash size {len(stash)} != oracle {expected}")
        if mode == "vertex":
            require_peels(edges, k, "vertex stash", removed_vertices=stash)
        else:
            require_peels(edges, k, "edge stash", removed_edges=stash)
        return f"{mode} {stash}"

    return Item(item_id, run, check, 1.0, expected)


def setup_exact_stash(seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(CORPUS_SEED)
    items: list[Item] = []
    for n in VERTEX_N:
        want = {c: DRAWS_PER_COVER for c in VERTEX_COVERS}
        if n == COVER5_KD_N[1]:
            want[5] = 1
        while any(want.values()):
            gseed = rng.randrange(2**32)
            g = sp.gen_random(n, 2 * n - 4, 2, gseed)
            cover = len(sp.min_vertex_cover_exact(g, size_cap=n))
            if not want.get(cover):
                continue
            want[cover] -= 1
            for k, d in VERTEX_KD if cover != 5 else (COVER5_KD_N[0],):
                reduced, _ = sp.reduce_vc_to_vertex_stash(g, k, d)
                item_id = f"vertex k={k} d={d} n={n} cover={cover} gen={gseed}"
                items.append(_stash_item(item_id, reduced, k, "vertex", cover))
    for k, d, n, m in EDGE_FAMILIES:
        found = 0
        while found < EDGE_DRAWS:
            gseed = rng.randrange(2**32)
            g = sp.gen_random(n, m, d, gseed)
            try:
                if sp.min_vertex_stash_exact(g, k, size_cap=2).size != 2:
                    continue
            except sp.CapExceededError:
                continue
            found += 1
            reduced, _ = sp.reduce_vertex_to_edge_stash(g, k, d)
            item_id = f"edge k={k} d={d} n={n} m={m} gen={gseed}"
            items.append(_stash_item(item_id, reduced, k, "edge", 2))
    random.Random(seed).shuffle(items)
    return items


# -- peel-bulk ----------------------------------------------------------------

# (label, d, k, vertices, edges): near threshold (|E|/|V| = 0.80, empty
# 2-core, deep cascade) and dense (about 90% of edges in the 3-core)
PEEL_INSTANCES = (
    ("near", 3, 2, 40_000, 32_000),
    ("dense", 2, 3, 20_000, 50_000),
)


def _peel_item(label: str, d: int, k: int, n: int, m: int, rng: random.Random) -> Item:
    edges = random_edges(rng, n, m, d, simple=(d == 2))
    text = instance_text(n, d, edges)
    core = core_edge_ids(edges, k)
    expected_text = core_text(d, edges, core)
    engine = sp.peeling.peel_edges(sp.parse(text).edges, k)
    require(set(engine) == core, f"{label}: peel_edges disagrees with the reference core")
    if d == 2:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        nx_core = {frozenset(e) for e in nx.k_core(graph, k).edges()}
        require(nx_core == {frozenset(edges[i]) for i in core}, f"{label}: networkx core differs")

    def run():
        g = sp.parse(text)
        trace = sp.k_core(g, k)
        replay_ok = sp.verify_trace(g, trace)
        return trace.core_edges, replay_ok, sp.serialize(sp.core_subgraph(g, trace))

    def check(result) -> str:
        core_edges, replay_ok, out = result
        require(replay_ok is True, "verify_trace rejected the engine's trace")
        require(set(core_edges) == core, "k_core disagrees with the reference core")
        require(out == expected_text, "serialized core differs from the reference")
        return out

    return Item(f"{label} d={d} k={k} n={n} m={m}", run, check, float(d * m), {"core": core, "text": expected_text})


def setup_peel_bulk(seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    return [_peel_item(label, d, k, n, m, rng) for label, d, k, n, m in PEEL_INSTANCES]


# -- reduce-lift --------------------------------------------------------------

# (direction, k, d, original vertices, original edges, original arity)
ROUNDTRIP_FAMILIES = (
    ("vstash", 3, 2, 100, 200, 2),
    ("vstash", 2, 3, 150, 150, 3),
    ("vc", 3, 2, 80, 120, 2),
    ("vc", 2, 3, 80, 120, 2),
)
# vstash round trips take 0.25-0.5 s and vc ones 0.03-0.05 s; more vc draws
# put the corpus median inside the vc cluster, not in the gap between them.
ROUNDTRIP_DRAWS = {"vstash": 2, "vc": 3}


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = sp.cli.run(argv, out=out, err=err)
    if code != 0:
        raise WrongAnswer(f"exit code {code} from {argv[0]}: {err.getvalue().strip()}")
    return out.getvalue()


def _without_map_line(text: str) -> str:
    """CLI output minus the '# map: <path>' line, whose path is per run."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("# map: "))


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _stash_file(path: Path, cli_out: str) -> str:
    return _write(path, cli_out.splitlines()[0] + "\n")


def _roundtrip_item(item_id: str, family, text: str, workdir: Path) -> Item:
    direction, k, d, _, _, _ = family
    base = workdir / item_id.replace(" ", "_").replace("=", "")
    orig_path = _write(base.with_suffix(".hg"), text)
    map_path = str(base.with_suffix(".map"))
    reduced_path = base.with_suffix(".reduced.hg")
    ks, ds = str(k), str(d)
    orig_d, _, orig_edges = parse_instance(text)
    reduce = sp.reduce_vertex_to_edge_stash if direction == "vstash" else sp.reduce_vc_to_vertex_stash
    want = {"reduced": sp.serialize(reduce(sp.parse(text), k, d)[0])}

    def same_reduction(reduced: str) -> list[tuple[int, ...]]:
        require(_without_map_line(reduced) == want["reduced"], "CLI reduction differs from the library's")
        return parse_instance(reduced)[2]

    if direction == "vstash":
        want["vstash"] = sorted(sp.greedy_stash(sp.parse(text), k, "vertex").stash)
        require_peels(orig_edges, k, "reference greedy stash", removed_vertices=want["vstash"])

        def run():
            vstash = _cli(["stash-greedy", "--k", ks, "--mode", "vertex", orig_path])
            reduced = _cli(["reduce", "--from", "vstash", "--k", ks, "--d", ds, "--map-out", map_path, orig_path])
            _write(reduced_path, reduced)
            vstash_path = _stash_file(base.with_suffix(".vstash"), vstash)
            pushed = _cli(["lift", "--map", map_path, "--stash", vstash_path])
            pushed_path = _write(base.with_suffix(".pushed"), pushed)
            lifted_pushed = _cli(["lift", "--map", map_path, "--stash", pushed_path])
            estash = _cli(["stash-greedy", "--k", ks, "--mode", "edge", str(reduced_path)])
            estash_path = _stash_file(base.with_suffix(".estash"), estash)
            lifted = _cli(["lift", "--map", map_path, "--stash", estash_path])
            rmap = sp.reduce_vertex_to_edge_stash(sp.parse(text), k, d)[1]
            audit = (sp.audit_p1(rmap), [r.all_passed for r in sp.audit_pk_properties(rmap)])
            return vstash, reduced, pushed, lifted_pushed, estash, lifted, audit

        def check(result) -> str:
            vstash, reduced, pushed, lifted_pushed, estash, lifted, (p1, pk) = result
            red_edges = same_reduction(reduced)
            vs = parse_stash_line(vstash, "v")
            require(vs == want["vstash"], "CLI greedy vertex stash differs from the library's")
            pushed_ids = parse_stash_line(pushed, "e")
            require(len(pushed_ids) == len(vs), "pushed stash changed size")
            require_peels(red_edges, k, "pushed edge stash", removed_edges=pushed_ids)
            back = parse_stash_line(lifted_pushed, "v")
            require(len(back) <= len(pushed_ids), "lift of the pushed stash grew")
            require_peels(orig_edges, k, "lift of the pushed stash", removed_vertices=back)
            es = parse_stash_line(estash, "e")
            require_peels(red_edges, k, "greedy edge stash", removed_edges=es)
            up = parse_stash_line(lifted, "v")
            require(len(up) <= len(es), "lifted edge stash grew")
            require_peels(orig_edges, k, "lifted edge stash", removed_vertices=up)
            require(p1 == [], f"audit_p1 reported {len(p1)} problems")
            require(bool(pk) and all(pk), "audit_pk_properties reported a failing gadget")
            return _without_map_line("".join((vstash, reduced, pushed, lifted_pushed, estash, lifted)))

    else:
        want["cover_of"] = orig_edges

        def run():
            reduced = _cli(["reduce", "--from", "vc", "--k", ks, "--d", ds, "--map-out", map_path, orig_path])
            _write(reduced_path, reduced)
            vstash = _cli(["stash-greedy", "--k", ks, "--mode", "vertex", str(reduced_path)])
            vstash_path = _stash_file(base.with_suffix(".vstash"), vstash)
            normalized = _cli(["lift", "--map", map_path, "--stash", vstash_path])
            return reduced, vstash, normalized

        def check(result) -> str:
            reduced, vstash, normalized = result
            red_edges = same_reduction(reduced)
            vs = parse_stash_line(vstash, "v")
            require_peels(red_edges, k, "greedy vertex stash of the reduction", removed_vertices=vs)
            cover = set(parse_stash_line(normalized, "v"))
            require(len(cover) <= len(vs), "normalized stash grew")
            require(all(cover.intersection(e) for e in want["cover_of"]), "normalized stash is not a vertex cover")
            return _without_map_line("".join(result))

    require(orig_d == family[5], "original arity mismatch")
    return Item(item_id, run, check, 1.0, want)


def setup_reduce_lift(seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for family in ROUNDTRIP_FAMILIES:
        direction, k, d, n, m, arity = family
        for draw in range(ROUNDTRIP_DRAWS[direction]):
            text = instance_text(n, arity, random_edges(rng, n, m, arity))
            item_id = f"{direction} k={k} d={d} n={n} m={m} draw={draw}"
            items.append(_roundtrip_item(item_id, family, text, workdir))
    return items


# -- gadget-grid ----------------------------------------------------------------

GRID_K = range(2, 7)
GRID_D = range(2, 5)


def _report_count(out: str) -> int:
    return len({tuple(row.split("\t")[:2]) for row in out.splitlines()[1:]})


def _gadget_item(argv: list[str]) -> Item:
    def run():
        out, err = io.StringIO(), io.StringIO()
        return sp.cli.run(argv, out=out, err=err), out.getvalue()

    def passing_report(result) -> str:
        code, out = result
        require(code == 0, f"exit code {code}")
        rows = out.splitlines()
        require(len(rows) > 1 and rows[0] == "gadget\tparams\tcheck\tpass\twitness", "missing report header")
        bad = [r for r in rows[1:] if r.split("\t")[3] != "pass"]
        require(not bad, f"{len(bad)} failing gadget checks")
        return out

    reference = passing_report(run())  # expected answer: set-up's own passing report

    def check(result) -> str:
        out = passing_report(result)
        require(out == reference, "report differs from the set-up reference")
        return out

    return Item(" ".join(argv), run, check, float(_report_count(reference)), reference)


def setup_gadget_grid(seed: int, workdir: Path) -> list[Item]:
    argvs = [["verify-gadgets", "--k", str(k), "--d", str(d)] for k in GRID_K for d in GRID_D]
    rng = random.Random(seed)
    rng.shuffle(argvs)
    argvs.insert(rng.randrange(len(argvs) + 1), ["verify-gadgets", "--grid"])
    return [_gadget_item(argv) for argv in argvs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-stash",
            "instances_per_s",
            10.0,
            setup_exact_stash,
        ),
        Workload(
            "peel-bulk",
            "incidences_per_s",
            1.6,
            setup_peel_bulk,
        ),
        Workload(
            "reduce-lift",
            "roundtrips_per_s",
            1.5,
            setup_reduce_lift,
        ),
        Workload(
            "gadget-grid",
            "checks_per_s",
            1.4,
            setup_gadget_grid,
        ),
    )
}
