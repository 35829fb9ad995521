"""Shared instance builders and hypothesis strategies."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stashpeel import Gadget, Hypergraph


SRC = str(Path(__file__).resolve().parents[1] / "src")

# int() refuses a decimal string longer than the interpreter's limit (4,300
# digits by default), so a number this long in a file is an input error
OVERSIZED = "9" * 5000
needs_int_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(OVERSIZED),
    reason="int() reads a 5,000-digit string on this interpreter",
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def mkgraph(n: int, edges, d: int = 2) -> Hypergraph:
    g = Hypergraph(d)
    g.add_vertices(n)
    for e in edges:
        g.add_edge(e)
    return g


def triangle() -> Hypergraph:
    return mkgraph(3, [(0, 1), (1, 2), (2, 0)])


def path(n: int) -> Hypergraph:
    return mkgraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Hypergraph:
    return mkgraph(n, combinations(range(n), 2))


def two_triangles() -> Hypergraph:
    return mkgraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


@st.composite
def hypergraphs(draw, d: int | None = None, max_vertices: int = 8, max_edges: int = 10):
    arity = d if d is not None else draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=arity, max_value=max(arity, max_vertices)))
    pool = list(combinations(range(n), arity))
    edges = draw(st.lists(st.sampled_from(pool), max_size=max_edges))
    return mkgraph(n, edges, arity)


def layout(g: Hypergraph) -> tuple:
    """Everything a Hypergraph stores, in its stored order: arity, the edge
    list and each vertex's incidence list."""
    return g.d, list(g._edges), [list(es) for es in g._incidence]


def without(g: Hypergraph, vertices=(), edges=()) -> tuple[Hypergraph, dict[int, int], dict[int, int]]:
    """g rebuilt without the given vertices, the edges on them and the given
    edges, through the public builders.  Survivors are renumbered in
    ascending order of their old ids; returns (graph, vertex map, edge map),
    each from old id to new id."""
    gone_v, gone_e = set(vertices), set(edges)
    h = Hypergraph(g.d)
    vmap = {v: h.add_vertex() for v in range(g.num_vertices) if v not in gone_v}
    emap = {
        e: h.add_edge([vmap[v] for v in g.edge_vertices(e)])
        for e in range(g.num_edges)
        if e not in gone_e and gone_v.isdisjoint(g.edge_vertices(e))
    }
    return h, vmap, emap


def gadget_without(gadget: Gadget, vertices=(), edges=()) -> Gadget:
    """Negative-control mutation: the gadget rebuilt by ``without``, with its
    ports and E* renumbered to match.  Only non-port vertices may go."""
    g, vmap, emap = without(gadget.graph, vertices, edges)
    ports = tuple(
        dataclasses.replace(p, edges=tuple(tuple(vmap[v] for v in attach) for attach in p.edges))
        for p in gadget.ports
    )
    estar = frozenset(emap[e] for e in gadget.estar if e in emap)
    return Gadget(g, ports, estar, dict(gadget.params), dict(gadget.meta))
