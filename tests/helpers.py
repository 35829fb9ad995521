"""Shared instance builders and hypothesis strategies."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from stashpeel import Hypergraph


SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    """Everything a Hypergraph stores, in its stored order: arity, id
    counters, the edge map and each vertex's incidence."""
    return (
        g.d,
        g._next_vertex,
        g._next_edge,
        list(g._edges.items()),
        [(v, list(es)) for v, es in g._incidence.items()],
    )


@st.composite
def sparse_hypergraphs(draw, max_vertices: int = 8, max_edges: int = 10):
    """``hypergraphs()`` after a few removals, so ids are not contiguous."""
    g = draw(hypergraphs(max_vertices=max_vertices, max_edges=max_edges))
    for by_vertex, i in draw(st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=3)):
        if by_vertex and g.num_vertices:
            vertices = sorted(g.vertices)
            g.remove_vertex(vertices[i % len(vertices)])
        elif g.num_edges:
            edges = sorted(g.edges)
            g.remove_edge(edges[i % len(edges)])
    return g
