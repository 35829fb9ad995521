"""k-core peeling engine.

Repeatedly removes vertices of degree < k together with their incident
edges until none remain; the survivors form the k-core, which is unique
regardless of removal order.

One engine, ``_peel``, serves ``k_core`` and ``k_core_after``.  It reads the
hypergraph in place and counts a stash as already removed, so it copies
nothing.  Its order is lowest-vertex-id-first, so traces are reproducible;
``order_seed`` randomizes it for order-independence checks.  The replay
auditor ``verify_trace`` also reads the graph in place, replaying on a
degree dict, and ``core_subgraph`` copies the edge map and the core's
incidences only, so no step from peel to core extraction copies the whole
graph.  ``PeelCore`` is the k-core of a bare edge map under delete/restore,
for the stash solvers.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable

from .errors import NotFoundError, ParameterError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class PeelTrace:
    """Full record of one peeling run.

    ``peeled_vertices`` is ordered by removal moment; replaying it against
    the input must show degree < k at each step.  Core and peeled sets
    partition the input's vertices and edges.
    """

    k: int
    peeled_vertices: tuple[int, ...]
    peeled_edges: frozenset[int]
    core_vertices: frozenset[int]
    core_edges: frozenset[int]

    @property
    def core_empty(self) -> bool:
        return not self.core_vertices


def _peel(
    g: Hypergraph,
    k: int,
    stash_vertices: frozenset[int],
    stash_edges: frozenset[int],
    order_seed: int | None,
) -> PeelTrace:
    """k-core of g minus a stash, in time linear in total incidence.

    The stash is dead from the start: stashed vertices get no degree, and
    the stashed edges and those on stashed vertices are neither counted in
    degrees nor alive.  A vertex enters the heap when its degree first drops
    below k and is peeled when popped.  g is read, never mutated.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    edges, incidence = g._edges, g._incidence
    stashed_edges = set(stash_edges)
    for v in stash_vertices:
        stashed_edges.update(incidence[v])
    dead_edges = stashed_edges.copy()
    deg = {v: len(es) for v, es in incidence.items() if v not in stash_vertices}
    for e in stashed_edges:
        for w in edges[e]:
            if w in deg:
                deg[w] -= 1

    if order_seed is None:
        order = None
    else:
        # The heap holds each vertex's position in a seeded shuffle of the
        # ascending vertex ids, and order maps a position back to its vertex.
        rng = random.Random(order_seed)
        prio = {v: rng.random() for v in sorted(deg)}
        order = sorted(prio, key=prio.__getitem__)
        position = {v: i for i, v in enumerate(order)}

    # A vertex is queued exactly when its degree first drops below k, and
    # a queued vertex's degree is never lowered again.
    low = [v for v, c in deg.items() if c < k]
    heap = low if order is None else [position[v] for v in low]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    peeled_vertices: list[int] = []

    while heap:
        v = heappop(heap)
        if order is not None:
            v = order[v]
        peeled_vertices.append(v)
        for e in incidence[v]:
            if e in dead_edges:
                continue
            dead_edges.add(e)
            for w in edges[e]:
                c = deg[w]
                if c >= k:
                    deg[w] = c - 1
                    if c == k:
                        heappush(heap, w if order is None else position[w])

    return PeelTrace(
        k=k,
        peeled_vertices=tuple(peeled_vertices),
        peeled_edges=frozenset(dead_edges - stashed_edges),
        core_vertices=frozenset(v for v, c in deg.items() if c >= k),
        core_edges=frozenset(edges.keys() - dead_edges),
    )


def k_core(g: Hypergraph, k: int, *, order_seed: int | None = None) -> PeelTrace:
    """Peel g down to its k-core."""
    return _peel(g, k, frozenset(), frozenset(), order_seed)


def is_k_peelable(g: Hypergraph, k: int) -> bool:
    """True iff g has an empty k-core."""
    return k_core(g, k).core_empty


def k_core_after(
    g: Hypergraph,
    k: int,
    stash_vertices: Iterable[int] = (),
    stash_edges: Iterable[int] = (),
) -> PeelTrace:
    """k-core of g with the stash removed first; g itself is not mutated.

    The trace covers what is left after the stash: stashed vertices and
    edges, and the edges on stashed vertices, are in neither part.
    """
    sv = frozenset(stash_vertices)
    se = frozenset(stash_edges)
    for v in sv:
        if not g.has_vertex(v):
            raise NotFoundError(f"unknown vertex id {v} in stash")
    for e in se:
        if not g.has_edge(e):
            raise NotFoundError(f"unknown edge id {e} in stash")
    return _peel(g, k, sv, se, None)


def core_subgraph(g: Hypergraph, trace: PeelTrace) -> Hypergraph:
    """The trace's core as a hypergraph with its original ids.

    It holds exactly ``trace.core_vertices`` and ``trace.core_edges``, in
    g's insertion order, with g's id counters; g is not changed.
    """
    core_v, edges = trace.core_vertices, g._edges
    h = Hypergraph(g._d)
    h._next_vertex, h._next_edge = g._next_vertex, g._next_edge
    kept = h._edges = dict(edges)
    incidence = h._incidence = {v: es.copy() for v, es in g._incidence.items() if v in core_v}
    for e in edges.keys() - trace.core_edges:
        del kept[e]
        for w in edges[e]:
            if w in core_v:
                del incidence[w][e]
    return h


def verify_trace(g: Hypergraph, trace: PeelTrace) -> bool:
    """Replay a trace against its input instead of trusting the engine.

    Checks the partition property, that each peeled vertex is peeled once
    and had degree < k at its removal moment, that the peeled edges are
    those on peeled vertices, and that the residue has minimum degree >= k.
    The replay runs on a degree dict and reads g in place.
    """
    k, peeled_order = trace.k, trace.peeled_vertices
    core_v, core_e = trace.core_vertices, trace.core_edges
    edges, incidence = g._edges, g._incidence
    peeled = set(peeled_order)
    if len(peeled) != len(peeled_order):
        return False
    if not peeled.isdisjoint(core_v) or peeled | core_v != incidence.keys():
        return False
    if not core_e.isdisjoint(trace.peeled_edges) or core_e | trace.peeled_edges != edges.keys():
        return False
    deg = {v: len(es) for v, es in incidence.items()}
    dead: set[int] = set()
    for v in peeled_order:
        if deg[v] >= k:
            return False
        for e in incidence[v]:
            if e not in dead:
                dead.add(e)
                for w in edges[e]:
                    deg[w] -= 1
    return dead == trace.peeled_edges and all(deg[v] >= k for v in core_v)


def peel_edges(edges: dict[int, tuple[int, ...]], k: int) -> dict[int, tuple[int, ...]]:
    """Surviving k-core edges of a bare edge map, in ascending id order."""
    core = PeelCore(edges, k)
    return {e: edges[e] for e, alive in zip(core.edge_ids, core.edge_alive) if alive}


class PeelCore:
    """A k-core under delete/restore: stash an element, peel the cascade, undo.

    Built once from an edge map, whose k-core it peels to at once.  Vertices
    and edges get local ids ``0..n-1`` and ``0..m-1`` in ascending order of
    their original ids (``vertex_ids`` and ``edge_ids`` map back), so walking
    local ids keeps lexicographic order.  ``degree[v]`` counts the live edges
    on v whether v is alive or not, so it is 0 for every dead v.  Each vertex
    and edge that ``stash_vertex`` or ``stash_edge`` kills goes onto
    ``trail``; ``undo(mark)`` revives all killed since ``len(trail)`` was
    ``mark``.  A stash with its undo costs time linear in the incidences of
    what it kills, not in the core's size.
    """

    __slots__ = ("k", "vertex_ids", "edge_ids", "edge_vertices", "vertex_edges", "degree",
                 "vertex_alive", "edge_alive", "live_edges", "trail")

    def __init__(self, edges: dict[int, tuple[int, ...]], k: int):
        self.k = k
        self.edge_ids = sorted(edges)
        self.vertex_ids = sorted(set(chain.from_iterable(edges.values())))
        local = {v: i for i, v in enumerate(self.vertex_ids)}.__getitem__
        self.edge_vertices = [tuple(map(local, edges[e])) for e in self.edge_ids]
        self.vertex_edges: list[list[int]] = [[] for _ in self.vertex_ids]
        vertex_edges = self.vertex_edges
        for e, vs in enumerate(self.edge_vertices):
            for v in vs:
                vertex_edges[v].append(e)
        self.degree = list(map(len, vertex_edges))
        self.vertex_alive = [c >= k for c in self.degree]
        self.edge_alive = [True] * len(self.edge_ids)
        self.live_edges = len(self.edge_ids)
        self.trail: list[int] = []
        low = compress(vertex_edges, [not a for a in self.vertex_alive])
        self._peel(list(chain.from_iterable(low)))
        self.trail.clear()

    def copy(self) -> PeelCore:
        """A core in this one's state with an empty trail, to stash on and
        throw away.  It shares the incidence lists, which no stash or undo
        writes, and copies the degrees and alive flags."""
        c = type(self).__new__(type(self))
        c.k, c.vertex_ids, c.edge_ids = self.k, self.vertex_ids, self.edge_ids
        c.edge_vertices, c.vertex_edges = self.edge_vertices, self.vertex_edges
        c.degree = self.degree.copy()
        c.vertex_alive = self.vertex_alive.copy()
        c.edge_alive = self.edge_alive.copy()
        c.live_edges = self.live_edges
        c.trail = []
        return c

    def stash_vertex(self, v: int) -> None:
        """Kill live vertex v and peel what its loss cascades to."""
        self.vertex_alive[v] = False
        self.trail.append(v)
        self._peel(list(self.vertex_edges[v]))

    def stash_edge(self, e: int) -> None:
        """Kill live edge e and peel what its loss cascades to."""
        self._peel([e])

    def _peel(self, stack: list[int]) -> None:
        # Edges go on the trail as ~e, vertices as v.
        k, deg, trail = self.k, self.degree, self.trail
        vertex_alive, edge_alive = self.vertex_alive, self.edge_alive
        edge_vertices, vertex_edges = self.edge_vertices, self.vertex_edges
        killed = 0
        while stack:
            e = stack.pop()
            if not edge_alive[e]:
                continue
            edge_alive[e] = False
            trail.append(~e)
            killed += 1
            for w in edge_vertices[e]:
                deg[w] -= 1
                if deg[w] < k and vertex_alive[w]:
                    vertex_alive[w] = False
                    trail.append(w)
                    stack.extend(vertex_edges[w])
        self.live_edges -= killed

    def undo(self, mark: int) -> None:
        """Revive everything killed since the trail had length ``mark``."""
        deg, edge_vertices = self.degree, self.edge_vertices
        vertex_alive, edge_alive = self.vertex_alive, self.edge_alive
        revived = 0
        for x in self.trail[mark:]:
            if x >= 0:
                vertex_alive[x] = True
            else:
                e = ~x
                edge_alive[e] = True
                revived += 1
                for w in edge_vertices[e]:
                    deg[w] += 1
        del self.trail[mark:]
        self.live_edges += revived
