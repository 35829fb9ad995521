"""k-core peeling engine.

Repeatedly removes vertices of degree < k together with their incident
edges until none remain; the survivors form the k-core, which is unique
regardless of removal order.

One engine, ``_peel``, serves ``k_core`` and ``k_core_after``.  It reads the
hypergraph's lists in place and counts a stash as already removed, so it
copies nothing.  Its order is lowest-vertex-id-first, so traces are
reproducible.  The replay auditor ``verify_trace`` also reads the graph in
place, replaying on a degree list, and ``core_subgraph`` builds the core
alone, so no step from peel to core extraction copies the whole graph.
``PeelCore`` is the k-core of a hypergraph under delete/restore, for the
stash solvers; it reads the graph's lists in place too.
"""

from __future__ import annotations

import heapq
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
) -> PeelTrace:
    """k-core of g minus a stash, in time linear in total incidence.

    The stash is dead from the start: stashed vertices are never queued and
    never core, and the stashed edges and those on stashed vertices are
    neither counted in degrees nor alive.  A vertex enters the heap when its
    degree first drops below k and is peeled when popped.  g is read, never
    mutated.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    edges, incidence = g._edges, g._incidence
    stashed_edges = set(stash_edges)
    for v in stash_vertices:
        stashed_edges.update(incidence[v])
    dead_edges = stashed_edges.copy()
    deg = list(map(len, incidence))
    for e in stashed_edges:
        for w in edges[e]:
            deg[w] -= 1
    for v in stash_vertices:
        deg[v] = k  # never queued, and dropped from the core below

    # A vertex is queued exactly when its degree first drops below k, and
    # a queued vertex's degree is never lowered again.  An ascending list
    # is already a heap.
    ids = range(len(deg))
    heap = list(compress(ids, map(k.__gt__, deg)))
    heappop, heappush = heapq.heappop, heapq.heappush
    peeled_vertices: list[int] = []

    while heap:
        v = heappop(heap)
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
                        heappush(heap, w)

    return PeelTrace(
        k=k,
        peeled_vertices=tuple(peeled_vertices),
        peeled_edges=frozenset(dead_edges - stashed_edges),
        core_vertices=frozenset(compress(ids, map(k.__le__, deg))) - stash_vertices,
        core_edges=frozenset(range(len(edges))) - dead_edges,
    )


def k_core(g: Hypergraph, k: int) -> PeelTrace:
    """Peel g down to its k-core."""
    return _peel(g, k, frozenset(), frozenset())


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
    return _peel(g, k, sv, se)


def core_subgraph(g: Hypergraph, trace: PeelTrace) -> Hypergraph:
    """The trace's core as a hypergraph of its own: ``trace.core_vertices``
    and ``trace.core_edges`` renumbered in ascending order of their ids in
    g, each edge keeping its vertex order.  g is not changed.  The trace
    must be one of g, so that core edges lie on core vertices."""
    core_v = sorted(trace.core_vertices)
    rank = [0] * len(g._incidence)
    for i, v in enumerate(core_v):
        rank[v] = i
    ends = map(rank.__getitem__, chain.from_iterable(map(g._edges.__getitem__, sorted(trace.core_edges))))
    h = Hypergraph(g._d)
    # zip over d references to one iterator takes its items d at a time
    edges = h._edges = list(zip(*[ends] * g._d))
    incidence = h._incidence = [[] for _ in core_v]
    for e, vs in enumerate(edges):
        for v in vs:
            incidence[v].append(e)
    return h


def verify_trace(g: Hypergraph, trace: PeelTrace) -> bool:
    """Replay a trace against its input instead of trusting the engine.

    Checks the partition property, that each peeled vertex is peeled once
    and had degree < k at its removal moment, that the peeled edges are
    those on peeled vertices, and that the residue has minimum degree >= k.
    The replay runs on a degree list and reads g in place.
    """
    k, peeled_order = trace.k, trace.peeled_vertices
    core_v, core_e = trace.core_vertices, trace.core_edges
    edges, incidence = g._edges, g._incidence
    peeled = set(peeled_order)
    if len(peeled) != len(peeled_order):
        return False
    if not peeled.isdisjoint(core_v) or peeled | core_v != set(range(len(incidence))):
        return False
    if not core_e.isdisjoint(trace.peeled_edges) or core_e | trace.peeled_edges != set(range(len(edges))):
        return False
    deg = list(map(len, incidence))
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
    """Surviving k-core edges of a bare edge map, in ascending id order.

    The edge ids must be 0..m-1 and the vertex ids non-negative, as in
    ``Hypergraph.edges``; the map is checked like ``Hypergraph.add_edge``
    input.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    m = len(edges)
    if not all(e in edges for e in range(m)):
        raise ParameterError(f"edge ids must be 0..{m - 1}")
    g = Hypergraph(len(edges[0]) if m else 2)
    g.add_vertices(1 + max((max(vs) for vs in edges.values()), default=-1))
    try:
        for e in range(m):
            g.add_edge(edges[e])
    except NotFoundError as exc:
        raise ParameterError(str(exc)) from None
    return {e: edges[e] for e in compress(range(m), PeelCore(g, k).edge_alive)}


class PeelCore:
    """A k-core under delete/restore: stash an element, peel the cascade, undo.

    Built once from a hypergraph, whose k-core it peels to at once.  It
    reads the graph's edge list and incidence lists in place and never
    writes them, so its ids are the graph's; vertices on no edge start
    dead, as does every vertex outside the k-core.  ``degree[v]`` counts the live edges on v whether v is alive or
    not, so it is 0 for every dead v.  Each vertex and edge that
    ``stash_vertex`` or ``stash_edge`` kills goes onto ``trail``;
    ``undo(mark)`` revives all killed since ``len(trail)`` was ``mark``.  A
    stash with its undo costs time linear in the incidences of what it
    kills, not in the core's size.
    """

    __slots__ = ("k", "edge_vertices", "vertex_edges", "degree", "vertex_alive", "edge_alive",
                 "live_edges", "trail")

    def __init__(self, g: Hypergraph, k: int):
        self.k = k
        self.edge_vertices, self.vertex_edges = g._edges, g._incidence
        self.degree = list(map(len, self.vertex_edges))
        self.vertex_alive = [c >= k for c in self.degree]
        self.edge_alive = [True] * len(self.edge_vertices)
        self.live_edges = len(self.edge_vertices)
        self.trail: list[int] = []
        low = compress(self.vertex_edges, [c < k for c in self.degree])
        self._peel(list(chain.from_iterable(low)))
        self.trail.clear()

    def copy(self) -> PeelCore:
        """A core in this one's state with an empty trail, to stash on and
        throw away.  It shares the incidence lists, which no stash or undo
        writes, and copies the degrees and alive flags."""
        c = type(self).__new__(type(self))
        c.k = self.k
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
