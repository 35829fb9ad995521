"""k-core peeling engine.

Repeatedly removes vertices of degree < k together with their incident
edges until none remain; the survivors form the k-core, which is unique
regardless of removal order.  The default order is lowest-vertex-id-first
so traces are reproducible; pass ``order_seed`` to randomize the order for
order-independence checks.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
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


def k_core(g: Hypergraph, k: int, *, order_seed: int | None = None) -> PeelTrace:
    """Peel g down to its k-core; runs in time linear in total incidence.

    Worklist algorithm with lazy degree updates: a vertex enters the heap
    when its degree first drops below k and is peeled when popped.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    deg = {v: g.degree(v) for v in g.vertices}
    edges = g.edges
    incidence = {v: list(es) for v, es in g.incidence.items()}

    if order_seed is None:
        prio = {v: v for v in deg}
    else:
        rng = random.Random(order_seed)
        prio = {v: rng.random() for v in sorted(deg)}

    heap = [(prio[v], v) for v in deg if deg[v] < k]
    heapq.heapify(heap)
    queued = {v for _, v in heap}
    peeled_vertices: list[int] = []
    peeled_edges: set[int] = set()
    alive_edges = set(edges)

    while heap:
        _, v = heapq.heappop(heap)
        peeled_vertices.append(v)
        for e in incidence[v]:
            if e not in alive_edges:
                continue
            alive_edges.discard(e)
            peeled_edges.add(e)
            for w in edges[e]:
                if w == v or w in queued:
                    continue
                deg[w] -= 1
                if deg[w] < k:
                    queued.add(w)
                    heapq.heappush(heap, (prio[w], w))

    peeled_set = set(peeled_vertices)
    return PeelTrace(
        k=k,
        peeled_vertices=tuple(peeled_vertices),
        peeled_edges=frozenset(peeled_edges),
        core_vertices=frozenset(v for v in deg if v not in peeled_set),
        core_edges=frozenset(alive_edges),
    )


def is_k_peelable(g: Hypergraph, k: int) -> bool:
    """True iff g has an empty k-core."""
    return k_core(g, k).core_empty


def k_core_after(
    g: Hypergraph,
    k: int,
    stash_vertices: Iterable[int] = (),
    stash_edges: Iterable[int] = (),
) -> PeelTrace:
    """k-core of g with the stash removed first; g itself is not mutated."""
    sv = set(stash_vertices)
    se = set(stash_edges)
    for v in sv:
        if not g.has_vertex(v):
            raise NotFoundError(f"unknown vertex id {v} in stash")
    for e in se:
        if not g.has_edge(e):
            raise NotFoundError(f"unknown edge id {e} in stash")
    h = g.copy()
    for e in se:
        h.remove_edge(e)
    for v in sorted(sv):
        h.remove_vertex(v)
    return k_core(h, k)


def core_subgraph(g: Hypergraph, trace: PeelTrace) -> Hypergraph:
    """The surviving core as a hypergraph with its original ids."""
    h = g.copy()
    for v in trace.peeled_vertices:
        h.remove_vertex(v)
    return h


def verify_trace(g: Hypergraph, trace: PeelTrace) -> bool:
    """Replay a trace against its input instead of trusting the engine.

    Checks the partition property, that each peeled vertex had degree < k
    at its removal moment, and that the residue has minimum degree >= k.
    """
    if set(trace.peeled_vertices) | set(trace.core_vertices) != g.vertices:
        return False
    if set(trace.peeled_vertices) & set(trace.core_vertices):
        return False
    if trace.peeled_edges | trace.core_edges != set(g.edges):
        return False
    if trace.peeled_edges & trace.core_edges:
        return False
    h = g.copy()
    for v in trace.peeled_vertices:
        if h.degree(v) >= trace.k:
            return False
        h.remove_vertex(v)
    return all(h.degree(v) >= trace.k for v in h.vertices)


def peel_edges(edges: dict[int, tuple[int, ...]], k: int) -> dict[int, tuple[int, ...]]:
    """Surviving k-core edges of a bare edge map; hot path for the solvers.

    Vertices are implied by edge membership, so callers that care about
    isolated vertices must handle them separately (an isolated vertex is
    never in a k-core for k >= 1).
    """
    deg: dict[int, int] = {}
    inc: dict[int, list[int]] = {}
    for e, vs in edges.items():
        for v in vs:
            deg[v] = deg.get(v, 0) + 1
            inc.setdefault(v, []).append(e)
    stack = [v for v, c in deg.items() if c < k]
    dead = set(stack)
    alive = set(edges)
    while stack:
        v = stack.pop()
        for e in inc[v]:
            if e not in alive:
                continue
            alive.discard(e)
            for w in edges[e]:
                if w in dead:
                    continue
                deg[w] -= 1
                if deg[w] < k:
                    dead.add(w)
                    stack.append(w)
    if len(alive) == len(edges):
        return dict(edges)
    return {e: vs for e, vs in edges.items() if e in alive}


class PeelCore:
    """A k-core under delete/restore: stash an element, peel the cascade, undo.

    Built once from an edge map, whose k-core it peels to at once.  Vertices
    and edges get local ids ``0..n-1`` and ``0..m-1`` in ascending order of
    their original ids (``vertex_ids`` and ``edge_ids`` map back), so walking
    local ids keeps lexicographic order.  ``degree[v]`` counts the live edges
    on v whether v is alive or not, so it is 0 for every dead v.  Each vertex and edge that ``stash_vertex`` or
    ``stash_edge`` kills goes onto ``trail``; ``undo(mark)`` revives all
    killed since ``len(trail)`` was ``mark``.  A stash with its undo costs
    time linear in the incidences of what it kills, not in the core's size.
    """

    __slots__ = ("k", "vertex_ids", "edge_ids", "edge_vertices", "vertex_edges", "degree",
                 "vertex_alive", "edge_alive", "live_edges", "trail")

    def __init__(self, edges: dict[int, tuple[int, ...]], k: int):
        self.k = k
        self.edge_ids = sorted(edges)
        self.vertex_ids = sorted({v for vs in edges.values() for v in vs})
        local = {v: i for i, v in enumerate(self.vertex_ids)}
        self.edge_vertices = [tuple(local[v] for v in edges[e]) for e in self.edge_ids]
        self.vertex_edges: list[list[int]] = [[] for _ in self.vertex_ids]
        for e, vs in enumerate(self.edge_vertices):
            for v in vs:
                self.vertex_edges[v].append(e)
        self.degree = [len(es) for es in self.vertex_edges]
        self.vertex_alive = [True] * len(self.vertex_ids)
        self.edge_alive = [True] * len(self.edge_ids)
        self.live_edges = len(self.edge_ids)
        self.trail: list[int] = []
        for v in range(len(self.vertex_ids)):
            if self.vertex_alive[v] and self.degree[v] < k:
                self.stash_vertex(v)
        self.trail.clear()

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
