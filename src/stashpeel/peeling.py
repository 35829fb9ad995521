"""k-core peeling engine.

Repeatedly removes vertices of degree < k together with their incident
edges until none remain; the survivors form the k-core, which is unique
regardless of removal order.

One engine, ``PeelCore``, computes every k-core in the package: a k-core
under delete/restore that reads the hypergraph's lists in place and takes
a stash at construction.  Only a trace reads the order of the peel that
follows, so only ``k_core_after`` builds its core heap-ordered, lowest
vertex id first with the order on the core's trail, and traces are
reproducible; every other core peels from a plain stack and leaves its
trail empty.  ``k_core`` and ``k_core_after`` read their trace off
one, the gadget checks read its alive flags, ``is_k_peelable`` and
``peel_edges`` its live edges, and the stash solvers stash and undo on
one.  The replay auditor ``verify_trace`` shares no code with it and also
reads the graph in place, replaying on a degree list, and
``core_subgraph`` builds the core alone, so no step from peel to core
extraction copies the whole graph.  This module writes no graph's lists:
``core_subgraph`` hands the core's renumbered edges to
``hypergraph._from_edges``, which builds the incidence lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress, count
from operator import not_
from typing import Collection, Iterable

from .errors import NotFoundError, ParameterError, check_ints
from .hypergraph import Hypergraph, _from_edges


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

    def __post_init__(self):
        check_k(self.k)

    @property
    def core_empty(self) -> bool:
        return not self.core_vertices


def check_k(k: int) -> None:
    """Raise ParameterError unless k is an int of at least 1.  Every
    ``PeelCore`` runs it, and so does each entry point that checks other
    arguments before it builds one, so a bad k is the error reported; only
    ``k_core_after`` and ``is_k_peelable`` check a stash's ids first."""
    # check_ints's test, inline on the path every valid k takes
    if type(k) is not int or k < 1:
        check_ints(k=k)
        raise ParameterError(f"k must be at least 1, got {k}")


def k_core(g: Hypergraph, k: int) -> PeelTrace:
    """Peel g down to its k-core."""
    return k_core_after(g, k)


def is_k_peelable(
    g: Hypergraph,
    k: int,
    stash_vertices: Iterable[int] = (),
    stash_edges: Iterable[int] = (),
) -> bool:
    """True iff g with the stash removed first has an empty k-core.

    The stash is checked as by ``k_core_after``, but no trace is built: the
    core is empty exactly when no edge is left alive, since a live vertex
    has k >= 1 live edges and a peeled one none.
    """
    sv, se = _stash_ids(g, stash_vertices, stash_edges)
    return not PeelCore(g, k, sv, se).live_edges


def certify_stash(
    label: str,
    g: Hypergraph,
    k: int,
    stash_vertices: Collection[int] = (),
    stash_edges: Collection[int] = (),
) -> None:
    """Raise AssertionError, naming the stash `label`, unless removing it
    empties g's k-core: every stash leaving the library passes this check,
    which ``python -O`` keeps."""
    if not is_k_peelable(g, k, stash_vertices, stash_edges):
        stash = sorted(chain(stash_vertices, stash_edges))
        raise AssertionError(f"{label} stash {stash} leaves a nonempty {k}-core")


def _stash_ids(
    g: Hypergraph, stash_vertices: Iterable[int], stash_edges: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    # frozensets, as PeelCore tests membership in the stashed vertices
    sv = frozenset(stash_vertices)
    se = frozenset(stash_edges)
    for v in sv:
        if not g.has_vertex(v):
            raise NotFoundError(f"unknown vertex id {v} in stash")
    for e in se:
        if not g.has_edge(e):
            raise NotFoundError(f"unknown edge id {e} in stash")
    return sv, se


def k_core_after(
    g: Hypergraph,
    k: int,
    stash_vertices: Iterable[int] = (),
    stash_edges: Iterable[int] = (),
) -> PeelTrace:
    """k-core of g with the stash removed first; g itself is not mutated.

    The trace covers what is left after the stash: stashed vertices and
    edges, and the edges on stashed vertices, are in neither part.  It is
    read off one ``PeelCore``, the one caller of the heap-ordered
    construction: the peel order from its trail, the core from
    its alive flags, and the peeled edges are the dead ones outside the
    stash.  The trace does not record the stash, so ``verify_trace`` can
    replay it only when the stash is empty.
    """
    sv, se = _stash_ids(g, stash_vertices, stash_edges)
    core = PeelCore(g, k, sv, se, _ordered=True)
    dead_edges = frozenset(compress(count(), map(not_, core.edge_alive)))
    return PeelTrace(
        k=k,
        peeled_vertices=tuple([v for v in core.trail if v >= 0]),
        peeled_edges=dead_edges.difference(se, *map(g._incidence.__getitem__, sv)),
        core_vertices=frozenset(compress(count(), core.vertex_alive)),
        core_edges=frozenset(compress(count(), core.edge_alive)),
    )


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
    # zip over d references to one iterator takes its items d at a time
    return _from_edges(g._d, len(core_v), list(zip(*[ends] * g._d)))


def verify_trace(g: Hypergraph, trace: PeelTrace) -> bool:
    """Replay a trace against its input instead of trusting the engine.

    Checks the partition property, that each peeled vertex is peeled once
    and had degree < k at its removal moment, that the peeled edges are
    those on peeled vertices, and that the residue has minimum degree >= k.
    The replay runs on a degree list and reads g in place.

    Only stash-free traces can be replayed: a trace does not record its
    stash, and every vertex and edge of g must be peeled or in the core,
    so the trace of ``k_core_after`` with a non-empty stash is rejected.
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
    input.  No package code calls it; the benchmark's set-up does.
    """
    check_k(k)
    m = len(edges)
    if not all(e in edges for e in range(m)):
        raise ParameterError(f"edge ids must be 0..{m - 1}")
    try:
        top = max(map(max, edges.values()), default=-1)
    except (TypeError, ValueError):  # ids that do not compare, such as 0 and "a"; an empty edge
        raise ParameterError("an edge must be a nonempty sequence of integer vertex ids") from None
    # add_edge checks every id; only the largest sizes the graph
    if not isinstance(top, int):
        raise ParameterError(f"vertex ids must be integers, got {top!r}")
    g = Hypergraph(len(edges[0]) if m else 2)
    g.add_vertices(1 + top)
    try:
        for e in range(m):
            g.add_edge(edges[e])
    except NotFoundError as exc:
        raise ParameterError(str(exc)) from None
    return {e: edges[e] for e in compress(range(m), PeelCore(g, k).edge_alive)}


class PeelCore:
    """A k-core under delete/restore: stash an element, peel the cascade, undo.

    Built from a hypergraph and an optional stash, the package's one k-core
    engine.  The stashed vertices are marked dead; then the stashed edges
    and the edges on stashed vertices die, and every live vertex of degree
    < k is peeled.  It reads the graph's edge list and incidence lists in
    place and never writes them, so its ids are the graph's.

    A vertex dies when its degree first falls below k and is peeled when it
    is taken from the dead vertices not yet peeled, and each live edge on
    it dies.  A construction peels from a stack and puts nothing on
    ``trail``, since the core does not depend on the order.  Only
    ``k_core_after``, whose trace is the peel order, asks for the ordered
    construction: the dead vertices wait in a heap and leave it lowest id
    first, each goes onto the trail as v and each edge it kills as ~e, so
    the trail holds the stash's edges and then that peel, but not the
    stashed vertices.  Either way an undo mark is taken after
    construction.  ``degree[v]`` counts the live edges on v whether v is
    alive or not, so it is 0 for every peeled v.  ``stash_vertex`` and
    ``stash_edge`` kill a live element and peel its cascade from a stack,
    putting it on the trail; ``undo(mark)`` revives all killed since
    ``len(trail)`` was ``mark``.  A stash with its
    undo costs time linear in the incidences of what it kills, not in the
    core's size.
    """

    __slots__ = ("k", "edge_vertices", "vertex_edges", "degree", "vertex_alive", "edge_alive",
                 "live_edges", "trail")

    def __init__(
        self,
        g: Hypergraph,
        k: int,
        stash_vertices: Collection[int] = (),
        stash_edges: Collection[int] = (),
        *,
        _ordered: bool = False,
    ):
        check_k(k)
        self.k = k
        edges, incidence = self.edge_vertices, self.vertex_edges = g._edges, g._incidence
        deg = self.degree = list(map(len, incidence))
        self.edge_alive = [True] * len(edges)
        self.live_edges = len(edges)
        alive = self.vertex_alive = list(map(k.__le__, deg))
        for v in stash_vertices:
            alive[v] = False
        self.trail: list[int] = []
        # the other vertices of degree < k, ascending, which is already a
        # heap; the stash's edges push the vertices they drop below k
        low = [v for v in compress(count(), map(k.__gt__, deg)) if v not in stash_vertices]
        dying = chain(stash_edges, *map(incidence.__getitem__, stash_vertices))
        if _ordered:
            self._peel(low, dying)
        else:
            self._peel_untraced(low, dying)

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
        self._peel([], self.vertex_edges[v], list.append, list.pop)

    def stash_edge(self, e: int) -> None:
        """Kill live edge e and peel what its loss cascades to."""
        self._peel([], (e,), list.append, list.pop)

    def _peel(self, dead: list[int], dying: Iterable[int], push=heappush, pop=heappop) -> None:
        # Kill the live edges among `dying`, then peel the dead vertices
        # in `dead` until none is left: `pop` one, put it on the trail and
        # kill the live edges on it; each vertex that dies on the way goes
        # into `dead` by `push`.  By default `dead` is a heap, lowest id
        # first, for the ordered construction.  A stash passes list.append
        # and list.pop, a stack, which costs less per vertex: the cascade
        # is the same, and undo does not depend on the trail's order.
        k, deg, record = self.k, self.degree, self.trail.append
        vertex_alive, edge_alive = self.vertex_alive, self.edge_alive
        edge_vertices, vertex_edges = self.edge_vertices, self.vertex_edges
        killed = 0
        while True:
            for e in dying:
                if edge_alive[e]:
                    edge_alive[e] = False
                    record(~e)
                    killed += 1
                    for w in edge_vertices[e]:
                        c = deg[w] - 1
                        deg[w] = c
                        if c < k and vertex_alive[w]:
                            vertex_alive[w] = False
                            push(dead, w)
            if not dead:
                break
            v = pop(dead)
            record(v)
            dying = vertex_edges[v]
        self.live_edges -= killed

    def _peel_untraced(self, dead: list[int], dying: Iterable[int]) -> None:
        # _peel from a stack with nothing put on the trail: the cascade
        # and so the core are the same, and a construction no one replays
        # does not pay for the heap or for one trail entry per element.
        k, deg, push, pop = self.k, self.degree, dead.append, dead.pop
        vertex_alive, edge_alive = self.vertex_alive, self.edge_alive
        edge_vertices, vertex_edges = self.edge_vertices, self.vertex_edges
        killed = 0
        while True:
            for e in dying:
                if edge_alive[e]:
                    edge_alive[e] = False
                    killed += 1
                    for w in edge_vertices[e]:
                        c = deg[w] - 1
                        deg[w] = c
                        if c < k and vertex_alive[w]:
                            vertex_alive[w] = False
                            push(w)
            if not dead:
                break
            dying = vertex_edges[pop()]
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
