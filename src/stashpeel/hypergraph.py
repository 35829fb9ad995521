"""d-uniform hypergraph data model and its text serialization.

Every edge spans exactly ``d`` distinct vertices.  Parallel edges (two edges
over the same vertex set) are allowed and count separately toward degree.
Vertex and edge ids are opaque non-negative integers that are never reused
within one hypergraph's lifetime, so removals keep surviving ids stable.

Mutation (``add_*`` / ``remove_*``) requires exclusive access; all query
methods leave the structure untouched, and instances hold no shared state,
so values can be handed freely between threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NotFoundError, ParameterError, ParseError


class Hypergraph:
    """Incidence structure of a d-uniform hypergraph.

    Edges keep their vertex sequence in insertion order, which matters only
    for serialization.  Degree and equality are set-based.  ``_incidence``
    maps each vertex to its edge ids, so its keys are the vertex set.  The
    peeling engine reads ``_edges`` and ``_incidence`` in place.
    """

    __slots__ = ("_d", "_edges", "_incidence", "_next_vertex", "_next_edge")

    def __init__(self, d: int):
        if d < 2:
            raise ParameterError(f"edge arity must be at least 2, got {d}")
        self._d = d
        self._edges: dict[int, tuple[int, ...]] = {}
        # dict[eid, None] as an insertion-ordered set: an empty dict is 64 B
        # against 216 B for a set, and removal stays O(1), unlike a list.
        self._incidence: dict[int, dict[int, None]] = {}
        self._next_vertex = 0
        self._next_edge = 0

    # -- construction -------------------------------------------------------

    def add_vertex(self) -> int:
        vid = self._next_vertex
        self._next_vertex += 1
        self._incidence[vid] = {}
        return vid

    def add_vertices(self, count: int) -> list[int]:
        return [self.add_vertex() for _ in range(count)]

    def add_edge(self, vertices: Sequence[int]) -> int:
        """Add an edge over exactly d distinct existing vertices."""
        vs = tuple(vertices)
        if len(vs) != self._d:
            raise ParameterError(f"edge needs {self._d} vertices, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise ParameterError(f"edge has a repeated vertex: {vs}")
        for v in vs:
            if v not in self._incidence:
                raise NotFoundError(f"unknown vertex id {v}")
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = vs
        for v in vs:
            self._incidence[v][eid] = None
        return eid

    # -- queries ------------------------------------------------------------

    @property
    def d(self) -> int:
        return self._d

    @property
    def num_vertices(self) -> int:
        return len(self._incidence)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._incidence)

    @property
    def edges(self) -> dict[int, tuple[int, ...]]:
        """Snapshot of edge id -> vertex sequence."""
        return dict(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._incidence

    def has_edge(self, e: int) -> bool:
        return e in self._edges

    def edge_vertices(self, e: int) -> tuple[int, ...]:
        try:
            return self._edges[e]
        except KeyError:
            raise NotFoundError(f"unknown edge id {e}") from None

    def incident_edges(self, v: int) -> frozenset[int]:
        try:
            return frozenset(self._incidence[v])
        except KeyError:
            raise NotFoundError(f"unknown vertex id {v}") from None

    def degree(self, v: int) -> int:
        """Number of incident edges, counting parallel edges separately."""
        try:
            return len(self._incidence[v])
        except KeyError:
            raise NotFoundError(f"unknown vertex id {v}") from None

    # -- mutation -----------------------------------------------------------

    def remove_edge(self, e: int) -> None:
        try:
            vs = self._edges.pop(e)
        except KeyError:
            raise NotFoundError(f"unknown edge id {e}") from None
        for v in vs:
            del self._incidence[v][e]

    def remove_vertex(self, v: int) -> None:
        """Delete v together with every edge incident to it."""
        if v not in self._incidence:
            raise NotFoundError(f"unknown vertex id {v}")
        for e in list(self._incidence[v]):
            self.remove_edge(e)
        del self._incidence[v]

    def copy(self) -> "Hypergraph":
        g = Hypergraph.__new__(Hypergraph)
        g._d = self._d
        g._edges = dict(self._edges)
        g._incidence = {v: es.copy() for v, es in self._incidence.items()}
        g._next_vertex = self._next_vertex
        g._next_edge = self._next_edge
        return g

    # -- consistency --------------------------------------------------------

    def validate(self) -> None:
        """Full-rescan check that the incidence index inverts the edge map."""
        rescan: dict[int, dict[int, None]] = {v: {} for v in self._incidence}
        for e, vs in self._edges.items():
            if len(vs) != self._d or len(set(vs)) != self._d:
                raise AssertionError(f"edge {e} is not a set of {self._d} distinct vertices")
            for v in vs:
                if v not in rescan:
                    raise AssertionError(f"edge {e} references missing vertex {v}")
                rescan[v][e] = None
        if rescan != self._incidence:
            raise AssertionError("incidence index does not match edge map")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._d == other._d
            and self._incidence.keys() == other._incidence.keys()
            and self._edges.keys() == other._edges.keys()
            and all(set(vs) == set(other._edges[e]) for e, vs in self._edges.items())
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashable
        raise TypeError("Hypergraph is not hashable")

    def __repr__(self) -> str:
        return f"Hypergraph(d={self._d}, vertices={self.num_vertices}, edges={self.num_edges})"


# -- text format -------------------------------------------------------------
#
# Line 1:  h <d> <num_vertices> <num_edges>
# Then exactly num_edges lines:  e v1 v2 ... vd   (d distinct vertex indices)
# Vertices are implicitly 0..num_vertices-1; lines starting '#' are comments.
# Stash files hold one line:  S v <vertex ids...>  or  S e <edge indices...>
# where edge indices are 0-based positions in the instance file's edge order.


def parse(text: str) -> Hypergraph:
    """Parse the standard text format. Raises ParseError with a line number.

    Each edge gets the checks of ``Hypergraph.add_edge``, with its messages,
    but is written straight into the edge map and incidence index.
    """
    g: Hypergraph | None = None
    header_at = d = m = eid = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if g is None:
            if fields[0] != "h" or len(fields) != 4:
                raise ParseError(f"expected header 'h <d> <n> <m>', got {raw!r}", lineno)
            try:
                d, n, m = (int(x) for x in fields[1:])
            except ValueError:
                raise ParseError(f"non-integer field in header {raw!r}", lineno) from None
            if d < 2 or n < 0 or m < 0:
                raise ParseError(f"header out of range: d={d}, n={n}, m={m}", lineno)
            header_at = lineno
            g = Hypergraph(d)
            g.add_vertices(n)
            edges, incidence = g._edges, g._incidence
            continue
        if fields[0] != "e":
            raise ParseError(f"expected edge line 'e v1 ... vd', got {raw!r}", lineno)
        if eid >= m:
            raise ParseError(f"more than the declared {m} edges", lineno)
        try:
            vs = tuple(map(int, fields[1:]))
        except ValueError:
            raise ParseError(f"non-integer vertex index in {raw!r}", lineno) from None
        if len(vs) != d:
            raise ParseError(f"edge needs {d} vertices, got {len(vs)}", lineno)
        if len(set(vs)) != d:
            raise ParseError(f"edge has a repeated vertex: {vs}", lineno)
        try:
            for v in vs:
                incidence[v][eid] = None
        except KeyError:
            raise ParseError(f"unknown vertex id {v}", lineno) from None
        edges[eid] = vs
        eid += 1
    if g is None:
        raise ParseError("empty input: missing 'h' header", 1)
    if eid != m:
        raise ParseError(f"declared {m} edges but found {eid}", header_at)
    g._next_edge = eid
    return g


def serialize(g: Hypergraph) -> str:
    """Render in the standard text format.

    Vertices are renumbered to 0..n-1 in ascending id order and edges are
    emitted in ascending id order, so a hypergraph whose ids are already
    contiguous round-trips through parse() with identical ids.
    """
    edges = g._edges
    rank = {v: str(i) for i, v in enumerate(sorted(g._incidence))}.__getitem__
    lines = [f"h {g._d} {len(g._incidence)} {len(edges)}"]
    lines.extend(["e " + " ".join(map(rank, edges[e])) for e in sorted(edges)])
    return "\n".join(lines) + "\n"


def parse_stash(text: str) -> tuple[str, list[int]]:
    """Parse a stash file; returns ('v'|'e', ids)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "S" or len(fields) < 2 or fields[1] not in ("v", "e"):
            raise ParseError(f"expected 'S v|e <ids...>', got {raw!r}", lineno)
        try:
            ids = [int(x) for x in fields[2:]]
        except ValueError:
            raise ParseError(f"non-integer id in {raw!r}", lineno) from None
        return fields[1], ids
    raise ParseError("empty stash file", 1)


def format_stash(kind: str, ids: Iterable[int]) -> str:
    if kind not in ("v", "e"):
        raise ParameterError(f"stash kind must be 'v' or 'e', got {kind!r}")
    parts = " ".join(str(i) for i in sorted(ids))
    return f"S {kind} {parts}".rstrip() + "\n"
