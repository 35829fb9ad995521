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

    Edges store their vertex sequence in insertion order; the order matters
    only for serialization stability.  Degree and equality semantics are
    set-based.  The peeling engine reads ``_edges`` and ``_incidence`` in place.
    """

    __slots__ = ("_d", "_vertices", "_edges", "_incidence", "_next_vertex", "_next_edge")

    def __init__(self, d: int):
        if d < 2:
            raise ParameterError(f"edge arity must be at least 2, got {d}")
        self._d = d
        self._vertices: set[int] = set()
        self._edges: dict[int, tuple[int, ...]] = {}
        self._incidence: dict[int, set[int]] = {}
        self._next_vertex = 0
        self._next_edge = 0

    # -- construction -------------------------------------------------------

    def add_vertex(self) -> int:
        vid = self._next_vertex
        self._next_vertex += 1
        self._vertices.add(vid)
        self._incidence[vid] = set()
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
            if v not in self._vertices:
                raise NotFoundError(f"unknown vertex id {v}")
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = vs
        for v in vs:
            self._incidence[v].add(eid)
        return eid

    # -- queries ------------------------------------------------------------

    @property
    def d(self) -> int:
        return self._d

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._vertices)

    @property
    def edges(self) -> dict[int, tuple[int, ...]]:
        """Snapshot of edge id -> vertex sequence."""
        return dict(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

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
            self._incidence[v].discard(e)

    def remove_vertex(self, v: int) -> None:
        """Delete v together with every edge incident to it."""
        if v not in self._vertices:
            raise NotFoundError(f"unknown vertex id {v}")
        for e in list(self._incidence[v]):
            self.remove_edge(e)
        self._vertices.discard(v)
        del self._incidence[v]

    def copy(self) -> "Hypergraph":
        g = Hypergraph.__new__(Hypergraph)
        g._d = self._d
        g._vertices = set(self._vertices)
        g._edges = dict(self._edges)
        g._incidence = {v: set(es) for v, es in self._incidence.items()}
        g._next_vertex = self._next_vertex
        g._next_edge = self._next_edge
        return g

    # -- consistency --------------------------------------------------------

    def validate(self) -> None:
        """Full-rescan check that the incidence index inverts the edge map."""
        rescan: dict[int, set[int]] = {v: set() for v in self._vertices}
        for e, vs in self._edges.items():
            if len(vs) != self._d or len(set(vs)) != self._d:
                raise AssertionError(f"edge {e} is not a set of {self._d} distinct vertices")
            for v in vs:
                if v not in self._vertices:
                    raise AssertionError(f"edge {e} references missing vertex {v}")
                rescan[v].add(e)
        if rescan != self._incidence:
            raise AssertionError("incidence index does not match edge map")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._d == other._d
            and self._vertices == other._vertices
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
    """Parse the standard text format. Raises ParseError with a line number."""
    header: tuple[int, int, int] | None = None
    header_at = 0
    g: Hypergraph | None = None
    edges_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "h" or len(fields) != 4:
                raise ParseError(f"expected header 'h <d> <n> <m>', got {raw!r}", lineno)
            try:
                d, n, m = (int(x) for x in fields[1:])
            except ValueError:
                raise ParseError(f"non-integer field in header {raw!r}", lineno) from None
            if d < 2 or n < 0 or m < 0:
                raise ParseError(f"header out of range: d={d}, n={n}, m={m}", lineno)
            header, header_at = (d, n, m), lineno
            g = Hypergraph(d)
            g.add_vertices(n)
            continue
        if fields[0] != "e":
            raise ParseError(f"expected edge line 'e v1 ... vd', got {raw!r}", lineno)
        if edges_seen >= m:
            raise ParseError(f"more than the declared {m} edges", lineno)
        try:
            vs = [int(x) for x in fields[1:]]
        except ValueError:
            raise ParseError(f"non-integer vertex index in {raw!r}", lineno) from None
        assert g is not None
        try:
            g.add_edge(vs)
        except (ParameterError, NotFoundError) as exc:
            raise ParseError(str(exc), lineno) from None
        edges_seen += 1
    if header is None:
        raise ParseError("empty input: missing 'h' header", 1)
    if edges_seen != header[2]:
        raise ParseError(f"declared {header[2]} edges but found {edges_seen}", header_at)
    assert g is not None
    return g


def serialize(g: Hypergraph) -> str:
    """Render in the standard text format.

    Vertices are renumbered to 0..n-1 in ascending id order and edges are
    emitted in ascending id order, so a hypergraph whose ids are already
    contiguous round-trips through parse() with identical ids.
    """
    order = sorted(g.vertices)
    rank = {v: i for i, v in enumerate(order)}
    lines = [f"h {g.d} {len(order)} {g.num_edges}"]
    for e in sorted(g.edges):
        vs = " ".join(str(rank[v]) for v in g.edge_vertices(e))
        lines.append(f"e {vs}")
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
