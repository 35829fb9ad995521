"""d-uniform hypergraph data model, its text serialization, and a seeded
random generator.

Every edge spans exactly ``d`` distinct vertices.  Parallel edges (two edges
over the same vertex set) are allowed and count separately toward degree.
A hypergraph only grows: a vertex id is its position ``0..n-1`` and an edge
id its position ``0..m-1``, in the order they were added.

Mutation (``add_*``) requires exclusive access; all query methods leave the
structure untouched, and instances hold no shared state, so values can be
handed freely between threads.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import NotFoundError, ParameterError, ParseError


class Hypergraph:
    """Incidence structure of a d-uniform hypergraph.

    ``_edges[e]`` is edge e's vertex sequence in insertion order, which
    matters only for serialization; degree and equality are set-based.
    ``_incidence[v]`` lists the ids of the edges on v in ascending order.
    The peeling engine reads both lists in place.
    """

    __slots__ = ("_d", "_edges", "_incidence")

    def __init__(self, d: int):
        if d < 2:
            raise ParameterError(f"edge arity must be at least 2, got {d}")
        self._d = d
        self._edges: list[tuple[int, ...]] = []
        self._incidence: list[list[int]] = []

    # -- construction -------------------------------------------------------

    def add_vertex(self) -> int:
        self._incidence.append([])
        return len(self._incidence) - 1

    def add_vertices(self, count: int) -> list[int]:
        n = len(self._incidence)
        self._incidence.extend([] for _ in range(count))
        return list(range(n, len(self._incidence)))

    def add_edge(self, vertices: Sequence[int]) -> int:
        """Add an edge over exactly d distinct existing vertices."""
        vs = tuple(vertices)
        if len(vs) != self._d:
            raise ParameterError(f"edge needs {self._d} vertices, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise ParameterError(f"edge has a repeated vertex: {vs}")
        n = len(self._incidence)
        for v in vs:
            # has_vertex, inlined: the builders add edges by the thousand
            if not (isinstance(v, int) and 0 <= v < n):
                raise NotFoundError(f"unknown vertex id {v}")
        eid = len(self._edges)
        self._edges.append(vs)
        for v in vs:
            self._incidence[v].append(eid)
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
        return frozenset(range(len(self._incidence)))

    @property
    def edges(self) -> dict[int, tuple[int, ...]]:
        """Snapshot of edge id -> vertex sequence."""
        return dict(enumerate(self._edges))

    # A list accepts a negative index, so an outside id is range-checked
    # before it is used as one.

    def has_vertex(self, v: int) -> bool:
        return isinstance(v, int) and 0 <= v < len(self._incidence)

    def has_edge(self, e: int) -> bool:
        return isinstance(e, int) and 0 <= e < len(self._edges)

    def edge_vertices(self, e: int) -> tuple[int, ...]:
        if not self.has_edge(e):
            raise NotFoundError(f"unknown edge id {e}")
        return self._edges[e]

    def incident_edges(self, v: int) -> frozenset[int]:
        if not self.has_vertex(v):
            raise NotFoundError(f"unknown vertex id {v}")
        return frozenset(self._incidence[v])

    def degree(self, v: int) -> int:
        """Number of incident edges, counting parallel edges separately."""
        if not self.has_vertex(v):
            raise NotFoundError(f"unknown vertex id {v}")
        return len(self._incidence[v])

    def copy(self) -> "Hypergraph":
        g = Hypergraph(self._d)
        g._edges = self._edges.copy()
        g._incidence = [es.copy() for es in self._incidence]
        return g

    # -- consistency --------------------------------------------------------

    def validate(self) -> None:
        """Full-rescan check that the incidence index inverts the edge list."""
        n = len(self._incidence)
        rescan: list[list[int]] = [[] for _ in range(n)]
        for e, vs in enumerate(self._edges):
            if len(vs) != self._d or len(set(vs)) != self._d:
                raise AssertionError(f"edge {e} is not a set of {self._d} distinct vertices")
            for v in vs:
                if not 0 <= v < n:
                    raise AssertionError(f"edge {e} references missing vertex {v}")
                rescan[v].append(e)
        if rescan != self._incidence:
            raise AssertionError("incidence index does not match edge list")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._d == other._d
            and len(self._incidence) == len(other._incidence)
            and len(self._edges) == len(other._edges)
            and all(set(a) == set(b) for a, b in zip(self._edges, other._edges))
        )

    def __repr__(self) -> str:
        return f"Hypergraph(d={self._d}, vertices={self.num_vertices}, edges={self.num_edges})"


def gen_random(n_vertices: int, n_edges: int, d: int, seed: int) -> Hypergraph:
    """Seeded random d-uniform hypergraph: each edge picks d distinct
    vertices uniformly at random.

    The generator is CPython's ``random.Random`` (Mersenne Twister), with
    one ``sample(range(n_vertices), d)`` call per edge in order, so a seed
    pins the instance exactly.
    """
    g = Hypergraph(d)
    if n_vertices < d:
        raise ParameterError(f"need at least d={d} vertices, got {n_vertices}")
    if n_edges < 0:
        raise ParameterError(f"edge count must be non-negative, got {n_edges}")
    rng = random.Random(seed)
    g.add_vertices(n_vertices)
    for _ in range(n_edges):
        g.add_edge(rng.sample(range(n_vertices), d))
    return g


# -- text format -------------------------------------------------------------
#
# Line 1:  h <d> <num_vertices> <num_edges>
# Then exactly num_edges lines:  e v1 v2 ... vd   (d distinct vertex indices)
# Vertices are implicitly 0..num_vertices-1; lines starting '#' are comments.
# Numbers are ASCII decimal, an optional leading '-' aside: a line that is
# not a comment and holds a non-ASCII character, '_' or '+' is refused,
# though int() would read some such spellings as numbers.
# Stash files hold one line:  S v <vertex ids...>  or  S e <edge indices...>
# where edge indices are 0-based positions in the instance file's edge order.


def parse(text: str) -> Hypergraph:
    """Parse the standard text format. Raises ParseError with a line number.

    Each edge gets the checks of ``Hypergraph.add_edge``, with its messages,
    but is appended straight to the edge list and incidence index.
    """
    g: Hypergraph | None = None
    header_at = d = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if not raw.isascii() or "_" in raw or "+" in raw:
            raise ParseError(f"non-ASCII, '_' or '+' character in {raw!r}", lineno)
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
            edges = g._edges
            incidence = g._incidence = [[] for _ in range(n)]
            continue
        if fields[0] != "e":
            raise ParseError(f"expected edge line 'e v1 ... vd', got {raw!r}", lineno)
        eid = len(edges)
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
        for v in vs:
            if not 0 <= v < n:
                raise ParseError(f"unknown vertex id {v}", lineno)
            incidence[v].append(eid)
        edges.append(vs)
    if g is None:
        raise ParseError("empty input: missing 'h' header", 1)
    if len(edges) != m:
        raise ParseError(f"declared {m} edges but found {len(edges)}", header_at)
    return g


def serialize(g: Hypergraph) -> str:
    """Render in the standard text format, which ``parse`` reads back into
    an equal hypergraph with the same ids."""
    line = "e" + " %d" * g._d
    lines = [f"h {g._d} {len(g._incidence)} {len(g._edges)}"]
    lines.extend([line % vs for vs in g._edges])
    return "\n".join(lines) + "\n"


def parse_stash(text: str) -> tuple[str, list[int]]:
    """Parse a stash file; returns ('v'|'e', ids)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not raw.isascii() or "_" in raw or "+" in raw:
            raise ParseError(f"non-ASCII, '_' or '+' character in {raw!r}", lineno)
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
