"""d-uniform hypergraph data model, the copier that embeds one graph into
another, its text serialization, and a seeded random generator.

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
import re
from itertools import chain, combinations, islice
from operator import eq
from typing import Iterable, Iterator, Sequence

from .errors import NotFoundError, ParameterError, ParseError, check_ints


class Hypergraph:
    """Incidence structure of a d-uniform hypergraph.

    ``_edges[e]`` is edge e's vertex sequence in insertion order, which
    matters only for serialization; degree and equality are set-based.
    ``_incidence[v]`` lists the ids of the edges on v in ascending order.
    Package modules read both lists in place; only ``hypergraph`` writes
    them.
    """

    __slots__ = ("_d", "_edges", "_incidence")

    def __init__(self, d: int):
        check_ints(d=d)
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
        check_ints(count=count)
        if count < 0:
            raise ParameterError(f"vertex count must be non-negative, got {count}")
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
            if not (type(v) is int and 0 <= v < n):
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
    def edges(self) -> dict[int, tuple[int, ...]]:
        """Snapshot of edge id -> vertex sequence.  No package code calls
        it; the benchmark's set-up does.  Read ``num_edges`` and
        ``edge_vertices`` instead."""
        return dict(enumerate(self._edges))

    # A list accepts a negative index, so an outside id is range-checked
    # before it is used as one.

    def has_vertex(self, v: int) -> bool:
        return type(v) is int and 0 <= v < len(self._incidence)

    def has_edge(self, e: int) -> bool:
        return type(e) is int and 0 <= e < len(self._edges)

    def edge_vertices(self, e: int) -> tuple[int, ...]:
        if not self.has_edge(e):
            raise NotFoundError(f"unknown edge id {e}")
        return self._edges[e]

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


def _from_edges(d: int, n: int, edges: list[tuple[int, ...]]) -> Hypergraph:
    """A hypergraph of n vertices whose edge list is ``edges`` itself, for
    edges that each hold d distinct ids below n: no ``add_edge`` check
    runs, and each vertex's incidence list is built ascending."""
    g = Hypergraph(d)
    g._edges = edges
    incidence = g._incidence = [[] for _ in range(n)]
    for e, vs in enumerate(edges):
        for v in vs:
            incidence[v].append(e)
    return g


def embed_graph(g: Hypergraph, target: Hypergraph, externals) -> list[tuple[int, int]]:
    """Append one copy of g to target per tuple of external ends in
    ``externals``, in order, and return each copy's (vertex, edge) offsets.

    In each copy, g's first ``len(ends)`` vertices are the target vertices
    listed in its ends tuple, in order, each one that target had before the
    call; every other vertex v of g becomes target's v + the copy's first
    offset, and every edge e of g target's e + its second.  Ids, offsets
    and incidence order are those of one call per copy, in order: the
    copied edges' ids are past all of target's, so each external end takes
    them at the tail of its incidence list, still ascending.  Every ends
    tuple is checked before anything is appended, so a refused call leaves
    target unchanged.  Edges are copied without ``add_edge``'s per-edge
    checks: g's edges already passed them, so only the arity and the ends
    are checked here.
    """
    if g._d != target._d:
        raise ParameterError(f"edge needs {target._d} vertices, got {g._d}")
    size, me = len(g._incidence), len(g._edges)
    had = n = len(target._incidence)
    m = len(target._edges)
    copies, offsets = [], []  # per copy: (ends, fresh vertex ids, edge offset), offsets
    for ends in externals:
        ends = tuple(ends)
        if len(ends) > size:
            raise ParameterError(f"{len(ends)} external ends for a graph of {size} vertices")
        if len(set(ends)) != len(ends):
            raise ParameterError(f"external ends repeat a vertex: {ends}")
        for v in ends:
            # has_vertex, inlined, against the target as the call found it
            if not (type(v) is int and 0 <= v < had):
                raise NotFoundError(f"unknown vertex id {v}")
        copies.append((ends, range(n, n + size - len(ends)), m))
        offsets.append((n - len(ends), m))
        n += size - len(ends)
        m += me
    edges, incidence, local = target._edges, target._incidence, g._incidence
    flat = list(chain.from_iterable(g._edges))
    for ends, fresh, de in copies:
        # the copy's vertex for g's vertex v is [*ends, *fresh][v]
        edges.extend(zip(*[map([*ends, *fresh].__getitem__, flat)] * g._d))
        for v, es in zip(ends, local):
            incidence[v].extend([e + de for e in es])
    incidence.extend([[e + de for e in es] for ends, _, de in copies for es in local[len(ends):]])
    return offsets


def gen_random(n_vertices: int, n_edges: int, d: int, seed: int) -> Hypergraph:
    """Seeded random d-uniform hypergraph: each edge picks d distinct
    vertices uniformly at random.

    The generator is CPython's ``random.Random`` (Mersenne Twister), with
    one ``sample(range(n_vertices), d)`` call per edge in order, so a seed
    pins the instance exactly.
    """
    g = Hypergraph(d)
    check_ints(n_vertices=n_vertices, n_edges=n_edges, seed=seed)
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
# Vertices are implicitly 0..num_vertices-1.
# Stash files hold one line:  S v <vertex ids...>  or  S e <edge indices...>
# where edge indices are 0-based positions in the instance file's edge order.
# Text exactly as ``serialize`` writes it (single spaces, ASCII digits, a
# '\n' after every line), followed by nothing or by blank and '#' comment
# lines only, as the CLI's own outputs are, is read in bulk.  All other
# instance text, and every error, goes through ``parse_lines`` and the one
# line reader that instance, stash and reduction map files share,
# ``content_lines``: lines are numbered as str.splitlines numbers them,
# blank lines and lines starting '#' are skipped, and the whitespace around
# a line is ignored.  Numbers are ASCII decimal, an optional leading '-'
# aside: any other line holding a non-ASCII character (whitespace around it
# included), '_' or '+' is refused, though int() would read some such
# spellings as numbers.


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped line) for each line of text that is not
    blank or a '#' comment, then (one past the last line number, "") for
    the end of the text.  Raises ParseError at a line holding a non-ASCII
    character, '_' or '+'."""
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            if not raw.isascii() or "_" in raw or "+" in raw:
                raise ParseError(f"non-ASCII, '_' or '+' character in {raw!r}", lineno)
            yield lineno, line
    yield lineno + 1, ""


def parse(text: str) -> Hypergraph:
    """Parse the standard text format. Raises ParseError with a line number.

    Text in the exact form ``serialize`` writes, with or without a tail of
    blank and '#' comment lines, is read in bulk; any other text, and
    every error with its message and line, goes through
    ``parse_lines(content_lines(text))``, which gives the same result."""
    g = _parse_serialized(text)
    return g if g is not None else parse_lines(content_lines(text))


_HEADER = re.compile(r"h ([0-9]+) ([0-9]+) ([0-9]+)\n")
# Each chunk of text is read by one match, up to its first line that is
# not an edge line; the match's backtracking stack grows with the lines it
# spans (16.7 MiB over 32,000 d=3 lines), so chunks stay small; a
# possessive quantifier would need Python 3.11.
_CHUNK = 1 << 15


def _parse_serialized(text: str) -> Hypergraph | None:
    """The hypergraph of text in the exact form ``serialize`` writes, then
    only lines that ``content_lines`` skips, or None for any other text,
    valid or not, which ``parse_lines`` then reads."""
    header = _HEADER.match(text)
    if header is None:
        return None
    try:
        # int() refuses a number of more than 4,300 digits
        d, n, m = map(int, header.groups())
    except ValueError:
        return None
    pos = header.end()
    # an edge line is at least 2d + 2 characters long, so with an edge this
    # bounds d, the regex's repeat count
    if d < 2 or m < 1 or text.count("\n", pos) < m or m * (2 * d + 2) > len(text) - pos:
        return None
    edges: list[tuple[int, ...]] = []
    line = re.compile("(?:e(?: [0-9]+){%d}\n)*" % d)
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        # the edge lines run up to the first line that is not one, which
        # starts the tail
        stop = line.match(text, pos, end).end()
        tokens = text[pos:stop].split()
        del tokens[:: d + 1]  # the 'e' that opens each line
        try:
            ids = list(map(int, tokens))
        except ValueError:
            return None
        if ids and max(ids) >= n:
            return None
        # an edge repeats an end when two of its columns agree there; each
        # pair of columns is compared as it streams, with no list per column
        if any(any(map(eq, islice(ids, i, None, d), islice(ids, j, None, d))) for i, j in combinations(range(d), 2)):
            return None
        # zip over d references to one iterator takes its items d at a time
        edges.extend(zip(*[iter(ids)] * d))
        pos = stop
        if stop < end:
            break
    if len(edges) != m:
        return None
    try:
        if next(content_lines(text[pos:]))[1]:
            return None
    except ParseError:  # a content line that the line reader refuses
        return None
    return _from_edges(d, n, edges)


def parse_lines(lines: Iterator[tuple[int, str]]) -> Hypergraph:
    """Read one instance in the standard text format from ``content_lines``
    items, up to the first empty line.

    Each edge is added by ``Hypergraph.add_edge``, whose refusal becomes a
    ParseError with the same message at the edge's line.
    """
    header_at, header = next(lines)
    if not header:
        raise ParseError("empty input: missing 'h' header", header_at)
    fields = header.split()
    if fields[0] != "h" or len(fields) != 4:
        raise ParseError(f"expected header 'h <d> <n> <m>', got {header!r}", header_at)
    try:
        d, n, m = (int(x) for x in fields[1:])
    except ValueError:
        raise ParseError(f"non-integer field in header {header!r}", header_at) from None
    if d < 2 or n < 0 or m < 0:
        raise ParseError(f"header out of range: d={d}, n={n}, m={m}", header_at)
    g = Hypergraph(d)
    # add_vertices(n) would also build a list of the n ids
    g._incidence = [[] for _ in range(n)]
    for lineno, line in lines:
        if not line:
            break
        fields = line.split()
        if fields[0] != "e":
            raise ParseError(f"expected edge line 'e v1 ... vd', got {line!r}", lineno)
        if len(g._edges) >= m:
            raise ParseError(f"more than the declared {m} edges", lineno)
        try:
            vs = tuple(map(int, fields[1:]))
        except ValueError:
            raise ParseError(f"non-integer vertex index in {line!r}", lineno) from None
        try:
            g.add_edge(vs)
        except (ParameterError, NotFoundError) as exc:
            raise ParseError(str(exc), lineno) from None
    if len(g._edges) != m:
        raise ParseError(f"declared {m} edges but found {len(g._edges)}", header_at)
    return g


def serialize(g: Hypergraph) -> str:
    """Render in the standard text format, which ``parse`` reads back into
    an equal hypergraph with the same ids."""
    line = "e" + " %d" * g._d
    lines = [f"h {g._d} {len(g._incidence)} {len(g._edges)}"]
    lines.extend([line % vs for vs in g._edges])
    return "\n".join(lines) + "\n"


def parse_stash(text: str) -> tuple[str, list[int]]:
    """Parse a stash file, whose first content line is the stash; returns
    ('v'|'e', ids)."""
    at, line = next(content_lines(text))
    if not line:
        raise ParseError("empty stash file", at)
    fields = line.split()
    if fields[0] != "S" or len(fields) < 2 or fields[1] not in ("v", "e"):
        raise ParseError(f"expected 'S v|e <ids...>', got {line!r}", at)
    try:
        return fields[1], [int(x) for x in fields[2:]]
    except ValueError:
        raise ParseError(f"non-integer id in {line!r}", at) from None


def format_stash(kind: str, ids: Iterable[int]) -> str:
    """Render a stash as ``parse_stash`` reads it; every id must be an int."""
    if kind not in ("v", "e"):
        raise ParameterError(f"stash kind must be 'v' or 'e', got {kind!r}")
    ids = list(ids)
    for i in ids:
        check_ints(id=i)
    return f"S {kind} {' '.join(map(str, sorted(ids)))}".rstrip() + "\n"
