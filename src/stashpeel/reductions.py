"""Whole-instance translators between cover and stash problems.

Two directions are implemented, each with certificate lifting so results
can be checked end to end on small instances:

* vertex cover -> k-vertex-stash (``"vc"``): the original vertices keep
  their ids, and every edge (u, v) of a standard graph gains a fresh
  edge-replacement gadget wired to u and v; a stash of the output
  normalizes, without growing, onto original vertex ids, which are checked
  to cover every original edge.
* k-vertex-stash -> k-edge-stash (``"vstash"``): every vertex v is
  replaced by a per-vertex wrapper gadget whose designated stashable edge
  simulates stashing v; stashes push forward with equal size and lift back
  without growing.

Each build makes its templates once, through ``Hypergraph.add_edge`` and
its checks, and copies one per gadget by offset with
``hypergraph.embed_graph``: the cover direction's template is the
edge-replacement gadget with its port edges, on two external ends, and
one call copies it once per original edge, each copy mapping those ends
to its edge's endpoints; the stash direction has one wrapper template
per vertex degree, copied one vertex per call.  The lookup tables are
filled from the id ranges the copies take.

Reduction maps carry the original and reduced instances plus the lookup
tables that normalizing, pushing, lifting and auditing read: ``owner``,
which charges each reduced vertex (cover direction) or reduced edge
(stash direction) to one original vertex, and ``estar_pick`` and
``ports`` for the stash direction.  Normalizing, pushing and lifting
take only the map and a stash, and read both instances from the map.
Each gates the caller's stash through ``_valid_stash`` and re-checks the
stash it returns with ``peeling.certify_stash``.  ``REDUCTIONS`` maps
each direction's name, the word a sidecar header and ``reduce --from``
use, to its builder.  Maps round-trip through a text sidecar format (see
``serialize_map``) so the CLI can lift certificates from files alone:
the file holds a header and both instances, and the tables are rebuilt.
``parse_map`` reads a header and ``G orig`` section in the form
``serialize_map`` writes in bulk, the original as ``hypergraph.parse``
reads serialize-form text, and splits no line of the rest unless the
text differs from the rebuild's.  Any other map goes through
``hypergraph.content_lines``, the line reader instance and stash files
share, so its line numbers, comment and blank-line skipping and
character rules are theirs, and the embedded original's lines go
straight to ``hypergraph.parse_lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from . import peeling
from .errors import (ContractViolationError, InvalidArityError, ParameterError, ParseError,
                     UnsupportedCaseError, check_ints)
from .gadgets import (
    Gadget,
    GadgetReport,
    build_ck_gadget,
    build_pk_gadget,
    check_gadget,
)
from .hypergraph import Hypergraph, _parse_serialized, content_lines, embed_graph, parse_lines, serialize


@dataclass
class ReductionMap:
    """Correspondence between an original instance and its reduction.

    ``owner`` charges every id a stash of ``reduced`` can hold to one
    original vertex, which is what makes normalized and lifted stashes never
    grow.  In the cover direction it is keyed by reduced vertex: the
    original vertices come first and own themselves, and a cover gadget's
    internal vertices are owned by its edge's first endpoint.  In the stash
    direction it is keyed by reduced edge: a wrapper gadget's edges are
    owned by its vertex, and each neighboring edge by its original edge's
    lowest-id endpoint.  ``estar_pick`` sends an original vertex to its
    wrapper gadget's lowest-id E* edge, and ``ports`` lists, in incidence
    order, (original incident edge, attach vertex of its neighboring edge).
    ``parse_map`` rebuilds a map from its sidecar file, so a parsed map
    equals the one that was written, field for field.
    """

    direction: str  # a REDUCTIONS key: "vc" (stashes normalize to a checked original cover) | "vstash"
    k: int
    d: int
    original: Hypergraph
    reduced: Hypergraph
    owner: dict[int, int]
    estar_pick: dict[int, int] = field(default_factory=dict)
    ports: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in REDUCTIONS:
            raise ParameterError(f"direction must be one of {', '.join(REDUCTIONS)}, got {self.direction!r}")
        check_ints(k=self.k, d=self.d)


def _valid_stash(g: Hypergraph, k: int, kind: str, stash, where: str) -> frozenset[int]:
    """The caller's `kind` stash of g, the `where` instance, as a frozenset;
    ContractViolationError unless every id is in g and removing them all
    empties g's k-core."""
    s = frozenset(stash)
    has = g.has_vertex if kind == "vertex" else g.has_edge
    for x in s:
        if not has(x):
            raise ContractViolationError(f"stash {kind} {x} is not in the {where} instance")
    if not peeling.is_k_peelable(g, k, *((s, ()) if kind == "vertex" else ((), s))):
        raise ContractViolationError(f"stash does not make the {where} instance peelable")
    return s


# -- vertex cover -> k-vertex-stash -------------------------------------------


def reduce_vc_to_vertex_stash(g: Hypergraph, k: int, d: int) -> tuple[Hypergraph, ReductionMap]:
    """Build the d-uniform instance whose minimum k-vertex-stash equals the
    minimum vertex cover of the standard graph g."""
    check_ints(k=k, d=d)
    if g.d != 2:
        raise InvalidArityError("vertex cover instances are standard graphs (d=2)")
    if k < 2 or d < 2:
        raise ParameterError(f"reduction needs k >= 2 and d >= 2, got k={k}, d={d}")
    out = Hypergraph(d)
    out.add_vertices(g.num_vertices)
    owner = {v: v for v in range(g.num_vertices)}
    # only an original with edges needs the template, and parse_map's size
    # guard lets an edgeless one ask for any k
    if g.num_edges:
        # an edge's endpoints as vertices 0 and 1, then its gadget, then
        # the u and v port edges, each checked by add_edge
        gadget = build_ck_gadget(k, d)
        template = Hypergraph(d)
        template.add_vertices(2)
        [(dv, _)] = embed_graph(gadget.graph, template, [()])
        for endpoint, port in enumerate(gadget.ports):
            for attach in port.edges:
                template.add_edge((endpoint, *(dv + a for a in attach)))
        # one copy per original edge, in edge order, each one's fresh
        # vertices owned by the edge's first endpoint
        embed_graph(template, out, g._edges)
        fresh = template.num_vertices - 2
        owner.update(zip(range(g.num_vertices, out.num_vertices),
                         chain.from_iterable([(u,) * fresh for u, _ in g._edges])))
    return out, ReductionMap(
        direction="vc",
        k=k,
        d=d,
        original=g.copy(),
        reduced=out,
        owner=owner,
    )


def normalize_stash(rmap: ReductionMap, stash) -> frozenset[int]:
    """Rewrite a valid vertex stash of the reduced instance as a vertex
    cover of the original, never growing it, and return its original ids.

    Each vertex is replaced by its ``owner``: an original vertex is kept,
    and a gadget-internal one becomes that gadget's first endpoint (the
    deterministic choice of the two that both work).  The result is
    certified to empty the reduced k-core, and then checked to cover every
    edge of ``rmap.original``: an uncovered edge's gadget would survive
    that certificate, so a miss is a fault and raises AssertionError.
    """
    if rmap.direction != "vc":
        raise ParameterError("normalize_stash applies to cover-reduction maps")
    s = _valid_stash(rmap.reduced, rmap.k, "vertex", stash, "reduced")
    g = rmap.original
    out = frozenset(map(rmap.owner.__getitem__, s))
    peeling.certify_stash("normalized", rmap.reduced, rmap.k, stash_vertices=out)
    missed = next((e for e in range(g.num_edges) if out.isdisjoint(g.edge_vertices(e))), None)
    if missed is not None:
        raise AssertionError(f"lifted cover {sorted(out)} misses original edge {missed}")
    return out


# -- k-vertex-stash -> k-edge-stash -------------------------------------------


def reduce_vertex_to_edge_stash(g: Hypergraph, k: int, d: int) -> tuple[Hypergraph, ReductionMap]:
    """Build f(g): the d-uniform instance whose minimum k-edge-stash equals
    the minimum k-vertex-stash of g.

    Covers k >= 3 (any d >= 2) and k = 2 with d >= 3; the remaining case
    k = 2, d = 2 is rejected because ``two_edge_stash_standard`` solves it
    outright.
    """
    check_ints(k=k, d=d)
    if k == 2 and d == 2:
        raise UnsupportedCaseError(
            "k=2, d=2 edge stashing is polynomial; use two_edge_stash_standard"
        )
    if not ((k >= 3 and d >= 2) or (k == 2 and d >= 3)):
        raise ParameterError(f"reduction needs k >= 3, or k = 2 with d >= 3; got k={k}, d={d}")
    if g.d != d:
        raise InvalidArityError(f"instance arity {g.d} does not match requested d={d}")
    out = Hypergraph(d)
    estar_pick: dict[int, int] = {}
    owner: dict[int, int] = {}
    ports: dict[int, tuple[tuple[int, int], ...]] = {}
    built: dict[int, Gadget] = {}  # embedding only reads a gadget
    for v in range(g.num_vertices):
        incident = g._incidence[v]
        if len(incident) not in built:
            built[len(incident)] = build_pk_gadget(len(incident), k, d)
        gadget = built[len(incident)]
        [(dv, de)] = embed_graph(gadget.graph, out, [()])
        owner.update(dict.fromkeys(range(de, out.num_edges), v))
        estar_pick[v] = de + min(gadget.estar)
        ports[v] = tuple((e, dv + port.edges[0][0]) for e, port in zip(incident, gadget.ports))
    # ports follow incidence order, which is ascending edge order, so the
    # edges below take each vertex's ports one after the other
    unread = [iter(ports[v]) for v in range(g.num_vertices)]
    for members in g._edges:
        owner[out.add_edge(tuple(next(unread[w])[1] for w in members))] = min(members)
    return out, ReductionMap(
        direction="vstash",
        k=k,
        d=d,
        original=g.copy(),
        reduced=out,
        owner=owner,
        estar_pick=estar_pick,
        ports=ports,
    )


def push_vertex_stash(rmap: ReductionMap, stash) -> frozenset[int]:
    """Translate a valid vertex stash of the original instance into an
    equal-size edge stash of the reduced one, picking each gadget's
    lowest-id E* edge."""
    if rmap.direction != "vstash":
        raise ParameterError("push_vertex_stash applies to stash-reduction maps")
    s = _valid_stash(rmap.original, rmap.k, "vertex", stash, "original")
    pushed = frozenset(rmap.estar_pick[v] for v in s)
    if len(pushed) != len(s):
        raise AssertionError(f"pushed stash has {len(pushed)} edges for {len(s)} vertices")
    peeling.certify_stash("pushed", rmap.reduced, rmap.k, stash_edges=pushed)
    return pushed


def lift_edge_stash(rmap: ReductionMap, stash) -> frozenset[int]:
    """Translate a valid edge stash of the reduced instance into a vertex
    stash of the original that is never larger: every stashed edge charges
    the original vertex owning it."""
    if rmap.direction != "vstash":
        raise ParameterError("lift_edge_stash applies to stash-reduction maps")
    s = _valid_stash(rmap.reduced, rmap.k, "edge", stash, "reduced")
    lifted = frozenset(map(rmap.owner.__getitem__, s))
    peeling.certify_stash("lifted", rmap.original, rmap.k, stash_vertices=lifted)
    return lifted


# each direction's name, as a map's header and ``reduce --from`` spell it,
# and its builder
REDUCTIONS = {"vc": reduce_vc_to_vertex_stash, "vstash": reduce_vertex_to_edge_stash}


# -- audits -------------------------------------------------------------------


def audit_p1(rmap: ReductionMap) -> list[str]:
    """Structural audit of the stash reduction's wiring.

    Checks that each gadget has exactly one neighboring edge per original
    incident edge and that every neighboring edge joins exactly the attach
    vertices of its original edge's endpoint gadgets.  The build adds the
    neighboring edges last, in original edge order, so original edge e's
    is reduced edge ``reduced.num_edges - original.num_edges + e``.  Returns violation
    descriptions; empty means the audit passed.
    """
    if rmap.direction != "vstash":
        raise ParameterError("audit_p1 applies to stash-reduction maps")
    g = rmap.original
    problems = []
    for v in range(g.num_vertices):
        expected = g._incidence[v]
        got = sorted(e for e, _ in rmap.ports[v])
        if got != expected:
            problems.append(f"vertex {v}: ports {got} != incident edges {expected}")
    attach = {v: dict(rmap.ports[v]) for v in range(g.num_vertices)}
    first = rmap.reduced.num_edges - g.num_edges
    for e, members in enumerate(g._edges):
        shared = first + e
        want = {attach[w].get(e) for w in members}
        have = set(rmap.reduced.edge_vertices(shared))
        if want != have:
            problems.append(f"edge {e}: neighboring edge {shared} joins {have}, expected {want}")
    return problems


def audit_pk_properties(rmap: ReductionMap) -> list[GadgetReport]:
    """Re-run the standalone wrapper-gadget checks for every distinct degree
    instantiated by a stash reduction, one ``check_gadget`` report each.

    A wrapper whose frontier holds at least 3 delta removals has its
    threshold row decided by the composed proof, which peels the stable block at
    most delta + 1 times and each distinct relay 4 times, not by the
    C(delta, k) + C(delta, k-1) frontier sweep; the reports are the
    sweep's either way.  On the vstash (3, 2) reduction of
    ``gen_random(100, 200, 2, 1)`` the audit makes 97 peels, against 413
    for the sweep."""
    if rmap.direction != "vstash":
        raise ParameterError("audit_pk_properties applies to stash-reduction maps")
    degrees = sorted(set(map(len, rmap.original._incidence)))
    return [check_gadget(build_pk_gadget(delta, rmap.k, rmap.d)) for delta in degrees]


# -- sidecar text format -------------------------------------------------------


def serialize_map(rmap: ReductionMap) -> str:
    """Sidecar text form of a reduction map: its header, then both
    instances; ``parse_map`` rebuilds every lookup table from these."""
    return _map_text(rmap, serialize(rmap.reduced))


def _map_text(rmap: ReductionMap, reduced_text: str) -> str:
    """``serialize_map``'s text, given ``serialize(rmap.reduced)``, which
    the CLI's ``reduce`` also prints, so it serializes the reduced
    instance once."""
    return (f"M {rmap.direction} {rmap.k} {rmap.d}\nG orig\n{serialize(rmap.original)}G end\n"
            f"G reduced\n{reduced_text}G end\n")


def parse_map(text: str) -> ReductionMap:
    """Rebuild a reduction map from its sidecar text.

    A map is a function of its header and its embedded original, so those
    are read and the reduction is built again.  A header and ``G orig``
    section as ``serialize_map`` writes them are read in bulk, the original
    by ``hypergraph._parse_serialized``; any other text is read through
    ``content_lines`` and ``parse_lines``, with their errors and line
    numbers.  The text must then be what ``serialize_map`` writes for the
    rebuild, apart from blank lines, '#' comment lines and whitespace
    around a line; the first line that differs raises ParseError.  The
    rebuild is returned.
    """
    header_at, tag, k, d, original = _written_head(text) or _read_head(text)
    # refuse a header asking for more reduced edges than the text can hold
    # before building any: each is an 'e' line of d ids, and there are at
    # least these many (checked for k = 2..20 and d = 2..5; a test samples
    # that range).  This is why a map keeps its derivable 'G reduced'.
    if tag == "vc":
        need = original.num_edges * k * (k - 1) // 2
    else:
        need = original.num_vertices * k**3 // 3
    if len(text) < 2 * d * need:
        why = f"{len(text)} characters cannot hold a {tag} map with k={k}, d={d} of this original"
        raise ParseError(why, header_at)
    try:
        rmap = REDUCTIONS[tag](original, k, d)[1]
    except ParameterError as exc:
        raise ParseError(str(exc), header_at) from None
    expected = serialize_map(rmap)
    if text != expected:
        for (at, got), (_, want) in zip(content_lines(text), content_lines(expected)):
            if got != want:
                raise ParseError(f"expected {want!r}, got {got!r}", at)
    return rmap


def _written_head(text: str) -> tuple[int, str, int, int, Hypergraph] | None:
    """(1, direction, k, d, original) of a map whose first line is its
    header and whose ``G orig`` section follows, both as ``serialize_map``
    writes them, else None; reads only those lines."""
    at = text.find("\nG orig\n")
    end = text.find("\nG end\n", at + 1)
    if at < 0 or end < 0:
        return None
    fields = text[:at].split(" ")
    if len(fields) != 4 or fields[0] != "M" or fields[1] not in REDUCTIONS:
        return None
    try:
        k, d = int(fields[2]), int(fields[3])
    except ValueError:
        return None
    if text[:at] != f"M {fields[1]} {k} {d}":
        return None
    original = _parse_serialized(text[at + len("\nG orig\n"):end + 1])
    return None if original is None else (1, fields[1], k, d, original)


def _read_head(text: str) -> tuple[int, str, int, int, Hypergraph]:
    """(header line number, direction, k, d, original) read from a map's
    header and ``G orig`` section through the line reader."""
    lines = content_lines(text)
    header_at, header = next(lines)
    fields = header.split()
    if len(fields) != 4 or fields[0] != "M" or fields[1] not in REDUCTIONS:
        raise ParseError(f"expected 'M vc|vstash <k> <d>', got {header!r}", header_at)
    try:
        k, d = int(fields[2]), int(fields[3])
    except ValueError:
        raise ParseError(f"non-integer field in {header!r}", header_at) from None
    at, line = next(lines)
    if line != "G orig":
        raise ParseError(f"expected 'G orig', got {line!r}", at)
    # the original ends at 'G end'; a missing one is reported by the
    # comparison in parse_map
    section = ((at, "" if line == "G end" else line) for at, line in lines)
    first = next(section)
    if not first[1]:
        raise ParseError("empty 'G orig' section: missing 'h' header", first[0])
    return header_at, fields[1], k, d, parse_lines(chain([first], section))
