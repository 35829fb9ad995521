"""Whole-instance translators between cover and stash problems.

Two directions are implemented, each with certificate lifting so results
can be checked end to end on small instances:

* vertex cover -> k-vertex-stash: every edge (u, v) of a standard graph is
  replaced by a fresh edge-replacement gadget wired to u and v; a stash of
  the output can be normalized onto original vertices without growing.
* k-vertex-stash -> k-edge-stash: every vertex v is replaced by a
  per-vertex wrapper gadget whose designated stashable edge simulates
  stashing v; stashes push forward with equal size and lift back without
  growing.

Reduction maps carry the original and reduced instances plus one lookup
table per correspondence: ``vertex_map``, ``edge_map`` and ``gadget_of``
for the cover direction; ``vertex_map``, ``edge_map``, ``estar_pick``,
``owner`` and ``ports`` for the stash direction.  Normalizing, pushing and
lifting take only the map and a stash, and read both instances from the
map.  Each gates the caller's stash through ``_valid_stash`` and re-checks
the stash it returns with ``peeling.certify_stash``.  Maps round-trip
through a text sidecar format (see ``serialize_map``) so the CLI can lift
certificates from files alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import peeling
from .errors import (ContractViolationError, InvalidArityError, ParameterError, ParseError,
                     UnsupportedCaseError)
from .gadgets import (
    Gadget,
    GadgetReport,
    build_ck_gadget,
    build_pk_gadget,
    check_pk_gadget,
    embed_graph,
)
from .hypergraph import Hypergraph, parse, serialize


@dataclass
class ReductionMap:
    """Correspondence between an original instance and its reduction.

    ``vertex_map`` sends an original vertex to its image (cover direction)
    or to its gadget's primary node (stash direction).  ``edge_map`` sends
    an original edge to the reduced edge ids it became.  ``owner`` assigns
    every reduced edge to one original vertex (neighboring edges go to the
    lowest-id endpoint), which is what makes lifted stashes never grow.
    ``gadget_of`` sends each internal vertex of a cover gadget to the images
    of its edge's endpoints.  ``estar_pick`` sends an original vertex to its
    wrapper gadget's lowest-id E* edge, and ``ports`` lists, in incidence
    order, (original incident edge, attach vertex of its neighboring edge).
    ``parse_map`` rebuilds a map from its sidecar file, so a parsed map
    equals the one that was written, field for field.
    """

    direction: str  # "vc_to_vs" | "vs_to_es"
    k: int
    d: int
    original: Hypergraph
    reduced: Hypergraph
    vertex_map: dict[int, int]
    edge_map: dict[int, tuple[int, ...]]
    estar_pick: dict[int, int] = field(default_factory=dict)
    owner: dict[int, int] = field(default_factory=dict)
    gadget_of: dict[int, tuple[int, int]] = field(default_factory=dict)
    ports: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)


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
    if g.d != 2:
        raise InvalidArityError("vertex cover instances are standard graphs (d=2)")
    if k < 2 or d < 2:
        raise ParameterError(f"reduction needs k >= 2 and d >= 2, got k={k}, d={d}")
    out = Hypergraph(d)
    image = {v: out.add_vertex() for v in range(g.num_vertices)}
    gadget = build_ck_gadget(k, d) if g.num_edges else None
    gadget_of: dict[int, tuple[int, int]] = {}
    edge_map: dict[int, tuple[int, ...]] = {}
    for e in range(g.num_edges):
        u, v = g.edge_vertices(e)
        dv, de = embed_graph(gadget.graph, out)
        edges = list(range(de, de + gadget.graph.num_edges))
        for port, endpoint in zip(gadget.ports, (image[u], image[v])):
            for attach in port.edges:
                edges.append(out.add_edge((endpoint, *(dv + a for a in attach))))
        for w in range(dv, dv + gadget.graph.num_vertices):
            gadget_of[w] = (image[u], image[v])
        edge_map[e] = tuple(edges)
    return out, ReductionMap(
        direction="vc_to_vs",
        k=k,
        d=d,
        original=g.copy(),
        reduced=out,
        vertex_map=image,
        edge_map=edge_map,
        gadget_of=gadget_of,
    )


def normalize_stash(rmap: ReductionMap, stash) -> frozenset[int]:
    """Rewrite a valid vertex stash of the reduced instance so it uses only
    images of original vertices, never growing it.

    Each gadget-internal vertex is replaced by the image of that gadget's
    first endpoint (the deterministic choice of the two that both work).
    """
    if rmap.direction != "vc_to_vs":
        raise ParameterError("normalize_stash applies to cover-reduction maps")
    s = _valid_stash(rmap.reduced, rmap.k, "vertex", stash, "reduced")
    images = set(rmap.vertex_map.values())
    out = frozenset(w if w in images else rmap.gadget_of[w][0] for w in s)
    peeling.certify_stash("normalized", rmap.reduced, rmap.k, stash_vertices=out)
    return out


# -- k-vertex-stash -> k-edge-stash -------------------------------------------


def reduce_vertex_to_edge_stash(g: Hypergraph, k: int, d: int) -> tuple[Hypergraph, ReductionMap]:
    """Build f(g): the d-uniform instance whose minimum k-edge-stash equals
    the minimum k-vertex-stash of g.

    Covers k >= 3 (any d >= 2) and k = 2 with d >= 3; the remaining case
    k = 2, d = 2 is rejected because ``two_edge_stash_standard`` solves it
    outright.
    """
    if k == 2 and d == 2:
        raise UnsupportedCaseError(
            "k=2, d=2 edge stashing is polynomial; use two_edge_stash_standard"
        )
    if not ((k >= 3 and d >= 2) or (k == 2 and d >= 3)):
        raise ParameterError(f"reduction needs k >= 3, or k = 2 with d >= 3; got k={k}, d={d}")
    if g.d != d:
        raise InvalidArityError(f"instance arity {g.d} does not match requested d={d}")
    out = Hypergraph(d)
    vertex_map: dict[int, int] = {}
    estar_pick: dict[int, int] = {}
    owner: dict[int, int] = {}
    ports: dict[int, tuple[tuple[int, int], ...]] = {}
    attach_of: dict[tuple[int, int], int] = {}
    built: dict[int, Gadget] = {}  # embedding only reads a gadget
    for v in range(g.num_vertices):
        incident = g._incidence[v]
        if len(incident) not in built:
            built[len(incident)] = build_pk_gadget(len(incident), k, d)
        gadget = built[len(incident)]
        dv, de = embed_graph(gadget.graph, out)
        for fe in range(de, de + gadget.graph.num_edges):
            owner[fe] = v
        vertex_map[v] = dv + gadget.meta["primary"]  # type: ignore[operator]
        estar_pick[v] = de + min(gadget.estar)
        ports[v] = tuple((e, dv + port.edges[0][0]) for e, port in zip(incident, gadget.ports))
        attach_of.update(((e, v), attach) for e, attach in ports[v])
    edge_map: dict[int, tuple[int, ...]] = {}
    for e in range(g.num_edges):
        members = g.edge_vertices(e)
        shared = out.add_edge(tuple(attach_of[(e, w)] for w in members))
        edge_map[e] = (shared,)
        owner[shared] = min(members)
    return out, ReductionMap(
        direction="vs_to_es",
        k=k,
        d=d,
        original=g.copy(),
        reduced=out,
        vertex_map=vertex_map,
        edge_map=edge_map,
        estar_pick=estar_pick,
        owner=owner,
        ports=ports,
    )


def push_vertex_stash(rmap: ReductionMap, stash) -> frozenset[int]:
    """Translate a valid vertex stash of the original instance into an
    equal-size edge stash of the reduced one, picking each gadget's
    lowest-id E* edge."""
    if rmap.direction != "vs_to_es":
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
    if rmap.direction != "vs_to_es":
        raise ParameterError("lift_edge_stash applies to stash-reduction maps")
    s = _valid_stash(rmap.reduced, rmap.k, "edge", stash, "reduced")
    lifted = frozenset(rmap.owner[e] for e in s)
    peeling.certify_stash("lifted", rmap.original, rmap.k, stash_vertices=lifted)
    return lifted


# -- audits -------------------------------------------------------------------


def audit_p1(rmap: ReductionMap) -> list[str]:
    """Structural audit of the stash reduction's wiring.

    Checks that each gadget has exactly one neighboring edge per original
    incident edge and that every neighboring edge joins exactly the attach
    vertices of its original edge's endpoint gadgets.  Returns violation
    descriptions; empty means the audit passed.
    """
    if rmap.direction != "vs_to_es":
        raise ParameterError("audit_p1 applies to stash-reduction maps")
    g = rmap.original
    problems = []
    for v in range(g.num_vertices):
        expected = g._incidence[v]
        got = sorted(e for e, _ in rmap.ports[v])
        if got != expected:
            problems.append(f"vertex {v}: ports {got} != incident edges {expected}")
    attach = {v: dict(rmap.ports[v]) for v in range(g.num_vertices)}
    for e in range(g.num_edges):
        members = g.edge_vertices(e)
        shared = rmap.edge_map[e][0]
        want = {attach[w].get(e) for w in members}
        have = set(rmap.reduced.edge_vertices(shared))
        if want != have:
            problems.append(f"edge {e}: neighboring edge {shared} joins {have}, expected {want}")
    return problems


def audit_pk_properties(rmap: ReductionMap) -> list[GadgetReport]:
    """Re-run the standalone wrapper-gadget checks for every distinct degree
    instantiated by a stash reduction."""
    if rmap.direction != "vs_to_es":
        raise ParameterError("audit_pk_properties applies to stash-reduction maps")
    degrees = sorted(set(map(len, rmap.original._incidence)))
    return [check_pk_gadget(build_pk_gadget(delta, rmap.k, rmap.d)) for delta in degrees]


# -- sidecar text format -------------------------------------------------------


def serialize_map(rmap: ReductionMap) -> str:
    """Sidecar text form of a reduction map, embedding both instances."""
    tag = "vc" if rmap.direction == "vc_to_vs" else "vstash"
    lines = [f"M {tag} {rmap.k} {rmap.d}"]
    if tag == "vstash" and rmap.k == 2:
        lines.append(
            "# note: each gadget's d-2 per-port filler vertices are shared between"
        )
        lines.append(
            "# its primary-side edge and the stable block's neighboring edge"
        )
    for label, g in (("orig", rmap.original), ("reduced", rmap.reduced)):
        lines.append(f"G {label}")
        lines.extend(serialize(g).rstrip("\n").split("\n"))
        lines.append("G end")
    if tag == "vc":
        for v in sorted(rmap.vertex_map):
            lines.append(f"M v {v} {rmap.vertex_map[v]}")
        for w in sorted(rmap.gadget_of):
            u, x = rmap.gadget_of[w]
            lines.append(f"M g {w} {u} {x}")
    else:
        for v in sorted(rmap.vertex_map):
            lines.append(f"M v {v} {rmap.vertex_map[v]} {rmap.estar_pick[v]}")
        for e in sorted(rmap.owner):
            lines.append(f"M e {e} {rmap.owner[e]}")
    for e in sorted(rmap.edge_map):
        ids = " ".join(str(x) for x in rmap.edge_map[e])
        lines.append(f"M n {e} {ids}")
    return "\n".join(lines) + "\n"


# the line breaks of str.splitlines, which parse uses, so a map's line
# numbers are those its embedded instances would have
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"[^{_BREAKS}]*(?:\r\n|[{_BREAKS}])?")


def _content_lines(text: str):
    """Yield (line number, stripped line) for each line that is not blank or
    a '#' comment, without splitting the whole text at once; then (one past
    the last line number, "") for the end of the text."""
    lineno = 0
    # the last match is the empty one at the end of the text
    for lineno, match in enumerate(_LINE.finditer(text), start=1):
        line = match.group().strip()
        if line and not line.startswith("#"):
            yield lineno, line
    yield lineno, ""


def parse_map(text: str) -> ReductionMap:
    """Rebuild a reduction map from its sidecar text.

    A map is a function of its header and its embedded original, so those
    are read and the reduction is built again.  The text must then be what
    ``serialize_map`` writes for the rebuild, apart from blank lines, '#'
    comment lines and whitespace around a line; the first line that
    differs raises ParseError.  The rebuild is returned.
    """
    lines = _content_lines(text)
    header_at, header = next(lines)
    fields = header.split()
    if len(fields) != 4 or fields[0] != "M" or fields[1] not in ("vc", "vstash"):
        raise ParseError(f"expected 'M vc|vstash <k> <d>', got {header!r}", header_at)
    try:
        k, d = int(fields[2]), int(fields[3])
    except ValueError:
        raise ParseError(f"non-integer field in {header!r}", header_at) from None
    at, line = next(lines)
    if line != "G orig":
        raise ParseError(f"expected 'G orig', got {line!r}", at)
    # a missing 'G end' is reported by the comparison below; the end of the
    # text is the one blank item `lines` yields
    section = {}
    for end_at, line in lines:
        if line in ("G end", ""):
            break
        section[end_at] = line
    if not section:
        raise ParseError("empty 'G orig' section: missing 'h' header", end_at)
    # blank lines in place of the rest keep parse's line numbers the file's
    last = max(section)
    original = parse("\n".join(section.get(n, "") for n in range(1, last + 1)))
    tag = fields[1]
    # refuse a header asking for more reduced edges than the text can hold
    # before building any: each is an 'e' line of d ids, and there are at
    # least these many (checked for k = 2..20 and d = 2..5)
    if tag == "vc":
        need = original.num_edges * k * (k - 1) // 2
    else:
        need = original.num_vertices * k**3 // 3
    if len(text) < 2 * d * need:
        why = f"{len(text)} characters cannot hold a {tag} map with k={k}, d={d} of this original"
        raise ParseError(why, header_at)
    build = reduce_vc_to_vertex_stash if tag == "vc" else reduce_vertex_to_edge_stash
    try:
        rmap = build(original, k, d)[1]
    except ParameterError as exc:
        raise ParseError(str(exc), header_at) from None
    expected = serialize_map(rmap)
    if text != expected:
        for (at, got), (_, want) in zip(_content_lines(text), _content_lines(expected)):
            if got != want:
                raise ParseError(f"expected {want!r}, got {got!r}", at)
    return rmap
