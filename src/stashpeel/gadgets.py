"""Gadget builders and their exhaustive property checkers.

A gadget is a hypergraph fragment plus a description of where future
neighboring edges attach (its ports) and which internal edges are
designated stashable (its E* set).  Builders only create internal
structure; the neighboring edges themselves are created later, by a
reduction or by the check harness.  Builders and the harness grow a
graph through the ``add_*`` methods of ``Hypergraph``, with two bulk
builds through ``hypergraph._from_edges`` from edges already checked:
``_lift_to_d`` appends the same fresh dummies to every edge of a checked
2-uniform assembly, and the pk proof builds each part's harness from
checked harness edges.  Builders hand out vertices in the order the
construction uses them: a block returns its hub tuple, a chain takes each
block's hubs one wiring at a time, and the stable tree queues the central
vertex of each free port.  The harness is a copy of the gadget
plus one pool of d vertices pinned by k parallel edges, and fills every
port edge's free slots from that pool, so ports count toward internal
degrees while no pool vertex ever peels.  A removal is
named by its ports and takes away their edges; for the ck gadget, removing
the u port edges is, as far as the gadget can see, stashing u.  Every
check builds one ``PeelCore`` of the harness graph with the removed edges
as its stash and reads which gadget vertices it leaves alive, so no check
copies the harness or builds a trace.  ``run_gadget_grid`` builds and
checks every family over a (k, d) grid, each where it exists.

One checker, ``check_gadget``, decides every family's threshold
contract, with t read off the gadget's kind: with every port present
nothing in the block peels, the block fully peels iff at least t of its
ports are removed, and stashing any one E* edge, every port present,
fully peels it.  t is 1 for ck and the b-blocks, the port count for the
three stable kinds, and max(0, delta-k+1) for a pk gadget of degree
delta; at t = 0 the block must peel with nothing removed, so the first
clause is not asked.

The sweep leans on monotonicity: removing more edges never lets more of a
graph stay in its k-core, so a block that fully peels under one removal
fully peels under every larger one, and a block that keeps a survivor
keeps it under every smaller one.  The threshold clause is then decided
by the removals of t-1 and of t ports, the frontier, and the sweep peels
the frontier alone: its verdict holds for every removal, and a failing
witness is the first failing frontier removal, by size and then in
``itertools.combinations`` order of the port names.  Removals are drawn
one at a time, so the sweep stops at its first failure, and the empty
removal is the intact harness, peeled once for both clauses.  Counting
that peel, a stable block of degree m >= 2 costs m + 2 peels besides its
E* rows.

A pk gadget's frontier holds C(delta+1, t) removals, which grows as
C(delta, k) + C(delta, k-1), so once it holds at least 3 delta of them
(from delta = 5 at k = 2 to 4, and delta = k+1 above) ``check_gadget``
first tries a composed proof (``_pk_contract_holds``), which costs about that much on
the wrappers measured, k = 2..6.  The proof splits the wrapper into its primary vertex,
its relays and its stable block, checks each part's own contract on a
harness of that part alone, and derives the wrapper's contract from
theirs, since a k-core can be taken block by block.  It costs at most
delta + 1 peels of the stable block and 4 of each distinct relay, and
reads the split only as a proposal: every property it relies on is
checked on the graph.  When any step fails, the sweep decides the row
as before, so every report, witness included, is the sweep's.

The families:

* ``ck``           -- the edge-replacement fragment of the cover reduction;
                      removing either endpoint makes it k-peelable.
* ``b2`` / ``b3``  -- k-unpeelable fragments with 2 or 3 neighboring edges
                      that fully peel when any one neighboring edge goes.
* ``simple-stable``-- degree m <= k-1: a central vertex behind a chain of
                      b-blocks; peels only when all m neighboring edges are
                      removed, unless an E* edge is stashed.
* ``stable``       -- arbitrary degree via a breadth-first tree of simple
                      stable blocks (k >= 3).
* ``tree-stable``  -- the k=2, d>=3 variant built from a (d-1)-ary
                      hyper-tree whose root edge is the single E* edge.
* ``pk``           -- the per-vertex wrapper used by the vertex-to-edge
                      stash reduction (primary node + relays + stable
                      block); fully peels once fewer than k of its
                      delta ports remain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, combinations, compress
from math import comb

from .errors import ParameterError, check_ints
from .hypergraph import Hypergraph, _from_edges
from .peeling import PeelCore


@dataclass(frozen=True)
class Port:
    """Attachment descriptor for one named port.

    ``edges`` lists, per future neighboring edge, the internal vertices
    that edge must contain; the remaining slots are filled externally.
    ``shared_external`` means a single external vertex occupies one slot of
    every listed edge (the ck gadget's u and v work this way).
    """

    name: str
    edges: tuple[tuple[int, ...], ...]
    shared_external: bool = False


@dataclass
class Gadget:
    graph: Hypergraph
    ports: tuple[Port, ...]
    estar: frozenset[int]
    params: dict[str, int]
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return str(self.meta.get("kind", "gadget"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class GadgetReport:
    gadget: str
    params: dict[str, int]
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


# -- internal 2-uniform assembly ---------------------------------------------


def _add_2block(g: Hypergraph, k: int) -> tuple[int, ...]:
    # two hubs over a (k-1)-clique; every vertex has degree k once each
    # hub's neighboring edge is attached
    hubs = tuple(g.add_vertices(2))
    clique = g.add_vertices(k - 1)
    for h in hubs:
        for c in clique:
            g.add_edge((h, c))
    for a, b in combinations(clique, 2):
        g.add_edge((a, b))
    return hubs


def _add_3block(g: Hypergraph, k: int) -> tuple[int, ...]:
    if k == 3:
        # a single vertex of degree 3 once its neighboring edges attach
        x = g.add_vertex()
        return (x, x, x)
    hubs = tuple(g.add_vertices(3))
    if k == 4:
        # three hubs over a middle path a-b-c; hub degree 4 with its port,
        # middle degrees 4/5/4; losing any one port cascades through the
        # path and peels everything
        mid = g.add_vertices(3)
        for h in hubs:
            for m in mid:
                g.add_edge((h, m))
        g.add_edge((mid[0], mid[1]))
        g.add_edge((mid[1], mid[2]))
        return hubs
    # k >= 5: hubs, a middle layer of k-1 vertices, and a (k-3)-clique;
    # layer degrees are k, k and 2k-5 >= k
    layer1 = g.add_vertices(k - 1)
    layer2 = g.add_vertices(k - 3)
    for h in hubs:
        for x in layer1:
            g.add_edge((h, x))
    for x in layer1:
        for z in layer2:
            g.add_edge((x, z))
    for a, b in combinations(layer2, 2):
        g.add_edge((a, b))
    return hubs


def _add_simple_stable(g: Hypergraph, k: int, with_parent_hook: bool = False) -> dict:
    """Central vertex behind a chain of k-1 b-blocks.

    The fragment itself does not depend on the degree m: the m neighboring
    edges simply attach at the central vertex, giving it degree k-1+m.
    Chain ends are 2-blocks and interior positions 3-blocks; when the block
    is a tree child (``with_parent_hook``) the first 2-block is replaced by
    a 3-block whose spare hub receives the parent's edge.  Each block's
    first hub takes its edge to the central vertex, and its other hubs go,
    in order, to its left chain edge, its right chain edge and the parent's
    edge, as far as it has them.  Every edge touching a b-block
    (central-to-block and chain) is stashable: removing one peels the
    adjacent block, the chain cascades, and the central vertex is left with
    degree at most k-1.
    """
    central = g.add_vertex()
    first = _add_3block(g, k) if with_parent_hook else _add_2block(g, k)
    interior = [_add_3block(g, k) for _ in range(k - 3)]
    blocks = [iter(hubs) for hubs in (first, *interior, _add_2block(g, k))]
    estar = [g.add_edge((central, next(hubs))) for hubs in blocks]
    estar += [g.add_edge((next(left), next(right))) for left, right in zip(blocks, blocks[1:])]
    parent_hub = next(blocks[0]) if with_parent_hook else None
    return {"central": central, "estar_edges": estar, "parent_hub": parent_hub}


def _add_stable(g: Hypergraph, k: int, m: int) -> dict:
    """Stable block of any degree: breadth-first (k-1)-ary tree of simple
    stable blocks of degree k-1, trimmed to exactly m exposed ports.  For
    m <= k-1, m = 0 included, the tree is its root alone.  The queue holds
    one entry per free port, each its node's central vertex, so the first
    m entries are where the ports attach."""
    root = _add_simple_stable(g, k)
    depth = {root["central"]: 0}
    queue: deque[int] = deque([root["central"]] * (k - 1))
    while len(queue) < m:
        parent = queue.popleft()
        child = _add_simple_stable(g, k, with_parent_hook=True)
        g.add_edge((parent, child["parent_hub"]))
        depth[child["central"]] = depth[parent] + 1
        queue.extend([child["central"]] * (k - 1))
    # once the tree has grown, excess < k-2, so the newest child keeps at
    # least 2 exposed ports and no node is ever left port-free
    return {
        "port_attach": list(queue)[:m],
        "estar_edges": root["estar_edges"],
        "depth": max(depth.values()),
        "n_nodes": len(depth),
    }


def _add_tree_stable(g: Hypergraph, d: int, p: int) -> dict:
    """(d-1)-ary hyper-tree with sibling w-vertices under each leaf group.

    Port i will be the edge (root, w_i, <d-2 externals>); only the root has
    internal degree 1, so nothing peels until every port is gone, while
    stashing the root edge unravels the whole tree top-down.
    """
    fan = d - 1
    depth = 1
    while fan**depth < max(p, 1):
        depth += 1
    root = g.add_vertex()
    root_edge = g.num_edges  # the first edge added below
    level = [root]
    for _ in range(depth):
        groups = []
        for node in level:
            kids = g.add_vertices(fan)
            g.add_edge((node, *kids))
            groups.append(kids)
        level = [v for kids in groups for v in kids]
    ws = []
    for group in groups:
        group_ws = g.add_vertices(fan)
        for v in group:
            g.add_edge((v, *group_ws))
        ws.extend(group_ws)
    return {
        "root": root,
        "root_edge": root_edge,
        "port_attach": [(root, w) for w in ws[:p]],
        "ws": ws,
    }


def _lift_to_d(g2: Hypergraph, d: int) -> tuple[Hypergraph, list[int]]:
    """Extend a 2-uniform assembly to arity d by appending d-2 shared dummy
    vertices to every internal edge; ids are preserved.  The edges were
    checked when g2 took them and the dummies are fresh, so the lifted
    graph is built in one ``_from_edges`` call."""
    if d == 2:
        return g2, []
    n = g2.num_vertices
    dummies = list(range(n, n + d - 2)) if g2.num_edges else []
    return _from_edges(d, n + len(dummies), [(*vs, *dummies) for vs in g2._edges]), dummies


# -- public builders ----------------------------------------------------------


def build_ck_gadget(k: int, d: int) -> Gadget:
    """Edge-replacement gadget with k-slot ports on the u and v sides.

    Internal vertices 1..k each take one edge to u and one to v; the first
    and last additionally connect to each interior vertex (total degree
    exactly k), and interior vertices form a clique with edges to both
    ends.  For d >= 3, d-2 dummy vertices join every edge, port edges
    included, which keeps their degree at 2k or more.
    """
    check_ints(k=k, d=d)
    if k < 2 or d < 2:
        raise ParameterError(f"ck gadget needs k >= 2 and d >= 2, got k={k}, d={d}")
    g = Hypergraph(d)
    internals = g.add_vertices(k)
    dummies = g.add_vertices(d - 2)
    first, last = internals[0], internals[-1]
    interior = internals[1:-1]
    for j in interior:
        g.add_edge((first, j, *dummies))
        g.add_edge((last, j, *dummies))
    for a, b in combinations(interior, 2):
        g.add_edge((a, b, *dummies))
    side = tuple((j, *dummies) for j in internals)
    ports = (Port("u", side, shared_external=True), Port("v", side, shared_external=True))
    return Gadget(
        graph=g,
        ports=ports,
        estar=frozenset(),
        params={"k": k, "d": d},
        meta={"kind": "ck", "internals": internals, "dummies": dummies},
    )


def build_b_block(b: int, k: int, d: int) -> Gadget:
    """b-block: k-unpeelable with b neighboring edges, fully peeled by the
    removal of any one of them.  Only b=2 and b=3 are needed or built."""
    check_ints(b=b, k=k, d=d)
    if b not in (2, 3):
        raise ParameterError(f"only 2- and 3-blocks are supported, got b={b}")
    if k < 3 or d < 2:
        raise ParameterError(f"b-blocks need k >= 3 and d >= 2, got k={k}, d={d}")
    g2 = Hypergraph(2)
    hubs = _add_2block(g2, k) if b == 2 else _add_3block(g2, k)
    g, dummies = _lift_to_d(g2, d)
    ports = tuple(Port(f"p{i}", ((hub,),)) for i, hub in enumerate(hubs))
    return Gadget(
        graph=g,
        ports=ports,
        estar=frozenset(),
        params={"b": b, "k": k, "d": d},
        meta={"kind": f"b{b}", "hubs": hubs, "dummies": dummies},
    )


def build_simple_stable_block(m: int, k: int, d: int) -> Gadget:
    """Stable block of degree m <= k-1: ``build_stable_block``'s root
    simple block alone, reported under its own kind and params."""
    check_ints(m=m, k=k, d=d)
    if k < 3 or d < 2:
        raise ParameterError(f"simple stable blocks need k >= 3 and d >= 2, got k={k}, d={d}")
    if not 1 <= m <= k - 1:
        raise ParameterError(f"simple stable block degree must be in 1..{k - 1}, got m={m}")
    block = build_stable_block(m, k, d)
    central, dummies = block.meta["port_attach"][0], block.meta["dummies"]
    meta = {"kind": "simple-stable", "central": central, "dummies": dummies}
    return replace(block, params={"m": m, "k": k, "d": d}, meta=meta)


STABLE_SIZE_CONSTANT = 2


def build_stable_block(m: int, k: int, d: int) -> Gadget:
    """Stable block of degree m; for m <= k-1 it is the simple construction
    alone.  E* is the root block's E*.  Vertex count is asserted against
    the recorded bound STABLE_SIZE_CONSTANT * m * k^2 (+ dummies)."""
    check_ints(m=m, k=k, d=d)
    if k < 3 or d < 2:
        raise ParameterError(f"stable blocks need k >= 3 and d >= 2, got k={k}, d={d}")
    if m < 1:
        raise ParameterError(f"stable block degree must be positive, got m={m}")
    g2 = Hypergraph(2)
    st = _add_stable(g2, k, m)
    g, dummies = _lift_to_d(g2, d)
    bound = STABLE_SIZE_CONSTANT * m * k * k + max(0, d - 2)
    if g.num_vertices > bound:
        raise AssertionError(f"stable block size {g.num_vertices} exceeds bound {bound}")
    ports = tuple(Port(f"p{i}", ((v,),)) for i, v in enumerate(st["port_attach"]))
    return Gadget(
        graph=g,
        ports=ports,
        estar=frozenset(st["estar_edges"]),
        params={
            "m": m,
            "k": k,
            "d": d,
            "depth": st["depth"],
            "nodes": st["n_nodes"],
            "size_bound_c": STABLE_SIZE_CONSTANT,
        },
        meta={"kind": "stable", "port_attach": st["port_attach"], "dummies": dummies},
    )


TREE_STABLE_SIZE_CONSTANT = 3


def build_tree_stable_block(p: int, d: int) -> Gadget:
    """The k=2 stable block over a (d-1)-ary hyper-tree; requires d >= 3,
    mirroring that 2-edge stashing on standard graphs is polynomial."""
    check_ints(p=p, d=d)
    if d < 3:
        raise ParameterError(f"tree stable blocks need d >= 3, got d={d}")
    if p < 1:
        raise ParameterError(f"tree stable block degree must be positive, got p={p}")
    g = Hypergraph(d)
    t = _add_tree_stable(g, d, p)
    bound = TREE_STABLE_SIZE_CONSTANT * p * d
    if g.num_vertices > bound:
        raise AssertionError(f"tree stable size {g.num_vertices} exceeds bound {bound}")
    ports = tuple(Port(f"p{i}", (attach,)) for i, attach in enumerate(t["port_attach"]))
    return Gadget(
        graph=g,
        ports=ports,
        estar=frozenset({t["root_edge"]}),
        params={"p": p, "d": d, "k": 2, "size_bound_c": TREE_STABLE_SIZE_CONSTANT},
        meta={"kind": "tree-stable", "root": t["root"], "root_edge": t["root_edge"], "ws": t["ws"]},
    )


def build_pk_gadget(delta: int, k: int, d: int) -> Gadget:
    """Per-vertex wrapper used by the vertex-to-edge stash reduction.

    Its delta ports stand for the original vertex's incident edges; the
    gadget fully peels exactly when fewer than k of them survive, and
    stashing any E* edge peels it unconditionally.  delta=0 degenerates to
    a primary node plus a port-free stable block, which peels immediately,
    matching an isolated vertex.
    """
    check_ints(delta=delta, k=k, d=d)
    if delta < 0:
        raise ParameterError(f"delta must be non-negative, got {delta}")
    if k >= 3 and d >= 2:
        g2 = Hypergraph(2)
        primary = g2.add_vertex()
        st = _add_stable(g2, k, delta)
        relay_hubs = []
        for attach in st["port_attach"]:
            hubs = _add_3block(g2, k)
            g2.add_edge((primary, hubs[0]))
            g2.add_edge((attach, hubs[1]))
            relay_hubs.append(hubs[2])
        g, dummies = _lift_to_d(g2, d)
        ports = tuple(Port(f"e{i}", ((h,),)) for i, h in enumerate(relay_hubs))
        return Gadget(
            graph=g,
            ports=ports,
            estar=frozenset(st["estar_edges"]),
            params={"k": k, "d": d, "delta": delta},
            meta={"kind": "pk", "primary": primary, "relays": relay_hubs, "dummies": dummies},
        )
    if k == 2 and d >= 3:
        g = Hypergraph(d)
        primary = g.add_vertex()
        t = _add_tree_stable(g, d, delta)
        relays = []
        for root, w in t["port_attach"]:
            relay = g.add_vertex()
            xs = g.add_vertices(d - 2)
            g.add_edge((primary, relay, *xs))
            # the same d-2 fillers complete both the primary-side edge and
            # the stable block's neighboring edge, so each has degree 2
            g.add_edge((root, w, *xs))
            relays.append(relay)
        ports = tuple(Port(f"e{i}", ((r,),)) for i, r in enumerate(relays))
        return Gadget(
            graph=g,
            ports=ports,
            estar=frozenset({t["root_edge"]}),
            params={"k": 2, "d": d, "delta": delta},
            meta={"kind": "pk", "primary": primary, "relays": relays, "root": t["root"]},
        )
    raise ParameterError(f"per-vertex gadgets exist for k >= 3 or (k=2, d>=3), got k={k}, d={d}")


# -- check harness ------------------------------------------------------------


@dataclass
class Harness:
    """A gadget with every port edge present, over one pinned pool.

    The gadget comes first, so its ``block`` vertices and all its edges keep
    their ids.  A pool of d vertices follows, held at degree k by k parallel
    edges over it, and every port edge is its attach vertices followed by
    the first pool vertices it needs.  Pool vertices never peel, so a port
    edge dies exactly when it is removed or a gadget vertex on it dies.
    """

    graph: Hypergraph
    k: int
    block: int
    port_edges: dict[str, tuple[int, ...]]


def build_harness(gadget: Gadget) -> Harness:
    k, d = gadget.params["k"], gadget.graph.d
    h = gadget.graph.copy()
    pool = h.add_vertices(d)
    for _ in range(k):
        h.add_edge(pool)
    port_edges = {
        port.name: tuple(h.add_edge((*attach, *pool[: d - len(attach)])) for attach in port.edges)
        for port in gadget.ports
    }
    return Harness(h, k, gadget.graph.num_vertices, port_edges)


def _survivors(harness: Harness, removed_edges: tuple[int, ...] = ()) -> list[int]:
    """The gadget vertices left in the k-core once the given edges are gone,
    in ascending order."""
    alive = PeelCore(harness.graph, harness.k, (), removed_edges).vertex_alive
    return list(compress(range(harness.block), alive))


def _part_harness(harness: Harness, members: list[int], internal: list[int], crossing: dict) -> Harness:
    """One part of a harness on a harness of its own: its ``members``, in
    order, then a pinned pool as in ``build_harness``.  Each of the
    ``internal`` edges and the ``crossing`` edge of each name is the
    members on it followed by pool vertices standing in for the rest, and
    the crossing edges come last, each a port edge of its name."""
    k, d, n = harness.k, harness.graph.d, len(members)
    pool = tuple(range(n, n + d))
    local = dict(zip(members, range(n)))
    edges = [pool] * k
    for e in chain(internal, crossing.values()):
        vs = [local[v] for v in harness.graph._edges[e] if v in local]
        edges.append((*vs, *pool[: d - len(vs)]))
    first = len(edges) - len(crossing)
    return Harness(_from_edges(d, n + d, edges), k, n, {name: (first + i,) for i, name in enumerate(crossing)})


def _pk_contract_holds(gadget: Gadget, harness: Harness) -> bool:
    """True when the pk threshold contract follows from the contracts of
    the gadget's parts, each checked on its own harness; False when any
    step fails, which leaves the question to the frontier sweep.

    ``meta`` only proposes the split, and the checks below read the graph.
    The primary P is ``meta["primary"]``.  Pinned are the pool and any
    ``meta["dummies"]``, the set D.  The builder numbers the stable block S
    and then one relay per port, in port order, so relay R_i is the ids
    from the i-th lowest vertex outside P and D that an edge on P reaches,
    up to the next; S is the rest.  Ignoring pinned vertices:

    1. Locality.  Every edge lies in one part, or it is one of relay R_i's
       three crossing edges: port i's one edge p_i, on R_i; c_i, on P and
       R_i; s_i, on S and R_i.  P is on no other edge.  Every edge on a D
       vertex has an unpinned vertex, and every D vertex is on every c_i.
    2. Relays.  On R_i's own harness, nothing peels with c_i, s_i and p_i
       present, and R_i fully peels with any one of them stashed.
    3. Stable block.  On S's own harness, S fully peels with every s_i
       stashed, and with every s_j but s_i stashed, s_i's S vertices live.

    Lemma: given 1-3, the harness with the ports outside a set K removed
    fully peels iff |K| < k.  A k-core is a greatest fixpoint, so the
    core's trace on a part is the core of the part's harness with each
    crossing edge stashed iff it is dead in the whole (Bekić's lemma),
    and stashing more only shrinks a core.  If |K| < k, pin D as well,
    which keeps no less: each R_i with i outside K loses p_i and peels
    (2), so P keeps fewer than k live edges and peels, every c_i dies and
    every relay peels (2), every s_i dies and S peels (3); unpinned, each
    D vertex is then on dead edges only (1) and peels.  If |K| >= k, let
    C be S's core with s_i present for i in K, which by (3) and
    monotonicity holds each such s_i's S vertices.  Then P, the kept
    relays, C and D have minimum degree >= k with the pool: P is on the
    kept c_i, each kept relay has all three crossing edges (2), C keeps
    its degrees, and each D vertex is on the kept c_i (1).  So that set
    is in the core and P survives.  The verdict depends on |K| alone, so
    the sweep's frontier would pass.

    Relays with the same harness share one check, and so do crossing
    edges of S on the same vertices, so the proof peels S at most
    delta + 1 times and each distinct relay 4 times.
    """
    g, block, n = harness.graph, harness.block, len(gadget.ports)
    primary, dummies = gadget.meta.get("primary"), gadget.meta.get("dummies", ())
    if type(primary) is not int or not 0 <= primary < block or not isinstance(dummies, (list, tuple)):
        return False
    if not all(type(v) is int and 0 <= v < block and v != primary for v in dummies):
        return False
    pinned = set(dummies)
    # each edge on P starts a relay, so none lies in P alone
    cuts = sorted(min((v for v in g._edges[e] if v != primary and v not in pinned), default=block)
                  for e in g._incidence[primary])
    if len(cuts) != n or len(set(cuts)) != n or cuts and cuts[-1] >= block:
        return False
    # labels: relays 0..n-1, then S, then P; pinned vertices are -1
    stable, prim = n, n + 1
    bounds = [*cuts, block]
    label = [stable] * bounds[0]
    for i in range(n):
        label += [i] * (bounds[i + 1] - bounds[i])
    label += [-1] * (g.num_vertices - block)
    label[primary] = prim
    for v in pinned:
        label[v] = -1
    port_of = {}
    for i, es in enumerate(harness.port_edges.values()):
        if len(es) != 1:
            return False
        port_of[es[0]] = i
    internal: list[list[int]] = [[] for _ in range(n + 2)]
    crossing: list[dict[str, int]] = [{} for _ in range(n)]
    for e, vs in enumerate(g._edges):
        parts = {label[v] for v in vs}
        parts.discard(-1)
        if e in port_of:
            i, role = port_of[e], "p"
            if parts != {i}:
                return False
        elif len(parts) == 1:
            internal[parts.pop()].append(e)
            continue
        elif len(parts) == 2 and min(parts) < n <= max(parts):
            i, other = sorted(parts)
            role = "c" if other == prim else "s"
        elif not parts and min(vs) >= block:  # the pool's own edges
            continue
        else:
            return False
        if role in crossing[i]:
            return False
        crossing[i][role] = e
    if any(len(roles) != 3 or not pinned.issubset(g._edges[roles["c"]]) for roles in crossing):
        return False
    members: list[list[int]] = [[] for _ in range(n + 2)]
    for v in range(block):
        if label[v] >= 0:
            members[label[v]].append(v)
    relay_holds: dict[tuple, bool] = {}
    for i, roles in enumerate(crossing):
        relay = _part_harness(harness, members[i], internal[i], roles)
        # the check reads the graph alone, whose last three edges are the
        # crossing ones, so relays with equal edge lists share it
        key = tuple(relay.graph._edges)
        if key not in relay_holds:
            relay_holds[key] = len(_survivors(relay)) == relay.block and not any(
                _survivors(relay, es) for es in relay.port_edges.values())
        if not relay_holds[key]:
            return False
    sb = _part_harness(harness, members[stable], internal[stable], {i: roles["s"] for i, roles in enumerate(crossing)})
    every = [e for (e,) in sb.port_edges.values()]
    if _survivors(sb, tuple(every)):
        return False
    # crossing edges on the same vertices are interchangeable, so one peel
    # decides them all
    for vs, e in {sb.graph._edges[e]: e for e in every}.items():
        alive = set(_survivors(sb, tuple(x for x in every if x != e)))
        if not alive.issuperset(v for v in vs if v < sb.block):
            return False
    return True


def _report_params(gadget: Gadget) -> dict[str, int]:
    """Gadget params plus a record of whether parallel edges were produced
    (the data model permits them; the builders happen not to need any)."""
    edges = gadget.graph._edges
    return {**gadget.params, "parallel_edges": len(edges) - len(set(map(frozenset, edges)))}


def check_gadget(gadget: Gadget) -> GadgetReport:
    """Decide the module's threshold contract at the t of the gadget's
    kind, one row per clause and one per E* edge; a kind with no contract
    is a ParameterError.

    The intact harness is peeled once: it decides the first row, asked
    only when t >= 1, and it is the frontier's empty removal, which is not
    peeled again.  The frontier is the removals of t-1 and then t ports, in
    ``combinations`` order, drawn one at a time until one breaks the
    contract; that one is the witness.  A pk gadget whose frontier holds
    at least 3 delta removals, and whose contract ``_pk_contract_holds``
    proves from its parts', passes the row without the sweep; the proof
    is sound, so the sweep would pass it too.
    """
    kind, n = gadget.kind, len(gadget.ports)
    if kind in ("ck", "b2", "b3"):
        t = 1
    elif kind in ("simple-stable", "stable", "tree-stable"):
        t = n
    elif kind == "pk":
        t = max(0, n - gadget.params["k"] + 1)
    else:
        raise ParameterError(f"no threshold contract for gadget kind {kind!r}")
    harness = build_harness(gadget)
    names = [p.name for p in gadget.ports]
    intact = _survivors(harness)
    checks = []
    if t:
        peeled = sorted(set(range(harness.block)).difference(intact))
        checks.append(CheckResult("unpeelable_with_all_ports", not peeled, f"peeled={peeled}" if peeled else ""))
    witness = ""
    # the frontier holds C(n+1, t) removals, and the proof costs about as
    # much as 3n of them (measured at k = 2..6), so it runs only past that
    proven = kind == "pk" and t >= 2 and comb(n + 1, t) >= 3 * n and _pk_contract_holds(gadget, harness)
    sizes = range(max(0, t - 1), t + 1) if not proven else ()
    for removed in chain.from_iterable(combinations(names, r) for r in sizes):
        edges = tuple(e for name in removed for e in harness.port_edges[name])
        surv = _survivors(harness, edges) if removed else intact
        expect_peel = len(removed) == t
        if (not surv) != expect_peel:
            witness = f"removed={list(removed)} expected_peel={expect_peel} survivors={surv}"
            break
    name = f"peels_iff_at_least_{t}_of_{n}_ports_removed"
    checks.append(CheckResult(name, not witness, witness))
    for e in sorted(gadget.estar):
        surv = _survivors(harness, (e,))
        checks.append(CheckResult(f"estar_{e}_peels", not surv, f"stash_edge={e} survivors={surv}" if surv else ""))
    return GadgetReport(kind, _report_params(gadget), tuple(checks))


# -- parameter grid -----------------------------------------------------------

GRID_K = range(2, 7)
GRID_D = range(2, 5)
GRID_M = range(1, 8)
GRID_P = range(1, 6)


def run_gadget_grid(ks=GRID_K, ds=GRID_D) -> list[GadgetReport]:
    """Build and check every gadget family at each k in ``ks`` and d in ``ds``.

    Each family runs only where it exists: all at d >= 2, ck at k >= 2, the
    b-blocks and stable blocks at k >= 3, the tree stable block at k = 2
    with d >= 3.  Reports come family by family, each in (k, d) order; the
    defaults are the CI grid.
    """
    ks, ds = list(ks), list(ds)
    for k in ks:
        check_ints(k=k)
    for d in ds:
        check_ints(d=d)
    ds = [d for d in ds if d >= 2]
    block_ks = [k for k in ks if k >= 3]
    reports = [check_gadget(build_ck_gadget(k, d)) for k in ks if k >= 2 for d in ds]
    for b in (2, 3):
        reports += [check_gadget(build_b_block(b, k, d)) for k in block_ks for d in ds]
    for k in block_ks:
        for d in ds:
            reports += [check_gadget(build_simple_stable_block(m, k, d)) for m in range(1, k)]
            reports += [check_gadget(build_stable_block(m, k, d)) for m in GRID_M]
    if 2 in ks:
        reports += [check_gadget(build_tree_stable_block(p, d)) for d in ds if d >= 3 for p in GRID_P]
    return reports
