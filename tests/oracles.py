"""Independent brute-force oracles the engine and solvers are checked against.

Everything here works on plain sets and dicts built from the input through
its read-only queries (``vertices``, ``edges``, ``edge_vertices``), by
subset enumeration or naive repeated removal, with no worklists, no pruning
to cores, and no shared code with the package's algorithms, so agreement is
meaningful.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from stashpeel import Hypergraph


def _live(g: Hypergraph, stash_vertices=(), stash_edges=()) -> tuple[set[int], dict[int, tuple[int, ...]]]:
    """The vertices and edges of g left after a stash: the stashed vertices,
    the stashed edges and the edges on stashed vertices are gone."""
    vertices = set(g.vertices) - set(stash_vertices)
    edges = {e: g.edge_vertices(e) for e in set(g.edges) - set(stash_edges)}
    return vertices, {e: vs for e, vs in edges.items() if vertices.issuperset(vs)}


def cores_by_enumeration(
    g: Hypergraph, ks, stash_vertices=(), stash_edges=()
) -> dict[int, tuple[frozenset[int], frozenset[int]]]:
    """Maximal subgraph of minimum degree >= k for each k, of g minus a
    stash, by trying every vertex subset.

    A subset qualifies when every member has at least k induced edges; the
    union of qualifying subsets is itself qualifying and is the k-core.
    Subsets are walked as bitmasks so n up to ~12 stays cheap.
    """
    live_v, live_e = _live(g, stash_vertices, stash_edges)
    vertices = sorted(live_v)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    edge_masks = []
    for vs in live_e.values():
        mask = 0
        idxs = []
        for v in vs:
            mask |= 1 << index[v]
            idxs.append(index[v])
        edge_masks.append((mask, idxs))
    best = {k: 0 for k in ks}
    for mask in range(1, 1 << n):
        deg = [0] * n
        for em, idxs in edge_masks:
            if em & mask == em:
                for i in idxs:
                    deg[i] += 1
        mindeg = min(deg[i] for i in range(n) if mask >> i & 1)
        for k in ks:
            if mindeg >= k:
                best[k] |= mask
    out = {}
    for k, mask in best.items():
        core_v = frozenset(vertices[i] for i in range(n) if mask >> i & 1)
        core_e = frozenset(e for e, vs in live_e.items() if all(v in core_v for v in vs))
        out[k] = (core_v, core_e)
    return out


def core_by_enumeration(
    g: Hypergraph, k: int, stash_vertices=(), stash_edges=()
) -> tuple[frozenset[int], frozenset[int]]:
    return cores_by_enumeration(g, (k,), stash_vertices, stash_edges)[k]


def peel_by_repeated_removal(
    g: Hypergraph, k: int, order_seed: int | None = None, stash_vertices=(), stash_edges=()
) -> tuple[tuple[int, ...], frozenset[int], frozenset[int]]:
    """(peel order, core vertices, core edges) of g minus a stash, by
    removing the vertex of degree < k that comes first, with its edges,
    until none is left.

    Without a seed the lowest id comes first; with one, the lowest of
    ``random.Random(order_seed).random()`` drawn for each vertex in
    ascending id order, ties to the lower id.  Every seed gives a valid
    peel schedule of its own, and the core must not depend on it.
    """
    vertices, edges = _live(g, stash_vertices, stash_edges)
    if order_seed is None:
        prio = {v: v for v in vertices}
    else:
        rng = random.Random(order_seed)
        prio = {v: rng.random() for v in sorted(vertices)}
    order = []
    while True:
        deg = dict.fromkeys(vertices, 0)
        for vs in edges.values():
            for v in vs:
                deg[v] += 1
        low = [v for v in vertices if deg[v] < k]
        if not low:
            return tuple(order), frozenset(vertices), frozenset(edges)
        v = min(low, key=lambda v: (prio[v], v))
        order.append(v)
        vertices.remove(v)
        edges = {e: vs for e, vs in edges.items() if v not in vs}


def core_layout_by_renumbering(g: Hypergraph, core_vertices, core_edges) -> tuple:
    """What the core holds, as ``helpers.layout`` shows it: arity, the core
    edges in ascending id order with their vertices renamed by rank among
    the core vertices, and each core vertex's edges."""
    rank = {v: i for i, v in enumerate(sorted(core_vertices))}
    edges = [tuple(rank[v] for v in g.edge_vertices(e)) for e in sorted(core_edges)]
    incidence = [[i for i, vs in enumerate(edges) if v in vs] for v in range(len(rank))]
    return g.d, edges, incidence


def serialize_by_rendering(g: Hypergraph) -> str:
    """The text format written line by line through the public queries:
    vertices ranked by ascending id, edges in ascending id order."""
    rank = {v: i for i, v in enumerate(sorted(g.vertices))}
    lines = [f"h {g.d} {g.num_vertices} {g.num_edges}"]
    for e in sorted(g.edges):
        lines.append("e " + " ".join(str(rank[v]) for v in g.edge_vertices(e)))
    return "\n".join(lines) + "\n"


def _core_after(g: Hypergraph, k: int, kind: str, stash) -> tuple[frozenset[int], frozenset[int]]:
    if kind == "vertex":
        return peel_by_repeated_removal(g, k, stash_vertices=stash)[1:]
    return peel_by_repeated_removal(g, k, stash_edges=stash)[1:]


def min_stash_by_enumeration(g: Hypergraph, k: int, kind: str) -> frozenset[int]:
    """Lexicographically first minimum stash: the first subset, in
    ``combinations(sorted(pool), size)`` order for increasing size, whose
    removal leaves an empty core.  The pool is every vertex or edge."""
    pool = sorted(g.vertices) if kind == "vertex" else sorted(g.edges)
    for size in range(len(pool) + 1):
        for subset in combinations(pool, size):
            if not _core_after(g, k, kind, subset)[0]:
                return frozenset(subset)
    raise AssertionError("stashing everything always works")


def min_stash_size_by_enumeration(g: Hypergraph, k: int, kind: str) -> int:
    """Smallest stash size by unpruned enumeration over all element subsets."""
    return len(min_stash_by_enumeration(g, k, kind))


def greedy_stash_by_repeeling(
    g: Hypergraph, k: int, mode: str, tie_break: str, seed: int
) -> frozenset[int]:
    """The greedy heuristic's stash, re-peeling the whole input after each pick.

    Each round takes the k-core of g minus the stash so far from
    ``peel_by_repeated_removal`` and picks as ``greedy_stash`` documents: maximum core
    degree (for edges, the sum over its vertices), lowest id on ties; the
    lowest id; or ``random.Random(seed).choice`` over the sorted pool.
    """
    rng = random.Random(seed)
    stash: set[int] = set()
    while True:
        core_v, core_e = _core_after(g, k, mode, stash)
        if not core_v:
            return frozenset(stash)
        deg = {v: 0 for v in core_v}
        for e in core_e:
            for v in g.edge_vertices(e):
                deg[v] += 1
        if mode == "vertex":
            pool, score = sorted(core_v), deg.__getitem__
        else:
            pool = sorted(core_e)
            score = lambda e: sum(deg[v] for v in g.edge_vertices(e))
        if tie_break == "max_degree":
            best = max(score(x) for x in pool)
            stash.add(next(x for x in pool if score(x) == best))
        elif tie_break == "min_id":
            stash.add(pool[0])
        else:
            stash.add(rng.choice(pool))


def min_cover_size_by_enumeration(g: Hypergraph) -> int:
    """Smallest vertex set meeting every edge, by unpruned enumeration."""
    assert g.d == 2
    vertices = sorted(g.vertices)
    edges = list(g.edges.values())
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable: the full vertex set covers everything")


def connected_components(g: Hypergraph) -> int:
    """Component count by depth-first search over the incidence structure."""
    seen: set[int] = set()
    count = 0
    for start in sorted(g.vertices):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for e in g.incident_edges(v):
                for w in g.edge_vertices(e):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return count


def nonisomorphic_graphs(max_vertices: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All simple graphs on 0..max_vertices vertices, one per isomorphism class.

    Canonical form: the lexicographically smallest sorted edge list over
    all vertex relabelings.  Fine for max_vertices <= 6.
    """
    out: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        seen: set[tuple[tuple[int, int], ...]] = set()
        for bits in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            canon = None
            for perm in permutations(range(n)):
                relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
                if canon is None or relabeled < canon:
                    canon = relabeled
            assert canon is not None or n == 0
            key = canon if canon is not None else ()
            if key not in seen:
                seen.add(key)
                out.append((n, key))
    return out
