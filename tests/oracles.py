"""Independent brute-force oracles the engine and solvers are checked against.

Everything here works by plain subset enumeration over the input, with no
worklists, no pruning to cores, and no shared code with the package's
algorithms, so agreement is meaningful.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from stashpeel import Hypergraph, k_core_after


def cores_by_enumeration(g: Hypergraph, ks) -> dict[int, tuple[frozenset[int], frozenset[int]]]:
    """Maximal subgraph of minimum degree >= k for each k, by trying every
    vertex subset.

    A subset qualifies when every member has at least k induced edges; the
    union of qualifying subsets is itself qualifying and is the k-core.
    Subsets are walked as bitmasks so n up to ~12 stays cheap.
    """
    vertices = sorted(g.vertices)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    edge_masks = []
    for vs in g.edges.values():
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
        core_e = frozenset(e for e, vs in g.edges.items() if all(v in core_v for v in vs))
        out[k] = (core_v, core_e)
    return out


def core_by_enumeration(g: Hypergraph, k: int) -> tuple[frozenset[int], frozenset[int]]:
    return cores_by_enumeration(g, (k,))[k]


def peel_order_by_repeated_removal(g: Hypergraph, k: int, order_seed: int | None = None) -> tuple[int, ...]:
    """Peel order by removing, from a copy, the vertex of degree < k that
    comes first until none is left.  Without a seed the lowest id comes
    first; with one, the lowest of ``random.Random(order_seed).random()``
    drawn for each vertex in ascending id order, ties to the lower id."""
    if order_seed is None:
        prio = {v: v for v in g.vertices}
    else:
        rng = random.Random(order_seed)
        prio = {v: rng.random() for v in sorted(g.vertices)}
    h = g.copy()
    order = []
    while True:
        low = [v for v in h.vertices if h.degree(v) < k]
        if not low:
            return tuple(order)
        order.append(min(low, key=lambda v: (prio[v], v)))
        h.remove_vertex(order[-1])


def core_subgraph_by_removal(g: Hypergraph, trace) -> Hypergraph:
    """The trace's core cut out of a copy of g: every vertex outside
    ``trace.core_vertices``, then every edge outside ``trace.core_edges``,
    removed one at a time."""
    h = g.copy()
    for v in sorted(h.vertices - trace.core_vertices):
        h.remove_vertex(v)
    for e in sorted(set(h.edges) - trace.core_edges):
        h.remove_edge(e)
    return h


def serialize_by_rendering(g: Hypergraph) -> str:
    """The text format written line by line through the public queries:
    vertices ranked by ascending id, edges in ascending id order."""
    rank = {v: i for i, v in enumerate(sorted(g.vertices))}
    lines = [f"h {g.d} {g.num_vertices} {g.num_edges}"]
    for e in sorted(g.edges):
        lines.append("e " + " ".join(str(rank[v]) for v in g.edge_vertices(e)))
    return "\n".join(lines) + "\n"


def _core_after(g: Hypergraph, k: int, kind: str, stash):
    if kind == "vertex":
        return k_core_after(g, k, stash_vertices=stash)
    return k_core_after(g, k, stash_edges=stash)


def min_stash_by_enumeration(g: Hypergraph, k: int, kind: str) -> frozenset[int]:
    """Lexicographically first minimum stash: the first subset, in
    ``combinations(sorted(pool), size)`` order for increasing size, whose
    removal leaves an empty core.  The pool is every vertex or edge."""
    pool = sorted(g.vertices) if kind == "vertex" else sorted(g.edges)
    for size in range(len(pool) + 1):
        for subset in combinations(pool, size):
            if _core_after(g, k, kind, subset).core_empty:
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
    ``k_core_after`` and picks as ``greedy_stash`` documents: maximum core
    degree (for edges, the sum over its vertices), lowest id on ties; the
    lowest id; or ``random.Random(seed).choice`` over the sorted pool.
    """
    rng = random.Random(seed)
    stash: set[int] = set()
    while True:
        core = _core_after(g, k, mode, stash)
        if core.core_empty:
            return frozenset(stash)
        deg = {v: 0 for v in core.core_vertices}
        for e in core.core_edges:
            for v in g.edge_vertices(e):
                deg[v] += 1
        if mode == "vertex":
            pool, score = sorted(core.core_vertices), deg.__getitem__
        else:
            pool = sorted(core.core_edges)
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
