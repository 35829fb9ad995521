"""Minimum-stash solvers: exact search, the polynomial 2-edge case, a
vertex-cover oracle, and greedy heuristics.

The exact solvers enumerate candidate stashes in cardinality-increasing,
lexicographic order, restricted to elements of the current k-core (stashing
anything outside the core never changes it).  The search runs on one
``PeelCore``: each branch stashes its element and peels the cascade in
place, recording every kill on a trail, and backtracking pops the trail, so
a search node costs its cascade rather than a re-peel of the whole core.

Subtrees that provably hold no stash are skipped, so the search still
returns the lexicographically first minimum stash.  Every stash must hit
every nonempty k-core of a subset of the live elements (a "witness").  At
each node the prefix witness, the k-core of the live elements <= y for the
smallest such y, caps the scan: a stash whose first element is above y
misses it.  At budget 1 the one element must lie in the prefix witness,
and each failed candidate leaves a core that is another witness, so the
candidates still to try shrink to those alive in it.  A child whose
stashed element lies outside its parent's witness inherits that witness
rather than finding its own, and new witnesses are found on a throwaway
copy of the core, so the search core's trail holds only the branch's
stashes.

Greedy runs on the same structure without undo.  Every stash returned is
re-checked by ``k_core_after`` on the input graph.  Instances are expected
to be desk-scale; correctness is the point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress

from .errors import CapExceededError, InvalidArityError, ParameterError
from .hypergraph import Hypergraph
from .peeling import PeelCore, k_core_after

DEFAULT_SIZE_CAP = 6


@dataclass(frozen=True)
class StashResult:
    """A stash together with what the solver can promise about it."""

    kind: str  # "vertex" | "edge"
    stash: frozenset[int]
    optimal: bool

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise AssertionError(f"stash kind must be 'vertex' or 'edge', got {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.stash)


@dataclass(frozen=True)
class CyclomaticCertificate:
    """Certificate for the minimum 2-edge-stash of a standard graph.

    h = |E| - |V| + components, and removing ``removed_edges`` (|.| = h)
    leaves an acyclic graph.
    """

    h: int
    components: int
    removed_edges: frozenset[int]


def _candidate_vertices(edges: dict[int, tuple[int, ...]]) -> list[int]:
    seen: set[int] = set()
    for vs in edges.values():
        seen.update(vs)
    return sorted(seen)


def _prefix_witness(core: PeelCore, kind: str) -> tuple[int, list[bool]]:
    """Smallest y such that the live elements <= y still hold a nonempty
    k-core, the witness, and the witness's alive flags.

    On a copy of `core`, stashes live elements from the highest local id
    down until the copy empties; y is the one whose stash emptied it.  Only
    that last cascade is undone, which leaves the copy holding the witness,
    so its flags are True exactly on the witness's elements (none above y).
    `core` itself is not touched and must be nonempty.
    """
    w = core.copy()
    if kind == "vertex":
        alive, stash = w.vertex_alive, w.stash_vertex
    else:
        alive, stash = w.edge_alive, w.stash_edge
    y = len(alive)
    while w.live_edges:
        y -= 1
        if alive[y]:
            before = len(w.trail)
            stash(y)
    w.undo(before)
    return y, alive


def _search(
    core: PeelCore,
    kind: str,
    budget: int,
    first: int,
    witness: tuple[int, list[bool]] | None = None,
) -> list[int] | None:
    """Lexicographically first `budget` more local ids, each at least `first`,
    whose stashing empties `core`, or None.

    Candidates are the live elements of the node's core, capped at the
    node's prefix witness y: a stash must hit the witness, whose elements
    are all <= y, so a first element above y leads nowhere.  At budget 1
    the one element must lie in the witness and in the core left by every
    failed candidate.  A child whose stashed element is outside the
    witness inherits it as `witness`: the witness has minimum degree >= k
    without that element, so it survives the cascade and is the child's
    prefix core at y, while the child's prefix cores below y lie inside the
    parent's empty ones.  A failed search leaves `core` as it found it; a
    successful one leaves the stash applied.
    """
    if kind == "vertex":
        alive, stash = core.vertex_alive, core.stash_vertex
    else:
        alive, stash = core.edge_alive, core.stash_edge
    mark = len(core.trail)
    y, flags = witness or _prefix_witness(core, kind)
    if budget == 1:
        todo = list(compress(range(first, y + 1), flags[first : y + 1]))
        while todo:
            x = todo.pop(0)
            stash(x)
            if not core.live_edges:
                return [x]
            todo = [c for c in todo if alive[c]]
            core.undo(mark)
        return None
    if y < first:
        return None
    for x in compress(range(first, y + 1), alive[first : y + 1]):
        stash(x)
        if not core.live_edges:
            return [x]
        rest = _search(core, kind, budget - 1, x + 1, None if flags[x] else (y, flags))
        if rest is not None:
            return [x] + rest
        core.undo(mark)
    return None


def _certify(g: Hypergraph, k: int, kind: str, stash: frozenset[int]) -> None:
    if kind == "vertex":
        check = k_core_after(g, k, stash_vertices=stash)
    else:
        check = k_core_after(g, k, stash_edges=stash)
    if not check.core_empty:
        raise AssertionError(f"{kind} stash {sorted(stash)} leaves a nonempty {k}-core")


def _min_stash_exact(g: Hypergraph, k: int, size_cap: int, kind: str) -> StashResult:
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    if size_cap < 0:
        raise ParameterError(f"size cap must be non-negative, got {size_cap}")
    core = PeelCore(g.edges, k)
    if not core.live_edges:
        return StashResult(kind, frozenset(), True)
    ids = core.vertex_ids if kind == "vertex" else core.edge_ids
    for budget in range(1, size_cap + 1):
        found = _search(core, kind, budget, 0)
        if found is not None:
            stash = frozenset(ids[x] for x in found)
            _certify(g, k, kind, stash)
            return StashResult(kind, stash, True)
    raise CapExceededError(f"no {kind} stash of size <= {size_cap} exists", size_cap)


def min_vertex_stash_exact(g: Hypergraph, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> StashResult:
    """Smallest vertex set whose removal leaves g k-peelable.

    Raises CapExceededError if every stash needs more than ``size_cap``
    vertices; that is a budget signal, not nonexistence.
    """
    return _min_stash_exact(g, k, size_cap, "vertex")


def min_edge_stash_exact(g: Hypergraph, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> StashResult:
    """Smallest edge set whose removal leaves g k-peelable."""
    return _min_stash_exact(g, k, size_cap, "edge")


class _UnionFind:
    """Disjoint sets with path compression and union by rank."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def two_edge_stash_standard(g: Hypergraph) -> CyclomaticCertificate:
    """Minimum 2-edge-stash of a standard graph via its cyclomatic number.

    Inserts edges one at a time and sets aside every edge that closes a
    cycle; the set-aside edges are a minimum stash of size
    h = |E| - |V| + components.
    """
    if g.d != 2:
        raise InvalidArityError(f"2-edge-stash shortcut needs d=2, got d={g.d}")
    uf = _UnionFind(g.vertices)
    removed: set[int] = set()
    for e in sorted(g.edges):
        u, v = g.edge_vertices(e)
        if not uf.union(u, v):
            removed.add(e)
    components = len({uf.find(v) for v in g.vertices})
    h = g.num_edges - g.num_vertices + components
    if h != len(removed):
        raise AssertionError(f"cyclomatic number {h} does not match {len(removed)} cycle-closing edges")
    return CyclomaticCertificate(h=h, components=components, removed_edges=frozenset(removed))


def min_vertex_cover_exact(g: Hypergraph, size_cap: int = DEFAULT_SIZE_CAP) -> frozenset[int]:
    """Smallest vertex set touching every edge of a standard graph.

    Exhaustive cardinality-increasing search over non-isolated vertices;
    serves as the independent oracle for the vertex-cover reduction.
    """
    if g.d != 2:
        raise InvalidArityError(f"vertex cover is defined here for d=2, got d={g.d}")
    if size_cap < 0:
        raise ParameterError(f"size cap must be non-negative, got {size_cap}")
    edges = list(g.edges.values())
    candidates = _candidate_vertices(g.edges)
    for size in range(0, min(size_cap, len(candidates)) + 1):
        for combo in combinations(candidates, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return frozenset(chosen)
    raise CapExceededError(f"no vertex cover of size <= {size_cap} exists", size_cap)


TIE_BREAKS = ("max_degree", "min_id", "seeded_random")


def greedy_stash(
    g: Hypergraph,
    k: int,
    mode: str,
    tie_break: str = "max_degree",
    seed: int = 0,
) -> StashResult:
    """Heuristic stash: repeatedly stash one element of the current k-core.

    ``max_degree`` stashes the core vertex of maximum core degree (for
    edges: the edge whose endpoints have the largest core-degree sum),
    lowest id on ties; ``min_id`` takes the lowest id; ``seeded_random``
    picks uniformly with a deterministic seed.  Always valid, never
    certified optimal.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    if mode not in ("vertex", "edge"):
        raise ParameterError(f"mode must be 'vertex' or 'edge', got {mode!r}")
    if tie_break not in TIE_BREAKS:
        raise ParameterError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    # The core lives only in _greedy_picks, so it is freed before the
    # certificate check peels g.
    stash = _greedy_picks(PeelCore(g.edges, k), mode, tie_break, random.Random(seed))
    _certify(g, k, mode, stash)
    return StashResult(mode, stash, False)


def _greedy_picks(core: PeelCore, mode: str, tie_break: str, rng: random.Random) -> frozenset[int]:
    # Scores are indexed by local id.  Dead elements score 0 and live ones at
    # least k >= 1, so the first maximum is the live pick with the lowest id.
    deg = core.degree
    if mode == "vertex":
        alive, ids, remove = core.vertex_alive, core.vertex_ids, core.stash_vertex
        scores = lambda: deg
    else:
        alive, ids, remove = core.edge_alive, core.edge_ids, core.stash_edge
        scores = lambda: [
            sum(map(deg.__getitem__, vs)) if a else 0 for vs, a in zip(core.edge_vertices, alive)
        ]
    stash: set[int] = set()
    while core.live_edges:
        if tie_break == "max_degree":
            s = scores()
            pick = s.index(max(s))
        elif tie_break == "min_id":
            pick = alive.index(True)
        else:
            pick = rng.choice(list(compress(range(len(alive)), alive)))
        stash.add(ids[pick])
        remove(pick)
    return frozenset(stash)
