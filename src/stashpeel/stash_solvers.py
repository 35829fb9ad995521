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

A minimum stash is a minimum hitting set of the witnesses, so witnesses
that share no element a stash may still use bound it from below.  A node
with budget >= 2 packs them greedily on a copy of its core: it stashes its
prefix witness's elements >= `first` (the smallest id the node may still
stash), takes the copy's prefix witness as the next, and repeats until the
copy empties.  Every stash below the node hits each packed witness in an
element of its own, so a node with more packed witnesses than budget, or
one with no element >= `first`, holds no stash and is cut; with exactly
as many, only packed elements are tried.  The root's packing is taken
once, and iterative deepening starts at its count.

Greedy runs on the same structure without undo.  Every stash returned is
re-checked by ``is_k_peelable`` on the input graph.  Instances are expected
to be desk-scale; correctness is the point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Callable

from .errors import CapExceededError, InvalidArityError, ParameterError
from .hypergraph import Hypergraph
from .peeling import PeelCore, is_k_peelable

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


def _kind_ops(core: PeelCore, kind: str) -> tuple[list[bool], Callable[[int], None]]:
    """`core`'s alive flags and stash method for elements of `kind`."""
    if kind == "vertex":
        return core.vertex_alive, core.stash_vertex
    return core.edge_alive, core.stash_edge


def _prefix_witness(core: PeelCore, kind: str) -> tuple[int, list[bool]]:
    """Smallest y such that the live elements <= y still hold a nonempty
    k-core, the witness, and the witness's alive flags.

    On a copy of `core`, stashes live elements from the highest id
    down until the copy empties; y is the one whose stash emptied it.  Only
    that last cascade is undone, which leaves the copy holding the witness,
    so its flags are True exactly on the witness's elements (none above y).
    `core` itself is not touched and must be nonempty.
    """
    w = core.copy()
    alive, stash = _kind_ops(w, kind)
    y = len(alive)
    while w.live_edges:
        y -= 1
        if alive[y]:
            before = len(w.trail)
            stash(y)
    w.undo(before)
    return y, alive


def _packing(
    core: PeelCore, kind: str, limit: int, first: int, y: int, flags: list[bool]
) -> tuple[int, set[int]]:
    """Greedily pack witnesses of `core` that are pairwise disjoint on the
    ids >= `first`.  Returns their number, or `limit` + 1 once there are
    more than `limit` or one has no id >= `first`, and the packed
    witnesses' ids >= `first`.

    `flags` marks the first witness, whose ids are all <= y, with y >=
    `first`.  On a copy of `core`, stashes the witness's ids >= `first`,
    takes the copy's prefix witness as the next one, and repeats until the
    copy empties.  Each witness lies in what the ones before it left alive,
    so a stash of ids >= `first` hits each in an id of its own: no such
    stash is smaller than the count, and one of exactly that size holds
    only packed ids.  `core` itself is not touched.
    """
    w = core.copy()
    alive, stash = _kind_ops(w, kind)
    packed, hit = 0, set()
    while True:
        for x in compress(range(first, y + 1), flags[first : y + 1]):
            hit.add(x)
            if alive[x]:
                stash(x)
        packed += 1
        if not w.live_edges:
            return packed, hit
        if packed >= limit:
            return limit + 1, hit
        y, flags = _prefix_witness(w, kind)
        if y < first:
            return limit + 1, hit


def _search(
    core: PeelCore,
    kind: str,
    budget: int,
    first: int,
    witness: tuple[int, list[bool]] | None = None,
    packing: tuple[int, set[int]] | None = None,
) -> list[int] | None:
    """Lexicographically first `budget` more ids, each at least `first`,
    whose stashing empties `core`, or None.

    Candidates are the live elements of the node's core, capped at the
    node's prefix witness y: a stash must hit the witness, whose elements
    are all <= y, so a first element above y leads nowhere.  At budget 1
    the one element must lie in the witness and in the core left by every
    failed candidate.  A child whose stashed element is outside the
    witness inherits it as `witness`: the witness has minimum degree >= k
    without that element, so it survives the cascade and is the child's
    prefix core at y, while the child's prefix cores below y lie inside the
    parent's empty ones.

    A node with budget >= 2 also packs witnesses disjoint on the ids >=
    `first` (`_packing`), which every stash from here on must hit in ids
    of their own: with more than `budget` of them the node holds no stash,
    and with exactly `budget` every stash id is a packed one, so the scan
    skips the rest.  `packing` is the node's packing when the caller has
    it; the root's is the same at every budget.  A failed search leaves
    `core` as it found it; a successful one leaves the stash applied.
    """
    alive, stash = _kind_ops(core, kind)
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
    packed, hit = packing or _packing(core, kind, budget, first, y, flags)
    if packed > budget:
        return None
    for x in compress(range(first, y + 1), alive[first : y + 1]):
        if packed == budget and x not in hit:
            continue
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
        peelable = is_k_peelable(g, k, stash_vertices=stash)
    else:
        peelable = is_k_peelable(g, k, stash_edges=stash)
    if not peelable:
        raise AssertionError(f"{kind} stash {sorted(stash)} leaves a nonempty {k}-core")


def _min_stash_exact(g: Hypergraph, k: int, size_cap: int, kind: str) -> StashResult:
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    if size_cap < 0:
        raise ParameterError(f"size cap must be non-negative, got {size_cap}")
    core = PeelCore(g, k)
    if not core.live_edges:
        return StashResult(kind, frozenset(), True)
    witness = _prefix_witness(core, kind)
    packing = _packing(core, kind, size_cap, 0, *witness)
    for budget in range(packing[0], size_cap + 1):
        found = _search(core, kind, budget, 0, witness, packing)
        if found is not None:
            stash = frozenset(found)
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


def two_edge_stash_standard(g: Hypergraph) -> CyclomaticCertificate:
    """Minimum 2-edge-stash of a standard graph via its cyclomatic number.

    Inserts edges one at a time and sets aside every edge that closes a
    cycle; the set-aside edges are a minimum stash of size
    h = |E| - |V| + components.
    """
    if g.d != 2:
        raise InvalidArityError(f"2-edge-stash shortcut needs d=2, got d={g.d}")
    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    removed: set[int] = set()
    for e in range(g.num_edges):
        ru, rv = (find(v) for v in g.edge_vertices(e))
        if ru == rv:
            removed.add(e)
        else:
            parent[ru] = rv
    components = len({find(v) for v in range(len(parent))})
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
    edges = g._edges
    candidates = [v for v in range(g.num_vertices) if g._incidence[v]]
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
    stash = _greedy_picks(PeelCore(g, k), mode, tie_break, random.Random(seed))
    _certify(g, k, mode, stash)
    return StashResult(mode, stash, False)


def _greedy_picks(core: PeelCore, mode: str, tie_break: str, rng: random.Random) -> frozenset[int]:
    # Scores are indexed by id.  Dead elements score 0 and live ones at least
    # k >= 1, so the first maximum is the live pick with the lowest id.
    deg = core.degree
    alive, remove = _kind_ops(core, mode)
    if mode == "vertex":
        scores = lambda: deg
    else:
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
        stash.add(pick)
        remove(pick)
    return frozenset(stash)
