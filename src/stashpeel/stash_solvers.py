"""Minimum-stash solvers: exact search, the polynomial 2-edge case, a
vertex-cover oracle, and greedy heuristics.

The exact solvers enumerate candidate stashes in cardinality-increasing,
lexicographic order, restricted to elements of the current k-core (stashing
anything outside the core never changes it).  The search runs on one
``PeelCore``: each branch stashes its element and peels the cascade in
place, recording every kill on a trail, and backtracking pops the trail, so
a search node costs its cascade rather than a re-peel of the whole core.

It branches only on the root core's undominated elements, the candidates.
If stashing x at the root kills y > x, then core(G-S-x) lies inside
core(G-S-y) for every stash S, so swapping y for x never gives a larger
stash and gives a lexicographically smaller one: the first minimum stash
never holds y.  One walk up the root's live elements stashes each one not
yet dominated, marks the higher ids its cascade kills, and undoes; it
stashes every candidate once, so it is also the search at budget 1.

Subtrees that provably hold no stash are skipped, so the search still
returns the lexicographically first minimum stash.  Every stash must hit
every nonempty k-core of a subset of the live elements (a "witness").  At
each node the prefix witness, the core left once every candidate above y
is stashed for the smallest candidate y that leaves one, caps the scan: a
stash whose first element is above y misses it.  At budget 1 the one
element must lie in the prefix witness, and each failed candidate leaves a
core that is another witness, so the elements still to try shrink to those
alive in it.  A parent hands each child its witness: its own when the
stashed element lies outside it; else, to a budget-1 child, the child's
whole core, which that scan shrinks without a prefix sweep; else one
found right after the stash.  New witnesses are found on a throwaway
copy of the core, so the search core's trail holds only the branch's
stashes.

A minimum stash is a minimum hitting set of the witnesses, so witnesses
that share no element a stash may still use bound it from below.  A node
with budget >= 2 packs them greedily on a copy of its core: it stashes its
prefix witness's candidates >= `first` (the smallest id the node may still
stash), takes the copy's prefix witness as the next, and repeats until the
copy empties.  Every stash below the node hits each packed witness in an
element of its own, so a node with more packed witnesses than budget
holds no stash and is cut.  The root's packing is taken once and sets the
first budget: iterative deepening starts at its count, or at 2 when the
walk found no stash of one element, so the root is never cut.

Two invariants spare the search two tests.  Every witness a node scans or
packs has a candidate >= `first`: one at or below the x its parent
stashed would be a witness of the parent below x <= y, lower than its
lowest, the prefix witness.  At budget >= 2 no single stash empties the
core: every smaller budget, from the packing bound up, failed
exhaustively.

Greedy runs on the same structure without undo.  Its max-degree picks
come from a lazy max-heap of (score, id) entries, each re-scored only when
it reaches the top; the pick is exact because core degrees only fall, so a
stored score bounds the current one and a top entry whose score is current
is the lowest-id maximum.  Every stash returned is re-checked on the input
graph by ``peeling.certify_stash``, the check that every stash leaving the
library passes.  Instances are expected to be desk-scale; correctness is
the point.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import combinations, compress, count
from typing import Callable

from .errors import CapExceededError, InvalidArityError, ParameterError, check_ints
from .hypergraph import Hypergraph
from .peeling import PeelCore, certify_stash, check_k

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


def _candidates(core: PeelCore, kind: str) -> tuple[list[int], bool]:
    """The candidates: the live elements of `kind` that no lower one kills
    when stashed, ascending; and whether the last one's stash alone empties
    `core`.

    Walks the live ids upward, stashes each one not yet dominated, marks
    the higher ids its cascade kills, read off the trail, and undoes it.  A
    dominated id needs no stash of its own: its dominator kills everything
    it kills.  So the walk is also the budget-1 search: an id whose stash
    empties `core` kills every id above it and is the last candidate.
    `core` is left as it was found.
    """
    alive, stash = _kind_ops(core, kind)
    undominated = alive.copy()
    # the trail records a vertex v as v and an edge e as ~e == e ^ -1
    flip = 0 if kind == "vertex" else -1
    mark = len(core.trail)
    alone = False
    for x, live in enumerate(undominated):
        if live:
            stash(x)
            alone = not core.live_edges
            for z in core.trail[mark:]:
                z ^= flip
                if z > x:
                    undominated[z] = False
            core.undo(mark)
    return list(compress(count(), undominated)), alone


def _prefix_witness(core: PeelCore, kind: str, cands: list[int]) -> tuple[int, list[bool]]:
    """Smallest candidate y such that stashing every candidate above it
    leaves a nonempty k-core, the witness, and the witness's alive flags.

    On a copy of `core`, stashes live candidates from the highest down
    until the copy empties, as it must once all are stashed; y is the one
    whose stash emptied it.  Only that last cascade is undone, which leaves
    the copy holding the witness, so its flags are True exactly on the
    witness's elements, and on no candidate above y.  `core` itself is not
    touched and must be nonempty.
    """
    w = core.copy()
    alive, stash = _kind_ops(w, kind)
    todo = (c for c in reversed(cands) if alive[c])
    while w.live_edges:
        y = next(todo)
        before = len(w.trail)
        stash(y)
    w.undo(before)
    return y, alive


def _packing(
    core: PeelCore, kind: str, cands: list[int], limit: int, first: int, y: int, flags: list[bool]
) -> int:
    """Greedily pack witnesses of `core` that are pairwise disjoint on the
    candidates >= `first`, and return their number, or `limit` + 1 once
    there are more than `limit`.

    `flags` marks the first witness, whose candidates are all <= y, with y
    >= `first`.  On a copy of `core`, stashes the witness's candidates >=
    `first`, takes the copy's prefix witness as the next one, and repeats
    until the copy empties.  Each witness lies in what the ones before it
    left alive, so a stash of candidates >= `first` hits each in an id of
    its own and is no smaller than the count.  `core` itself is not
    touched.  Each later witness reaches `first` too: the copy lost only
    candidates >= `first`, so one below would be a witness of `core` below
    y.
    """
    w = core.copy()
    alive, stash = _kind_ops(w, kind)
    lo = bisect_left(cands, first)
    packed = 0
    while True:
        for x in cands[lo : bisect_right(cands, y)]:
            if flags[x] and alive[x]:
                stash(x)
        packed += 1
        if not w.live_edges:
            return packed
        if packed >= limit:
            return limit + 1
        y, flags = _prefix_witness(w, kind, cands)


def _search(
    core: PeelCore, kind: str, cands: list[int], budget: int, first: int, y: int, flags: list[bool]
) -> list[int] | None:
    """Lexicographically first `budget` more candidates, each at least
    `first`, whose stashing empties `core`, or None.

    `y` and `flags` are the node's prefix witness.  The scan takes the live
    candidates of the node's core, capped at y: a stash must hit the
    witness, whose candidates are all <= y, so a first element above y
    leads nowhere.  At budget 1 the one element must lie in the witness
    and in the core left by every failed candidate.  A child whose stashed
    element is outside the witness is handed the same one: the witness has
    minimum degree >= k without that element, so it survives the cascade
    and is the child's prefix core at y, while the child's prefix cores
    below y lie inside the parent's empty ones.  A budget-1 child whose
    element is inside the witness is handed its whole core as the
    witness, y = cands[-1] with its own alive flags: the leaf's scan
    shrinks that to each failed candidate's core, so a prefix sweep would
    only narrow the first trial list.

    Below the root, a node with more disjoint witnesses (`_packing`) than
    `budget` holds no stash and is cut.  A failed search leaves `core` as
    it found it; a successful one leaves the stash applied.

    Invariants: y >= `first`, as a witness at or below the stashed
    `first` - 1 would be one of the parent's below its y (and a leaf's
    whole core has y = cands[-1], above the parent's y); and at budget 2
    or more no stash empties `core`, as every smaller budget failed.
    """
    alive, stash = _kind_ops(core, kind)
    mark = len(core.trail)
    scan = cands[bisect_left(cands, first) : bisect_right(cands, y)]
    if budget == 1:
        todo = [x for x in scan if flags[x]]
        while todo:
            x = todo.pop(0)
            stash(x)
            if not core.live_edges:
                return [x]
            todo = [c for c in todo if alive[c]]
            core.undo(mark)
        return None
    # the root's packing set the first budget, so only nodes below it are cut
    if first > 0 and _packing(core, kind, cands, budget, first, y, flags) > budget:
        return None
    for x in scan:
        if not alive[x]:
            continue
        stash(x)
        # a leaf needs no prefix sweep: its scan keeps only what each failed candidate leaves
        witness = (y, flags) if not flags[x] else (cands[-1], alive) if budget == 2 else _prefix_witness(core, kind, cands)
        rest = _search(core, kind, cands, budget - 1, x + 1, *witness)
        if rest is not None:
            return [x] + rest
        core.undo(mark)
    return None


def _min_stash_exact(g: Hypergraph, k: int, size_cap: int, kind: str) -> StashResult:
    check_k(k)
    check_ints(size_cap=size_cap)
    if size_cap < 0:
        raise ParameterError(f"size cap must be non-negative, got {size_cap}")
    core = PeelCore(g, k)
    if not core.live_edges:
        return StashResult(kind, frozenset(), True)
    cands, alone = _candidates(core, kind)
    found = cands[-1:] if alone else None
    if not alone:
        y, flags = _prefix_witness(core, kind, cands)
        packing = _packing(core, kind, cands, size_cap, 0, y, flags)
        # the walk for the candidates ruled out every stash of one element
        for budget in range(max(packing, 2), size_cap + 1):
            found = _search(core, kind, cands, budget, 0, y, flags)
            if found is not None:
                break
    if found is None or len(found) > size_cap:
        raise CapExceededError(f"no {kind} stash of size <= {size_cap} exists", size_cap)
    stash = frozenset(found)
    certify_stash(kind, g, k, *((stash, ()) if kind == "vertex" else ((), stash)))
    return StashResult(kind, stash, True)


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
    certify_stash("2-edge", g, 2, stash_edges=removed)
    return CyclomaticCertificate(h=h, components=components, removed_edges=frozenset(removed))


def min_vertex_cover_exact(g: Hypergraph, size_cap: int = DEFAULT_SIZE_CAP) -> frozenset[int]:
    """Smallest vertex set touching every edge of a standard graph.

    Exhaustive cardinality-increasing search over non-isolated vertices;
    serves as the independent oracle for the vertex-cover reduction.
    """
    if g.d != 2:
        raise InvalidArityError(f"vertex cover is defined here for d=2, got d={g.d}")
    check_ints(size_cap=size_cap)
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

    ``max_degree`` and ``min_id`` keep one heap entry per live element and
    re-score an entry only when it reaches the top, so their picks cost
    O((|E| + score drops) * log |E|) in all, not a scan of every element
    per pick, O(picks * |E| * d).
    """
    check_k(k)
    if mode not in ("vertex", "edge"):
        raise ParameterError(f"mode must be 'vertex' or 'edge', got {mode!r}")
    check_ints(seed=seed)
    if tie_break not in TIE_BREAKS:
        raise ParameterError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    # The core lives only in _greedy_picks, so it is freed before the
    # certificate check peels g.
    stash = _greedy_picks(PeelCore(g, k), mode, tie_break, random.Random(seed))
    certify_stash(mode, g, k, *((stash, ()) if mode == "vertex" else ((), stash)))
    return StashResult(mode, stash, False)


def _greedy_picks(core: PeelCore, mode: str, tie_break: str, rng: random.Random) -> frozenset[int]:
    deg = core.degree
    alive, remove = _kind_ops(core, mode)
    if tie_break == "min_id":
        score = lambda x: 0  # every entry ties, so the top live one is the lowest live id
    elif mode == "vertex":
        score = deg.__getitem__
    else:
        edge_vertices = core.edge_vertices
        score = lambda e: sum(map(deg.__getitem__, edge_vertices[e]))
    # One (-score, id) entry per live element.  Scores only fall, so a
    # stored score bounds the current one from above, and an entry whose
    # stored score is current outranks every other live element: it is the
    # lowest-id maximum.
    heap = [(-score(x), x) for x in compress(count(), alive)] if tie_break != "seeded_random" else []
    heapify(heap)
    stash: set[int] = set()
    while core.live_edges:
        if tie_break == "seeded_random":
            pick = rng.choice(list(compress(range(len(alive)), alive)))
        else:
            while True:
                stored, pick = heap[0]
                if not alive[pick]:
                    heappop(heap)
                    continue
                now = -score(pick)
                if stored == now:
                    heappop(heap)
                    break
                heapreplace(heap, (now, pick))
        stash.add(pick)
        remove(pick)
    return frozenset(stash)
