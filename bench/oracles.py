"""Input generation and answer checking that share no code with stashpeel.

The benchmark judges the package's outputs with these helpers, so a defect
in the package's own peeling engine or text format cannot hide itself.
"""

from __future__ import annotations

import random
from collections import deque


class WrongAnswer(Exception):
    """An operation returned output that its check rejects."""


def random_edges(rng: random.Random, n: int, m: int, d: int, simple: bool = False) -> list[tuple[int, ...]]:
    """m edges of d distinct vertices out of range(n); no repeated vertex
    set when ``simple`` is true."""
    edges: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    while len(edges) < m:
        e = tuple(rng.sample(range(n), d))
        if simple:
            key = frozenset(e)
            if key in seen:
                continue
            seen.add(key)
        edges.append(e)
    return edges


def instance_text(n: int, d: int, edges: list[tuple[int, ...]]) -> str:
    lines = [f"h {d} {n} {len(edges)}"]
    lines.extend("e " + " ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(d, n, edges) of an instance text; edge i is the i-th 'e' line."""
    d = n = -1
    edges: list[tuple[int, ...]] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "h":
            d, n = int(fields[1]), int(fields[2])
        elif fields[0] == "e":
            edges.append(tuple(int(x) for x in fields[1:]))
    if d < 0:
        raise WrongAnswer("instance text has no header")
    return d, n, edges


def core_edge_ids(edges: list[tuple[int, ...]], k: int, removed_vertices=(), removed_edges=()) -> set[int]:
    """Edge indices of the k-core after deleting the given vertices (with
    their edges) and edges; a plain FIFO peel."""
    rv, re = set(removed_vertices), set(removed_edges)
    alive = [i not in re and not rv.intersection(e) for i, e in enumerate(edges)]
    inc: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        if alive[i]:
            for v in e:
                inc.setdefault(v, []).append(i)
    deg = {v: len(es) for v, es in inc.items()}
    queue = deque(v for v, c in deg.items() if c < k)
    gone = set(queue)
    while queue:
        v = queue.popleft()
        for i in inc[v]:
            if not alive[i]:
                continue
            alive[i] = False
            for w in edges[i]:
                deg[w] -= 1
                if deg[w] < k and w not in gone:
                    gone.add(w)
                    queue.append(w)
    return {i for i, a in enumerate(alive) if a}


def core_text(d: int, edges: list[tuple[int, ...]], core: set[int]) -> str:
    """The k-core in the instance text format: vertices renumbered by rank,
    edges in input order."""
    kept = sorted(core)
    verts = sorted({v for i in kept for v in edges[i]})
    rank = {v: r for r, v in enumerate(verts)}
    return instance_text(len(verts), d, [tuple(rank[v] for v in edges[i]) for i in kept])


def parse_stash_line(text: str, kind: str) -> list[int]:
    """Ids of the first 'S <kind> ...' line of a CLI output."""
    for line in text.splitlines():
        fields = line.split()
        if fields[:2] == ["S", kind]:
            return [int(x) for x in fields[2:]]
    raise WrongAnswer(f"no 'S {kind}' line in output")


def require(condition: bool, message: str) -> None:
    """Explicit check that survives ``python -O``."""
    if not condition:
        raise WrongAnswer(message)


def require_peels(edges, k: int, what: str, removed_vertices=(), removed_edges=()) -> None:
    left = core_edge_ids(edges, k, removed_vertices, removed_edges)
    require(not left, f"{what} leaves a {k}-core of {len(left)} edges")
