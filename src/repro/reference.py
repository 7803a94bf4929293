"""Sequential reference algorithms — the correctness oracles.

Every distributed algorithm in ``repro.core`` is checked against one of
these single-threaded implementations. They are deliberately simple
(union-find, heap-free greedy loops, BFS) so that their own correctness
is easy to audit, and they consume the same hash-derived priorities as
the distributed codes (see ``repro.hashing``), so exact-result equality
is meaningful.

Graphs here are plain numpy edge lists: ``u``, ``v`` int64 arrays with
``u < v`` canonical orientation, vertices ``0..n-1``.
"""
from __future__ import annotations

import numpy as np

from repro.hashing import edge_rank, hash01


class UnionFind:
    """Array-based DSU with path halving + union by size."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True


def connected_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component label per vertex (label = root id, not canonicalized)."""
    uf = UnionFind(n)
    for a, b in zip(u.tolist(), v.tolist()):
        uf.union(a, b)
    return np.array([uf.find(i) for i in range(n)], dtype=np.int64)


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of components, descending."""
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def adjacency(n: int, u: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """Symmetric adjacency lists (sorted neighbor ids) from canonical edges."""
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, u, 1)
    np.add.at(deg, v, 1)
    adj = [np.empty(d, dtype=np.int64) for d in deg]
    fill = np.zeros(n, dtype=np.int64)
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a][fill[a]] = b
        fill[a] += 1
        adj[b][fill[b]] = a
        fill[b] += 1
    return [np.sort(x) for x in adj]


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, nbrs)`` of the canonical edge list."""
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def _frontier_bfs(indptr: np.ndarray, nbrs: np.ndarray, source: int) -> np.ndarray:
    """BFS level per vertex (-1 unreachable), one numpy step per level."""
    level = np.full(len(indptr) - 1, -1, dtype=np.int64)
    level[source] = 0
    frontier, depth = np.array([source]), 0
    while len(frontier):
        starts, counts = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        reached = nbrs[np.repeat(starts, counts) + offsets]
        frontier = np.unique(reached[level[reached] < 0])
        depth += 1
        level[frontier] = depth
    return level


def exact_diameter(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Diameter of the largest component by iFUB (Crescenzi, Grossi,
    Habib, Lanzi, Marino, TCS 2013).

    From a highest-degree root r of eccentricity e, vertices at BFS level
    i or less are at most 2i apart. The eccentricities of the vertices at
    levels e, e-1, … are computed until the largest one found reaches
    2i, the bound on the pairs left unchecked.
    """
    indptr, nbrs = _csr(n, u, v)
    labels = connected_components(n, u, v)
    giant = np.bincount(labels, minlength=n).argmax()
    members = np.flatnonzero(labels == giant)
    root = int(members[np.argmax(np.diff(indptr)[members])])
    level = _frontier_bfs(indptr, nbrs, root)
    best = i = int(level.max())
    while best < 2 * i:
        for x in np.flatnonzero(level == i).tolist():
            best = max(best, int(_frontier_bfs(indptr, nbrs, x).max()))
        i -= 1
    return best


def double_sweep_diameter(n: int, u: np.ndarray, v: np.ndarray, seed: int = 0) -> int:
    """Double-sweep BFS lower bound on the diameter of the largest component."""
    indptr, nbrs = _csr(n, u, v)
    labels = connected_components(n, u, v)
    giant = np.bincount(labels, minlength=n).argmax()
    members = np.flatnonzero(labels == giant)
    start = int(members[int(hash01(np.array([seed]))[0] * len(members))])
    far = int(_frontier_bfs(indptr, nbrs, start).argmax())  # unreached vertices are -1
    return int(_frontier_bfs(indptr, nbrs, far).max())


def kruskal_msf(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> set[tuple[int, int]]:
    """Edge set of the MSF; ties broken by (w, u, v) so the result is
    unique even with duplicate weights (our generators make weights
    distinct anyway)."""
    order = np.lexsort((v, u, w))
    uf = UnionFind(n)
    out: set[tuple[int, int]] = set()
    for i in order.tolist():
        if uf.union(int(u[i]), int(v[i])):
            out.add((int(u[i]), int(v[i])))
    return out


def greedy_mis(n: int, u: np.ndarray, v: np.ndarray, seed: int = 0) -> set[int]:
    """Lexicographically-first MIS over the rank order hash01(vertex).

    This is the exact object both the AMPC query process and the MPC
    rootset algorithm compute.
    """
    ranks = hash01(np.arange(n), seed)
    adj = adjacency(n, u, v)
    order = np.argsort(ranks, kind="stable")
    in_mis = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    for x in order.tolist():
        if not blocked[x]:
            in_mis[x] = True
            blocked[adj[x]] = True
    return set(np.flatnonzero(in_mis).tolist())


def greedy_matching(
    n: int, u: np.ndarray, v: np.ndarray, seed: int = 0
) -> set[tuple[int, int]]:
    """Lexicographically-first maximal matching over edge ranks."""
    ranks = edge_rank(u, v, seed)
    order = np.argsort(ranks, kind="stable")
    matched = np.zeros(n, dtype=bool)
    out: set[tuple[int, int]] = set()
    for i in order.tolist():
        a, b = int(u[i]), int(v[i])
        if not matched[a] and not matched[b]:
            matched[a] = matched[b] = True
            out.add((a, b))
    return out


def is_independent_set(u: np.ndarray, v: np.ndarray, s: set[int]) -> bool:
    return not any(a in s and b in s for a, b in zip(u.tolist(), v.tolist()))


def is_maximal_is(n: int, u: np.ndarray, v: np.ndarray, s: set[int]) -> bool:
    """Maximality: every vertex outside s has a neighbor in s."""
    adj = adjacency(n, u, v)
    return all(x in s or any(int(y) in s for y in adj[x]) for x in range(n))


def is_matching(m: set[tuple[int, int]]) -> bool:
    seen: set[int] = set()
    for a, b in m:
        if a in seen or b in seen:
            return False
        seen.update((a, b))
    return True


def is_maximal_matching(
    u: np.ndarray, v: np.ndarray, m: set[tuple[int, int]]
) -> bool:
    """Every edge has a matched endpoint."""
    matched = {x for e in m for x in e}
    return all(a in matched or b in matched for a, b in zip(u.tolist(), v.tolist()))


def path_max_weight(
    n: int,
    fu: np.ndarray,
    fv: np.ndarray,
    fw: np.ndarray,
    a: int,
    b: int,
) -> float:
    """Brute-force max edge weight on the a→b path in forest (fu,fv,fw).

    Returns ``inf`` when a and b are in different trees — matching
    Definition 3.7's w_F.
    """
    if a == b:
        return float("-inf")
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for x, y, w in zip(fu.tolist(), fv.tolist(), fw.tolist()):
        adj[x].append((y, float(w)))
        adj[y].append((x, float(w)))
    # DFS from a tracking max edge weight along the path.
    stack: list[tuple[int, int, float]] = [(a, -1, float("-inf"))]
    while stack:
        x, parent, mx = stack.pop()
        if x == b:
            return mx
        for y, w in adj[x]:
            if y != parent:
                stack.append((y, x, max(mx, w)))
    return float("inf")
