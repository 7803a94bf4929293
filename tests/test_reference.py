"""Tests for the sequential reference oracles themselves."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference as ref
from repro.hashing import edge_rank, hash01


def _random_graph(n, m, seed):
    g = np.random.default_rng(seed)
    a = g.integers(0, n, m)
    b = g.integers(0, n, m)
    keep = a != b
    u = np.minimum(a, b)[keep]
    v = np.maximum(a, b)[keep]
    key = u * n + v
    _, idx = np.unique(key, return_index=True)
    return u[idx].astype(np.int64), v[idx].astype(np.int64)


class TestUnionFind:
    def test_initial_components(self):
        uf = ref.UnionFind(5)
        assert uf.n_components == 5

    def test_union_reduces_components(self):
        uf = ref.UnionFind(4)
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert uf.n_components == 2
        assert not uf.union(1, 0)

    def test_transitive(self):
        uf = ref.UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


class TestComponents:
    def test_path_is_one_component(self):
        u = np.arange(9)
        v = np.arange(1, 10)
        labels = ref.connected_components(10, u, v)
        assert len(set(labels.tolist())) == 1

    def test_two_triangles(self):
        u = np.array([0, 1, 0, 3, 4, 3])
        v = np.array([1, 2, 2, 4, 5, 5])
        labels = ref.connected_components(6, u, v)
        assert len(set(labels.tolist())) == 2
        assert ref.component_sizes(labels).tolist() == [3, 3]

    def test_isolated_vertices_counted(self):
        labels = ref.connected_components(5, np.array([0]), np.array([1]))
        assert len(set(labels.tolist())) == 4


class TestBFSandDiameter:
    def test_path_diameter(self):
        u = np.arange(7)
        v = np.arange(1, 8)
        assert ref.exact_diameter(8, u, v) == 7

    def test_cycle_diameter(self):
        ids = np.arange(10)
        u = np.minimum(ids, np.roll(ids, -1))
        v = np.maximum(ids, np.roll(ids, -1))
        assert ref.exact_diameter(10, u, v) == 5

    def test_star_diameter(self):
        u = np.zeros(9, dtype=np.int64)
        v = np.arange(1, 10)
        assert ref.exact_diameter(10, u, v) == 2

    def test_double_sweep_lower_bound(self):
        u, v = _random_graph(200, 600, 0)
        exact = ref.exact_diameter(200, u, v)
        lb = ref.double_sweep_diameter(200, u, v)
        assert lb <= exact
        # double sweep is usually tight on small graphs; at least half.
        assert lb >= exact / 2

    def test_bfs_levels_unreachable(self):
        indptr, nbrs = ref._csr(4, np.array([0]), np.array([1]))
        lv = ref._frontier_bfs(indptr, nbrs, 0)
        assert lv.tolist() == [0, 1, -1, -1]


def _all_sources_diameter(n, u, v):
    """The O(n^3) diameter of the largest component by Floyd–Warshall:
    the oracle for iFUB, sharing no BFS with it."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0)
    d[u, v] = d[v, u] = 1
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[k], out=d)
    labels = ref.connected_components(n, u, v)
    giant = np.bincount(labels, minlength=n).argmax()
    members = np.flatnonzero(labels == giant)
    return int(d[np.ix_(members, members)].max())


def _diameter_case(i):
    """Graph ``i`` of 20: dense and sparse random, two paths, a star and
    a path of equal size (tied components), and a random tree."""
    rng = np.random.default_rng(i)
    n = int(rng.integers(50, 301))
    kind = i % 5
    if kind == 0:
        return (n, *_random_graph(n, 3 * n, i))
    if kind == 1:
        return (n, *_random_graph(n, n // 2, i))
    if kind == 2:
        k = int(rng.integers(1, n - 1))
        ids = np.arange(n)
        keep = ids[:-1] != k - 1
        return n, ids[:-1][keep], ids[1:][keep]
    if kind == 3:
        h = n // 2
        u = np.r_[np.zeros(h - 1, dtype=np.int64), np.arange(h, 2 * h - 1)]
        return n, u, np.r_[np.arange(1, h), np.arange(h + 1, 2 * h)]
    v = np.arange(1, n)
    return n, rng.integers(0, v), v


@pytest.mark.parametrize("i", range(20))
def test_ifub_equals_all_sources_diameter(i):
    n, u, v = _diameter_case(i)
    assert ref.exact_diameter(n, u, v) == _all_sources_diameter(n, u, v)


class TestKruskal:
    def test_triangle(self):
        u = np.array([0, 1, 0])
        v = np.array([1, 2, 2])
        w = np.array([1.0, 2.0, 3.0])
        assert ref.kruskal_msf(3, u, v, w) == {(0, 1), (1, 2)}

    def test_forest_spans_components(self):
        u, v = _random_graph(60, 200, 3)
        w = edge_rank(u, v, 1)
        msf = ref.kruskal_msf(60, u, v, w)
        labels = ref.connected_components(60, u, v)
        n_cc = len(set(labels.tolist()))
        assert len(msf) == 60 - n_cc

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_total_weight_bruteforce(self, seed):
        # Tiny graphs: enumerate all spanning trees by brute force via
        # comparing against networkless Prim from scratch.
        u, v = _random_graph(7, 15, seed)
        w = edge_rank(u, v, seed)
        msf = ref.kruskal_msf(7, u, v, w)
        wt = {(int(a), int(b)): float(x) for a, b, x in zip(u, v, w)}
        total = sum(wt[e] for e in msf)
        # Prim (heap-free O(n^2)) reference for cross-check:
        import heapq

        adj = {}
        for (a, b), x in wt.items():
            adj.setdefault(a, []).append((x, b))
            adj.setdefault(b, []).append((x, a))
        seen, best = set(), 0.0
        for s in range(7):
            if s in seen or s not in adj:
                continue
            seen.add(s)
            pq = list(adj[s])
            heapq.heapify(pq)
            while pq:
                x, y = heapq.heappop(pq)
                if y in seen:
                    continue
                seen.add(y)
                best += x
                for item in adj[y]:
                    heapq.heappush(pq, item)
        assert total == pytest.approx(best)


class TestGreedyMISandMatching:
    @pytest.mark.parametrize("seed", range(4))
    def test_mis_is_independent_and_maximal(self, seed):
        u, v = _random_graph(80, 300, seed)
        s = ref.greedy_mis(80, u, v, seed)
        assert ref.is_independent_set(u, v, s)
        assert ref.is_maximal_is(80, u, v, s)

    def test_mis_isolated_vertices_in_set(self):
        s = ref.greedy_mis(5, np.array([0]), np.array([1]))
        assert {2, 3, 4} <= s

    def test_mis_follows_rank_order(self):
        # On a single edge, the endpoint with the lower rank must win.
        u, v = np.array([0]), np.array([1])
        ranks = hash01(np.arange(2), 0)
        s = ref.greedy_mis(2, u, v, 0)
        assert (0 in s) == (ranks[0] < ranks[1])

    @pytest.mark.parametrize("seed", range(4))
    def test_matching_valid_and_maximal(self, seed):
        u, v = _random_graph(80, 300, seed)
        m = ref.greedy_matching(80, u, v, seed)
        assert ref.is_matching(m)
        assert ref.is_maximal_matching(u, v, m)

    def test_matching_follows_edge_rank(self):
        # Path 0-1-2: the lower-ranked edge is matched.
        u, v = np.array([0, 1]), np.array([1, 2])
        ranks = edge_rank(u, v, 0)
        m = ref.greedy_matching(3, u, v, 0)
        expected = (0, 1) if ranks[0] < ranks[1] else (1, 2)
        assert m == {expected}


class TestPathMaxWeight:
    def test_simple_path(self):
        fu = np.array([0, 1, 2])
        fv = np.array([1, 2, 3])
        fw = np.array([5.0, 1.0, 3.0])
        assert ref.path_max_weight(4, fu, fv, fw, 0, 3) == 5.0
        assert ref.path_max_weight(4, fu, fv, fw, 1, 3) == 3.0

    def test_cross_tree_is_inf(self):
        fu, fv, fw = np.array([0]), np.array([1]), np.array([1.0])
        assert ref.path_max_weight(4, fu, fv, fw, 0, 2) == float("inf")

    def test_same_vertex(self):
        fu, fv, fw = np.array([0]), np.array([1]), np.array([1.0])
        assert ref.path_max_weight(2, fu, fv, fw, 0, 0) == float("-inf")


@given(st.integers(2, 40), st.integers(1, 120), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_msf_edge_count_property(n, m, seed):
    u, v = _random_graph(n, m, seed)
    if len(u) == 0:
        return
    w = edge_rank(u, v, seed)
    msf = ref.kruskal_msf(n, u, v, w)
    labels = ref.connected_components(n, u, v)
    assert len(msf) == n - len(set(labels.tolist()))
