import itertools
import random

import pytest

from crowdtier import (
    DomainError,
    GraphParseError,
    SocialGraph,
    build_graph,
    load_edge_list,
    parse_edge_list,
)


def naive_coverage(adj: dict[int, set[int]], s) -> int:
    """Independent set-based union size, used as the oracle for bitmask code."""
    union = set()
    for i in s:
        union |= adj[i]
    return len(union)


def random_graph(rng: random.Random, n: int, p: float = 0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    graph = build_graph(n, edges)
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return graph, adj


class TestParseEdgeList:
    def test_two_edge_path(self):
        g = parse_edge_list("# c\n0 1\n1 2")
        assert g.n == 3
        assert g.num_edges == 2
        assert g.neighbors(1) == {0, 2}

    def test_dedup_and_symmetry(self):
        g = parse_edge_list("0 1\n1 0\n0 1")
        assert g.num_edges == 1
        assert g.neighbors(0) == {1}
        assert g.neighbors(1) == {0}

    def test_empty_input_is_empty_graph(self):
        g = parse_edge_list("")
        assert g.n == 0
        assert g.num_edges == 0

    def test_comment_only_input(self):
        g = parse_edge_list("# nothing\n  \n")
        assert g.n == 0

    def test_dense_reindex_first_appearance(self):
        g = parse_edge_list("10 30\n30 20")
        assert g.id_map == {10: 0, 30: 1, 20: 2}
        assert g.neighbors(1) == {0, 2}

    def test_self_loop_dropped(self):
        g = parse_edge_list("0 0\n0 1")
        assert g.num_edges == 1
        assert g.neighbors(0) == {1}

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 1\n0 1 2")
        assert exc.value.line_number == 2

    def test_non_integer_label(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("a b")

    def test_negative_label(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("-1 0")

    def test_path_source(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2\n")
        assert load_edge_list(str(p)).n == 3
        with pytest.raises(FileNotFoundError):
            load_edge_list(str(tmp_path / "3 4"))

    def test_loaded_symmetry_exhaustive(self):
        rng = random.Random(5)
        g, _ = random_graph(rng, 9)
        for i in range(g.n):
            for j in g.neighbors(i):
                assert i in g.neighbors(j)


class TestCoverage:
    def test_empty_set_zero(self, ex6):
        graph, *_ = ex6
        assert graph.coverage([]) == 0

    def test_ex6_singletons(self, ex6):
        graph, _, _, to_dense, _ = ex6
        # Degrees from the printed first table: h({I_i}) for i=1..6.
        expected = {1: 4, 2: 3, 3: 4, 4: 3, 5: 3, 6: 3}
        for label, h in expected.items():
            assert graph.coverage([to_dense[label]]) == h

    def test_ex6_marginals_given_i1(self, ex6):
        graph, _, _, to_dense, _ = ex6
        s = [to_dense[1]]
        expected = {2: 2, 3: 0, 4: 2, 5: 2, 6: 2}
        for label, m in expected.items():
            assert graph.marginal(to_dense[label], s) == m

    def test_ex6_full_selection_covers_all(self, ex6):
        graph, _, _, to_dense, _ = ex6
        assert graph.coverage([to_dense[1], to_dense[6]]) == 6

    def test_unknown_node_rejected(self, ex6):
        graph, *_ = ex6
        with pytest.raises(DomainError):
            graph.coverage([99])

    def test_marginal_rejects_member(self, ex6):
        graph, *_ = ex6
        with pytest.raises(DomainError):
            graph.marginal(0, [0])

    def test_matches_naive_union(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 10)
            graph, adj = random_graph(rng, n)
            s = rng.sample(range(n), rng.randint(0, n))
            assert graph.coverage(s) == naive_coverage(adj, s)

    def test_monotone_and_submodular_exhaustive(self):
        rng = random.Random(23)
        for _ in range(8):
            n = rng.randint(2, 7)
            graph, adj = random_graph(rng, n)
            universe = list(range(n))
            subsets = [
                frozenset(c)
                for r in range(n + 1)
                for c in itertools.combinations(universe, r)
            ]
            for h in subsets:
                for j in subsets:
                    if h <= j:
                        assert graph.coverage(h) <= graph.coverage(j)
                        for i in universe:
                            if i not in j:
                                assert graph.marginal(i, h) >= graph.marginal(i, j)

    def test_marginal_identity(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 10)
            graph, _ = random_graph(rng, n)
            s = rng.sample(range(n), rng.randint(0, n - 1))
            j = rng.choice([i for i in range(n) if i not in s])
            assert graph.marginal(j, s) == graph.coverage(list(s) + [j]) - graph.coverage(s)

    def test_build_graph_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            build_graph(2, [(0, 5)])

    def test_build_graph_rejects_negative_size(self):
        # It used to return SocialGraph(n=-1), on which tenm_run and ntbfm
        # returned empty outcomes.
        with pytest.raises(DomainError, match="n is -1"):
            build_graph(-1, [])

    def test_mask_count_must_equal_n(self):
        with pytest.raises(DomainError, match="n is 3, but 2 node masks"):
            SocialGraph(n=3, masks=(0, 0))
        with pytest.raises(DomainError, match="n is 1, but 2 node masks"):
            SocialGraph(n=1, masks=(0, 0))
        assert build_graph(0, []).n == 0
