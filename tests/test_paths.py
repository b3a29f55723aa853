import math
import random
from itertools import product

import pytest

from kgsignals.graph import Fact, build_index
from kgsignals.paths import (
    CandidateTrie,
    UndefinedEntropyError,
    conditional_entropy,
    ground_paths,
    information_gain_paths,
    relation_entropy,
    shortest_relational_paths,
)
from kgsignals.records import GenerationConfig

from oracles import grounding_oracle, ip_oracle, random_graph, sp_oracle

CFG = GenerationConfig(seed=0)


def graph_with_entity_sets(n_ent: int, sets: list[list[int]]):
    """One relation per set, with chained facts covering exactly that set."""
    facts = []
    for r, members in enumerate(sets):
        if len(members) == 1:
            facts.append(Fact(r, (members[0], members[0])))
        else:
            for a, b in zip(members, members[1:]):
                facts.append(Fact(r, (a, b)))
    return build_index(facts, n_ent, len(sets))


class TestRelationEntropy:
    def test_half_split_is_ln2(self):
        g = graph_with_entity_sets(10, [[0, 1, 2, 3, 4]])
        assert relation_entropy(g, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_full_coverage_is_zero(self):
        g = graph_with_entity_sets(4, [[0, 1, 2, 3]])
        assert relation_entropy(g, 0) == 0.0

    def test_three_of_ten(self):
        g = graph_with_entity_sets(10, [[0, 1, 2]])
        expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert relation_entropy(g, 0) == pytest.approx(expected, abs=1e-15)
        assert relation_entropy(g, 0) == pytest.approx(0.610864, abs=1e-6)

    def test_unused_relation_is_zero(self):
        g = build_index([Fact(0, (0, 1))], 2, 2)
        assert relation_entropy(g, 1) == 0.0

    def test_range_bound(self):
        for size in range(1, 11):
            g = graph_with_entity_sets(10, [list(range(size))])
            h = relation_entropy(g, 0)
            assert 0.0 <= h <= math.log(2) + 1e-15


class TestConditionalEntropy:
    def test_identical_sets_zero(self):
        g = graph_with_entity_sets(10, [[0, 1, 2], [0, 1, 2]])
        assert conditional_entropy(g, 0, 1) == 0.0
        assert conditional_entropy(g, 0, 0) == 0.0

    def test_disjoint_sets_negative(self):
        g = graph_with_entity_sets(10, [[0, 1], [2, 3]])
        expected = -(2 / 10) * (2 * math.log(2))
        assert conditional_entropy(g, 0, 1) == pytest.approx(expected, abs=1e-15)
        assert conditional_entropy(g, 0, 1) == pytest.approx(-0.277259, abs=1e-6)

    def test_half_overlap(self):
        g = graph_with_entity_sets(10, [[0, 1], [1, 2]])
        expected = -(2 / 10) * (0.5 * math.log(0.5))
        assert conditional_entropy(g, 0, 1) == pytest.approx(expected, abs=1e-15)
        assert conditional_entropy(g, 0, 1) == pytest.approx(0.069315, abs=1e-6)

    def test_empty_first_set_raises(self):
        g = build_index([Fact(1, (0, 1))], 2, 2)
        with pytest.raises(UndefinedEntropyError):
            conditional_entropy(g, 0, 1)


class TestInformationGainPaths:
    def test_single_relation_graph_empty(self):
        g = graph_with_entity_sets(5, [[0, 1, 2]])
        assert information_gain_paths(g, 0, CFG) == []

    def test_size_bound_per_depth(self):
        rng = random.Random(3)
        facts, n_ent, n_rel = random_graph(rng, max_entities=12, max_relations=5, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        for k in (1, 2, 3):
            cfg = GenerationConfig(seed=0, beam_k=k, max_hops=3)
            for r in range(n_rel):
                paths = information_gain_paths(g, r, cfg)
                for depth in range(1, 4):
                    assert sum(1 for p in paths if len(p) == depth) <= k**depth

    def test_no_repeats_and_length_bound(self):
        rng = random.Random(11)
        facts, n_ent, n_rel = random_graph(rng, max_entities=12, max_relations=6, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        for r in range(n_rel):
            for p in information_gain_paths(g, r, CFG):
                assert len(set(p)) == len(p)
                assert 1 <= len(p) <= CFG.max_hops

    def test_handcrafted_matches_enumeration_oracle(self):
        # 12 entities, 5 relations, overlapping entity sets
        g = graph_with_entity_sets(
            12,
            [
                [0, 1, 2, 3],
                [2, 3, 4, 5, 6],
                [5, 6, 7],
                [7, 8, 9, 10],
                [0, 10, 11],
            ],
        )
        for r in range(5):
            for k in (1, 2, 3):
                cfg = GenerationConfig(seed=0, beam_k=k, max_hops=3)
                got = information_gain_paths(g, r, cfg)
                want = ip_oracle(list(g.facts), 12, 5, r, k, 3)
                assert got == want

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_match_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=6, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        r = rng.randrange(n_rel)
        cfg = GenerationConfig(seed=0, beam_k=rng.randint(1, 3), max_hops=rng.randint(1, 4))
        got = information_gain_paths(g, r, cfg)
        want = ip_oracle(facts, n_ent, n_rel, r, cfg.beam_k, cfg.max_hops)
        assert got == want
        # every relation with one shared cache, as corpus generation runs it
        cache: dict[int, list[int]] = {}
        for r in range(n_rel):
            got = information_gain_paths(g, r, cfg, cache)
            assert got == ip_oracle(facts, n_ent, n_rel, r, cfg.beam_k, cfg.max_hops)


class TestGroundPaths:
    def chain(self):
        facts = [Fact(0, (0, 1)), Fact(1, (1, 2))]
        return build_index(facts, 5, 2)

    def test_forced_walk_retained(self):
        g = self.chain()
        assert ground_paths(g, 0, 2, [(0, 1)]) == [(0, 1)]

    def test_isolated_endpoint_dropped(self):
        g = self.chain()
        assert ground_paths(g, 0, 4, [(0, 1)]) == []

    def test_excluded_fact_not_usable(self):
        g = build_index([Fact(0, (0, 1))], 2, 1)
        assert ground_paths(g, 0, 1, [(0,)]) == [(0,)]
        assert ground_paths(g, 0, 1, [(0,)], exclude_fact=0) == []

    def test_subset_and_idempotent(self):
        rng = random.Random(5)
        facts, n_ent, n_rel = random_graph(rng, max_entities=20, max_relations=5, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        cands = [tuple(rng.randrange(n_rel) for _ in range(rng.randint(1, 3))) for _ in range(10)]
        e_i, e_j = rng.randrange(n_ent), rng.randrange(n_ent)
        kept = ground_paths(g, e_i, e_j, cands)
        assert set(kept) <= set(cands)
        assert ground_paths(g, e_i, e_j, kept) == kept

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_walk_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=30, max_relations=5, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        cands = sorted(
            {tuple(rng.randrange(n_rel) for _ in range(rng.randint(1, 3))) for _ in range(8)}
        )
        for _ in range(3):
            e_i, e_j = rng.randrange(n_ent), rng.randrange(n_ent)
            excl = rng.choice([None, rng.randrange(len(facts))])
            got = ground_paths(g, e_i, e_j, cands, exclude_fact=excl)
            want = [p for p in cands if grounding_oracle(facts, e_i, e_j, p, excl)]
            assert got == want

    # graphs whose query facts stress the exclusion rule: (facts, entities)
    EXCLUSION_CASES = {
        # an excluded r(a, b, a): a is twice in it, b only there
        "repeated_entity": ([Fact(0, (0, 1, 0)), Fact(0, (0, 2)), Fact(1, (2, 1)), Fact(0, (1, 3))], 4),
        # two copies of r(a, b): excluding one keeps the other
        "parallel_copies": ([Fact(0, (0, 1)), Fact(0, (0, 1)), Fact(1, (1, 2)), Fact(0, (2, 0))], 3),
        # a hyperedge holding the query pair joins it without the query fact
        "pair_in_hyperedge": ([Fact(0, (0, 1)), Fact(0, (2, 0, 3, 1)), Fact(1, (3, 4)), Fact(0, (4, 0))], 5),
    }

    @pytest.mark.parametrize("case", [*EXCLUSION_CASES, *(f"random{seed}" for seed in range(30))])
    def test_excluding_each_query_fact_matches_oracle(self, case):
        # every (fact, masked position, partner position) with the fact
        # itself excluded, as generate asks; the candidates are every
        # relation sequence of up to three relations, repeats included
        if case in self.EXCLUSION_CASES:
            facts, n_ent = self.EXCLUSION_CASES[case]
            n_rel = 2
        else:
            rng = random.Random(int(case[len("random"):]))
            facts, n_ent, n_rel = random_graph(rng, max_entities=12, max_relations=3, max_facts=16, max_arity=4)
        g = build_index(facts, n_ent, n_rel)
        cands = sorted(c for k in (1, 2, 3) for c in product(range(n_rel), repeat=k))
        trie = CandidateTrie(cands)
        for i, f in enumerate(facts):
            for m, e_i in enumerate(f.entities):
                for p, e_j in enumerate(f.entities):
                    if p != m:
                        want = [c for c in cands if grounding_oracle(facts, e_i, e_j, c, i)]
                        assert ground_paths(g, e_i, e_j, trie, exclude_fact=i) == want, (i, m, p)

    def test_trie_iterates_distinct_sorted_paths(self):
        trie = CandidateTrie([(1,), (0, 2), (1,), (0,), (0, 1, 3)])
        assert list(trie) == [(0,), (0, 1, 3), (0, 2), (1,)]
        assert len(set(trie)) == 4
        is_candidate, children = trie.root
        assert not is_candidate and [rel for rel, _ in children] == [0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_prebuilt_trie_matches_list_and_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=25, max_relations=5, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        cfg = GenerationConfig(seed=0, beam_k=rng.randint(1, 3), max_hops=rng.randint(1, 4))
        for r in range(n_rel):
            cands = ip_oracle(facts, n_ent, n_rel, r, cfg.beam_k, cfg.max_hops)
            trie = CandidateTrie(information_gain_paths(g, r, cfg))
            assert list(trie) == cands
            for _ in range(3):
                e_i, e_j = rng.randrange(n_ent), rng.randrange(n_ent)
                for excl in (None, rng.randrange(len(facts))):
                    want = [p for p in cands if grounding_oracle(facts, e_i, e_j, p, excl)]
                    assert ground_paths(g, e_i, e_j, trie, exclude_fact=excl) == want
                    assert ground_paths(g, e_i, e_j, cands[::-1], exclude_fact=excl) == want


class TestShortestRelationalPaths:
    def test_unique_chain(self):
        g = build_index([Fact(0, (0, 1)), Fact(1, (1, 2))], 3, 2)
        assert shortest_relational_paths(g, 0, 2, CFG) == [(0, 1)]

    def test_disconnected(self):
        g = build_index([Fact(0, (0, 1)), Fact(1, (2, 3))], 4, 2)
        assert shortest_relational_paths(g, 0, 3, CFG) == []

    def test_same_entity(self):
        g = build_index([Fact(0, (0, 1))], 2, 1)
        assert shortest_relational_paths(g, 0, 0, CFG) == []

    def test_exclude_query_fact(self):
        facts = [Fact(0, (0, 1)), Fact(1, (0, 2)), Fact(2, (2, 1))]
        g = build_index(facts, 3, 3)
        assert shortest_relational_paths(g, 0, 1, CFG) == [(0,)]
        assert shortest_relational_paths(g, 0, 1, CFG, exclude_fact=0) == [(1, 2)]

    @pytest.mark.parametrize(
        "second, want",
        [
            (Fact(1, (0, 1)), [(1,)]),  # keeps the 0-1 edge
            (Fact(1, (0, 2)), [(1, 2)]),  # does not: detour through 2
        ],
    )
    def test_exclude_fact_repeating_an_entity(self, second, want):
        # the excluded fact holds entity 0 twice, so it alone adds 2 to
        # the 0-1 co-occurrence count
        facts = [Fact(0, (0, 1, 0)), second, Fact(2, (2, 1))]
        g = build_index(facts, 3, 3)
        got = shortest_relational_paths(g, 0, 1, CFG, exclude_fact=0)
        assert got == want == sp_oracle(facts, 0, 1, CFG.max_hops, CFG.sp_cap, 0)

    def test_sp_cap_truncation(self):
        # many parallel relations between the endpoints
        facts = [Fact(r, (0, 1)) for r in range(6)]
        g = build_index(facts, 2, 6)
        cfg = GenerationConfig(seed=0, sp_cap=4)
        got = shortest_relational_paths(g, 0, 1, cfg)
        assert got == [(0,), (1,), (2,), (3,)]

    def test_all_same_minimal_length(self):
        rng = random.Random(9)
        facts, n_ent, n_rel = random_graph(rng, max_entities=30, max_relations=8, max_facts=60)
        g = build_index(facts, n_ent, n_rel)
        for _ in range(10):
            e_i, e_j = rng.randrange(n_ent), rng.randrange(n_ent)
            paths = shortest_relational_paths(g, e_i, e_j, CFG)
            if paths:
                lengths = {len(p) for p in paths}
                assert len(lengths) == 1
                for p in paths:
                    assert len(set(p)) == len(p)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_graphs_match_bfs_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=50, max_relations=10, max_facts=80)
        g = build_index(facts, n_ent, n_rel)
        for _ in range(4):
            e_i, e_j = rng.randrange(n_ent), rng.randrange(n_ent)
            excl = rng.choice([None, rng.randrange(len(facts))])
            got = shortest_relational_paths(g, e_i, e_j, CFG, exclude_fact=excl)
            want = sp_oracle(facts, e_i, e_j, CFG.max_hops, CFG.sp_cap, excl)
            assert got == want
