import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgsignals.adjacency import (
    AdjacencyMatrix,
    SkipExample,
    _resample_values,
    _row_signatures,
    flatten_adjacency,
    make_iva_example,
    permutation_equivalent,
    relationless_adjacency,
    unflatten_adjacency,
)
from kgsignals.graph import Fact, build_index, cooccurrence_arrays
from kgsignals.ingest import Vocabulary, compute_stats

from oracles import avg_degree_oracle, dense_adjacency, permutation_oracle, random_graph


class TestRelationlessAdjacency:
    def test_no_facts_zero_matrix(self):
        g = build_index([], 3, 1)
        a = relationless_adjacency(g, [0, 1, 2])
        assert a.values.tolist() == [[0] * 3] * 3

    def test_double_edge_counts_two(self):
        g = build_index([Fact(0, (0, 1)), Fact(1, (1, 0))], 2, 2)
        a = relationless_adjacency(g, [0, 1])
        assert a.values.tolist() == [[0, 2], [2, 0]]

    def test_worked_example(self):
        facts = [
            Fact(0, (0, 0)),
            Fact(0, (2, 2)),
            Fact(0, (0, 1)),
            Fact(0, (0, 1)),
            Fact(0, (0, 2)),
            Fact(0, (1, 2)),
            Fact(0, (1, 2)),
            Fact(0, (1, 2)),
        ]
        g = build_index(facts, 3, 1)
        a = relationless_adjacency(g, [0, 1, 2])
        assert a.values.tolist() == [[1, 2, 1], [2, 0, 3], [1, 3, 1]]

    @pytest.mark.parametrize("seed", [*range(50), "no-facts", "no-entities"])
    def test_matches_dense_oracle(self, seed):
        if seed == "no-facts":
            facts, n_ent, n_rel = [], 4, 1
        elif seed == "no-entities":
            facts, n_ent, n_rel = [], 0, 1
        else:
            rng = random.Random(seed)
            facts, n_ent, n_rel = random_graph(rng, max_entities=12, max_relations=4, max_facts=30)
            if seed % 2:
                # r(a, b, a) and an arity-3 fact of one entity
                facts += [Fact(0, (0, 1, 0)), Fact(0, (2, 2, 2))]
            if seed % 3 == 0:
                # trailing entities in no fact have empty rows, as
                # entities that occur only in --valid or --test do
                n_ent += 2
        g = build_index(facts, n_ent, n_rel)
        full = dense_adjacency(facts, n_ent)
        a = relationless_adjacency(g, list(range(n_ent)))
        assert a.values.tolist() == full
        # the gather keeps the caller's order, shuffled or empty
        dense = np.array(full, dtype=np.int64).reshape(n_ent, n_ent)
        for ents in (random.Random(f"order:{seed}").sample(range(n_ent), n_ent), []):
            a = relationless_adjacency(g, ents)
            assert a.entities == tuple(ents)
            assert np.array_equal(a.values, dense[np.ix_(ents, ents)])
        indptr, indices, data = g.cooccurrence_counts()
        cells = np.zeros((n_ent, n_ent), dtype=np.int64)
        cells[np.repeat(np.arange(n_ent), np.diff(indptr)), indices] = data
        assert np.array_equal(cells, dense)
        assert data.dtype == np.int64 and (data > 0).all()
        arrays = cooccurrence_arrays(facts, n_ent)
        assert all(np.array_equal(x, y) for x, y in zip(arrays, (indptr, indices, data)))
        assert len(indptr) == n_ent + 1
        assert all((np.diff(indices[indptr[e] : indptr[e + 1]]) > 0).all() for e in range(n_ent))
        vocab = Vocabulary(
            entities={f"e{i}": i for i in range(n_ent)}, relations={f"r{i}": i for i in range(n_rel)}
        )
        assert compute_stats(vocab, {"train": facts}).avg_degree == avg_degree_oracle(facts, n_ent)

    def test_symmetry(self):
        rng = random.Random(8)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=4, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        ents = sorted(rng.sample(range(n_ent), min(6, n_ent)))
        a = relationless_adjacency(g, ents)
        assert np.array_equal(a.values, a.values.T)

    def test_duplicate_entities_rejected(self):
        g = build_index([Fact(0, (0, 1))], 2, 1)
        with pytest.raises(ValueError):
            relationless_adjacency(g, [0, 0])


class TestFlatten:
    def worked(self):
        values = np.array([[1, 2, 1], [2, 0, 3], [1, 3, 1]], dtype=np.int64)
        return AdjacencyMatrix(entities=(0, 1, 2), values=values)

    def test_worked_flatten(self):
        assert flatten_adjacency(self.worked()) == [0, 1, 2, 1, 2, 1, 0, 3, 1]

    def test_one_by_one(self):
        a = AdjacencyMatrix(entities=(4,), values=np.zeros((1, 1), dtype=np.int64))
        assert flatten_adjacency(a) == [4, 0]

    def test_round_trip_4x4(self):
        rng = np.random.default_rng(5)
        v = rng.integers(0, 5, size=(4, 4))
        v = v + v.T
        a = AdjacencyMatrix(entities=(3, 1, 7, 2), values=v)
        b = unflatten_adjacency(flatten_adjacency(a), 4)
        assert b.entities == a.entities
        assert np.array_equal(b.values, a.values)

    def test_unflatten_length_check(self):
        with pytest.raises(ValueError):
            unflatten_adjacency([0, 1, 2], 3)

    @given(st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 4, size=(n, n))
        v = v + v.T
        a = AdjacencyMatrix(entities=tuple(range(10, 10 + n)), values=v)
        b = unflatten_adjacency(flatten_adjacency(a), n)
        assert b.entities == a.entities
        assert np.array_equal(b.values, a.values)


class TestPermutationEquivalent:
    def test_identity(self):
        v = np.array([[1, 2], [2, 0]])
        assert permutation_equivalent(v, v)

    def test_swapped(self):
        a = np.array([[1, 2], [2, 0]])
        b = np.array([[0, 2], [2, 1]])
        assert permutation_equivalent(a, b)

    def test_different_multiset(self):
        a = np.array([[1, 2], [2, 0]])
        b = np.array([[1, 3], [3, 0]])
        assert not permutation_equivalent(a, b)

    def test_shape_mismatch(self):
        assert not permutation_equivalent(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_matching_signatures_not_equivalent(self):
        # every row of both is (diagonal 0; values 0, 0, 0, 0, 1, 1), but
        # one 6-cycle is not two triangles
        cycle = np.zeros((6, 6), dtype=np.int64)
        for i in range(6):
            cycle[i, (i + 1) % 6] = cycle[(i + 1) % 6, i] = 1
        triangles = np.zeros((6, 6), dtype=np.int64)
        for block in ((0, 1, 2), (3, 4, 5)):
            for i in block:
                for j in block:
                    triangles[i, j] = int(i != j)
        assert _row_signatures(cycle) == _row_signatures(triangles)
        assert not permutation_oracle(cycle.tolist(), triangles.tolist())
        assert not permutation_equivalent(cycle, triangles)
        assert permutation_equivalent(cycle, cycle[np.ix_([3, 1, 5, 0, 2, 4], [3, 1, 5, 0, 2, 4])])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 6))
            high = int(rng.integers(2, 4))
            a, b = rng.integers(0, high, size=(2, n, n))
            if rng.random() < 0.8:
                a = np.triu(a) + np.triu(a, 1).T
                b = np.triu(b) + np.triu(b, 1).T
            # kind 0 keeps b unrelated to a, which finds pairs with equal
            # signatures that are not equivalent (P5 and K3 + K2)
            kind = rng.integers(3)
            if kind > 0:
                p = rng.permutation(n)
                b = a[np.ix_(p, p)]
            if kind == 2:
                # move one value of the relabelled copy
                i, j, k, l = rng.integers(0, n, size=4)
                b[i, j], b[k, l] = b[k, l], b[i, j]
                b[j, i], b[l, k] = b[i, j], b[k, l]
            want = permutation_oracle(a.tolist(), b.tolist())
            sig_equal = _row_signatures(a) == _row_signatures(b)
            assert permutation_equivalent(a, b) == want
            assert sig_equal or not want
            seen.add((want, sig_equal))
        assert seen == {(True, True), (False, True), (False, False)}


class TestResampleValues:
    def test_pinned_output(self):
        v = np.array([[2, 1, 0, 3], [1, 0, 4, 1], [0, 4, 1, 0], [3, 1, 0, 5]], dtype=np.int64)
        out = _resample_values(v, random.Random(7), 0.3)
        assert out.tolist() == [[2, 1, 2, 3], [1, 0, 2, 5], [2, 2, 1, 0], [3, 5, 0, 5]]
        assert v[0, 2] == 0  # the input is not modified

    def test_single_observed_value_bumps(self):
        # the first chosen cell has no other observed value and becomes 3
        out = _resample_values(np.full((3, 3), 2, dtype=np.int64), random.Random(1), 0.5)
        assert out.tolist() == [[3, 3, 2], [3, 2, 3], [2, 3, 2]]


class TestMakeIvaExample:
    def small_graph(self, seed=0):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=8, max_relations=3, max_facts=20)
        return build_index(facts, n_ent, n_rel), n_ent

    def test_isolated_center_skips(self):
        g = build_index([Fact(0, (0, 1))], 3, 1)
        with pytest.raises(SkipExample):
            make_iva_example(g, 2, 1, random.Random(0), negative=False)

    def test_positive_degree_sequence(self):
        g, n_ent = self.small_graph(3)
        ex = make_iva_example(g, 0, 2, random.Random(1), negative=False)
        assert ex.label == 1
        assert sorted(ex.left.values.sum(axis=1)) == sorted(ex.right.values.sum(axis=1))
        assert sorted(ex.left.entities) == sorted(ex.right.entities)

    def test_positives_pass_negatives_fail(self):
        checked_pos = checked_neg = 0
        for seed in range(60):
            g, n_ent = self.small_graph(seed)
            rng = random.Random(seed * 31 + 7)
            center = rng.randrange(n_ent)
            negative = seed % 2 == 1
            try:
                ex = make_iva_example(g, center, 2, rng, negative=negative)
            except SkipExample:
                continue
            if len(ex.left.entities) > 8:
                continue
            equiv = permutation_equivalent(ex.left.values, ex.right.values)
            if negative:
                assert ex.label == 0 and not equiv
                checked_neg += 1
            else:
                assert ex.label == 1 and equiv
                checked_pos += 1
        assert checked_pos > 10 and checked_neg > 10

    def test_column_swap_breaks_symmetry_or_differs(self):
        g, n_ent = self.small_graph(4)
        for s in range(20):
            rng = random.Random(s)
            try:
                ex = make_iva_example(g, 0, 2, rng, negative=True)
            except SkipExample:
                continue
            assert not np.array_equal(ex.left.values, ex.right.values)

    def test_zero_matrix_negative_still_differs(self):
        # two entities joined only through the center: off-center cells stay 0
        g = build_index([Fact(0, (0, 1)), Fact(0, (0, 2))], 3, 1)
        ex = make_iva_example(g, 0, 1, random.Random(9), negative=True)
        assert ex.label == 0
        assert not np.array_equal(ex.left.values, ex.right.values)
        assert not permutation_equivalent(ex.left.values, ex.right.values)

    def test_size_cap(self):
        facts = [Fact(0, (0, i)) for i in range(1, 40)]
        g = build_index(facts, 40, 1)
        ex = make_iva_example(g, 0, 1, random.Random(2), negative=False, size_cap=10)
        assert len(ex.left.entities) == 10
        assert 0 in ex.left.entities

    def test_seeded_determinism(self):
        g, n_ent = self.small_graph(6)

        def build():
            return make_iva_example(g, 0, 2, random.Random("fixed"), negative=True)

        a, b = build(), build()
        assert np.array_equal(a.right.values, b.right.values)
        assert a.mode == b.mode
        assert flatten_adjacency(a.right) == flatten_adjacency(b.right)
