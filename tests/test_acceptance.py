"""End-to-end acceptance suite.

One test per contract, each printing a single pass/fail line via pytest.
Budgeted tests measure wall-clock time and fail when over budget.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import mpmath
import pytest

from kgsignals.adjacency import SkipExample, make_iva_example, permutation_equivalent, relationless_adjacency
from kgsignals.cli import main
from kgsignals.corpus import _flatten_tokens
from kgsignals.records import GenerationConfig, read_corpus
from kgsignals.graph import Fact, build_index
from kgsignals.ingest import SPECIAL_TOKENS, Vocabulary, compute_stats, parse_hypergraph, parse_triples
from kgsignals.neighborhood import EmptyNeighborhoodError, NeighborhoodIndex, khop_entities
from kgsignals.paths import (
    conditional_entropy,
    information_gain_paths,
    relation_entropy,
    shortest_relational_paths,
)

from oracles import bfs_ball, ip_oracle, lcc_oracle, random_graph, sp_oracle, token_cells, unflatten_cells


def sets_graph(n_ent, sets):
    """One relation per entity set, realized by chained facts."""
    facts = []
    for r, members in enumerate(sets):
        if len(members) == 1:
            facts.append(Fact(r, (members[0], members[0])))
        else:
            for a, b in zip(members, members[1:]):
                facts.append(Fact(r, (a, b)))
    return build_index(facts, n_ent, len(sets))


def test_shortest_paths_match_exhaustive_oracle_on_200_graphs():
    cfg = GenerationConfig(seed=0)
    t0 = time.monotonic()
    for seed in range(200):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(
            rng, max_entities=50, max_relations=10, max_facts=80, max_arity=4
        )
        g = build_index(facts, n_ent, n_rel)
        for _ in range(4):
            e_i, e_j = rng.randrange(n_ent), rng.randrange(n_ent)
            excl = rng.choice([None, rng.randrange(len(facts))])
            got = shortest_relational_paths(g, e_i, e_j, cfg, exclude_fact=excl)
            want = sp_oracle(facts, e_i, e_j, cfg.max_hops, cfg.sp_cap, excl)
            assert got == want, f"seed={seed} pair=({e_i},{e_j}) excl={excl}"
    assert time.monotonic() - t0 < 30.0


def test_information_gain_paths_match_enumeration_on_100_graphs():
    t0 = time.monotonic()
    for seed in range(100):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(
            rng, max_entities=15, max_relations=6, max_facts=40, max_arity=3
        )
        g = build_index(facts, n_ent, n_rel)
        r = rng.randrange(n_rel)
        for k in (1, 2, 3):
            for hops in (1, 2, 3, 4):
                cfg = GenerationConfig(seed=0, beam_k=k, max_hops=hops)
                got = information_gain_paths(g, r, cfg)
                want = ip_oracle(facts, n_ent, n_rel, r, k, hops)
                assert got == want, f"seed={seed} r={r} k={k} l={hops}"
                assert sum(1 for p in got if len(p) == hops) <= k**hops
    assert time.monotonic() - t0 < 60.0


def test_entropy_matches_high_precision_on_1000_configurations():
    mpmath.mp.dps = 50

    def hp_entropy(size, universe):
        p = mpmath.mpf(size) / universe
        q = 1 - p
        h = mpmath.mpf(0)
        if p > 0:
            h -= p * mpmath.log(p)
        if q > 0:
            h -= q * mpmath.log(q)
        return float(h)

    def hp_conditional(size_p, size_n, inter, universe):
        sym = (size_p - inter) + (size_n - inter)
        u = mpmath.mpf(sym) / size_p
        v = mpmath.mpf(inter) / size_p
        h = mpmath.mpf(0)
        if u > 0:
            h += u * mpmath.log(u)
        if v > 0:
            h += v * mpmath.log(v)
        return float(-(mpmath.mpf(size_p) / universe) * h)

    rng = random.Random(99)
    for _ in range(1000):
        universe = rng.randint(2, 60)
        size_p = rng.randint(1, universe)
        size_n = rng.randint(0, universe)
        inter = rng.randint(max(0, size_p + size_n - universe), min(size_p, size_n))
        ids = list(range(universe))
        rng.shuffle(ids)
        set_p = ids[:size_p]
        set_n = set_p[:inter] + ids[size_p : size_p + (size_n - inter)]
        g = sets_graph(universe, [set_p, set_n] if set_n else [set_p, [set_p[0]]])
        assert abs(relation_entropy(g, 0) - hp_entropy(size_p, universe)) < 1e-12
        if set_n:
            got = conditional_entropy(g, 0, 1)
            want = hp_conditional(size_p, size_n, inter, universe)
            assert abs(got - want) < 1e-12
    # the maximum of the binary entropy: half the entities covered
    g = sets_graph(10, [[0, 1, 2, 3, 4]])
    assert abs(relation_entropy(g, 0) - math.log(2)) < 1e-12


def test_neighborhoods_match_oracles_on_200_graphs():
    for seed in range(200):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(
            rng, max_entities=100, max_relations=8, max_facts=120, max_arity=3
        )
        g = build_index(facts, n_ent, n_rel)
        index = NeighborhoodIndex(g, 3)
        centers = rng.sample(range(n_ent), min(10, n_ent))
        for e in centers:
            for k in (1, 2, 3):
                assert set(khop_entities(g, e, k).tolist()) == bfs_ball(facts, e, k)
                got = index.clustering(e, k)
                assert abs(got - lcc_oracle(facts, e, k)) < 1e-12
                try:
                    _, probs = index.occurrence(e, k)
                except EmptyNeighborhoodError:
                    continue
                assert abs(probs.sum() - 1.0) < 1e-9


def test_iva_examples_sound_on_1000_small_matrices():
    cfg = GenerationConfig(seed=0, hops=2)
    checked = 0
    pos = neg = 0
    seed = 0
    while checked < 1000:
        seed += 1
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(
            rng, max_entities=rng.choice([4, 5, 6, 6, 7, 8]),
            max_relations=3, max_facts=14, max_arity=3,
        )
        g = build_index(facts, n_ent, n_rel)
        # the first entity and the first value token
        bases = (len(SPECIAL_TOKENS), len(SPECIAL_TOKENS) + n_ent + n_rel)
        for center in range(n_ent):
            negative = (seed + center) % 2 == 1
            try:
                ex = make_iva_example(g, center, cfg, random.Random(seed * 101 + center), negative)
            except SkipExample:
                continue
            if len(ex.left.entities) > 8:
                continue
            # the record tokens of both sides give back each matrix exactly
            for m in (ex.left, ex.right):
                n = len(m.entities)
                tokens, clamped = _flatten_tokens(g, cfg, m)
                entities, values = unflatten_cells(token_cells(tokens, n, *bases), n)
                assert not clamped and tuple(entities) == m.entities
                assert values == m.values.tolist()
            equiv = permutation_equivalent(ex.left.values, ex.right.values)
            if negative:
                assert ex.label == 0 and not equiv, f"seed={seed} center={center}"
                neg += 1
            else:
                assert ex.label == 1 and equiv, f"seed={seed} center={center}"
                pos += 1
            checked += 1
            if checked >= 1000:
                break
    assert pos > 300 and neg > 300

    # worked example: self-loops on e1 and e3, e1-e2 twice, e1-e3 once,
    # e2-e3 three times
    facts = [
        Fact(0, (0, 0)), Fact(0, (2, 2)),
        Fact(0, (0, 1)), Fact(0, (0, 1)),
        Fact(0, (0, 2)),
        Fact(0, (1, 2)), Fact(0, (1, 2)), Fact(0, (1, 2)),
    ]
    g = build_index(facts, 3, 1)
    a = relationless_adjacency(g, [0, 1, 2])
    assert a.values.tolist() == [[1, 2, 1], [2, 0, 3], [1, 3, 1]]
    tokens, _ = _flatten_tokens(g, cfg, a)
    assert token_cells(tokens, 3, len(SPECIAL_TOKENS), len(SPECIAL_TOKENS) + 4) == [0, 1, 2, 1, 2, 1, 0, 3, 1]


@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    """A 10,000-tuple mixed-arity graph, ingested into a data directory."""
    root = tmp_path_factory.mktemp("synth")
    rng = random.Random(2024)
    n_ent, n_rel = 3000, 150
    lines = []
    for _ in range(10_000):
        arity = rng.choice([2, 2, 2, 3])
        ents = [f"e{rng.randrange(n_ent)}" for _ in range(arity)]
        lines.append("\t".join([f"r{rng.randrange(n_rel)}"] + ents))
    train = root / "train.tsv"
    train.write_text("\n".join(lines) + "\n")
    data = root / "data"
    assert main(["ingest", "--train", str(train), "--kind", "hypergraph",
                 "--out", str(data)]) == 0
    return data


def test_corpus_contracts_on_10k_tuple_graph(synthetic_dataset, tmp_path):
    out1 = tmp_path / "run1"
    t0 = time.monotonic()
    rc = main(["generate", "all", "--data", str(synthetic_dataset),
               "--out", str(out1), "--seed", "11", "--workers", "1"])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 60.0, f"single-threaded generate all took {elapsed:.1f}s"

    header, records = read_corpus(out1 / "all.jsonl")
    assert records
    cfg = header["config"]
    assert cfg["max_len"] == 1024 and cfg["max_hops"] == 4 and cfg["hops"] == 3
    eos = SPECIAL_TOKENS.index("[EOS]")
    no_path = SPECIAL_TOKENS.index("[NO_PATH]")
    for r in records:
        assert len(r.input_tokens) <= 1024
        if r.target_kind == "tokens" and r.target != [no_path]:
            assert r.target[-1] == eos
            assert len(r.target) - 1 <= 4  # l <= 4
        if r.task in ("khn", "lcc"):
            assert int(r.provenance.split(":h")[1]) <= 3  # k <= 3
    alpha = header["alpha"]
    assert abs(sum(alpha.values()) - 1.0) < 1e-12
    assert main(["verify", str(out1 / "all.jsonl")]) == 0

    # same seed, different worker count: byte-identical output
    out2 = tmp_path / "run2"
    rc = main(["generate", "all", "--data", str(synthetic_dataset),
               "--out", str(out2), "--seed", "11", "--workers", "4"])
    assert rc == 0
    for name in ("sp", "ip", "khn", "iva", "lcc", "all"):
        b1 = (out1 / f"{name}.jsonl").read_bytes()
        b2 = (out2 / f"{name}.jsonl").read_bytes()
        assert b1 == b2, f"{name}.jsonl differs between runs"


EXPECTED_DATASET_STATS = {
    "fb15k-237": {"entities": 14541, "relations": 237,
                  "splits": {"train": 272115, "valid": 17535, "test": 20466},
                  "kind": "triples"},
    "wn18rr": {"entities": 40943, "relations": 11,
               "splits": {"train": 86835, "valid": 3034, "test": 3134},
               "kind": "triples"},
    "jf17k": {"entities": 29177, "relations": 327,
              "splits": {"train": 61911, "valid": 15822, "test": 24915},
              "kind": "hypergraph"},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_DATASET_STATS))
def test_benchmark_dataset_statistics(name):
    root = os.environ.get("KGSIGNALS_DATASETS")
    if not root:
        pytest.skip("set KGSIGNALS_DATASETS to a directory with the benchmark datasets")
    base = Path(root) / name
    if not base.is_dir():
        pytest.skip(f"{base} not present")
    expected = EXPECTED_DATASET_STATS[name]
    parse = parse_triples if expected["kind"] == "triples" else parse_hypergraph
    vocab = Vocabulary()
    splits = {}
    for split in ("train", "valid", "test"):
        path = base / f"{split}.txt"
        if not path.exists():
            path = base / f"{split}.tsv"
        splits[split] = parse(path, vocab)
    stats = compute_stats(vocab, splits)
    assert stats["entities"] == expected["entities"]
    assert stats["relations"] == expected["relations"]
    assert stats["splits"] == expected["splits"]
