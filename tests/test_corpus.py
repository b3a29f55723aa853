import json
import multiprocessing
import random
from collections import Counter
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgsignals import corpus as corpus_mod
from kgsignals.adjacency import AdjacencyMatrix, flatten_adjacency
from kgsignals.corpus import (
    EmptyCorpusError,
    CorpusFormatError,
    CorpusInvariantError,
    GenerationConfig,
    TaskRecord,
    WorkerPool,
    WrittenCorpus,
    _flatten_tokens,
    _khn_lcc_input,
    check_and_serialize,
    corpus_header,
    generate_task_records,
    mix_multitask,
    mixture_lines,
    read_corpus,
    record_bounds,
    unit_weight_lines,
    weightless_prefix,
    write_corpus,
)
from kgsignals.graph import Fact, build_index
from kgsignals.ingest import SPECIAL_TOKENS, TASK_TOKENS, VocabBuilder

from oracles import random_graph


def make_vocab(n_ent, n_rel):
    b = VocabBuilder()
    for i in range(n_ent):
        b.entity_id(f"e{i}")
    for i in range(n_rel):
        b.relation_id(f"r{i}")
    return b.freeze()


def chain_graph():
    facts = [Fact(0, (0, 1)), Fact(1, (1, 2)), Fact(2, (0, 2))]
    return build_index(facts, 3, 3)


class TestGenerateSp:
    def test_chain_record(self):
        g = chain_graph()
        v = make_vocab(3, 3)
        cfg = GenerationConfig(seed=0)
        recs = generate_task_records(g, v, "sp", cfg).records
        by_prov = {r.provenance: r for r in recs}
        # fact 2 = r2(e0, e2), mask position 0, partner e2: the query fact
        # is excluded so the only shortest path is r0 then r1
        rec = by_prov["f00000002:m00:p01:x0000"]
        assert rec.input_tokens == [
            v.special_token(TASK_TOKENS["sp"]),
            v.entity_token(0),
            v.relation_token(2),
            v.entity_token(2),
        ]
        assert rec.target_kind == "tokens"
        assert rec.target == [v.relation_token(0), v.relation_token(1), v.special_token("[EOS]")]

    def test_disconnected_gives_no_path(self):
        g = build_index([Fact(0, (0, 1)), Fact(1, (2, 3))], 4, 2)
        v = make_vocab(4, 2)
        recs = generate_task_records(g, v, "sp", GenerationConfig(seed=0)).records
        # excluding each queried fact leaves its endpoints disconnected
        assert recs
        for r in recs:
            assert r.target == [v.special_token("[NO_PATH]")]

    def test_input_starts_with_task_token(self):
        g = chain_graph()
        v = make_vocab(3, 3)
        for task in ("sp", "ip"):
            for r in generate_task_records(g, v, task, GenerationConfig(seed=1)).records:
                assert r.input_tokens[0] == v.special_token(TASK_TOKENS[task])


class TestGenerateKhn:
    def test_hop1_symmetric_half(self):
        g = build_index([Fact(0, (1, 0)), Fact(0, (1, 2))], 3, 1)
        v = make_vocab(3, 1)
        recs = generate_task_records(g, v, "khn", GenerationConfig(seed=0, hops=1)).records
        rec = {r.provenance: r for r in recs}["c00000001:h1"]
        assert rec.target == [(v.entity_token(0), 0.5), (v.entity_token(2), 0.5)]

    def test_hop_inputs_list_previous_ball(self):
        rng = random.Random(0)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=4, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        v = make_vocab(n_ent, n_rel)
        cfg = GenerationConfig(seed=0, hops=3)
        recs = generate_task_records(g, v, "khn", cfg).records
        by_prov = {r.provenance: r for r in recs}
        sep = v.special_token("[SEP]")
        for r in recs:
            center, h = r.provenance.split(":")
            h = int(h[1:])
            assert r.input_tokens[2] == sep
            if h == 1:
                assert r.input_tokens[3:] == []
            else:
                prev = by_prov.get(f"{center}:h{h - 1}")
                assert prev is not None
                assert r.input_tokens[3:] == [tok for tok, _ in prev.target]

    def test_dist_sums_to_one(self):
        rng = random.Random(3)
        facts, n_ent, n_rel = random_graph(rng, max_entities=20, max_relations=4, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        v = make_vocab(n_ent, n_rel)
        for r in generate_task_records(g, v, "khn", GenerationConfig(seed=0)).records:
            assert abs(sum(p for _, p in r.target) - 1.0) < 1e-9


class TestGenerateLccIva:
    def test_lcc_scalar_range(self):
        rng = random.Random(5)
        facts, n_ent, n_rel = random_graph(rng, max_entities=25, max_relations=4, max_facts=50)
        g = build_index(facts, n_ent, n_rel)
        v = make_vocab(n_ent, n_rel)
        recs = generate_task_records(g, v, "lcc", GenerationConfig(seed=0)).records
        assert recs
        for r in recs:
            assert r.target_kind == "scalar"
            assert 0.0 <= r.target <= 1.0

    def test_iva_labels_alternate(self):
        rng = random.Random(6)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=3, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        v = make_vocab(n_ent, n_rel)
        recs = generate_task_records(g, v, "iva", GenerationConfig(seed=0)).records
        assert recs
        labels = {r.target for r in recs}
        assert labels <= {0, 1}
        for r in recs:
            assert r.input_tokens[0] == v.special_token("[IVA]")

    def test_iva_seed_changes_examples(self):
        rng = random.Random(6)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=3, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        v = make_vocab(n_ent, n_rel)
        a = generate_task_records(g, v, "iva", GenerationConfig(seed=0)).records
        b = generate_task_records(g, v, "iva", GenerationConfig(seed=0)).records
        c = generate_task_records(g, v, "iva", GenerationConfig(seed=1)).records
        assert [r.to_json() for r in a] == [r.to_json() for r in b]
        assert [r.to_json() for r in a] != [r.to_json() for r in c]


class TestFlattenTokens:
    @staticmethod
    def per_cell(vocab, cfg, m):
        """The tokens cell by cell through ``Vocabulary.value_token``."""
        n = len(m.entities)
        flat = flatten_adjacency(m)
        tokens = [vocab.entity_token(int(e)) for e in flat[:n]]
        clamped = False
        for v in flat[n:]:
            tok, cl = vocab.value_token(int(v), cfg.value_ceiling)
            clamped = clamped or cl
            tokens.append(tok)
        return tokens, clamped

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("ceiling", [0, 3, 64])
    def test_matches_per_cell_value_tokens(self, n, ceiling):
        vocab = make_vocab(10, 3)
        cfg = GenerationConfig(seed=0, value_ceiling=ceiling)
        rng = np.random.default_rng(100 * n + ceiling)
        v = rng.integers(0, 6, size=(n, n))
        m = AdjacencyMatrix(tuple(rng.permutation(10)[:n].tolist()), np.triu(v) + np.triu(v, 1).T)
        tokens, clamped = _flatten_tokens(vocab, cfg, m)
        assert (tokens, clamped) == self.per_cell(vocab, cfg, m)
        assert type(clamped) is bool and all(type(t) is int for t in tokens)

    @pytest.mark.parametrize("value, clamped", [(3, False), (4, True)])
    def test_one_by_one_clamp_flag(self, value, clamped):
        vocab = make_vocab(2, 1)
        m = AdjacencyMatrix((1,), np.array([[value]], dtype=np.int64))
        got = _flatten_tokens(vocab, GenerationConfig(seed=0, value_ceiling=3), m)
        assert got == ([vocab.entity_token(1), vocab.value_base + 3], clamped)


class TestClipping:
    def test_inputs_clipped_to_max_len(self):
        facts = [Fact(0, (0, i)) for i in range(1, 60)]
        g = build_index(facts, 60, 1)
        v = make_vocab(60, 1)
        # path inputs are four tokens: [SP|IP] e_i r e_j
        for task, max_len in (("khn", 16), ("lcc", 16), ("iva", 16), ("sp", 3), ("ip", 3)):
            cfg = GenerationConfig(seed=0, hops=2, max_len=max_len)
            recs = generate_task_records(g, v, task, cfg).records
            assert recs
            clipped = [r for r in recs if len(r.input_tokens) == max_len]
            assert clipped
            for r in recs:
                assert len(r.input_tokens) <= max_len
            for r in clipped:
                assert "clipped" in r.flags


class TestKhnLccInput:
    # sizes around max_len = 16 (3 head tokens): empty, fits, exactly
    # full, clipped
    @pytest.mark.parametrize("size", [0, 5, 13, 14, 40])
    @pytest.mark.parametrize("task", ["khn", "lcc"])
    def test_matches_per_entity_tokens(self, task, size):
        v = make_vocab(60, 2)
        cfg = GenerationConfig(seed=0, max_len=16)
        ball = np.sort(np.random.default_rng(size).choice(np.arange(1, 60), size, replace=False))
        ball.flags.writeable = False  # as NeighborhoodIndex.ball returns it
        want = [v.special_token(TASK_TOKENS[task]), v.entity_token(0), v.special_token("[SEP]")]
        want += [v.entity_token(int(e)) for e in ball]
        tokens, clipped = _khn_lcc_input(v, cfg, task, 0, ball)
        assert tokens == want[: cfg.max_len]
        assert clipped == (len(want) > cfg.max_len)
        assert all(type(t) is int for t in tokens)


class TestMix:
    def fake_records(self, task, n):
        return [
            TaskRecord(task=task, input_tokens=[0], target_kind="label", target=1,
                       provenance=f"{task}:{i}")
            for i in range(n)
        ]

    def test_counts_and_alpha(self):
        lists = {"sp": self.fake_records("sp", 100), "khn": self.fake_records("khn", 300)}
        stream, plan = mix_multitask(lists, seed=0)
        assert len(stream) == 400
        assert plan.sizes == {"sp": 100, "khn": 300}
        assert plan.alpha["sp"] == pytest.approx(0.25)
        assert plan.alpha["khn"] == pytest.approx(0.75)
        assert abs(sum(plan.alpha.values()) - 1.0) < 1e-12
        # the stream is (task, index) pairs; a mixture line takes its
        # weight from its task
        prefixes = {t: [weightless_prefix(r) for r in rs] for t, rs in lists.items()}
        for (t, i), line in zip(stream, mixture_lines(prefixes, stream, plan.alpha)):
            r = TaskRecord.from_json(line)
            assert r.provenance == lists[t][i].provenance
            assert r.weight == plan.alpha[r.task]

    def test_permutation_of_union(self):
        lists = {"sp": self.fake_records("sp", 40), "lcc": self.fake_records("lcc", 25)}
        stream, _ = mix_multitask(lists, seed=3)
        assert sorted(lists[t][i].provenance for t, i in stream) == sorted(
            r.provenance for rs in lists.values() for r in rs
        )

    def test_seeded_and_shuffled(self):
        def build(seed):
            lists = {"sp": self.fake_records("sp", 50), "ip": self.fake_records("ip", 50)}
            return [lists[t][i].provenance for t, i in mix_multitask(lists, seed=seed)[0]]

        assert build(7) == build(7)
        assert build(7) != build(8)
        assert build(7) != sorted(build(7))

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpusError):
            mix_multitask({"sp": [], "ip": []}, seed=0)

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_order_is_the_shuffle_of_the_concatenated_records(self, seed):
        # uneven sizes, one empty task, tasks not given in sorted order
        lists = {"lcc": self.fake_records("lcc", 7), "sp": self.fake_records("sp", 3),
                 "ip": [], "khn": self.fake_records("khn", 12), "iva": self.fake_records("iva", 1)}
        order, plan = mix_multitask(lists, seed=seed)
        stream = [r for t in sorted(lists) for r in lists[t]]
        random.Random(f"{seed}:mix").shuffle(stream)
        assert [lists[t][i].provenance for t, i in order] == [r.provenance for r in stream]
        assert plan.sizes == {"lcc": 7, "sp": 3, "khn": 12, "iva": 1}


def write_records(recs, path, meta):
    """Write ``recs`` with their own weights, as one corpus."""
    write_corpus(path, corpus_header(dict(Counter(r.task for r in recs)), meta), (r.to_json() for r in recs))


class TestStreamedWriter:
    """The corpus writer serializes each record once, without its weight,
    and appends the weight per file. The oracle is ``to_json`` of the
    record at that weight."""

    def records(self):
        v = make_vocab(6, 4)
        sp, khn, iva, lcc = (v.special_token(TASK_TOKENS[t]) for t in ("sp", "khn", "iva", "lcc"))
        e, r = v.entity_token, v.relation_token
        no_path, eos = v.special_token("[NO_PATH]"), v.special_token("[EOS]")
        return v, {
            "sp": [
                TaskRecord("sp", [sp, e(0), r(1)], "tokens", [r(3), r(0), eos], "f00000001:m00:p01:x0000",
                           flags=("clipped",)),
                TaskRecord("sp", [sp, e(0), r(1), e(2)], "tokens", [no_path], "f00000000:m01:p00:x0000"),
            ],
            "khn": [
                TaskRecord("khn", [khn, e(1), v.special_token("[SEP]")], "dist",
                           [(e(2), 0.1), (e(3), 0.2), (e(5), 0.7)], "c00000001:h1"),
            ],
            "iva": [
                TaskRecord("iva", [iva, e(1), v.value_base + 64], "label", 1, "c00000001:identity",
                           flags=("clamped", "clipped")),
                TaskRecord("iva", [iva, e(2)], "label", 0, "c00000002:value_resample", flags=("clamped",)),
            ],
            "lcc": [TaskRecord("lcc", [lcc, e(4)], "scalar", 1 / 3, "c00000004:h2")],
        }

    def test_lines_equal_to_json_at_their_weight(self, tmp_path):
        v, lists = self.records()
        meta = {"vocab_sizes": {"specials": len(SPECIAL_TOKENS), "entities": 6, "relations": 4},
                "config": GenerationConfig(seed=0, max_len=4).as_dict()}
        written = {}
        for task, recs in lists.items():
            bounds = record_bounds("x", meta)
            prefixes = check_and_serialize("x", bounds, recs)
            path = tmp_path / f"{task}.jsonl"
            offsets = write_corpus(path, corpus_header({task: len(prefixes)}, meta), unit_weight_lines(prefixes))
            lines = path.read_text().splitlines()[1:]
            assert lines == [replace(r, weight=1.0).to_json() for r in recs]
            written[task] = WrittenCorpus(path, offsets)
        order, plan = mix_multitask(written, seed=1)
        # 2 of 6 records: an alpha whose repr is long
        assert plan.alpha["sp"] == 1 / 3 and len(repr(plan.alpha["sp"])) > 15
        path = tmp_path / "all.jsonl"
        write_corpus(path, corpus_header(plan.sizes, meta), mixture_lines(written, order, plan.alpha))
        lines = path.read_text().splitlines()[1:]
        assert lines == [replace(lists[t][i], weight=plan.alpha[t]).to_json() for t, i in order]
        for corpus in written.values():
            corpus.close()

    def test_offsets_point_at_line_starts(self, tmp_path):
        path = tmp_path / "c.jsonl"
        offsets = write_corpus(path, {"format": "x"}, ["a", "bcd", ""])
        data = path.read_bytes()
        h = data.index(b"\n") + 1  # after the header line
        assert data[h:] == b"a\nbcd\n\n"
        assert list(offsets) == [h, h + 2, h + 6, h + 7] and h + 7 == len(data)

    def test_breaking_record_is_named_by_provenance(self):
        _, lists = self.records()
        meta = {"vocab_sizes": {"specials": len(SPECIAL_TOKENS), "entities": 6, "relations": 3}}
        # a header without max_len, max_hops or lcc_weighted bounds its
        # records as the default config does
        assert record_bounds("x", meta) == record_bounds("x", {**meta, "config": GenerationConfig(seed=0).as_dict()})
        # relation token 3 is out of range with three relations
        with pytest.raises(CorpusInvariantError,
                           match=r"^x: record f00000001:m00:p01:x0000: token \d+ is not a relation token$"):
            check_and_serialize("x", record_bounds("x", meta), lists["sp"])


class TestSerialization:
    def sample_records(self):
        return [
            TaskRecord("sp", [5, 11, 12, 13], "tokens", [14, 3], "f00000000:m00:p01:x0000", 0.5),
            TaskRecord("khn", [7, 11, 2], "dist", [(11, 0.25), (12, 0.75)], "c00000001:h1", 0.25,
                       ("clipped",)),
            TaskRecord("iva", [8, 11], "label", 0, "c00000002:column_swap", 0.25),
            TaskRecord("lcc", [9, 11, 2], "scalar", 1 / 3, "c00000003:h2", None),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.jsonl"
        recs = self.sample_records()
        write_records(recs, p, {"seed": 0})
        header, back = read_corpus(p)
        assert header["counts"] == {"sp": 1, "khn": 1, "iva": 1, "lcc": 1}
        assert header["seed"] == 0
        assert [r.to_json() for r in back] == [r.to_json() for r in recs]
        assert back[3].target == recs[3].target  # float fidelity

    def test_bad_header(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"format":"something-else"}\n')
        with pytest.raises(CorpusFormatError):
            read_corpus(p)

    def test_bad_record_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_records(self.sample_records(), p, {})
        lines = p.read_text().splitlines()
        lines[2] = "{broken"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=":3:"):
            read_corpus(p)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_fuzz_round_trip(self, seed):
        rng = random.Random(seed)
        recs = []
        for i in range(rng.randint(1, 8)):
            kind = rng.choice(["tokens", "dist", "label", "scalar"])
            if kind == "tokens":
                target = [rng.randrange(100) for _ in range(rng.randint(1, 5))]
            elif kind == "dist":
                target = [(rng.randrange(100), rng.random()) for _ in range(rng.randint(1, 4))]
            elif kind == "label":
                target = rng.randint(0, 1)
            else:
                target = rng.random()
            recs.append(
                TaskRecord(
                    task=rng.choice(["sp", "ip", "khn", "iva", "lcc"]),
                    input_tokens=[rng.randrange(200) for _ in range(rng.randint(1, 6))],
                    target_kind=kind,
                    target=target,
                    provenance=f"x{i}",
                    weight=rng.choice([None, rng.random()]),
                )
            )
        back = [TaskRecord.from_json(r.to_json()) for r in recs]
        assert [r.to_json() for r in back] == [r.to_json() for r in recs]


class TestWorkers:
    @staticmethod
    def run():
        # a ring makes every one of the 80 entities a centre, over the 64
        # items a task needs to reach the pool; the rest is random facts
        # of arity 2 to 4, and entities 80 and 81 are in no fact
        rng = random.Random(13)
        n_ent, n_rel = 82, 5
        facts = [Fact(rng.randrange(n_rel), (e, (e + 1) % 80)) for e in range(80)]
        facts += [Fact(rng.randrange(n_rel), tuple(rng.randrange(80) for _ in range(rng.randint(2, 4))))
                  for _ in range(30)]
        return build_index(facts, n_ent, n_rel), make_vocab(n_ent, n_rel), GenerationConfig(seed=4, hops=2)

    @pytest.mark.parametrize("task", ["sp", "ip", "khn", "lcc", "iva"])
    def test_worker_count_does_not_change_output(self, task, pools_made):
        g, v, cfg = self.run()
        base = generate_task_records(g, v, task, cfg, workers=1)
        assert pools_made == []
        multi = generate_task_records(g, v, task, cfg, workers=3)
        assert len(pools_made) == 1
        assert multiprocessing.active_children() == []
        assert [r.to_json() for r in base.records] == [r.to_json() for r in multi.records]
        assert base.skipped == multi.skipped == (2 if task in ("khn", "lcc", "iva") else 0)

    def test_pool_of_another_run_is_refused(self, pools_made):
        g, v, cfg = self.run()
        other = build_index(list(g.facts), g.num_entities, g.num_relations)
        with closing(WorkerPool(other, v, cfg)) as pool:
            with pytest.raises(ValueError, match="another graph"):
                generate_task_records(g, v, "sp", cfg, workers=3, pool=pool)
        assert pools_made == []

    def test_one_pool_serves_tasks_at_any_worker_count(self, pools_made):
        g, v, cfg = self.run()
        asked = (("sp", 3), ("khn", 2))
        base = {task: generate_task_records(g, v, task, cfg, workers=1).records for task, _ in asked}
        with closing(WorkerPool(g, v, cfg)) as pool:
            multi = {
                task: generate_task_records(g, v, task, cfg, workers=workers, pool=pool).records
                for task, workers in asked
            }
        assert len(pools_made) == 1
        assert multiprocessing.active_children() == []
        for task, _ in asked:
            assert [r.to_json() for r in multi[task]] == [r.to_json() for r in base[task]]

    def test_task_state_is_built_once_per_task(self, monkeypatch):
        # at one worker each task runs in four chunks
        g, v, cfg = self.run()
        calls = []

        def count(name):
            real = getattr(corpus_mod, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(corpus_mod, name, counted)

        count("NeighborhoodIndex")
        count("information_gain_paths")
        generate_task_records(g, v, "khn", cfg, workers=1)
        assert calls == ["NeighborhoodIndex"]
        calls.clear()
        generate_task_records(g, v, "ip", cfg, workers=1)
        assert calls == ["information_gain_paths"] * g.num_relations


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("task", ["khn", "lcc", "iva"])
def test_centres_without_a_neighbour_are_skipped(task, workers):
    # entity 5 is in no fact, and entity 4's only fact is r(4, 4); the
    # rest is a random graph on entities 6.. that a pool splits
    rng = random.Random(3)
    facts = [Fact(0, (4, 4)), Fact(1, (0, 1)), Fact(1, (1, 2, 3)), Fact(0, (2, 0))]
    facts += [Fact(rng.randrange(3), (rng.randrange(6, 90), rng.randrange(6, 90))) for _ in range(150)]
    g = build_index(facts, 90, 3)
    lonely = set(range(90)) - {e for f in facts if len(set(f.entities)) > 1 for e in f.entities}
    assert {4, 5} <= lonely
    result = generate_task_records(g, make_vocab(90, 3), task, GenerationConfig(seed=2, hops=2), workers=workers)
    assert result.skipped == len(lonely)
    centers = {int(r.provenance.split(":")[0][1:]) for r in result.records}
    assert centers == set(range(90)) - lonely


def test_path_items_cover_every_ordered_position_pair():
    # fact 1 duplicates fact 0; fact 2 has arity 3
    g = build_index([Fact(0, (0, 1)), Fact(0, (0, 1)), Fact(1, (0, 1, 2))], 3, 2)
    v = make_vocab(3, 2)
    recs = generate_task_records(g, v, "sp", GenerationConfig(seed=0)).records
    items = {r.provenance.rsplit(":", 1)[0] for r in recs}
    assert items == {
        f"f{i:08d}:m{m:02d}:p{p:02d}"
        for i, f in enumerate(g.facts)
        for m in range(f.arity)
        for p in range(f.arity)
        if p != m
    }
    for r in recs:
        i, m, p = (int(x[1:]) for x in r.provenance.split(":")[:3])
        f = g.facts[i]
        assert r.input_tokens == [
            v.special_token("[SP]"), v.entity_token(f.entities[m]),
            v.relation_token(f.relation), v.entity_token(f.entities[p]),
        ]

    def targets(i, m, p):
        prefix = f"f{i:08d}:m{m:02d}:p{p:02d}:"
        return sorted(r.target for r in recs if r.provenance.startswith(prefix))

    r0, r1, eos = v.relation_token(0), v.relation_token(1), v.special_token("[EOS]")
    # each copy of the duplicate excludes only itself: the other copy
    # still joins 0 and 1 in one hop, as does the arity-3 fact
    for i in (0, 1):
        assert targets(i, 0, 1) == targets(i, 1, 0) == [[r0, eos], [r1, eos]]
    assert targets(2, 0, 1) == [[r0, eos]]
