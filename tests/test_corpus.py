import json
import multiprocessing
import random
from collections import Counter
from contextlib import closing
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgsignals import corpus as corpus_mod
from kgsignals.adjacency import AdjacencyMatrix
from kgsignals.corpus import WorkerPool, _flatten_tokens, _khn_lcc_input, generate_task_records
from kgsignals.graph import Fact, build_index
from kgsignals.ingest import SPECIAL_TOKENS, TASK_TOKENS, ParseError
from kgsignals.records import (
    EmptyCorpusError,
    CorpusInvariantError,
    TASKS,
    GenerationConfig,
    TaskRecord,
    WrittenCorpus,
    check_and_serialize,
    check_totals,
    corpus_header,
    mix_multitask,
    mixture_lines,
    read_corpus,
    record_bounds,
    unit_weight_lines,
    weightless_prefix,
    write_corpus,
)

from oracles import flatten_cells, random_graph


# the token ids of a graph: the specials, then its entities, then its
# relations, then the cell values of IVA matrices
def special(name):
    return SPECIAL_TOKENS.index(name)


def entity_token(e):
    return len(SPECIAL_TOKENS) + e


def relation_token(g, r):
    return len(SPECIAL_TOKENS) + g.num_entities + r


def value_base(g):
    return len(SPECIAL_TOKENS) + g.num_entities + g.num_relations


def chain_graph():
    facts = [Fact(0, (0, 1)), Fact(1, (1, 2)), Fact(2, (0, 2))]
    return build_index(facts, 3, 3)


class TestGenerateSp:
    def test_chain_record(self):
        g = chain_graph()
        cfg = GenerationConfig(seed=0)
        recs = generate_task_records(WorkerPool(g, cfg), "sp").records
        by_prov = {r.provenance: r for r in recs}
        # fact 2 = r2(e0, e2), mask position 0, partner e2: the query fact
        # is excluded so the only shortest path is r0 then r1
        rec = by_prov["f00000002:m00:p01:x0000"]
        assert rec.input_tokens == [
            special(TASK_TOKENS["sp"]),
            entity_token(0),
            relation_token(g, 2),
            entity_token(2),
        ]
        assert rec.target_kind == "tokens"
        assert rec.target == [relation_token(g, 0), relation_token(g, 1), special("[EOS]")]

    def test_disconnected_gives_no_path(self):
        g = build_index([Fact(0, (0, 1)), Fact(1, (2, 3))], 4, 2)
        recs = generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "sp").records
        # excluding each queried fact leaves its endpoints disconnected
        assert recs
        for r in recs:
            assert r.target == [special("[NO_PATH]")]

    def test_input_starts_with_task_token(self):
        g = chain_graph()
        for task in ("sp", "ip"):
            for r in generate_task_records(WorkerPool(g, GenerationConfig(seed=1)), task).records:
                assert r.input_tokens[0] == special(TASK_TOKENS[task])


class TestGenerateKhn:
    def test_hop1_symmetric_half(self):
        g = build_index([Fact(0, (1, 0)), Fact(0, (1, 2))], 3, 1)
        recs = generate_task_records(WorkerPool(g, GenerationConfig(seed=0, hops=1)), "khn").records
        rec = {r.provenance: r for r in recs}["c00000001:h1"]
        assert rec.target == [(entity_token(0), 0.5), (entity_token(2), 0.5)]

    def test_hop_inputs_list_previous_ball(self):
        rng = random.Random(0)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=4, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        cfg = GenerationConfig(seed=0, hops=3)
        recs = generate_task_records(WorkerPool(g, cfg), "khn").records
        by_prov = {r.provenance: r for r in recs}
        sep = special("[SEP]")
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
        for r in generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "khn").records:
            assert abs(sum(p for _, p in r.target) - 1.0) < 1e-9


class TestGenerateLccIva:
    def test_lcc_scalar_range(self):
        rng = random.Random(5)
        facts, n_ent, n_rel = random_graph(rng, max_entities=25, max_relations=4, max_facts=50)
        g = build_index(facts, n_ent, n_rel)
        recs = generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "lcc").records
        assert recs
        for r in recs:
            assert r.target_kind == "scalar"
            assert 0.0 <= r.target <= 1.0

    def test_iva_labels_alternate(self):
        rng = random.Random(6)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=3, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        recs = generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "iva").records
        assert recs
        labels = {r.target for r in recs}
        assert labels <= {0, 1}
        for r in recs:
            assert r.input_tokens[0] == special("[IVA]")

    def test_iva_seed_changes_examples(self):
        rng = random.Random(6)
        facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=3, max_facts=30)
        g = build_index(facts, n_ent, n_rel)
        a = generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "iva").records
        b = generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "iva").records
        c = generate_task_records(WorkerPool(g, GenerationConfig(seed=1)), "iva").records
        assert [r.to_json() for r in a] == [r.to_json() for r in b]
        assert [r.to_json() for r in a] != [r.to_json() for r in c]


class TestFlattenTokens:
    @staticmethod
    def per_cell(g, cfg, m):
        """The tokens cell by cell from the loop oracle's layout."""
        n = len(m.entities)
        flat = flatten_cells(list(m.entities), m.values.tolist())
        tokens = [entity_token(e) for e in flat[:n]]
        tokens += [value_base(g) + min(v, cfg.value_ceiling) for v in flat[n:]]
        return tokens, any(v > cfg.value_ceiling for v in flat[n:])

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("ceiling", [0, 3, 64])
    def test_matches_per_cell_value_tokens(self, n, ceiling):
        g = build_index([], 10, 3)
        cfg = GenerationConfig(seed=0, value_ceiling=ceiling)
        rng = np.random.default_rng(100 * n + ceiling)
        v = rng.integers(0, 6, size=(n, n))
        m = AdjacencyMatrix(tuple(rng.permutation(10)[:n].tolist()), np.triu(v) + np.triu(v, 1).T)
        tokens, clamped = _flatten_tokens(g, cfg, m)
        assert (tokens, clamped) == self.per_cell(g, cfg, m)
        assert type(clamped) is bool and all(type(t) is int for t in tokens)

    @pytest.mark.parametrize("value, clamped", [(3, False), (4, True)])
    def test_one_by_one_clamp_flag(self, value, clamped):
        g = build_index([], 2, 1)
        m = AdjacencyMatrix((1,), np.array([[value]], dtype=np.int64))
        got = _flatten_tokens(g, GenerationConfig(seed=0, value_ceiling=3), m)
        assert got == ([entity_token(1), value_base(g) + 3], clamped)


class TestClipping:
    def test_inputs_clipped_to_max_len(self):
        facts = [Fact(0, (0, i)) for i in range(1, 60)]
        g = build_index(facts, 60, 1)
        # path inputs are four tokens: [SP|IP] e_i r e_j
        for task, max_len in (("khn", 16), ("lcc", 16), ("iva", 16), ("sp", 3), ("ip", 3)):
            cfg = GenerationConfig(seed=0, hops=2, max_len=max_len)
            recs = generate_task_records(WorkerPool(g, cfg), task).records
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
        cfg = GenerationConfig(seed=0, max_len=16)
        ball = np.sort(np.random.default_rng(size).choice(np.arange(1, 60), size, replace=False))
        ball.flags.writeable = False  # as NeighborhoodIndex.ball returns it
        want = [special(TASK_TOKENS[task]), entity_token(0), special("[SEP]")]
        want += [entity_token(int(e)) for e in ball]
        tokens, clipped = _khn_lcc_input(cfg, task, 0, ball)
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
        stream, alpha = mix_multitask(lists, seed=0)
        assert len(stream) == 400
        assert alpha == {"sp": 0.25, "khn": 0.75}
        # the stream is (task, index) pairs; a mixture line takes its
        # weight from its task
        prefixes = {t: [weightless_prefix(r) for r in rs] for t, rs in lists.items()}
        for (t, i), line in zip(stream, mixture_lines(prefixes, stream, alpha)):
            r = TaskRecord.from_json(line)
            assert r.provenance == lists[t][i].provenance
            assert r.weight == alpha[r.task]

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
        order, alpha = mix_multitask(lists, seed=seed)
        stream = [r for t in sorted(lists) for r in lists[t]]
        random.Random(f"{seed}:mix").shuffle(stream)
        assert [lists[t][i].provenance for t, i in order] == [r.provenance for r in stream]
        # a weight for each task with records
        assert alpha == {"lcc": 7 / 23, "sp": 3 / 23, "khn": 12 / 23, "iva": 1 / 23}


def write_records(recs, path, meta):
    """Write ``recs`` with their own weights, as one corpus."""
    write_corpus(path, corpus_header(dict(Counter(r.task for r in recs)), meta), (r.to_json() for r in recs))


class TestStreamedWriter:
    """The corpus writer serializes each record once, without its weight,
    and appends the weight per file. The oracle is ``to_json`` of the
    record at that weight."""

    def records(self):
        g = build_index([], 6, 4)
        sp, khn, iva, lcc = (special(TASK_TOKENS[t]) for t in ("sp", "khn", "iva", "lcc"))
        e, r = entity_token, partial(relation_token, g)
        no_path, eos = special("[NO_PATH]"), special("[EOS]")
        return {
            "sp": [
                TaskRecord("sp", [sp, e(0), r(1)], "tokens", [r(3), r(0), eos], "f00000001:m00:p01:x0000",
                           flags=("clipped",)),
                TaskRecord("sp", [sp, e(0), r(1), e(2)], "tokens", [no_path], "f00000000:m01:p00:x0000"),
            ],
            "khn": [
                TaskRecord("khn", [khn, e(1), special("[SEP]")], "dist",
                           [(e(2), 0.1), (e(3), 0.2), (e(5), 0.7)], "c00000001:h1"),
            ],
            "iva": [
                TaskRecord("iva", [iva, e(1), value_base(g) + 64], "label", 1, "c00000001:identity",
                           flags=("clamped", "clipped")),
                TaskRecord("iva", [iva, e(2)], "label", 0, "c00000002:value_resample", flags=("clamped",)),
            ],
            "lcc": [TaskRecord("lcc", [lcc, e(4)], "scalar", 1 / 3, "c00000004:h2")],
        }

    def test_lines_equal_to_json_at_their_weight(self, tmp_path):
        lists = self.records()
        cfg = GenerationConfig(seed=0, max_len=4)
        meta = {"vocab_sizes": {"specials": len(SPECIAL_TOKENS), "entities": 6, "relations": 4},
                "config": cfg.as_dict(), "config_hash": cfg.hash()}
        written = {}
        for task, recs in lists.items():
            bounds = record_bounds("x", meta)
            prefixes = check_and_serialize("x", bounds, recs)
            path = tmp_path / f"{task}.jsonl"
            offsets = write_corpus(path, corpus_header({task: len(prefixes)}, meta), unit_weight_lines(prefixes))
            lines = path.read_text().splitlines()[1:]
            assert lines == [replace(r, weight=1.0).to_json() for r in recs]
            written[task] = WrittenCorpus(path, offsets)
        order, alpha = mix_multitask(written, seed=1)
        # 2 of 6 records: an alpha whose repr is long
        assert alpha["sp"] == 1 / 3 and len(repr(alpha["sp"])) > 15
        path = tmp_path / "all.jsonl"
        write_corpus(path, corpus_header({t: len(written[t]) for t in alpha}, meta),
                     mixture_lines(written, order, alpha))
        lines = path.read_text().splitlines()[1:]
        assert lines == [replace(lists[t][i], weight=alpha[t]).to_json() for t, i in order]
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
        lists = self.records()
        cfg = GenerationConfig(seed=0)
        meta = {"vocab_sizes": {"specials": len(SPECIAL_TOKENS), "entities": 6, "relations": 3},
                "config": cfg.as_dict(), "config_hash": cfg.hash()}
        # relation token 3 is out of range with three relations
        with pytest.raises(CorpusInvariantError,
                           match=r"^x: record f00000001:m00:p01:x0000: token \d+ is not a relation token$"):
            check_and_serialize("x", record_bounds("x", meta), lists["sp"])


@pytest.mark.parametrize("alpha, uniform", [(None, False), (None, None), ({"sp": 1.0}, True), ({"sp": 1.0}, 1)])
def test_uniform_weights_is_whether_alpha_is_null(alpha, uniform):
    header = {"counts": {"sp": 2}, "alpha": alpha, "uniform_weights": uniform}
    with pytest.raises(CorpusInvariantError, match=r"^x: malformed header: uniform_weights "):
        check_totals("x", header, {"sp": 2})
    check_totals("x", {**header, "uniform_weights": alpha is None}, {"sp": 2})


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
        with pytest.raises(ParseError):
            read_corpus(p)

    def test_bad_record_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_records(self.sample_records(), p, {})
        lines = p.read_text().splitlines()
        lines[2] = "{broken"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":3:"):
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
        return build_index(facts, n_ent, n_rel), GenerationConfig(seed=4, hops=2)

    @pytest.mark.parametrize("task", ["sp", "ip", "khn", "lcc", "iva"])
    def test_worker_count_does_not_change_output(self, task, pools_made):
        g, cfg = self.run()
        base = generate_task_records(WorkerPool(g, cfg), task)
        assert pools_made == []
        with closing(WorkerPool(g, cfg, 3)) as run:
            multi = generate_task_records(run, task)
        assert len(pools_made) == 1
        assert multiprocessing.active_children() == []
        assert [r.to_json() for r in base.records] == [r.to_json() for r in multi.records]
        assert base.skipped == multi.skipped == (2 if task in ("khn", "lcc", "iva") else 0)

    def test_one_pool_serves_every_task_of_a_run(self, pools_made):
        g, cfg = self.run()
        base = {task: generate_task_records(WorkerPool(g, cfg), task).records for task in TASKS}
        with closing(WorkerPool(g, cfg, 3)) as run:
            multi = {task: generate_task_records(run, task).records for task in TASKS}
        assert len(pools_made) == 1
        assert multiprocessing.active_children() == []
        for task in TASKS:
            assert [r.to_json() for r in multi[task]] == [r.to_json() for r in base[task]]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_a_run_has_at_least_one_worker(self, workers, pools_made):
        g, cfg = self.run()
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            WorkerPool(g, cfg, workers)
        assert pools_made == []

    def test_task_state_is_built_once_per_task(self, monkeypatch):
        # at one worker each task runs in four chunks
        g, cfg = self.run()
        calls = []

        def count(name):
            real = getattr(corpus_mod, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(corpus_mod, name, counted)

        count("NeighborhoodIndex")
        count("information_gain_paths")
        generate_task_records(WorkerPool(g, cfg), "khn")
        assert calls == ["NeighborhoodIndex"]
        calls.clear()
        generate_task_records(WorkerPool(g, cfg), "ip")
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
    with closing(WorkerPool(g, GenerationConfig(seed=2, hops=2), workers)) as run:
        result = generate_task_records(run, task)
    assert result.skipped == len(lonely)
    centers = {int(r.provenance.split(":")[0][1:]) for r in result.records}
    assert centers == set(range(90)) - lonely


def test_path_items_cover_every_ordered_position_pair():
    # fact 1 duplicates fact 0; fact 2 has arity 3
    g = build_index([Fact(0, (0, 1)), Fact(0, (0, 1)), Fact(1, (0, 1, 2))], 3, 2)
    recs = generate_task_records(WorkerPool(g, GenerationConfig(seed=0)), "sp").records
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
            special("[SP]"), entity_token(f.entities[m]),
            relation_token(g, f.relation), entity_token(f.entities[p]),
        ]

    def targets(i, m, p):
        prefix = f"f{i:08d}:m{m:02d}:p{p:02d}:"
        return sorted(r.target for r in recs if r.provenance.startswith(prefix))

    r0, r1, eos = relation_token(g, 0), relation_token(g, 1), special("[EOS]")
    # each copy of the duplicate excludes only itself: the other copy
    # still joins 0 and 1 in one hop, as does the arity-3 fact
    for i in (0, 1):
        assert targets(i, 0, 1) == targets(i, 1, 0) == [[r0, eos], [r1, eos]]
    assert targets(2, 0, 1) == [[r0, eos]]
