"""The benchmark's tracer wraps library callables by module attribute and
hooks some of their arguments by position. A renamed or removed target
silently drops per-layer metrics from a traced run; these tests fail
instead."""

import importlib.util
from pathlib import Path

from kgsignals.cli import _read_tuples, main
from kgsignals.corpus import GenerationConfig
from kgsignals.graph import build_index
from kgsignals.ingest import Vocabulary
from kgsignals.paths import information_gain_paths

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrap_target_resolves():
    mod = _tracer_module()
    t = mod.Tracer()
    try:
        mod.install_wraps(t)
        assert t.absent == []
    finally:
        t.unwrap_all()


def test_hooks_fit_a_traced_run(tmp_path):
    train = tmp_path / "h.tsv"
    train.write_text("r\ta\tb\tc\nr\tb\tc\nq\tc\td\nq\td\ta\ns\ta\tc\n")
    data, out = tmp_path / "d", tmp_path / "o"
    mod = _tracer_module()
    t = mod.Tracer()
    try:
        mod.install_wraps(t)
        assert main(["ingest", "--train", str(train), "--kind", "hypergraph", "--out", str(data)]) == 0
        assert main(["generate", "all", "--data", str(data), "--out", str(out),
                     "--seed", "1", "--workers", "1"]) == 0
        assert main(["verify", *map(str, sorted(out.glob("*.jsonl")))]) == 0
    finally:
        t.unwrap_all()
    assert t.absent == [] and t.broken == set()
    # every span whose wrapper runs a counter hook was exercised
    hooked = {"corpus.sp", "paths.sp", "paths.ip_candidates", "paths.ground",
              "neighborhood.index", "neighborhood.ball", "corpus.read"}
    spans = [t.names[n] for n in t.name]
    assert hooked <= set(spans)
    # the khn and lcc targets are timed through these two methods; a
    # bypass would leave their per-layer metrics reading 0
    assert {"neighborhood.occurrence", "neighborhood.clustering"} <= set(spans)
    # the ground hook counts distinct candidate paths per call: one call
    # per (fact, masked position, partner position), each offered the
    # ip candidates of the fact's relation
    vocab = Vocabulary.load(data / "vocab.tsv")
    g = build_index(_read_tuples(data / "train.tuples"), vocab.num_entities, vocab.num_relations)
    pcfg = GenerationConfig(seed=1).path_config()
    offered = sum(
        f.arity * (f.arity - 1) * len(set(information_gain_paths(g, f.relation, pcfg)))
        for f in g.facts
    )
    assert spans.count("paths.ground") == sum(f.arity * (f.arity - 1) for f in g.facts)
    assert t.counts["paths.ground.offered"] == offered > 0
    assert t.counts["paths.ground.kept"] > 0
    assert spans.count("adjacency.perm") > 0
