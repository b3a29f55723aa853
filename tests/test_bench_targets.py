"""The benchmark's tracer wraps library callables by module attribute and
hooks some of their arguments by position. A renamed or removed target
silently drops per-layer metrics from a traced run; these tests fail
instead."""

import importlib.util
from pathlib import Path

from kgsignals.cli import main

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
    assert hooked <= {t.names[n] for n in t.name}
