import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kgsignals
from kgsignals import corpus as corpus_mod
from kgsignals.cli import main
from kgsignals.corpus import TaskRecord, read_corpus
from kgsignals.ingest import SPECIAL_TOKENS, Vocabulary

TRIPLES = """\
alice\tknows\tbob
bob\tknows\tcarol
alice\tworks_with\tcarol
carol\tknows\tdave
dave\tworks_with\talice
"""


@pytest.fixture
def dataset(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text(TRIPLES)
    return train


@pytest.fixture
def ingested(dataset, tmp_path):
    data = tmp_path / "data"
    assert main(["ingest", "--train", str(dataset), "--out", str(data)]) == 0
    return data


def test_ingest_outputs(ingested):
    assert (ingested / "vocab.tsv").exists()
    assert (ingested / "train.tuples").exists()
    stats = json.loads((ingested / "stats.json").read_text())
    assert stats["entities"] == 4
    assert stats["relations"] == 2
    assert stats["splits"] == {"train": 5}


def test_stats_prints_json(dataset, capsys):
    assert main(["stats", "--train", str(dataset)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entities"] == 4


def test_end_to_end_generate_mix_verify(ingested, tmp_path):
    out = tmp_path / "corpus"
    rc = main(["generate", "all", "--data", str(ingested), "--out", str(out),
               "--seed", "7", "--workers", "1"])
    assert rc == 0
    for name in ("sp", "ip", "khn", "iva", "lcc", "all"):
        assert (out / f"{name}.jsonl").exists()
    plan = json.loads((out / "mixplan.json").read_text())
    assert abs(sum(plan["alpha"].values()) - 1.0) < 1e-12
    header, records = read_corpus(out / "all.jsonl")
    assert len(records) == sum(plan["sizes"].values())
    assert main(["verify", str(out / "all.jsonl"), str(out / "sp.jsonl")]) == 0

    mixed = tmp_path / "remix.jsonl"
    rc = main(["mix", str(out / "sp.jsonl"), str(out / "khn.jsonl"),
               "--seed", "9", "--out", str(mixed)])
    assert rc == 0
    assert main(["verify", str(mixed)]) == 0


def test_no_command_imports_scipy(dataset, ingested, tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "lcc", "--data", str(ingested), "--out", str(out), "--seed", "7",
                 "--workers", "1"]) == 0
    lcc = str(out / "lcc.jsonl")
    # 40 triples give 80 sp items, enough for generate to fork its workers
    forked = tmp_path / "forked.tsv"
    forked.write_text("".join(f"e{i}\tr{i % 3}\te{(7 * i + 1) % 30}\n" for i in range(40)))
    steps = [
        ["ingest", "--train", str(dataset), "--out", str(tmp_path / "data2")],
        ["stats", "--train", str(dataset)],
        ["verify", lcc],
        ["mix", lcc, "--seed", "9", "--out", str(tmp_path / "remix.jsonl")],
        ["generate", "lcc", "--data", str(ingested), "--out", str(tmp_path / "corpus2"), "--seed", "7",
         "--workers", "1"],
        ["ingest", "--train", str(forked), "--out", str(tmp_path / "data3")],
        ["generate", "all", "--data", str(tmp_path / "data3"), "--out", str(tmp_path / "corpus3"), "--seed", "7",
         "--workers", "2"],
    ]
    # each command in turn in one fresh interpreter where importing scipy
    # raises, in the forked workers too
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from kgsignals.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    src = str(Path(kgsignals.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code, json.dumps(steps)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0] * len(steps), run.stderr


def test_workers_zero_counts_the_cpus_this_process_may_run_on(ingested, tmp_path, monkeypatch):
    asked = []
    real = corpus_mod.generate_task_records

    def recording(*args, workers, **kwargs):
        asked.append(workers)
        return real(*args, workers=1, **kwargs)

    monkeypatch.setattr("kgsignals.cli.generate_task_records", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    argv = ["generate", "lcc", "--data", str(ingested), "--seed", "7", "--workers", "0"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    # without an affinity call, the machine's count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert asked == [1, 8]


def test_same_seed_byte_identical(ingested, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                     "--seed", "3", "--workers", "1"]) == 0
        outs.append(out)
    for f in ("sp.jsonl", "ip.jsonl", "khn.jsonl", "iva.jsonl", "lcc.jsonl", "all.jsonl"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_usage_errors_exit_1(dataset, ingested, tmp_path, capsys):
    assert main(["nonsense"]) == 1
    assert main(["generate", "sp", "--data", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert main(["ingest", "--train", str(dataset)]) == 1  # no --out, no env var
    configs = []
    # a wrong type, not an object (two shapes), and a misspelt key
    for i, content in enumerate(['{"hops": "3"}', "3", '["seed"]', '{"seed": 1, "hop": 2}']):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(content)
        configs.append(["--config", str(cfg)])
    out = tmp_path / "bad_config_out"
    for bad in (["--hops", "0"], ["--hops", "-1"], ["--iva-cap", "0"], *configs,
                ["--workers", "-3"], ["--corruption-rate", "5"]):
        capsys.readouterr()
        argv = ["generate", "all", "--data", str(ingested), "--out", str(out), "--seed", "1"]
        if "--workers" not in bad:
            argv += ["--workers", "1"]
        assert main(argv + bad) == 1, bad
        assert capsys.readouterr().err.count("usage error") == 1, bad
        assert list(out.glob("*.jsonl")) == [], bad


def test_data_errors_exit_2(ingested, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only_two\tfields\n")
    assert main(["ingest", "--train", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["generate", "sp", "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
    tuples = ingested / "train.tuples"
    tuples.write_text("0\t0\t1\n0\tx\t2\n")
    out = tmp_path / "non_integer_out"
    capsys.readouterr()
    assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 2
    assert f"{tuples}:2:" in capsys.readouterr().err
    assert list(out.glob("*.jsonl")) == []
    # a malformed vocabulary: a header field without "=", a count that is
    # not an integer, a missing count, and a token id that is not an integer
    vocab = ingested / "vocab.tsv"
    good = vocab.read_text().splitlines()
    for i, (line, text) in enumerate([
        (0, "#kgsignals-vocab\tentities\trelations=2"),
        (0, "#kgsignals-vocab\tentities=four\trelations=2"),
        (0, "#kgsignals-vocab\tentities=4"),
        (3, "[SEP]\ttwo"),
    ]):
        vocab.write_text("\n".join(good[:line] + [text] + good[line + 1:]) + "\n")
        out = tmp_path / f"bad_vocab_{i}"
        capsys.readouterr()
        assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                     "--seed", "1", "--workers", "1"]) == 2, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {vocab}:{line + 1}:"), (text, err)
        assert list(out.glob("*.jsonl")) == [], text
    # a config file that is not UTF-8
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1, "hops": \xff}')
    out = tmp_path / "bad_config"
    capsys.readouterr()
    assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                 "--config", str(cfg), "--workers", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {cfg}: "), err
    assert not out.exists()


# (command, file given a line 2 that is not UTF-8): every input file is
# read by one line reader, which names the file, line and column
BAD_BYTES = ["triples", "hypergraph", "tuples", "vocab", "verify", "mix"]


@pytest.mark.parametrize("command", BAD_BYTES)
def test_bytes_that_are_not_utf8_exit_2_naming_the_line(dataset, ingested, tmp_path, capsys, command):
    out = tmp_path / "o"
    if command in ("triples", "hypergraph"):
        path = dataset
        argv = ["ingest", "--train", str(path), "--kind", command, "--out", str(out)]
    elif command in ("tuples", "vocab"):
        path = ingested / ("train.tuples" if command == "tuples" else "vocab.tsv")
        argv = ["generate", "all", "--data", str(ingested), "--out", str(out), "--seed", "1", "--workers", "1"]
    else:
        corpora = tmp_path / "c"
        assert main(["generate", "lcc", "--data", str(ingested), "--out", str(corpora),
                     "--seed", "1", "--workers", "1"]) == 0
        path = corpora / "lcc.jsonl"
        argv = ["verify", str(path)] if command == "verify" else ["mix", str(path), "--seed", "1", "--out", str(out)]
    lines = path.read_bytes().split(b"\n")
    # a valid two-byte character, then a byte that starts no character
    lines[1] = lines[1][:1] + "\u00e9".encode() + b"\xff" + lines[1][1:]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    err = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("INFO")]
    assert err == [f"data error: {path}:2: not UTF-8 at column 3"]
    assert not out.exists() or list(out.iterdir()) == []


def test_names_with_unicode_line_separators_round_trip(tmp_path):
    # NEL, LINE SEPARATOR, FF and FS break lines for str.splitlines(),
    # but a line of an input file ends only at LF, CRLF or CR
    names = ["a\u0085b", "c\u2028d", "e\x0cf", "g\x1ch"]
    train = tmp_path / "train.tsv"
    train.write_text("".join(f"{names[i]}\t{names[(i + 1) % 4]}\t{names[(i + 2) % 4]}\n" for i in range(4)),
                     encoding="utf-8")
    data, out = tmp_path / "d", tmp_path / "o"
    assert main(["ingest", "--train", str(train), "--out", str(data)]) == 0
    assert main(["generate", "all", "--data", str(data), "--out", str(out), "--seed", "1", "--workers", "1"]) == 0
    assert main(["verify", *map(str, sorted(out.glob("*.jsonl")))]) == 0
    vocab = Vocabulary.load(data / "vocab.tsv")
    assert sorted(vocab.entities) == sorted(vocab.relations) == sorted(names)


def test_failed_ingest_leaves_no_file(dataset, tmp_path, capsys, monkeypatch):
    def failing_stats(vocab, splits):
        raise OSError("disk full")

    monkeypatch.setattr("kgsignals.cli.compute_stats", failing_stats)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["ingest", "--train", str(dataset), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["data error: disk full"]
    assert list(out.iterdir()) == []


@pytest.fixture
def wide(tmp_path):
    """An ingested random graph with enough facts and entities (>= 64
    work items per task) that a worker pool splits every task."""
    rng = random.Random(5)
    lines = [f"e{rng.randrange(90)}\tr{rng.randrange(4)}\te{rng.randrange(90)}" for _ in range(160)]
    train = tmp_path / "wide.tsv"
    train.write_text("\n".join(lines) + "\n")
    data = tmp_path / "wide_data"
    assert main(["ingest", "--train", str(train), "--out", str(data)]) == 0
    return data


def test_generate_all_is_byte_identical_across_worker_counts(wide, tmp_path, pools_made):
    outs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        pools_made.clear()
        assert main(["generate", "all", "--data", str(wide), "--out", str(out),
                     "--seed", "4", "--workers", str(workers)]) == 0
        # one pool serves all five tasks, and no worker outlives the run
        assert len(pools_made) == (workers > 1)
        assert multiprocessing.active_children() == []
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outs[0]) == ["all.jsonl", "ip.jsonl", "iva.jsonl", "khn.jsonl", "lcc.jsonl",
                               "mixplan.json", "sp.jsonl"]
    assert outs[0] == outs[1] == outs[2]


def test_records_come_in_item_order_past_the_provenance_widths(wide, tmp_path):
    # with --hops 10 the radius takes two digits: the records of each
    # centre still run h1 ... h10, not h1, h10, h2, ...
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(["generate", "lcc", "--data", str(wide), "--out", str(out),
                     "--seed", "4", "--hops", "10", "--workers", str(workers)]) == 0
        outs.append((out / "lcc.jsonl").read_bytes())
    assert outs[0] == outs[1]
    _, records = read_corpus(tmp_path / "w1" / "lcc.jsonl")
    provs = [r.provenance.split(":") for r in records]
    centers = list(dict.fromkeys(c for c, _ in provs))
    assert centers == sorted(centers)
    assert provs == [[c, f"h{h}"] for c in centers for h in range(1, 11)]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_generate_leaves_no_file(wide, tmp_path, capsys, monkeypatch, workers):
    real_chunk_fn = corpus_mod._chunk_fn

    def chunk_fn(g, vocab, cfg, task):
        if task != "ip":
            return real_chunk_fn(g, vocab, cfg, task)
        # an ip record whose input does not start with the [IP] token
        return lambda items: [TaskRecord("ip", [0], "tokens", [0], "f00000000:m00:p01:x0000")]

    monkeypatch.setattr(corpus_mod, "_chunk_fn", chunk_fn)
    out = tmp_path / "o"
    capsys.readouterr()
    # sp is written before ip fails
    assert main(["generate", "all", "--data", str(wide), "--out", str(out),
                 "--seed", "1", "--workers", str(workers)]) == 3
    err = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("INFO")]
    assert len(err) == 1, err
    assert (f"{out / 'ip.jsonl'} (not written): record f00000000:m00:p01:x0000: "
            "input does not start with its task token") in err[0]
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_corrupted_corpus_exit_3(ingested, tmp_path):
    out = tmp_path / "c"
    assert main(["generate", "sp", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / "sp.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["target"]["value"] = [999999]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 3


_EOS = SPECIAL_TOKENS.index("[EOS]")


def _target(kind, value):
    return lambda r: {**r, "target": {"kind": kind, "value": value}}


def _header(section, key, value):
    return lambda h: {**h, section: {**h[section], key: value}}


# (corpus file, line mutated, mutation, verify exit code, mix exit code).
# A record that is not an object or has a field of the wrong shape is a
# data error when read. A header or record that reads but breaks the
# record contract is an invariant violation: verify finds it, and mix
# refuses to write the mixture. Both name the corpus that holds it.
MALFORMED = [
    pytest.param("khn", 1, lambda r: [1, 2], 2, 2, id="record_not_object"),
    pytest.param("khn", 1, _target("dist", [1]), 2, 2, id="dist_target_not_pairs"),
    pytest.param("lcc", 1, _target("scalar", "x"), 3, 3, id="scalar_target_not_number"),
    pytest.param("khn", 1, _target("dist", [[1]]), 3, 3, id="dist_pair_too_short"),
    pytest.param("khn", 1, _target("dist", [[7, "p"]]), 3, 3, id="dist_probability_not_number"),
    pytest.param("khn", 0, _header("config", "max_len", "x"), 3, 3, id="header_max_len_not_int"),
    pytest.param("khn", 0, _header("vocab_sizes", "entities", "4"), 3, 3, id="header_vocab_size_not_int"),
    pytest.param("lcc", 0, _header("config", "lcc_weighted", "yes"), 3, 3, id="header_lcc_weighted_not_bool"),
    # input[1] is the centre's entity token
    pytest.param("khn", 1, lambda r: _target("dist", [[r["input"][1], float("nan")]])(r), 3, 3,
                 id="dist_probability_nan"),
    # the input's relation token plus 0.5 lies inside the relation range
    pytest.param("sp", 1, lambda r: _target("tokens", [r["input"][2] + 0.5, _EOS])(r), 3, 3,
                 id="path_token_not_int"),
    pytest.param("sp", 1, lambda r: {**r, "input": [float(r["input"][0])] + r["input"][1:]}, 3, 3,
                 id="task_token_not_int"),
    pytest.param("khn", 0, lambda h: {**h, "version": 2}, 2, 2, id="header_other_version"),
    pytest.param("lcc", 1, _target("scalar", 10**400), 3, 3, id="scalar_target_too_large_for_float"),
]


@pytest.mark.parametrize("task,line,mutate,verify_rc,mix_rc", MALFORMED)
def test_malformed_record_exits_with_one_line(
    ingested, tmp_path, capsys, task, line, mutate, verify_rc, mix_rc
):
    out = tmp_path / "c"
    assert main(["generate", task, "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / f"{task}.jsonl"
    lines = path.read_text().splitlines()
    lines[line] = json.dumps(mutate(json.loads(lines[line])))
    path.write_text("\n".join(lines) + "\n")
    mixed = tmp_path / "mixed.jsonl"
    for argv, rc in ((["verify", str(path)], verify_rc),
                     (["mix", str(path), "--seed", "1", "--out", str(mixed)], mix_rc)):
        capsys.readouterr()
        assert main(argv) == rc, argv
        err = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("INFO")]
        if rc == 0:
            assert err == [], argv
            continue
        assert len(err) == 1, (argv, err)
        if rc == 2:
            assert f"{path}:{line + 1}:" in err[0]
        elif line == 0:
            assert f"{path}: malformed header: " in err[0]
        else:
            assert f"{path}: record {line - 1}: " in err[0]
    assert mixed.exists() == (mix_rc == 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "data", "train.tsv"]


def _config(tmp_path, **values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


def test_clipped_path_inputs_pass_verify(ingested, tmp_path):
    # sp and ip inputs are four tokens: [SP|IP] e_i r e_j
    out = tmp_path / "o"
    assert main(["generate", "all", "--data", str(ingested), "--out", str(out), "--workers", "1",
                 "--config", _config(tmp_path, seed=1, max_len=3)]) == 0
    corpora = sorted(str(p) for p in out.glob("*.jsonl"))
    assert len(corpora) == 6
    assert main(["verify", *corpora]) == 0


def test_weighted_lcc_above_one_passes_verify(ingested, tmp_path):
    out = tmp_path / "o"
    assert main(["generate", "lcc", "--data", str(ingested), "--out", str(out), "--workers", "1",
                 "--config", _config(tmp_path, seed=1, lcc_weighted=True)]) == 0
    path = out / "lcc.jsonl"
    _, records = read_corpus(path)
    assert max(r.target for r in records) > 1
    assert main(["verify", str(path)]) == 0
    # the same records under the unweighted bound break the contract
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(_header("config", "lcc_weighted", False)(json.loads(lines[0])))
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 3


def test_mix_rejects_corpora_of_different_vocabularies(ingested, tmp_path, capsys):
    other = tmp_path / "other.tsv"
    other.write_text("xavier\tlikes\tyvonne\nyvonne\tlikes\tzoe\n")
    other_data = tmp_path / "other_data"
    assert main(["ingest", "--train", str(other), "--out", str(other_data)]) == 0
    corpora = []
    for name, data in (("a", ingested), ("b", other_data)):
        out = tmp_path / name
        assert main(["generate", "sp", "--data", str(data), "--out", str(out),
                     "--seed", "1", "--workers", "1"]) == 0
        corpora.append(str(out / "sp.jsonl"))
    mixed = tmp_path / "mixed.jsonl"
    capsys.readouterr()
    assert main(["mix", *corpora, "--seed", "1", "--out", str(mixed)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "vocab_hash" in err[0] and f"{corpora[1]}:1:" in err[0]
    assert not mixed.exists()
    # the same vocabulary still mixes
    assert main(["mix", corpora[0], corpora[0], "--seed", "1", "--out", str(mixed)]) == 0


def _drop_last_record(tmp_path, ingested):
    out = tmp_path / "c"
    assert main(["generate", "khn", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / "khn.jsonl"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    return [path], f"{path}: header counts "


def _change_one_weight(tmp_path, ingested):
    out = tmp_path / "c"
    assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / "all.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "weight": 0.5})
    path.write_text("\n".join(lines) + "\n")
    return [path], f"{path}: record 0: weight 0.5 != alpha"


def _two_max_lens(tmp_path, ingested):
    paths = []
    for name, max_len in (("a", 1024), ("b", 3)):
        out = tmp_path / name
        assert main(["generate", "sp", "--data", str(ingested), "--out", str(out), "--workers", "1",
                     "--config", _config(tmp_path, seed=1, max_len=max_len)]) == 0
        paths.append(out / "sp.jsonl")
    return paths, f"{paths[1]}:1: "


def _two_hops(tmp_path, ingested):
    paths = []
    for name, hops in (("a", "1"), ("b", "3")):
        out = tmp_path / name
        assert main(["generate", "khn", "--data", str(ingested), "--out", str(out),
                     "--seed", "1", "--hops", hops, "--workers", "1"]) == 0
        paths.append(out / "khn.jsonl")
    return paths, f"{paths[1]}:1: config differs from that of {paths[0]} in ['hops']"


# (inputs, verify exit code, mix exit code). verify checks each corpus
# alone, so only mix refuses corpora whose configs (other than the seed)
# or record bounds differ: the mixture's header could not describe all
# of their records.
REFUSED = [
    pytest.param(_drop_last_record, 3, 3, id="counts_short_of_header"),
    pytest.param(_change_one_weight, 3, 3, id="weight_not_alpha"),
    pytest.param(_two_max_lens, 0, 2, id="different_max_len"),
    pytest.param(_two_hops, 0, 2, id="different_hops"),
]


@pytest.mark.parametrize("make_inputs,verify_rc,mix_rc", REFUSED)
def test_mix_refuses_what_verify_refuses(ingested, tmp_path, capsys, make_inputs, verify_rc, mix_rc):
    paths, message = make_inputs(tmp_path, ingested)
    inputs = [str(p) for p in paths]
    mixed = tmp_path / "mixed.jsonl"
    for argv, rc in ((["verify", *inputs], verify_rc),
                     (["mix", *inputs, "--seed", "1", "--out", str(mixed)], mix_rc)):
        capsys.readouterr()
        assert main(argv) == rc, argv
        err = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("INFO")]
        assert len(err) == (rc != 0), (argv, err)
        assert rc == 0 or message in err[0], (argv, err)
    assert not mixed.exists()


def test_mix_takes_corpora_of_different_seeds(ingested, tmp_path):
    paths = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["generate", "iva", "--data", str(ingested), "--out", str(out),
                     "--seed", seed, "--workers", "1"]) == 0
        paths.append(out / "iva.jsonl")
    mixed = tmp_path / "mixed.jsonl"
    assert main(["mix", *map(str, paths), "--seed", "9", "--out", str(mixed)]) == 0
    first, _ = read_corpus(paths[0])
    header, records = read_corpus(mixed)
    # the first input's config, and the mix seed on top
    assert header["config"] == first["config"] and header["config"]["seed"] == 1
    assert header["config_hash"] == first["config_hash"]
    assert header["seed"] == 9
    assert header["counts"] == {"iva": 2 * first["counts"]["iva"]} == {"iva": len(records)}


def test_generate_on_edgeless_graph_warns_and_succeeds(tmp_path, caplog):
    train = tmp_path / "train.tsv"
    train.write_text("a\tr\tb\n")
    data = tmp_path / "d"
    assert main(["ingest", "--train", str(train), "--out", str(data)]) == 0
    out = tmp_path / "o"
    # excluding the only fact disconnects every query, but generation
    # still succeeds and writes the corpora
    assert main(["generate", "all", "--data", str(data), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    assert (out / "all.jsonl").exists()


def test_config_file_and_flag_precedence(ingested, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "hops": 2, "beam_k": 2}))
    out = tmp_path / "o"
    assert main(["generate", "khn", "--data", str(ingested), "--out", str(out),
                 "--config", str(cfg), "--hops", "1", "--workers", "1"]) == 0
    header, _ = read_corpus(out / "khn.jsonl")
    assert header["seed"] == 5
    assert header["config"]["hops"] == 1  # flag wins
    assert header["config"]["beam_k"] == 2  # file fills the rest


def test_outdir_env_var(ingested, tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("KGSIGNALS_OUTDIR", str(out))
    assert main(["generate", "lcc", "--data", str(ingested), "--seed", "2",
                 "--workers", "1"]) == 0
    assert (out / "lcc.jsonl").exists()


def test_hypergraph_kind(tmp_path):
    train = tmp_path / "h.tsv"
    train.write_text("deal\tbuyer\tseller\titem\ndeal\tbuyer\titem\tprice\n")
    data = tmp_path / "d"
    assert main(["ingest", "--train", str(train), "--kind", "hypergraph",
                 "--out", str(data)]) == 0
    stats = json.loads((data / "stats.json").read_text())
    assert stats["max_arity"] == 3
    out = tmp_path / "o"
    assert main(["generate", "sp", "--data", str(data), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    assert main(["verify", str(out / "sp.jsonl")]) == 0
