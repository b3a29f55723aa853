import hashlib
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
from kgsignals.records import TASKS, GenerationConfig, TaskRecord, read_corpus
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


def test_stats_prints_json(dataset, tmp_path, capsys):
    assert main(["stats", "--train", str(dataset), "--valid", str(dataset)]) == 0
    printed = capsys.readouterr().out
    # ingest prints the same object and writes it to stats.json
    data = tmp_path / "d"
    assert main(["ingest", "--train", str(dataset), "--valid", str(dataset), "--out", str(data)]) == 0
    assert capsys.readouterr().out == printed
    assert json.loads((data / "stats.json").read_text()) == json.loads(printed) == {
        "entities": 4, "relations": 2, "splits": {"train": 5, "valid": 5},
        "tuples_per_entity": 2.5, "avg_degree": 2.5, "max_arity": 2,
    }


def test_end_to_end_generate_mix_verify(ingested, tmp_path, capsys):
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
    assert plan == {"sizes": header["counts"], "alpha": header["alpha"], "seed": header["seed"]}
    assert main(["verify", str(out / "all.jsonl"), str(out / "sp.jsonl")]) == 0

    mixed = tmp_path / "remix.jsonl"
    rc = main(["mix", str(out / "sp.jsonl"), str(out / "khn.jsonl"),
               "--seed", "9", "--out", str(mixed)])
    assert rc == 0
    assert main(["verify", str(mixed)]) == 0
    # a mixture mixes again, with the task corpora of its run too
    capsys.readouterr()
    assert main(["mix", str(out / "all.jsonl"), str(out / "sp.jsonl"), "--seed", "9", "--out", str(mixed)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert main(["verify", str(mixed)]) == 0
    header, records = read_corpus(mixed)
    plan["sizes"]["sp"] *= 2
    assert printed == {"sizes": header["counts"], "alpha": header["alpha"]}
    assert header["counts"] == plan["sizes"] and sum(plan["sizes"].values()) == len(records)
    assert header["seed"] == 9 and header["config"]["seed"] == 7


def _subprocess_env(**extra):
    src = str(Path(kgsignals.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_in_fresh_interpreter(code: str, steps: list) -> list:
    """The JSON list that ``code`` prints last, run with the CLI steps as
    its one argument."""
    run = subprocess.run([sys.executable, "-c", code, json.dumps(steps)], capture_output=True, text=True,
                         env=_subprocess_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_no_command_imports_scipy(dataset, ingested, tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "lcc", "--data", str(ingested), "--out", str(out), "--seed", "7",
                 "--workers", "1"]) == 0
    lcc = str(out / "lcc.jsonl")
    # 40 triples give 80 sp items, enough for generate to fork its workers
    forked = tmp_path / "forked.tsv"
    forked.write_text("".join(f"e{i}\tr{i % 3}\te{(7 * i + 1) % 30}\n" for i in range(40)))
    without_numpy = [
        ["ingest", "--train", str(dataset), "--out", str(tmp_path / "data2")],
        ["stats", "--train", str(dataset)],
        ["verify", lcc],
        ["mix", lcc, "--seed", "9", "--out", str(tmp_path / "remix.jsonl")],
        ["ingest", "--train", str(forked), "--out", str(tmp_path / "data3")],
    ]
    # the package and the CLI import without numpy, every command but
    # generate runs in an interpreter where importing numpy raises, and
    # none of them loads a module of the generation code
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import kgsignals, kgsignals.cli\n"
        "loaded = 'numpy' in sys.modules\n"
        "sys.modules['numpy'] = None\n"
        "codes = [kgsignals.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "generation = [m for m in ('paths', 'corpus', 'neighborhood', 'adjacency')\n"
        "              if 'kgsignals.' + m in sys.modules]\n"
        "print(json.dumps([loaded, generation] + codes))\n"
    )
    assert _run_in_fresh_interpreter(code, without_numpy) == [False, []] + [0] * len(without_numpy)
    generate = [
        ["generate", "lcc", "--data", str(ingested), "--out", str(tmp_path / "corpus2"), "--seed", "7",
         "--workers", "1"],
        ["generate", "all", "--data", str(tmp_path / "data3"), "--out", str(tmp_path / "corpus3"), "--seed", "7",
         "--workers", "2"],
    ]
    # generate in one fresh interpreter where importing scipy raises, in
    # the forked workers too
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from kgsignals.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    assert _run_in_fresh_interpreter(code, generate) == [0] * len(generate)


def test_output_does_not_depend_on_the_string_hash_seed(tmp_path):
    # string names hash differently under each PYTHONHASHSEED; ingest and
    # a forked generate must not let that order reach any output byte
    rng = random.Random(3)
    train = tmp_path / "train.tsv"
    train.write_text("".join(
        "\t".join([f"rel-{rng.randrange(7)}"] + [f"ent {rng.randrange(60)}" for _ in range(rng.randint(2, 4))])
        + "\n"
        for _ in range(120)
    ))
    outputs = []
    for hash_seed in ("1", "2"):
        data, out = tmp_path / f"data{hash_seed}", tmp_path / f"out{hash_seed}"
        env = _subprocess_env(PYTHONHASHSEED=hash_seed)
        for argv in (["ingest", "--train", str(train), "--kind", "hypergraph", "--out", str(data)],
                     ["generate", "all", "--data", str(data), "--out", str(out), "--seed", "5", "--workers", "2"]):
            run = subprocess.run([sys.executable, "-m", "kgsignals.cli", *argv], capture_output=True, text=True,
                                 env=env, timeout=300)
            assert run.returncode == 0, run.stderr
        outputs.append({p.relative_to(tmp_path / d).as_posix(): p.read_bytes()
                        for d in (data.name, out.name) for p in sorted((tmp_path / d).iterdir())})
    assert sorted(outputs[0]) == ["all.jsonl", "ip.jsonl", "iva.jsonl", "khn.jsonl", "lcc.jsonl", "mixplan.json",
                                  "sp.jsonl", "stats.json", "train.tuples", "vocab.tsv"]
    assert outputs[0] == outputs[1]


def test_readme_library_block_runs():
    # the README's imports name each library name's own module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


@pytest.fixture
def workers_asked(monkeypatch):
    """The worker count of each WorkerPool the CLI makes; every run goes
    on with one worker, so nothing forks."""
    asked = []

    def recording(g, cfg, workers):
        asked.append(workers)
        return corpus_mod.WorkerPool(g, cfg)

    monkeypatch.setattr("kgsignals.cli.WorkerPool", recording)
    return asked


def test_workers_zero_counts_the_cpus_this_process_may_run_on(ingested, tmp_path, monkeypatch, workers_asked):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    argv = ["generate", "lcc", "--data", str(ingested), "--seed", "7", "--workers", "0"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    # without an affinity call, the machine's count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert workers_asked == [1, 8]


def test_workers_are_capped_at_the_usable_cpus(ingested, tmp_path, monkeypatch, workers_asked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for workers in ("64", "2"):
        assert main(["generate", "lcc", "--data", str(ingested), "--seed", "7", "--workers", workers,
                     "--out", str(tmp_path / workers)]) == 0
    assert workers_asked == [3, 2]


def test_sp_inputs_name_their_fact_through_the_ingested_vocabulary(ingested, tmp_path):
    # generation reads no vocabulary: its token ids must still be those
    # that ingest wrote to vocab.tsv
    out = tmp_path / "o"
    assert main(["generate", "sp", "--data", str(ingested), "--out", str(out), "--seed", "1",
                 "--workers", "1"]) == 0
    names = dict(reversed(line.split("\t")) for line in (ingested / "vocab.tsv").read_text().splitlines()[1:])
    _, records = read_corpus(out / "sp.jsonl")
    assert records
    for r in records:
        i, m, p = (int(x[1:]) for x in r.provenance.split(":")[:3])
        h, rel, t = TRIPLES.splitlines()[i].split("\t")
        assert [names[str(tok)] for tok in r.input_tokens[:4]] == ["[SP]", (h, t)[m], rel, (h, t)[p]]


def test_same_seed_byte_identical(ingested, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                     "--seed", "3", "--workers", "1"]) == 0
        outs.append(out)
    for f in ("sp.jsonl", "ip.jsonl", "khn.jsonl", "iva.jsonl", "lcc.jsonl", "all.jsonl"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


# SHA-256 of each file that `generate all --seed 1 --workers 1` writes
# from a 5-fact hypergraph of arity 2 and 3, in which every task has
# records. The corpus bytes are part of the format: a change that means
# to change them, such as a fix to Vocabulary.hash, re-pins these values
# and says so in CHANGES.md.
PINNED_HYPERGRAPH = "r\ta\tb\tc\nr\tb\tc\nq\tc\td\nq\td\ta\ns\ta\tc\n"
PINNED_SHA256 = {
    "all.jsonl": "11a7522ab48825fad11bfdb112b2f82170ba79dd7384c2f9dc7569cb6467df46",
    "ip.jsonl": "8a7b9dd0051ac7b20556f0eeff04a140aeb5694c7b95458b7a5d86c6c71eb0e5",
    "iva.jsonl": "73a31dd555a0f0e67de482f28c1ae45c32a1dae6e69e7a8902027a63adc45b82",
    "khn.jsonl": "15e8f2195d3958bc0075580e3928192bb23d0ac55c7e96fe665de6c33bb6cbf1",
    "lcc.jsonl": "cb932763c9d1c65f7e58a638e641abfbf6ce3f75d114a0c683a7e863539208c3",
    "mixplan.json": "f7911c26dd3cc0d842e6ac2ab451617b37279f9db10b1fef40cf03f0d2b6e463",
    "sp.jsonl": "2064cc576c8dae09423505b9109ecbd4ba0873ddefcb9944554e81b0a21b6116",
}


def test_corpus_bytes_are_pinned(tmp_path):
    train, data, out = tmp_path / "h.tsv", tmp_path / "d", tmp_path / "o"
    train.write_text(PINNED_HYPERGRAPH)
    assert main(["ingest", "--train", str(train), "--kind", "hypergraph", "--out", str(data)]) == 0
    assert main(["generate", "all", "--data", str(data), "--out", str(out), "--seed", "1", "--workers", "1"]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == PINNED_SHA256


def test_usage_errors_exit_1(dataset, ingested, tmp_path, capsys):
    assert main(["nonsense"]) == 1
    assert main(["generate", "sp", "--data", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert main(["ingest", "--train", str(dataset)]) == 1  # no --out, no env var
    configs = []
    # a wrong type, not an object (two shapes), a misspelt key and a bound
    files = ['{"hops": "3"}', "3", '["seed"]', '{"seed": 1, "hop": 2}', '{"seed": 1, "max_len": 0}']
    for i, content in enumerate(files):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(content)
        configs.append(["--config", str(cfg)])
    out = tmp_path / "bad_config_out"
    for bad in (["--hops", "0"], ["--hops", "-1"], ["--iva-cap", "0"], ["--beam-k", "0"], ["--sp-cap", "0"],
                ["--max-hops", "0"], *configs, ["--workers", "-3"], ["--corruption-rate", "5"]):
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
    # not an integer, a missing count, a negative count, a token id that
    # is not an integer,
    # and an entity or a relation listed twice, which read as it stands
    # would shift every id after it
    vocab = ingested / "vocab.tsv"
    good = vocab.read_text().splitlines()
    assert good[11:16] == ["alice\t10", "bob\t11", "carol\t12", "dave\t13", "knows\t14"]
    for i, (line, text) in enumerate([
        (0, "#kgsignals-vocab\tentities\trelations=2"),
        (0, "#kgsignals-vocab\tentities=four\trelations=2"),
        (0, "#kgsignals-vocab\tentities=4"),
        # read as it stands, the entity names would load as relations 1-7
        (0, "#kgsignals-vocab\tentities=-1\trelations=7"),
        (3, "[SEP]\ttwo"),
        (12, "alice\t11"),
        (16, "knows\t15"),
    ]):
        vocab.write_text("\n".join(good[:line] + [text] + good[line + 1:]) + "\n")
        out = tmp_path / f"bad_vocab_{i}"
        capsys.readouterr()
        assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                     "--seed", "1", "--workers", "1"]) == 2, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {vocab}:{line + 1}:"), (text, err)
        assert list(out.glob("*.jsonl")) == [], text
    # a config file that is not UTF-8, and one nested too deeply for json
    # to decode
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "bad_config"
    for content in (b'{"seed": 1, "hops": \xff}', b"[" * 100_000):
        cfg.write_bytes(content)
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


def test_generate_all_is_byte_identical_across_worker_counts(wide, tmp_path, pools_made, monkeypatch):
    # three usable CPUs, so that no count below is capped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
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

    def chunk_fn(g, cfg, task):
        if task != "ip":
            return real_chunk_fn(g, cfg, task)
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


def test_empty_generate_all_leaves_no_earlier_mixture(ingested, tmp_path, monkeypatch):
    out, empty_train, empty = tmp_path / "o", tmp_path / "empty.tsv", tmp_path / "empty"
    argv = ["generate", "all", "--out", str(out), "--seed", "1", "--workers", "1", "--data"]
    assert main(argv + [str(ingested)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "all.jsonl" in before and "mixplan.json" in before
    empty_train.write_text("")
    assert main(["ingest", "--train", str(empty_train), "--out", str(empty)]) == 0
    # a failed run changes nothing
    real_write = kgsignals.cli.write_corpus

    def failing_write(path, header, lines):
        if ".lcc.jsonl." in str(path):
            raise OSError("disk full")
        return real_write(path, header, lines)

    with monkeypatch.context() as m:
        m.setattr("kgsignals.cli.write_corpus", failing_write)
        assert main(argv + [str(empty)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # a run that succeeds leaves only the files it wrote: five empty task corpora
    assert main(argv + [str(empty)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{t}.jsonl" for t in TASKS)
    assert main(["verify", *map(str, sorted(out.iterdir()))]) == 0


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


def _field(key, value):
    return lambda r: {**r, key: value}


def _input(i, token):
    return lambda r: {**r, "input": r["input"][:i] + [token] + r["input"][i + 1:]}


def _raw(key, text):
    """A mutation that sets ``key`` to the raw JSON ``text``, a value that
    json.dumps cannot write."""
    return lambda d: json.dumps({**d, key: None}).replace(f'"{key}": null', f'"{key}": {text}', 1)


def _rehashed(mutate):
    """``mutate``, then the header's config_hash made its new config's."""
    def rehash(h):
        h = mutate(h)
        return {**h, "config_hash": GenerationConfig(**h["config"]).hash()}

    return rehash


def _case(task, line, mutate, verify_rc, mix_rc, id, named=None):
    """A MALFORMED case; ``named`` is what its one error line names after
    the corpus path, where that is not the line mutated."""
    return pytest.param(task, line, mutate, verify_rc, mix_rc, named, id=id)


# (corpus file, line mutated, mutation, verify exit code, mix exit code).
# A mutation returns the line's new JSON value, or its new text as a
# string. A line that is not JSON, that json cannot decode, or a record
# that is not an object or lacks a key is a data error when read. A
# header or record that reads but breaks the record contract, a field of
# the wrong shape included, is an invariant violation: verify finds it,
# and mix refuses to write the mixture. Both name the corpus that holds
# it.
MALFORMED = [
    _case("khn", 1, lambda r: [1, 2], 2, 2, id="record_not_object"),
    # nested past the recursion limit, or an integer past Python's digit
    # limit: json raises RecursionError or ValueError, not JSONDecodeError
    _case("khn", 1, lambda r: "[" * 100_000, 2, 2, id="record_nested_too_deeply"),
    _case("khn", 0, lambda h: "[" * 100_000, 2, 2, id="header_nested_too_deeply"),
    _case("khn", 1, _raw("target", "9" * 5000), 2, 2, id="record_int_past_digit_limit"),
    _case("khn", 0, _raw("version", "9" * 5000), 2, 2, id="header_int_past_digit_limit"),
    _case("khn", 1, _target("dist", [1]), 3, 3, id="dist_target_not_pairs"),
    _case("khn", 1, _field("input", 5), 3, 3, id="input_not_list"),
    _case("sp", 1, _target("tokens", 5), 3, 3, id="token_target_not_list"),
    _case("lcc", 1, _target("scalar", "x"), 3, 3, id="scalar_target_not_number"),
    _case("khn", 1, _target("dist", [[1]]), 3, 3, id="dist_pair_too_short"),
    _case("khn", 1, _target("dist", [[7, "p"]]), 3, 3, id="dist_probability_not_number"),
    _case("khn", 0, _header("config", "max_len", "x"), 3, 3, id="header_max_len_not_int"),
    _case("khn", 0, _header("vocab_sizes", "entities", "4"), 3, 3, id="header_vocab_size_not_int"),
    _case("lcc", 0, _header("config", "lcc_weighted", "yes"), 3, 3, id="header_lcc_weighted_not_bool"),
    # a header's config is a GenerationConfig's fields, checked as a
    # --config file's are; vocab_sizes is the 10 specials and two counts
    _case("khn", 0, _field("config", []), 3, 3, id="header_config_list"),
    _case("khn", 0, _field("config", None), 3, 3, id="header_config_null"),
    _case("khn", 0, lambda h: {k: v for k, v in h.items() if k != "config"}, 3, 3,
                 id="header_config_missing"),
    _case("khn", 0, _header("config", "hop", 2), 3, 3, id="header_config_unknown_key"),
    _case("khn", 0, _header("config", "max_hops", 0), 3, 3, id="header_max_hops_zero"),
    _case("khn", 0, _field("vocab_sizes", None), 3, 3, id="header_vocab_sizes_null"),
    _case("khn", 0, _header("vocab_sizes", "specials", 0), 3, 3, id="header_specials_zero"),
    # input[1] is the centre's entity token
    _case("khn", 1, lambda r: _target("dist", [[r["input"][1], float("nan")]])(r), 3, 3,
                 id="dist_probability_nan"),
    # the input's relation token plus 0.5 lies inside the relation range
    _case("sp", 1, lambda r: _target("tokens", [r["input"][2] + 0.5, _EOS])(r), 3, 3,
                 id="path_token_not_int"),
    _case("sp", 1, lambda r: {**r, "input": [float(r["input"][0])] + r["input"][1:]}, 3, 3,
                 id="task_token_not_int"),
    _case("khn", 0, lambda h: {**h, "version": 2}, 2, 2, id="header_other_version"),
    _case("lcc", 1, _target("scalar", 10**400), 3, 3, id="scalar_target_too_large_for_float"),
    # every input token is an int in [0, relation top + value_ceiling]
    _case("sp", 1, _input(1, "x"), 3, 3, id="input_token_not_int"),
    _case("sp", 1, _input(1, -7), 3, 3, id="input_token_negative"),
    _case("sp", 1, _input(1, 10**9), 3, 3, id="input_token_past_value_tokens"),
    _case("iva", 1, _input(1, True), 3, 3, id="input_token_bool"),
    _case("khn", 0, _header("config", "value_ceiling", "x"), 3, 3, id="header_value_ceiling_not_int"),
    # each task has one target kind
    _case("lcc", 1, _target("label", 1), 3, 3, id="lcc_target_kind_label"),
    _case("sp", 1, _target("scalar", 0.5), 3, 3, id="sp_target_kind_scalar"),
    _case("lcc", 1, _target("scalar", "0.5"), 3, 3, id="scalar_target_string"),
    _case("lcc", 1, _target("scalar", True), 3, 3, id="scalar_target_bool"),
    _case("iva", 1, _target("label", True), 3, 3, id="label_target_bool"),
    _case("iva", 1, _target("label", 1.0), 3, 3, id="label_target_float"),
    # a task corpus, whose header has no alpha, holds weight 1.0
    _case("khn", 1, _field("weight", "x"), 3, 3, id="weight_string"),
    _case("khn", 1, _field("weight", 7.5), 3, 3, id="weight_not_one"),
    _case("khn", 1, _field("weight", None), 3, 3, id="weight_null"),
    _case("khn", 1, _field("weight", True), 3, 3, id="weight_bool"),
    _case("khn", 1, _field("flags", "xy"), 3, 3, id="flags_string"),
    _case("khn", 1, _field("flags", {"clipped": 1}), 3, 3, id="flags_object"),
    _case("khn", 1, _field("flags", ["bogus"]), 3, 3, id="flags_unknown_name"),
    _case("khn", 1, _field("flags", ["clipped", "clipped"]), 3, 3, id="flags_repeated"),
    _case("khn", 1, _field("prov", 5), 3, 3, id="prov_not_string"),
    # a task weight is a float; True would equal the records' weight 1.0
    _case("sp", 0, lambda h: {**h, "alpha": {"sp": True}}, 3, 3, id="header_alpha_bool"),
    # the header's config_hash is its config's hash, and uniform_weights
    # is whether alpha is null
    _case("khn", 0, _field("config_hash", "x"), 3, 3, id="header_config_hash_wrong"),
    _case("khn", 0, _field("uniform_weights", False), 3, 3, id="header_uniform_weights_wrong"),
    # a khn or lcc record's radius lies in [1, hops]: record 1 of centre 0
    # is its 2-ball
    _case("khn", 0, _rehashed(_header("config", "hops", 1)), 3, 3, id="header_hops_one_rehashed",
          named="record 1: provenance 'c00000000:h2' has no radius in [1, 1]"),
]


@pytest.mark.parametrize("task,line,mutate,verify_rc,mix_rc,named", MALFORMED)
def test_malformed_record_exits_with_one_line(
    ingested, tmp_path, capsys, task, line, mutate, verify_rc, mix_rc, named
):
    out = tmp_path / "c"
    assert main(["generate", task, "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / f"{task}.jsonl"
    lines = path.read_text().splitlines()
    mutated = mutate(json.loads(lines[line]))
    lines[line] = mutated if isinstance(mutated, str) else json.dumps(mutated)
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
        if named is not None:
            assert f"{path}: {named}" in err[0]
        elif rc == 2:
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
    lines[0] = json.dumps(_rehashed(_header("config", "lcc_weighted", False))(json.loads(lines[0])))
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


def _reweight(path, alpha):
    """Give the corpus at ``path`` the task weights ``alpha``, in its header,
    as a mixture's, and on each of its records."""
    header, *lines = (json.loads(line) for line in path.read_text().splitlines())
    lines = [{**r, "weight": alpha[r["task"]]} for r in lines]
    header = {**header, "alpha": alpha, "uniform_weights": False}
    path.write_text("".join(json.dumps(d) + "\n" for d in [header, *lines]))


def _alpha_of_a_task_without_records(tmp_path, ingested):
    out = tmp_path / "c"
    assert main(["generate", "sp", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / "sp.jsonl"
    _reweight(path, {"sp": 0.5, "khn": 0.5})
    return [path], f"{path}: task weights "


def _alpha_not_the_record_shares(tmp_path, ingested):
    out = tmp_path / "c"
    assert main(["generate", "all", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path = out / "all.jsonl"
    tasks = json.loads(path.read_text().splitlines()[0])["counts"]
    # five weights of 0.2 sum to 1 and name every task: only the shares are wrong
    assert sorted(tasks) == sorted(TASKS)
    _reweight(path, {t: 0.2 for t in tasks})
    return [path], f"{path}: task weights "


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
    return paths, f"{paths[1]}:1: header differs from that of {paths[0]} in ['config.hops']"


def _one_more_entity(tmp_path, ingested):
    out = tmp_path / "c"
    assert main(["generate", "lcc", "--data", str(ingested), "--out", str(out),
                 "--seed", "1", "--workers", "1"]) == 0
    path, other = out / "lcc.jsonl", tmp_path / "lcc_wider.jsonl"
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    # the vocabulary hash and the config stay: only the sizes differ
    lines[0] = json.dumps(_header("vocab_sizes", "entities", header["vocab_sizes"]["entities"] + 1)(header))
    other.write_text("\n".join(lines) + "\n")
    return [path, other], f"{other}:1: header differs from that of {path} in ['vocab_sizes']"


# (inputs, verify exit code, mix exit code). verify checks each corpus
# alone, so only mix refuses corpora whose headers differ in a field the
# mixture does not set for itself: its one header could not describe all
# of their records.
REFUSED = [
    pytest.param(_drop_last_record, 3, 3, id="counts_short_of_header"),
    pytest.param(_change_one_weight, 3, 3, id="weight_not_alpha"),
    pytest.param(_alpha_of_a_task_without_records, 3, 3, id="alpha_of_a_task_without_records"),
    pytest.param(_alpha_not_the_record_shares, 3, 3, id="alpha_not_the_record_shares"),
    pytest.param(_two_max_lens, 0, 2, id="different_max_len"),
    pytest.param(_two_hops, 0, 2, id="different_hops"),
    pytest.param(_one_more_entity, 0, 2, id="different_vocab_sizes"),
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
