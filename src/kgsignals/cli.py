"""Command-line front end: ingest -> generate -> mix -> stats -> verify.

Exit codes: 0 success, 1 usage error, 2 data error (bad input file),
3 invariant violation: a corpus breaks the record contract of
``corpus.check_corpus``, found by ``verify`` or refused by ``generate``
or ``mix``, which check every record before writing it. Progress goes
to stderr, machine-readable output to stdout. Flag precedence: command line >
config file (``--config``, JSON) > built-in defaults; the effective
configuration is embedded in every corpus header.

``generate`` checks and serializes each record in the worker that built
it and holds one task's lines at a time. With ``--workers`` > 1 it forks
its workers once per run, at the first task of at least 64 work items,
and ends them before it returns, on an error too; smaller tasks run in
the main process. A task file lists its records
in work-item order, the same at any ``--workers``: facts by index, then
masked position, then partner position, then path; centres by id, then
radius. ``all.jsonl`` is copied from the task files by byte offset.
Every file is written under a temporary name and renamed into place
only when all of them have passed the check, so a failed run writes no
corpus. ``mix`` checks each input corpus as ``verify`` does, naming the
input file, and refuses inputs whose vocabularies, configs (apart from
the seed) or record bounds differ from the first input's. The mixture
keeps the first input's config and config hash; its top-level seed is
the mix seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import ExitStack, closing, contextmanager
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import corpus as corpus_mod
from .corpus import (
    CorpusInvariantError,
    EmptyCorpusError,
    GenerationConfig,
    MixPlan,
    TASKS,
    WorkerPool,
    WrittenCorpus,
    check_and_serialize,
    check_corpus,
    check_totals,
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
from .graph import Fact, GraphError, build_index
from .ingest import (
    ParseError,
    SPECIAL_TOKENS,
    VocabBuilder,
    Vocabulary,
    compute_stats,
    parse_hypergraph,
    parse_triples,
    read_lines,
)

log = logging.getLogger("kgsignals")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="kgsignals", description="Graph-structural pretraining corpus generator")
    sub = p.add_subparsers(dest="command", required=True)

    def add_dataset_flags(sp):
        sp.add_argument("--train", required=True, help="train split file")
        sp.add_argument("--valid", help="validation split file")
        sp.add_argument("--test", help="test split file")
        sp.add_argument("--kind", choices=["triples", "hypergraph"], default="triples")

    sp_ingest = sub.add_parser("ingest", help="parse datasets into vocabulary + normalized tuples")
    add_dataset_flags(sp_ingest)
    sp_ingest.add_argument("--out", help="output directory (default $KGSIGNALS_OUTDIR)")

    sp_stats = sub.add_parser("stats", help="print dataset statistics as JSON")
    add_dataset_flags(sp_stats)

    sp_gen = sub.add_parser("generate", help="generate per-task corpora from an ingested dataset")
    sp_gen.add_argument("task", choices=list(TASKS) + ["all"])
    sp_gen.add_argument("--data", required=True, help="directory written by ingest")
    sp_gen.add_argument("--out", help="output directory (default $KGSIGNALS_OUTDIR)")
    sp_gen.add_argument("--config", help="JSON config file; flags override it")
    sp_gen.add_argument("--seed", type=int, help="generation seed (required)")
    sp_gen.add_argument("--hops", type=int, help="neighborhood radius (default 3)")
    sp_gen.add_argument("--max-hops", type=int, help="path length bound (default 4)")
    sp_gen.add_argument("--beam-k", type=int, help="beam width for entropy paths (default 4)")
    sp_gen.add_argument("--sp-cap", type=int, help="max shortest-path sequences per query (default 16)")
    sp_gen.add_argument("--iva-cap", type=int, help="matrix size cap (default 30)")
    sp_gen.add_argument("--corruption-rate", type=float, help="negative value-resample rate (default 0.10)")
    sp_gen.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = the CPUs this process may run on)"
    )

    sp_mix = sub.add_parser("mix", help="combine per-task corpora into the multitask stream")
    sp_mix.add_argument("corpora", nargs="+", help="per-task corpus files")
    sp_mix.add_argument("--seed", type=int, required=True)
    sp_mix.add_argument("--out", required=True, help="output corpus file")

    sp_ver = sub.add_parser("verify", help="re-run the invariant suite over existing corpora")
    sp_ver.add_argument("corpora", nargs="+")
    return p


# -- ingest ------------------------------------------------------------


def _parse_splits(args) -> tuple[Vocabulary, dict[str, list[Fact]]]:
    builder = VocabBuilder()
    parse = parse_triples if args.kind == "triples" else parse_hypergraph
    splits: dict[str, list[Fact]] = {}
    for name in ("train", "valid", "test"):
        path = getattr(args, name)
        if path:
            splits[name] = parse(path, builder)
    return builder.freeze(), splits


def _outdir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("KGSIGNALS_OUTDIR")
    if not out:
        raise UsageError("no output directory: pass --out or set KGSIGNALS_OUTDIR")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_tuples(facts: list[Fact], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in facts:
            fh.write("\t".join([str(f.relation)] + [str(e) for e in f.entities]) + "\n")


def _read_tuples(path: Path) -> list[Fact]:
    facts: list[Fact] = []
    for ln, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) < 3:
            raise ParseError(f"{path}:{ln}: expected relation + >=2 entity ids")
        try:
            ids = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: {exc}") from exc
        facts.append(Fact(relation=ids[0], entities=tuple(ids[1:])))
    return facts


def cmd_ingest(args) -> int:
    vocab, splits = _parse_splits(args)
    out = _outdir(args)
    with _staged_writes() as stage:
        vocab.save(stage(out / "vocab.tsv"))
        for name, facts in splits.items():
            _write_tuples(facts, stage(out / f"{name}.tuples"))
        stats = compute_stats(vocab, splits)
        stage(out / "stats.json").write_text(json.dumps(stats.as_dict(), indent=2, sort_keys=True) + "\n")
    log.info("ingested %d splits into %s", len(splits), out)
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return EXIT_OK


def cmd_stats(args) -> int:
    vocab, splits = _parse_splits(args)
    stats = compute_stats(vocab, splits)
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return EXIT_OK


# -- generate ----------------------------------------------------------


def _load_config(args) -> GenerationConfig:
    file_cfg: dict = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_bytes())
        except (OSError, ValueError) as exc:
            # ValueError: not JSON, or not UTF-8
            raise ParseError(f"{args.config}: {exc}") from exc
    names = [f.name for f in fields(GenerationConfig)]
    if not isinstance(file_cfg, dict):
        raise UsageError(f"{args.config}: config must be a JSON object, got {type(file_cfg).__name__}")
    unknown = sorted(set(file_cfg) - set(names))
    if unknown:
        raise UsageError(f"{args.config}: unknown config keys {unknown}; known keys are {names}")
    values: dict = {}
    for name in names:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
        elif name in file_cfg:
            values[name] = file_cfg[name]
    if "seed" not in values:
        raise UsageError("generation requires --seed (or seed in the config file)")
    try:
        return GenerationConfig(**values)
    except ValueError as exc:
        raise UsageError(f"bad configuration: {exc}") from exc


def _corpus_meta(cfg: GenerationConfig, vocab: Vocabulary) -> dict:
    return {
        "seed": cfg.seed,
        "config": cfg.as_dict(),
        "config_hash": cfg.hash(),
        "vocab_hash": vocab.hash(),
        "vocab_sizes": {
            "specials": len(SPECIAL_TOKENS),
            "entities": vocab.num_entities,
            "relations": vocab.num_relations,
        },
        "alpha": None,
        "uniform_weights": True,
    }


@contextmanager
def _staged_writes():
    """Yield ``stage(path)``, which names a temporary file next to
    ``path`` to write instead. On a normal exit every staged file is
    renamed to its path; on any error none is, and all are removed."""
    staged: list[tuple[Path, Path]] = []

    def stage(path: Path) -> Path:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged.append((tmp, path))
        return tmp

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _write_mixture(stage, path: Path, prefixes: dict, seed: int, meta: dict) -> MixPlan:
    """Write the mixture of the weightless ``prefixes`` of each task to
    ``stage(path)``, each record at its task's weight. Its header is
    ``meta`` with this seed and those weights. Raises
    :class:`EmptyCorpusError`, writing nothing, when there is no record."""
    order, plan = mix_multitask(prefixes, seed)
    header = corpus_header(plan.sizes, {**meta, "seed": seed, "alpha": plan.alpha, "uniform_weights": False})
    check_totals(f"{path} (not written)", header, plan.sizes)
    write_corpus(stage(path), header, mixture_lines(prefixes, order, plan.alpha))
    return plan


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_generate(args) -> int:
    if args.workers < 0:
        raise UsageError(f"--workers must be >= 0, got {args.workers}")
    cfg = _load_config(args)
    data = Path(args.data)
    vocab = Vocabulary.load(data / "vocab.tsv")
    train_path = data / "train.tuples"
    if not train_path.exists():
        raise ParseError(f"{train_path}: missing (run ingest first)")
    facts = _read_tuples(train_path)
    g = build_index(facts, vocab.num_entities, vocab.num_relations)
    out = _outdir(args)
    workers = args.workers or _usable_cpus()
    tasks = list(TASKS) if args.task == "all" else [args.task]
    meta = _corpus_meta(cfg, vocab)
    with _staged_writes() as stage, ExitStack() as opened, closing(WorkerPool(g, vocab, cfg)) as pool:
        written: dict[str, WrittenCorpus] = {}
        for task in tasks:
            t0 = time.monotonic()
            path = out / f"{task}.jsonl"
            label = f"{path} (not written)"
            finish = partial(check_and_serialize, label, record_bounds(label, meta))
            result = generate_task_records(g, vocab, task, cfg, workers=workers, finish=finish, pool=pool)
            log.info(
                "%s: %d records (%d skipped) in %.1fs",
                task, len(result.records), result.skipped, time.monotonic() - t0,
            )
            prefixes = result.records
            if not prefixes:
                log.warning("%s: empty corpus", task)
            header = corpus_header({task: len(prefixes)} if prefixes else {}, meta)
            tmp = stage(path)
            offsets = write_corpus(tmp, header, unit_weight_lines(prefixes))
            if args.task == "all":
                written[task] = opened.enter_context(closing(WrittenCorpus(tmp, offsets)))
        if args.task == "all":
            try:
                plan = _write_mixture(stage, out / "all.jsonl", written, cfg.seed, meta)
            except EmptyCorpusError:
                log.warning("all tasks empty; skipping mixture")
                return EXIT_OK
            stage(out / "mixplan.json").write_text(
                json.dumps({"sizes": plan.sizes, "alpha": plan.alpha, "seed": plan.seed}, sort_keys=True, indent=2)
                + "\n"
            )
    return EXIT_OK


def _config_but_seed(header: dict) -> dict:
    return {k: v for k, v in (header.get("config") or {}).items() if k != "seed"}


def cmd_mix(args) -> int:
    prefixes: dict[str, list[str]] = {}
    meta = bounds = config = first = None
    for path in args.corpora:
        h, records = read_corpus(path)
        check_corpus(path, h, records)
        input_bounds, input_config = record_bounds(path, h), _config_but_seed(h)
        if meta is None:
            # the output carries this header's config and vocabulary
            first, bounds, config = path, input_bounds, input_config
            meta = dict(h)
            meta.pop("counts", None)
        elif h.get("vocab_hash") != meta.get("vocab_hash"):
            # token ids of different vocabularies mean different things
            raise corpus_mod.CorpusFormatError(
                f"{path}:1: vocab_hash {h.get('vocab_hash')} differs from "
                f"{meta.get('vocab_hash')} of {first}; "
                "corpora of different vocabularies cannot be mixed"
            )
        elif input_config != config:
            # the output header's one config must describe every record;
            # corpora generated with different seeds still mix
            diff = sorted(k for k in config.keys() | input_config.keys() if config.get(k) != input_config.get(k))
            raise corpus_mod.CorpusFormatError(
                f"{path}:1: config differs from that of {first} in {diff}; "
                "corpora of different configs cannot be mixed"
            )
        elif input_bounds != bounds:
            # under one config, the vocabulary sizes can still differ
            raise corpus_mod.CorpusFormatError(
                f"{path}:1: {input_bounds} differs from {bounds} of {first}; "
                "corpora of different record bounds cannot be mixed"
            )
        for r in records:
            r.weight = None
            prefixes.setdefault(r.task, []).append(weightless_prefix(r))
    try:
        with _staged_writes() as stage:
            plan = _write_mixture(stage, Path(args.out), prefixes, args.seed, meta)
    except EmptyCorpusError as exc:
        raise ParseError(str(exc)) from exc
    print(json.dumps({"sizes": plan.sizes, "alpha": plan.alpha}, sort_keys=True))
    return EXIT_OK


# -- verify ------------------------------------------------------------


def _verify_corpus(path: str) -> None:
    header, records = read_corpus(path)
    check_corpus(path, header, records)


def cmd_verify(args) -> int:
    for path in args.corpora:
        _verify_corpus(path)
        log.info("%s: ok", path)
    print("ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "ingest": cmd_ingest,
            "stats": cmd_stats,
            "generate": cmd_generate,
            "mix": cmd_mix,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, corpus_mod.CorpusFormatError, GraphError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CorpusInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
