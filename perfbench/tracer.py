"""In-process traced run of the kgsignals CLI.

Run as a child of ``run.py``. It drives ``kgsignals.cli.main(argv)``
directly and, in ``traced`` mode, replaces the library callables at the
module attributes where their callers look them up with timing wrappers.
Every call becomes a span (name, start, end, parent) kept in memory;
the spans, counters and corpus digests are written to one JSON file at
exit and turned into per-layer metrics by ``run.py``.

A wrap target that no longer exists is reported as absent; the metrics
derived from it are then left out instead of failing the run.

``plain`` mode wraps only ``generate_task_records`` (a handful of calls)
and runs ``generate`` at one worker and again at two, giving the
untraced reference for the tracing overhead and the pool speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path


def digest_dir(out: Path) -> dict[str, dict]:
    """SHA-256, record count and size of every corpus file in ``out``."""
    return {p.name: file_digest(p) for p in sorted(out.glob("*.jsonl"))}


def file_digest(path: Path) -> dict:
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return {"sha256": h.hexdigest(), "records": lines - 1, "bytes": path.stat().st_size}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder. Spans live in parallel lists; ``end`` is filled in
    when the call returns, ``parent`` is the index of the enclosing span
    or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.live: set[str] = set()
        self.broken: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, target: str, label: str, after=None, before=None, span_name=None) -> None:
        """Replace ``module:attr.path`` with a span-recording wrapper.

        Spans are named ``label``, or ``span_name(args, kwargs)`` when
        given. ``before(tracer, args, kwargs)`` and ``after(tracer, args,
        kwargs, result)`` run outside the span and update counters. A
        raised exception is counted as ``<span>.raised.<type>``. A
        target that cannot be resolved is recorded in ``absent``; it and
        a label whose hook failed stay out of the dumped ``live`` set.
        """
        mod_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(mod_name)
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        self.live.add(label)
        tracer = self

        def hook(f, *hook_args):
            # a hook that no longer fits the callee's signature marks
            # the label broken instead of failing the traced program
            try:
                return f(*hook_args)
            except Exception:
                tracer.broken.add(label)
                return None

        def wrapper(*args, **kwargs):
            span = label if span_name is None else (hook(span_name, args, kwargs) or label)
            if before is not None:
                hook(before, tracer, args, kwargs)
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.count(f"{span}.raised.{type(exc).__name__}")
                raise
            tracer.close(idx)
            if after is not None:
                hook(after, tracer, args, kwargs, result)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
            "absent": self.absent,
            "live": sorted(self.live - self.broken),
            "broken": sorted(self.broken),
        }


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _task_span(args, kwargs) -> str:
    return f"corpus.{_arg(args, kwargs, 2, 'task')}"


def _wrap_tasks(t: Tracer, after=None) -> None:
    t.wrap("kgsignals.cli:generate_task_records", "corpus.task", after, span_name=_task_span)


def _after_task(t: Tracer, args, kwargs, result) -> None:
    span = _task_span(args, kwargs)
    t.count(f"{span}.records", len(result.records))
    t.count(f"{span}.skipped", result.skipped)


def _after_sp(t: Tracer, args, kwargs, result) -> None:
    t.count("paths.sp.no_path", not result)
    t.count("paths.sp.capped", len(result) >= _arg(args, kwargs, 3, "cfg").sp_cap)


# distinct-path count per candidate list, keyed by id(); the list is
# kept alive with its count so that the id cannot be reused. Every
# ground_paths call of one relation gets the same list object.
_offered: dict[int, tuple[object, int]] = {}


def _after_ground(t: Tracer, args, kwargs, result) -> None:
    candidates = _arg(args, kwargs, 3, "candidates")
    entry = _offered.get(id(candidates))
    if entry is None:
        entry = _offered[id(candidates)] = (candidates, len(set(candidates)))
    t.count("paths.ground.offered", entry[1])
    t.count("paths.ground.kept", len(result))


def install_wraps(t: Tracer) -> None:
    """Wrap the public calls into each layer at their lookup sites."""
    w = t.wrap
    w("kgsignals.cli:parse_triples", "ingest.parse")
    w("kgsignals.cli:parse_hypergraph", "ingest.parse")
    w("kgsignals.cli:compute_stats", "ingest.stats")
    w("kgsignals.cli:_read_tuples", "cli.read_tuples")
    w("kgsignals.cli:build_index", "graph.build_index")
    w("kgsignals.graph:KnowledgeGraph.cooccurrence_counts", "graph.cooccurrence")
    _wrap_tasks(t, _after_task)
    w("kgsignals.corpus:shortest_relational_paths", "paths.sp", _after_sp)
    w("kgsignals.paths:_bfs_levels", "paths.bfs")
    w(
        "kgsignals.corpus:information_gain_paths",
        "paths.ip_candidates",
        lambda t, a, k, r: t.count("paths.ip_candidates.paths", len(r)),
    )
    w("kgsignals.corpus:ground_paths", "paths.ground", _after_ground)
    # rise of the RSS high-water mark across the index constructor
    rss_before: list[float] = []
    w(
        "kgsignals.neighborhood:NeighborhoodIndex.__init__",
        "neighborhood.index",
        lambda t, a, k, r: t.count("neighborhood.index.rss_rise_mib", _maxrss_mib() - rss_before.pop()),
        before=lambda t, a, k: rss_before.append(_maxrss_mib()),
    )
    w(
        "kgsignals.neighborhood:NeighborhoodIndex.ball",
        "neighborhood.ball",
        lambda t, a, k, r: t.count("neighborhood.ball.entities", len(r)),
    )
    w("kgsignals.neighborhood:NeighborhoodIndex.occurrence", "neighborhood.occurrence")
    w("kgsignals.neighborhood:NeighborhoodIndex.clustering", "neighborhood.clustering")
    w("kgsignals.adjacency:khop_entities", "neighborhood.khop")
    w("kgsignals.corpus:make_iva_example", "adjacency.iva")
    w("kgsignals.adjacency:relationless_adjacency", "adjacency.adj")
    w("kgsignals.corpus:_flatten_tokens", "adjacency.flatten")
    w("kgsignals.adjacency:permutation_equivalent", "adjacency.perm")
    w("kgsignals.corpus:TaskRecord.to_json", "corpus.serialize")
    w("kgsignals.cli:write_corpus", "corpus.write")
    w("kgsignals.cli:mix_multitask", "corpus.mix")
    w(
        "kgsignals.cli:read_corpus",
        "corpus.read",
        lambda t, a, k, r: t.count("corpus.read.records", len(r[1])),
    )
    w("kgsignals.cli:_verify_corpus", "cli.verify_check")


def _main_step(t: Tracer | None, command: str, argv: list[str], walls: dict, codes: dict) -> None:
    from kgsignals.cli import main

    idx = t.open(f"cli.{command}") if t else None
    t0 = time.perf_counter()
    codes[command] = main(argv)
    walls[command] = time.perf_counter() - t0
    if t:
        t.close(idx)


def run(args) -> dict:
    work = Path(args.work)
    gen = ["--seed", str(args.gen_seed)]
    walls: dict[str, float] = {}
    codes: dict[str, int] = {}
    result: dict = {"walls": walls, "codes": codes}
    if args.mode == "traced":
        t = Tracer()
        install_wraps(t)
        data = work / "data"
        _main_step(t, "ingest", ["ingest", "--train", args.train, "--kind", args.kind, "--out", str(data)], walls, codes)
        out = work / "traced"
        _main_step(t, "generate", ["generate", args.task, "--data", str(data), "--out", str(out), *gen, "--workers", "1"], walls, codes)
        corpora = sorted(str(p) for p in out.glob("*.jsonl"))
        _main_step(t, "verify", ["verify", *corpora], walls, codes)
        per_task = [p for p in corpora if Path(p).stem != "all"]
        remix = work / "traced_remix.jsonl"
        _main_step(t, "mix", ["mix", *per_task, "--seed", str(args.mix_seed), "--out", str(remix)], walls, codes)
        t.unwrap_all()
        result["digests"] = digest_dir(out)
        if remix.exists():
            result["digests"]["remix.jsonl"] = file_digest(remix)
        result["trace"] = t.dump()
    else:
        data = Path(args.data)
        for workers in (1, 2):
            t = Tracer()
            _wrap_tasks(t)
            out = work / f"plain_w{workers}"
            _main_step(None, "generate", ["generate", args.task, "--data", str(data), "--out", str(out), *gen, "--workers", str(workers)], walls, codes)
            t.unwrap_all()
            walls[f"generate_w{workers}"] = walls.pop("generate")
            codes[f"generate_w{workers}"] = codes.pop("generate")
            result[f"tasks_w{workers}"] = {
                t.names[n]: t.end[i] - t.start[i] for i, n in enumerate(t.name)
            }
            result[f"digests_w{workers}"] = digest_dir(out)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["traced", "plain"])
    p.add_argument("--work", required=True, help="scratch directory for this run")
    p.add_argument("--result", required=True, help="JSON file written at exit")
    p.add_argument("--train", help="fixture TSV (traced mode ingests it)")
    p.add_argument("--data", help="ingested data directory (plain mode)")
    p.add_argument("--kind", default="triples")
    p.add_argument("--task", required=True)
    p.add_argument("--gen-seed", type=int, required=True)
    p.add_argument("--mix-seed", type=int, default=0)
    args = p.parse_args()
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
