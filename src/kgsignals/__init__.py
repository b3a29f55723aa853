"""Graph-structural self-supervised pretraining corpora for knowledge
graphs and knowledge hypergraphs.

Each re-exported name is imported from its module on first use, so that
importing the package loads none of them, and numpy comes only with the
generation code.
"""

import importlib

_EXPORTS = {
    "graph": ("Fact", "KnowledgeGraph", "build_index"),
    "ingest": ("Vocabulary", "parse_hypergraph", "parse_triples"),
    "paths": (
        "CandidateTrie",
        "conditional_entropy",
        "ground_paths",
        "information_gain_paths",
        "relation_entropy",
        "shortest_relational_paths",
    ),
    "neighborhood": ("NeighborhoodIndex", "khop_entities"),
    "adjacency": ("AdjacencyMatrix", "IvaExample", "make_iva_example", "relationless_adjacency"),
    "records": ("GenerationConfig", "TaskRecord", "mix_multitask", "read_corpus", "write_corpus"),
    "corpus": ("WorkerPool", "generate_task_records"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
