"""Graph-structural self-supervised pretraining corpora for knowledge
graphs and knowledge hypergraphs."""

from .graph import Fact, KnowledgeGraph, build_index
from .ingest import VocabBuilder, Vocabulary, parse_hypergraph, parse_triples
from .paths import (
    CandidateTrie,
    PathSearchConfig,
    conditional_entropy,
    ground_paths,
    information_gain_paths,
    path_information_gain,
    relation_entropy,
    shortest_relational_paths,
)
from .neighborhood import (
    NeighborhoodIndex,
    khop_entities,
    local_clustering_coefficient,
    occurrence_distribution,
)
from .adjacency import (
    AdjacencyMatrix,
    IvaExample,
    flatten_adjacency,
    make_iva_example,
    relationless_adjacency,
    unflatten_adjacency,
)
from .corpus import (
    GenerationConfig,
    MixPlan,
    TaskRecord,
    generate_task_records,
    mix_multitask,
    read_corpus,
    write_corpus,
)

__version__ = "0.1.0"
