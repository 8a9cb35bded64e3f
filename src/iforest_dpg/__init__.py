"""Isolation-forest outlier detection explained through a decision predicate graph.

Train an isolation forest, label the training data, project every
tree-traversal path onto (feature, sign) predicates, weight the resulting
directed graph by class rarity, and rank predicates by how much of their
flow ends in the Inlier versus Outlier class (the IOP score).
"""

__version__ = "0.1.0"

from .dpg import (
    GT,
    INLIER_ID,
    LE,
    OUTLIER_ID,
    SOURCE_ID,
    ClassWeights,
    DpGraph,
    Predicate,
    build_model_graph,
    class_weights,
    predicate_id,
    predicate_label,
)
from .forest import (
    INLIER,
    OUTLIER,
    Contamination,
    Dataset,
    ForestModel,
    ForestParams,
    ScoreThreshold,
    SingleClassError,
    anomaly_score,
    average_path_normalizer,
    fit,
    label_scores,
    max_tree_depth,
    score_samples,
)
from .io import (
    IOP_PALETTE,
    export_dot,
    load_model,
    read_csv,
    save_model,
    write_dataset_csv,
    write_explanation_bundle,
    write_graph_json,
    write_injection_log,
)
from .metrics import IopEntry, IopReport, iop_score, rank_report, score_graph
from .synth import (
    InjectionRecord,
    InjectionSpec,
    SynthConfig,
    fixture_one,
    fixture_two,
    generate,
)

__all__ = [
    "__version__",
    "GT",
    "INLIER",
    "INLIER_ID",
    "IOP_PALETTE",
    "LE",
    "OUTLIER",
    "OUTLIER_ID",
    "SOURCE_ID",
    "ClassWeights",
    "Contamination",
    "Dataset",
    "DpGraph",
    "ForestModel",
    "ForestParams",
    "InjectionRecord",
    "InjectionSpec",
    "IopEntry",
    "IopReport",
    "Predicate",
    "ScoreThreshold",
    "SingleClassError",
    "SynthConfig",
    "anomaly_score",
    "average_path_normalizer",
    "build_model_graph",
    "class_weights",
    "export_dot",
    "fit",
    "fixture_one",
    "fixture_two",
    "generate",
    "iop_score",
    "label_scores",
    "load_model",
    "max_tree_depth",
    "predicate_id",
    "predicate_label",
    "rank_report",
    "read_csv",
    "save_model",
    "score_graph",
    "score_samples",
    "write_dataset_csv",
    "write_explanation_bundle",
    "write_graph_json",
    "write_injection_log",
]
