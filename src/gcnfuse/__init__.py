"""Fuse two graph convolutional networks (or MLPs) into one by aligning
their neurons layer-wise with optimal transport and averaging the aligned
parameters. Includes the solvers (exact EMD, unbalanced Sinkhorn, fused
Gromov-Wasserstein), the neuron ground costs, inference-only GCN models,
synthetic graph data, and a CLI for the experiment grids.
"""

from .costs import (
    EFD,
    FGW,
    QE,
    WEIGHT,
    CostSpec,
    FgwCostSpec,
    build_cost_matrix,
    weight_cost_matrix,
)
from .errors import (
    DatasetFormatError,
    DimensionMismatchError,
    GcnFuseError,
    InvalidSpecError,
    ModelFormatError,
    NumericalError,
    SolverError,
)
from .fusion import (
    SOLVER_EMD,
    SOLVER_SINKHORN,
    AlignmentTrace,
    FusionConfig,
    LayerTrace,
    align_batchnorm,
    align_layer_incoming,
    align_layer_outgoing,
    default_epsilon,
    ensemble_predict,
    fuse,
    vanilla_fuse,
)
from .graphs import (
    Dataset,
    FusionBatch,
    GeneratorSpec,
    Graph,
    load_dataset,
    sample_batch,
    synthesize_dataset,
    write_dataset,
)
from .models import (
    POST_BN,
    PRE_BN,
    ActivationSample,
    ArchSpec,
    BatchNormParams,
    Dense,
    DenseParams,
    Embedding,
    GcnModel,
    GraphConv,
    MeanReadout,
    evaluate_mae,
    forward_with_capture,
    label_with_model,
    load_model,
    permute_model,
    perturb_model,
    predict,
    random_model,
    save_model,
)
from .ot import (
    FgwProblem,
    SinkhornParams,
    TransportPlan,
    emd,
    fgw_distance,
    identity_plan,
    sinkhorn_unbalanced,
    uniform_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSample", "AlignmentTrace", "ArchSpec", "BatchNormParams",
    "CostSpec", "Dataset", "DatasetFormatError", "Dense", "DenseParams",
    "DimensionMismatchError", "EFD", "Embedding", "FGW", "FgwCostSpec",
    "FgwProblem", "FusionBatch", "FusionConfig", "GcnFuseError", "GcnModel",
    "GeneratorSpec", "Graph", "GraphConv", "InvalidSpecError", "LayerTrace",
    "MeanReadout", "ModelFormatError", "NumericalError", "POST_BN", "PRE_BN",
    "QE", "SOLVER_EMD", "SOLVER_SINKHORN", "SinkhornParams", "SolverError",
    "TransportPlan", "WEIGHT", "align_batchnorm",
    "align_layer_incoming", "align_layer_outgoing", "build_cost_matrix",
    "default_epsilon", "emd", "ensemble_predict", "evaluate_mae",
    "fgw_distance", "forward_with_capture", "fuse",
    "identity_plan", "label_with_model", "load_dataset",
    "load_model", "permute_model", "perturb_model",
    "predict", "random_model", "sample_batch", "save_model",
    "sinkhorn_unbalanced", "synthesize_dataset",
    "uniform_weights", "vanilla_fuse", "weight_cost_matrix", "write_dataset",
]
