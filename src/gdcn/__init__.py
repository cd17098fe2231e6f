"""Graph convolutional networks with adaptive connection sampling."""

__version__ = "0.1.0"

from .data import Dataset, Split, load_content_cites, make_split, row_normalize
from .graph import EdgeSet, build_adjacency, lambda_max, normalize
from .masks import EdgeMask, MaskKind, MaskSpec
from .model import GCNConfig, LayerParams, PreparedGraph, forward, init_params, predict_mc
from .training import RunSummary, TrainConfig, run_seeds, train
from .variational import BetaPrior, KumaraswamyParams, WarmupSchedule

__all__ = [
    "BetaPrior", "Dataset", "EdgeMask", "EdgeSet", "GCNConfig",
    "KumaraswamyParams", "LayerParams", "MaskKind", "MaskSpec",
    "PreparedGraph", "RunSummary", "Split", "TrainConfig",
    "WarmupSchedule", "build_adjacency", "forward", "init_params",
    "lambda_max", "load_content_cites", "make_split", "normalize",
    "predict_mc", "row_normalize", "run_seeds", "train",
]
