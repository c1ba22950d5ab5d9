"""hubridge: ridge-regression dissimilarity learning for k-NN classification.

Learns a linear map of the labeled objects (queries stay put) by a
closed-form ridge solve, which suppresses hub formation in high-dimensional
nearest-neighbor search. Ships the negative-control direction that maps
queries instead, N_k hubness diagnostics, a Monte-Carlo verifier of the
spatial-centrality bias, and an experiment harness.
"""

from .datamodel import (Dataset, DatasetFormatError, PreprocessError, Preprocessor, Split,
                        bundled_dataset_path, dataset_from_arrays, load_dataset, split,
                        subset)
from .targets import TargetSelectionError, indicator_matrix, select_targets
from .transform import (MOVE_LABELED, MOVE_QUERY, SOLVER_EXACT, SOLVER_PAPER, RidgeSystem,
                        SingularSystemError, TransformModel, fit_move_labeled,
                        fit_move_query, solver_disagreement)
from .knn import (Dissimilarity, KnnModel, build_knn_model, classify_batch, evaluate,
                  knn_from_transform, neighbor_index_matrix)
from .hubness import ZeroVarianceError, nk_counts, skewness
from .theory import (CentralityExperiment, CentralityResult, PairConstructionError,
                     simulate_delta, squared_norm_std, theoretical_delta)
from .modelselect import (CvCell, CvConfig, CvPass, CvResult, FoldError, grid_search,
                          make_folds)
from .experiment import (ExperimentConfig, ExperimentReport, MethodAggregate,
                         MethodSplitResult, ModelArtifact, preprocess, run_experiment)

__version__ = "0.1.0"
