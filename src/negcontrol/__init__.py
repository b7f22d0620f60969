"""Negative-control treatment-effect estimation with automated control
discovery.

The pipeline has three stages, each usable on its own:

1. ``find_nc`` screens candidate variable triples with vanishing-tetrad
   tests and keeps those whose members look pairwise confounder-only.
2. ``closed_form_ate`` / ``gmm_linear_ate`` turn one validated control
   pair into a treatment-effect estimate via a linear outcome bridge.
3. ``weighted_estimate`` / ``majority_vote_estimate`` aggregate
   estimates across the validated pairs.

All three stages read one statistic of the data: its columns centred
once, and their cross products.

CSV reads and writes, bootstrap draws and replication studies fork
worker processes; no output depends on the split, and same-seed reruns
are byte-identical.

``dance`` chains the stages; ``simulate``/``study`` provide synthetic
benchmarks with exact graphical ground truth; the ``negcontrol`` console
script exposes everything on the command line.
"""
from .aggregate import (
    AggregateResult,
    PairFrequencyTable,
    enumerate_pairs,
    majority_vote_estimate,
    weighted_estimate,
)
from .data import (
    CovMatrix,
    Dataset,
    covariance,
    load_csv,
    sub_determinant,
    write_csv,
)
from .errors import (
    BootstrapDegenerateError,
    DegenerateVarianceError,
    DuplicateHeaderError,
    EmptyDnctListError,
    GraphSpecError,
    MissingValueError,
    NegcontrolError,
    SingularDenominatorError,
    SingularMomentMatrixError,
    TooFewCandidatesError,
    TooFewRowsError,
    TooFewSamplesError,
    UnknownVariableError,
)
from .estimate import (
    AteEstimate,
    BridgeParams,
    NcPair,
    closed_form_ate,
    gmm_linear_ate,
)
from .pipeline import DanceResult, dance
from .search import (
    DnctVerdict,
    FindNcReport,
    canonical_triple,
    dnct_validate,
    find_nc,
    triple_specs,
)
from .simulate import (
    CoeffDraw,
    Edge,
    GraphSpec,
    builtin_graph,
    generate,
    graph_spec_from_json_dict,
    graph_spec_to_json_dict,
    ground_truth_dncts,
    load_graph_json,
    population_covariance,
    realize_coefficients,
)
from .study import (
    FailureRecord,
    MethodMetrics,
    RocPoint,
    StudyConfig,
    StudyResult,
    roc_curve,
    run_study,
    write_study_outputs,
)
from .tetrad import TetradResult, TetradSpec, wishart_test, wishart_variance

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "AteEstimate",
    "BootstrapDegenerateError",
    "BridgeParams",
    "CoeffDraw",
    "CovMatrix",
    "DanceResult",
    "Dataset",
    "DegenerateVarianceError",
    "DnctVerdict",
    "DuplicateHeaderError",
    "Edge",
    "EmptyDnctListError",
    "FailureRecord",
    "FindNcReport",
    "GraphSpec",
    "GraphSpecError",
    "MethodMetrics",
    "MissingValueError",
    "NcPair",
    "NegcontrolError",
    "PairFrequencyTable",
    "RocPoint",
    "SingularDenominatorError",
    "SingularMomentMatrixError",
    "StudyConfig",
    "StudyResult",
    "TetradResult",
    "TetradSpec",
    "TooFewCandidatesError",
    "TooFewRowsError",
    "TooFewSamplesError",
    "UnknownVariableError",
    "builtin_graph",
    "canonical_triple",
    "closed_form_ate",
    "covariance",
    "dance",
    "dnct_validate",
    "enumerate_pairs",
    "find_nc",
    "generate",
    "gmm_linear_ate",
    "graph_spec_from_json_dict",
    "graph_spec_to_json_dict",
    "ground_truth_dncts",
    "load_csv",
    "load_graph_json",
    "majority_vote_estimate",
    "population_covariance",
    "realize_coefficients",
    "roc_curve",
    "run_study",
    "sub_determinant",
    "triple_specs",
    "weighted_estimate",
    "wishart_test",
    "wishart_variance",
    "write_csv",
    "write_study_outputs",
]
