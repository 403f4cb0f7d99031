"""Estimation of ranking distributions and missing mechanisms from top-t data."""

from .admm import AdmmResult, solve_phi
from .em import (
    FitConfig,
    FitResult,
    Responsibilities,
    e_step,
    fit,
    fit_me,
    m_step_theta,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataFormatError,
    DegenerateClusterError,
    DegenerateLikelihoodError,
    DimensionError,
    DomainError,
    PartialRankError,
)
from .losses import (
    CvResult,
    LossReport,
    classification_error,
    cross_validate,
    l_comp,
    l_par,
    l_par_empirical,
)
from .mallows import MallowsParams, MixtureParams, complete_pmf, log_normalizer, sample_complete
from .missing import (
    ClusterMissingSpec,
    Dataset,
    MissingTable,
    generate_dataset,
    partial_pmf,
    tilt_concentration_mechanism,
    tilt_mixture_mechanism,
)
from .perms import (
    CayleyGraph,
    Permutation,
    TopTRanking,
    build_cayley_graph,
    compatible_set,
    index_of,
    kendall_distance,
    unindex,
)

__version__ = "0.1.0"
