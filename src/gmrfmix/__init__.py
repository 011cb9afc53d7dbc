"""Sparse-precision Gaussian and GMRF mixture estimation toolkit."""

__version__ = "0.1.0"

from .errors import (
    DegenerateInit,
    DimensionMismatch,
    EmptyComponent,
    EmptyInput,
    GmrfError,
    LengthMismatch,
    LineSearchFailed,
    NotSpd,
    SingularCovariance,
)
from .matrices import (
    SparseSpd,
    SupportPattern,
    cholesky,
    eigenvalues_sym,
    spd_inverse,
)
from .mle import (
    MleConfig,
    MleResult,
    dense_mle,
    estimate_known_support,
    gradient,
    neg_log_likelihood,
)
from .glasso import GlassoConfig, GlassoResult, debias, glasso_solve, refit
from .mixture import (
    BaselineEstimator,
    DebiasedEstimator,
    EmConfig,
    GlassoEstimator,
    GmrfComponent,
    KnownSupportEstimator,
    MixtureModel,
    e_step,
    fit_em,
    m_step,
    predict,
    weighted_stats,
)
from .synthetic import (
    DiffusionSpec,
    LatticeSpec,
    diffusion_precision,
    laplacian2d_precision,
    make_clustering_dataset,
    sample_gmrf,
)
from .evaluation import BiasReport, bias_report, nmi, vi
