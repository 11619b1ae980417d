"""Statistical machinery: bootstrap intervals, rank correlation, calibrated
Dirichlet log-odds with Stouffer aggregation, multinomial regression, and
gendered thread-dynamics shares."""

from .bootstrap import BootstrapConfig, BootstrapInterval, bootstrap_ci, bootstrap_ratio_ci
from .correlation import (
    feature_correlations,
    read_features_csv,
    signed_rank_variance,
    spearman,
)
from .logodds import (
    Document,
    TermCounts,
    calibrate_prior,
    logodds_report,
    stouffer,
    tokenize,
    utterance_documents,
    weighted_logodds,
)
from .regression import LogitResult, OutcomeEstimate, multinomial_logit
from .gender import (
    RoleDistributions,
    ThreadShareReport,
    gender_thread_shares,
    role_distributions,
    role_observations,
    role_report,
)

__all__ = [
    "BootstrapConfig",
    "BootstrapInterval",
    "bootstrap_ci",
    "bootstrap_ratio_ci",
    "spearman",
    "signed_rank_variance",
    "feature_correlations",
    "read_features_csv",
    "Document",
    "TermCounts",
    "tokenize",
    "weighted_logodds",
    "utterance_documents",
    "logodds_report",
    "calibrate_prior",
    "stouffer",
    "LogitResult",
    "OutcomeEstimate",
    "multinomial_logit",
    "ThreadShareReport",
    "RoleDistributions",
    "gender_thread_shares",
    "role_distributions",
    "role_observations",
    "role_report",
]
