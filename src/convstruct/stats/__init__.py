"""Statistical machinery: bootstrap intervals, rank correlation, calibrated
Dirichlet log-odds with Stouffer aggregation, multinomial regression, and
gendered thread-dynamics shares."""

import importlib

# Each name's submodule, imported on first access (PEP 562) so that a command
# loads only the analyses it runs: `evaluate` and `agree` need `bootstrap` alone.
_LAZY = {
    **dict.fromkeys(("BootstrapConfig", "BootstrapInterval", "bootstrap_ci",
                     "bootstrap_ratio_ci"), "bootstrap"),
    **dict.fromkeys(("feature_correlations", "read_features_csv", "signed_rank_variance",
                     "spearman"), "correlation"),
    **dict.fromkeys(("TermCounts", "calibrate_prior", "logodds_report", "tokenize",
                     "utterance_documents", "weighted_logodds"), "logodds"),
    **dict.fromkeys(("LogitResult", "OutcomeEstimate", "multinomial_logit"), "regression"),
    **dict.fromkeys(("ThreadShareReport", "gender_thread_shares", "role_counts",
                     "role_distributions", "role_report"), "gender"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = list(_LAZY)
