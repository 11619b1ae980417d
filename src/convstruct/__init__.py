"""convstruct: multi-party conversation structure toolkit.

Parses per-utterance role and reply-to annotations, derives conversational
threads, scores predicted structure against gold, runs the heuristic
baseline, and performs the statistical analyses (bootstrap CIs, rank
correlations, calibrated Dirichlet log-odds, multinomial regression, and
gendered thread dynamics).
"""

__version__ = "0.1.0"

import importlib

from .corpus import (
    AgreementError,
    Clip,
    CorpusError,
    Diagnostic,
    MetricInputError,
    ParseError,
    Participant,
    StructureRecord,
    Utterance,
    ValidationError,
    normalize_name,
    parse_annotation_json,
    parse_transcript_tsv,
    serialize_annotation_json,
    validate_clip,
)
from .threads import (
    LinkSet,
    ThreadError,
    ThreadPartition,
    derive_threads,
    link_set,
    thread_events,
)

# Names from the numpy-backed modules, imported on first access (PEP 562) so
# that `import convstruct` loads neither numpy nor scipy.
_LAZY = {
    **dict.fromkeys(("EvalConfig", "MetricReport", "evaluate_corpus", "exact_match",
                     "link_f1", "nvi_score", "one_to_one"), "metrics"),
    **dict.fromkeys(("AnnotatorBatch", "pairwise_agreement"), "agreement"),
    **dict.fromkeys(("FaceTrack", "WordToken", "face_word_counts", "run_baseline"),
                    "baseline"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    "AgreementError",
    "Clip",
    "CorpusError",
    "Diagnostic",
    "MetricInputError",
    "ParseError",
    "Participant",
    "StructureRecord",
    "Utterance",
    "ValidationError",
    "normalize_name",
    "parse_annotation_json",
    "parse_transcript_tsv",
    "serialize_annotation_json",
    "validate_clip",
    "LinkSet",
    "ThreadError",
    "ThreadPartition",
    "derive_threads",
    "link_set",
    "thread_events",
    *_LAZY,
]
