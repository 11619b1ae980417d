"""Command-line entry point for reproducible batch runs.

Commands: validate, evaluate, agree, baseline, analyze {threads|roles|logodds|
correlate}. Each command accepts only the flags it reads. Every report embeds
a run manifest with input digests and, as config, the command's other flags;
identical inputs, flags, and seed produce byte-identical output. Exit codes:
0 success, 1 domain error, 2 I/O or usage error. The commands only parse
arguments, call the library, and emit its reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .agreement import AgreementError, load_annotators, pairwise_agreement
from .baseline import (
    parse_face_tracks_json,
    parse_word_tokens_tsv,
    run_baseline,
    run_reply_only_baseline,
)
from .corpus import (
    ERROR,
    WARNING,
    CorpusError,
    load_corpus,
    load_structures,
    parse_gender_map_tsv,
    serialize_annotation_json,
    validate_paths,
)
from .metrics import METRIC_FIELDS, EvalConfig, MetricInputError, evaluate_corpus
from .stats import (
    BootstrapConfig,
    feature_correlations,
    gender_thread_shares,
    logodds_report,
    read_features_csv,
    role_report,
    utterance_documents,
)
from .stats.bootstrap import StatsError

METRIC_LABELS = {
    "speaker_acc": "Speaker (Acc.)",
    "addressee_f1": "Addressees (Set F1)",
    "side_participant_f1": "Side-part. (Set F1)",
    "link_f1": "Linking (F1)",
    "nvi_score": "1-NVI",
    "one_to_one": "1-1",
    "exact_match_f1": "EM F1",
}


def _digest_path(path: Path) -> str:
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for child in sorted(path.rglob("*")):
        if child.is_file():
            rel = child.relative_to(path).as_posix()
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            digest.update(hashlib.sha256(child.read_bytes()).digest())
    return digest.hexdigest()


# The manifest records as inputs the paths among these that a run was given, and
# as config every other flag its parser declares except the parser's own keys
# and the flags that name outputs, randomness and rendering.
_INPUTS = ("gold", "pred", "manifest", "corpus", "faces", "words", "gender_map",
           "features")
_NOT_CONFIG = ("command", "analysis", "handler", "out", "seed", "format")


def _manifest(command: str, args: argparse.Namespace) -> dict:
    inputs, digests, config = {}, {}, {}
    digested: dict[str, str] = {}  # a path given for several inputs is read once
    for name, value in vars(args).items():
        if name in _INPUTS:
            if value:
                if value not in digested:
                    digested[value] = _digest_path(Path(value))
                inputs[name] = value
                digests[name] = digested[value]
        elif name not in _NOT_CONFIG:
            config[name] = value
    return {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "inputs": inputs,
        "digests": digests,
        "config": config,
    }


def _emit(payload: dict, fmt: str, table_lines: list[str] | None = None) -> None:
    if fmt == "table" and table_lines is not None:
        sys.stdout.write("\n".join(table_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _metric_table(report_dict: dict) -> list[str]:
    lines = [f"{'metric':<22}{'score':>8}  ci95"]
    ci = report_dict.get("ci", {})
    for name in METRIC_FIELDS:
        bounds = ci.get(name)
        span = f"[{bounds[0]:.2f}, {bounds[1]:.2f}]" if bounds else ""
        lines.append(f"{METRIC_LABELS[name]:<22}{report_dict[name]:>8.2f}  {span}")
    lines.append(
        f"n_utterances={report_dict['n_utterances']} n_clips={report_dict['n_clips']}"
    )
    return lines


# --- commands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    diags = validate_paths(args.paths, args.strict)
    for diag in diags:
        sys.stdout.write(json.dumps(diag.as_dict()) + "\n")
    has_error = any(
        d.severity == ERROR or (args.strict and d.severity == WARNING)
        for d in diags
    )
    return 1 if has_error else 0


def cmd_evaluate(args) -> int:
    gold = load_structures(args.gold, strict=args.strict)
    pred = load_structures(args.pred, strict=args.strict)
    bootstrap = (BootstrapConfig(resamples=args.bootstrap, level=args.level,
                                 seed=args.seed) if args.bootstrap else None)
    report = evaluate_corpus(
        gold, pred, EvalConfig(args.aggregate, args.filter_nondialogic, bootstrap))
    payload = {"manifest": _manifest("evaluate", args), "report": report.as_dict()}
    _emit(payload, args.format, _metric_table(report.as_dict()))
    return 0


def cmd_agree(args) -> int:
    batches = load_annotators(args.manifest)
    report = pairwise_agreement(
        batches, EvalConfig(args.aggregate, args.filter_nondialogic))
    manifest = _manifest("agree", args)
    # the manifest file only names the annotator files; digest what they hold too
    digest = hashlib.sha256(bytes.fromhex(manifest["digests"]["manifest"]))
    for batch in batches:
        digest.update(hashlib.sha256(batch.path.read_bytes()).digest())
    manifest["digests"]["manifest"] = digest.hexdigest()
    payload = {"manifest": manifest, "report": report.as_dict()}
    table_lines = ["overall:"] + _metric_table(report.overall.as_dict())
    for pair, pair_report in sorted(report.per_pair.items()):
        table_lines.append(f"pair {pair[0]} x {pair[1]}:")
        table_lines.extend(_metric_table(pair_report.as_dict()))
    _emit(payload, args.format, table_lines)
    return 0


def _side_files(base: str | None, clip_id: str, suffix: str) -> Path | None:
    if base is None:
        return None
    root = Path(base)
    if root.is_file():
        return root
    candidate = root / f"{clip_id}{suffix}"
    return candidate if candidate.exists() else None


def cmd_baseline(args) -> int:
    corpus = load_corpus(args.corpus, strict=args.strict)
    if not corpus:
        raise CorpusError(f"no clips found under {args.corpus}")
    if args.mode == "full" and not args.faces:
        raise CorpusError("--mode full requires --faces (and usually --words)")
    for flag, path in (("--faces", args.faces), ("--words", args.words)):
        one_file = bool(path) and _require(path, flag).is_file()  # given paths must exist
        if one_file and args.mode == "full" and len(corpus) > 1:
            raise CorpusError(f"{flag} {path} is one file but the corpus has "
                              f"{len(corpus)} clips; give a directory")

    # every clip's records come first, so a failing clip writes no file at all
    predictions = {}
    for clip_id in sorted(corpus):
        clip = corpus[clip_id]
        if not clip.utterances:
            raise CorpusError(f"clip {clip_id!r} has no transcript; baseline needs one")
        if args.mode == "reply-only":
            records = run_reply_only_baseline(clip)
        else:
            faces_path = _side_files(args.faces, clip_id, ".faces.json")
            if faces_path is None:
                raise CorpusError(f"no face tracks for clip {clip_id!r}")
            tracks = parse_face_tracks_json(faces_path.read_bytes())
            words_path = _side_files(args.words, clip_id, ".words.tsv")
            words = (parse_word_tokens_tsv(words_path.read_bytes())
                     if words_path else [])
            records = run_baseline(clip, tracks, words)
        predictions[clip_id] = serialize_annotation_json(records)

    out_root = Path(args.out)
    single_file = out_root.suffix == ".json" and len(corpus) == 1
    if not single_file:
        out_root.mkdir(parents=True, exist_ok=True)
    written = []
    for clip_id, blob in predictions.items():
        target = out_root if single_file else out_root / f"{clip_id}.annotation.json"
        target.write_bytes(blob)
        written.append(str(target))

    payload = {"manifest": _manifest("baseline", args), "written": written}
    _emit(payload, args.format, ["written:"] + [f"  {w}" for w in written])
    return 0


def _require(path: str | None, what: str) -> Path:
    if not path:
        raise CorpusError(f"missing required input: {what}")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _clips(corpus: str) -> list:
    return list(load_corpus(corpus).values())  # in clip id order


def _gender_map(path: str | None) -> dict:
    return parse_gender_map_tsv(_require(path, "--gender-map").read_bytes())


def _emit_analysis(args, report: dict) -> int:
    manifest = _manifest(f"analyze {args.analysis}", args)
    _emit({"manifest": manifest, "report": report}, args.format, _flatten_table(report))
    return 0


def cmd_threads(args) -> int:
    return _emit_analysis(args, gender_thread_shares(
        _clips(args.corpus),
        _gender_map(args.gender_map),
        include_nondialogic=args.include_nondialogic,
        config=BootstrapConfig(resamples=args.bootstrap, level=args.level,
                               seed=args.seed),
        permutations=args.permutations,
    ).as_dict())


def cmd_roles(args) -> int:
    return _emit_analysis(args, role_report(
        _clips(args.corpus), _gender_map(args.gender_map)).as_dict())


def cmd_logodds(args) -> int:
    docs = utterance_documents(_clips(args.corpus), args.filter_nondialogic)
    return _emit_analysis(args, logodds_report(
        docs, min_count=args.min_count, c_star=args.c_star, grid=args.grid,
        permutations=args.permutations, seed=args.seed, top=args.top))


def cmd_correlate(args) -> int:
    features_path = _require(args.features, "features CSV")
    with features_path.open(newline="", encoding="utf-8") as handle:
        report = feature_correlations(read_features_csv(handle))
    return _emit_analysis(args, report)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _flatten_table(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(f"{label}:")
            lines.extend(_flatten_table(value, prefix + "  "))
        elif isinstance(value, list) and value and all(
                isinstance(v, dict) for v in value):
            lines.append(f"{label}:")
            columns = list(value[0].keys())
            widths = {
                c: max(len(c), *(len(_format_cell(row.get(c, ""))) for row in value))
                for c in columns
            }
            lines.append(prefix + "  " + "  ".join(c.ljust(widths[c]) for c in columns))
            for row in value:
                lines.append(prefix + "  " + "  ".join(
                    _format_cell(row.get(c, "")).ljust(widths[c]) for c in columns))
        elif isinstance(value, list):
            rendered = ", ".join(_format_cell(v) for v in value)
            lines.append(f"{label:<32} [{rendered}]")
        elif isinstance(value, float):
            lines.append(f"{label:<32} {value:>12.4f}")
        else:
            lines.append(f"{label:<32} {value}")
    return lines


# --- parser -------------------------------------------------------------------

# Flag definitions shared between parsers. Each parser declares only the flags
# its command reads, in the order its manifest config lists them.
_FLAGS = {
    "--aggregate": dict(choices=("micro", "macro"), default="micro",
                        help="role-metric aggregation granularity"),
    "--filter-nondialogic": dict(action="store_true",
                                 help="drop extra-diegetic/monologue lines"),
    "--bootstrap": dict(type=int, default=0, metavar="N",
                        help="bootstrap resamples for CIs (0 = off)"),
    "--level": dict(type=float, default=0.95, help="confidence level for intervals"),
    "--strict": dict(action="store_true",
                     help="escalate warnings to errors; reject unknown keys"),
    "--gender-map": dict(help="participant metadata TSV"),
    "--permutations": dict(type=int, default=1000,
                           help="permutation count for tests/calibration"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--format": dict(choices=("json", "table"), default="json"),
}


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _float_list(text: str) -> list[float]:
    return [float(c) for c in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convstruct",
        description="Multi-party conversation structure toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="validate corpus files, emit JSON-lines diagnostics")
    p.add_argument("paths", nargs="+")
    _flags(p, "--strict")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    _flags(p, "--aggregate", "--filter-nondialogic", "--bootstrap", "--level",
           "--strict", "--seed", "--format")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("agree", help="pairwise inter-annotator agreement")
    p.add_argument("manifest", help="JSON mapping annotator_id to annotation file")
    _flags(p, "--aggregate", "--filter-nondialogic", "--format")
    p.set_defaults(handler=cmd_agree)

    p = sub.add_parser("baseline", help="run the heuristic baseline")
    p.add_argument("corpus")
    p.add_argument("--mode", choices=("full", "reply-only"), required=True)
    p.add_argument("--faces", help="face track JSON file or directory")
    p.add_argument("--words", help="word token TSV file or directory")
    p.add_argument("--out", required=True, help="output file or directory")
    _flags(p, "--strict", "--format")
    p.set_defaults(handler=cmd_baseline)

    analyze = sub.add_parser("analyze", help="statistical analyses")
    analyses = analyze.add_subparsers(dest="analysis", required=True)

    p = analyses.add_parser("threads", help="female shares of thread starts and holds")
    p.add_argument("corpus")
    _flags(p, "--gender-map")
    p.add_argument("--include-nondialogic", action="store_true",
                   help="keep extra-diegetic/monologue lines in thread events")
    p.add_argument("--bootstrap", type=int, default=10_000, metavar="N",
                   help="bootstrap resamples for CIs")
    _flags(p, "--level", "--permutations", "--seed", "--format")
    p.set_defaults(handler=cmd_threads)

    p = analyses.add_parser("roles", help="role distributions and the gender logit")
    p.add_argument("corpus")
    _flags(p, "--gender-map", "--format")
    p.set_defaults(handler=cmd_roles)

    p = analyses.add_parser("logodds", help="register shift under side-participants")
    p.add_argument("corpus")
    _flags(p, "--filter-nondialogic")
    p.add_argument("--min-count", type=int, default=5,
                   help="minimum pooled term count for log-odds")
    p.add_argument("--c-star", type=float,
                   help="fix the prior strength, skip calibration")
    p.add_argument("--grid", type=_float_list,
                   help="comma-separated prior-strength candidates")
    _flags(p, "--permutations")
    p.add_argument("--top", type=int, default=10, help="terms listed per direction")
    _flags(p, "--seed", "--format")
    p.set_defaults(handler=cmd_logodds)

    p = analyses.add_parser("correlate", help="Spearman correlations of clip features")
    p.add_argument("--features", help="clip-level feature CSV")
    _flags(p, "--format")
    p.set_defaults(handler=cmd_correlate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CorpusError, MetricInputError, StatsError, AgreementError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
