"""Command-line entry point for reproducible batch runs.

Commands: validate, evaluate, agree, baseline, analyze {threads|roles|logodds|
correlate}. Every report embeds a run manifest with input digests; identical
inputs, flags, and seed produce byte-identical output. Exit codes: 0 success,
1 domain error, 2 I/O error. The commands only parse arguments, call the
library, and emit its reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

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


def _manifest(command: str, inputs: dict[str, str], config: dict,
              seed: int = 0) -> dict:
    digests = {}
    for name, raw in inputs.items():
        path = Path(raw)
        digests[name] = _digest_path(path) if path.exists() else None
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": inputs,
        "digests": digests,
        "config": config,
    }


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    return value


def _emit(payload: dict, fmt: str, table_lines: list[str] | None = None) -> None:
    if fmt == "table" and table_lines is not None:
        sys.stdout.write("\n".join(table_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(_jsonify(payload), indent=2) + "\n")


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


def _eval_config(args) -> EvalConfig:
    return EvalConfig(
        aggregate=args.aggregate,
        filter_nondialogic=args.filter_nondialogic,
        bootstrap=BootstrapConfig(resamples=args.bootstrap, level=args.level,
                                  seed=args.seed) if args.bootstrap else None,
    )


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
    config = _eval_config(args)
    report = evaluate_corpus(gold, pred, config)
    manifest = _manifest(
        "evaluate",
        {"gold": args.gold, "pred": args.pred},
        {
            "aggregate": args.aggregate,
            "filter_nondialogic": args.filter_nondialogic,
            "bootstrap": args.bootstrap,
            "level": args.level,
            "strict": args.strict,
        },
        seed=args.seed,
    )
    payload = {"manifest": manifest, "report": report.as_dict()}
    _emit(payload, args.format, _metric_table(report.as_dict()))
    return 0


def cmd_agree(args) -> int:
    batches = load_annotators(args.manifest)
    report = pairwise_agreement(batches, _eval_config(args))
    manifest = _manifest(
        "agree",
        {"manifest": args.manifest},
        {"aggregate": args.aggregate,
         "filter_nondialogic": args.filter_nondialogic},
        seed=args.seed,
    )
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
    out_root = Path(args.out)
    single_file = out_root.suffix == ".json" and len(corpus) == 1
    if not single_file:
        out_root.mkdir(parents=True, exist_ok=True)

    written = []
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
        blob = serialize_annotation_json(records)
        target = out_root if single_file else out_root / f"{clip_id}.annotation.json"
        target.write_bytes(blob)
        written.append(str(target))

    manifest = _manifest(
        "baseline",
        {"corpus": args.corpus, **({"faces": args.faces} if args.faces else {}),
         **({"words": args.words} if args.words else {})},
        {"mode": args.mode},
        seed=args.seed,
    )
    payload = {"manifest": manifest, "written": written}
    _emit(payload, args.format, ["written:"] + [f"  {w}" for w in written])
    return 0


def _require(path: str | None, what: str) -> Path:
    if not path:
        raise CorpusError(f"missing required input: {what}")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _clips(args) -> list:
    return list(load_corpus(args.corpus).values())  # in clip id order


def _gender_map(args, manifest_inputs) -> dict:
    gender_path = _require(args.gender_map, "--gender-map")
    manifest_inputs["gender_map"] = args.gender_map
    return parse_gender_map_tsv(gender_path.read_bytes())


def _analyze_threads(args, manifest_inputs, config) -> dict:
    config.update(include_nondialogic=args.include_nondialogic,
                  bootstrap=args.bootstrap or 10_000, level=args.level,
                  permutations=args.permutations)
    return gender_thread_shares(
        _clips(args),
        _gender_map(args, manifest_inputs),
        include_nondialogic=args.include_nondialogic,
        config=BootstrapConfig(resamples=config["bootstrap"], level=args.level,
                               seed=args.seed),
        permutations=args.permutations,
    ).as_dict()


def _analyze_roles(args, manifest_inputs, config) -> dict:
    return role_report(_clips(args), _gender_map(args, manifest_inputs)).as_dict()


def _analyze_logodds(args, manifest_inputs, config) -> dict:
    docs = utterance_documents(_clips(args), args.filter_nondialogic)
    config.update(filter_nondialogic=args.filter_nondialogic, min_count=args.min_count,
                  c_star=args.c_star,
                  grid=[float(c) for c in args.grid.split(",")] if args.grid else None,
                  permutations=args.permutations, top=args.top)
    return logodds_report(docs, min_count=args.min_count, c_star=args.c_star,
                          grid=config["grid"], permutations=args.permutations,
                          seed=args.seed, top=args.top)


def _analyze_correlate(args, manifest_inputs, config) -> dict:
    features_path = _require(args.features, "features CSV")
    with features_path.open(newline="", encoding="utf-8") as handle:
        return feature_correlations(list(csv.DictReader(handle)))


_ANALYZE_HANDLERS = {
    "threads": _analyze_threads,
    "roles": _analyze_roles,
    "logodds": _analyze_logodds,
    "correlate": _analyze_correlate,
}


def cmd_analyze(args) -> int:
    """Each handler adds the inputs it reads and the flags it uses to the manifest."""
    handler = _ANALYZE_HANDLERS[args.what]
    inputs = {name: getattr(args, name) for name in ("corpus", "features")
              if getattr(args, name)}
    config: dict = {}
    report = handler(args, inputs, config)
    manifest = _manifest(f"analyze {args.what}", inputs, config, seed=args.seed)
    _emit({"manifest": manifest, "report": report}, args.format, _flatten_table(report))
    return 0


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
            rendered = ", ".join(_format_cell(_jsonify(v)) for v in value)
            lines.append(f"{label:<32} [{rendered}]")
        elif isinstance(value, float):
            lines.append(f"{label:<32} {value:>12.4f}")
        else:
            lines.append(f"{label:<32} {value}")
    return lines


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--aggregate", choices=("micro", "macro"), default="micro",
                        help="role-metric aggregation granularity")
    common.add_argument("--bootstrap", type=int, default=0, metavar="N",
                        help="bootstrap resamples for CIs (0 = off)")
    common.add_argument("--level", type=float, default=0.95,
                        help="confidence level for intervals")
    common.add_argument("--filter-nondialogic", action="store_true",
                        help="drop extra-diegetic/monologue lines from scoring")
    common.add_argument("--strict", action="store_true",
                        help="escalate warnings to errors; reject unknown keys")
    common.add_argument("--format", choices=("json", "table"), default="json")

    parser = argparse.ArgumentParser(
        prog="convstruct",
        description="Multi-party conversation structure toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate corpus files, emit JSON-lines diagnostics")
    p.add_argument("paths", nargs="+")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("agree", parents=[common],
                       help="pairwise inter-annotator agreement")
    p.add_argument("manifest", help="JSON mapping annotator_id to annotation file")
    p.set_defaults(handler=cmd_agree)

    p = sub.add_parser("baseline", parents=[common], help="run the heuristic baseline")
    p.add_argument("corpus")
    p.add_argument("--mode", choices=("full", "reply-only"), required=True)
    p.add_argument("--faces", help="face track JSON file or directory")
    p.add_argument("--words", help="word token TSV file or directory")
    p.add_argument("--out", required=True, help="output file or directory")
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("analyze", parents=[common], help="statistical analyses")
    p.add_argument("what", choices=sorted(_ANALYZE_HANDLERS))
    p.add_argument("corpus", nargs="?", help="corpus directory (threads/roles/logodds)")
    p.add_argument("--gender-map", help="participant metadata TSV")
    p.add_argument("--features", help="clip-level feature CSV (correlate)")
    p.add_argument("--permutations", type=int, default=1000,
                   help="permutation count for tests/calibration")
    p.add_argument("--grid", help="comma-separated prior-strength candidates")
    p.add_argument("--c-star", type=float, help="fix the prior strength, skip calibration")
    p.add_argument("--min-count", type=int, default=5,
                   help="minimum pooled term count for log-odds")
    p.add_argument("--top", type=int, default=10, help="terms listed per direction")
    p.add_argument("--include-nondialogic", action="store_true",
                   help="keep extra-diegetic/monologue lines in thread events")
    p.set_defaults(handler=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.what != "correlate" and not args.corpus:
        sys.stderr.write(f"error: analyze {args.what} requires a corpus path\n")
        return 1
    try:
        return args.handler(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CorpusError, MetricInputError, StatsError, AgreementError,
            json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
