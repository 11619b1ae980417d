"""Command-line entry point for reproducible batch runs.

Commands: validate, evaluate, agree, baseline, analyze {threads|roles|logodds|
correlate}. Each command accepts only the flags it reads. Every report embeds
a run manifest with input digests and, as config, the command's other flags;
identical inputs, flags, and seed produce byte-identical output. Exit codes:
0 success, 1 domain error, 2 I/O or usage error. The commands only parse
arguments, call the library, and emit its reports. Each command imports the
library modules it runs, so `--help`, usage errors and `validate` load neither
numpy nor scipy.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from .corpus import (
    ERROR,
    WARNING,
    AgreementError,
    CorpusError,
    MetricInputError,
    StatsError,
    _sorted_files,
    iter_corpus,
    load_structures,
    parse_gender_map_tsv,
    serialize_annotation_json,
    validate_paths,
)

METRIC_LABELS = {
    "speaker_acc": "Speaker (Acc.)",
    "addressee_f1": "Addressees (Set F1)",
    "side_participant_f1": "Side-part. (Set F1)",
    "link_f1": "Linking (F1)",
    "nvi_score": "1-NVI",
    "one_to_one": "1-1",
    "exact_match_f1": "EM F1",
}


class _Reads(dict):
    """The sha256 of each file a run read through `read`, by path string, so
    that the manifest digests the bytes parsed; a file never read is hashed
    on lookup."""

    def read(self, path: Path) -> bytes:
        data = path.read_bytes()
        self[str(path)] = hashlib.sha256(data).digest()
        return data

    def __missing__(self, path: str) -> bytes:
        digest = self[path] = hashlib.sha256(Path(path).read_bytes()).digest()
        return digest


def _digest_path(path: Path, reads: _Reads) -> str:
    if path.is_file():
        return reads[str(path)].hex()
    digest = hashlib.sha256()
    for rel, child in _sorted_files(path):
        digest.update(rel.encode("utf-8"))
        digest.update(b"\0")
        digest.update(reads[child])
    return digest.hexdigest()


# The manifest records as inputs the paths among these that a run was given, and
# as config every other flag its parser declares except the parser's own keys
# and the flags that name outputs, randomness and rendering.
_INPUTS = ("gold", "pred", "manifest", "corpus", "faces", "words", "gender_map",
           "features")
_NOT_CONFIG = ("command", "analysis", "handler", "out", "seed", "format")


def _manifest(command: str, args: argparse.Namespace, reads: _Reads) -> dict:
    inputs, digests, config = {}, {}, {}
    digested: dict[str, str] = {}  # a path given for several inputs is digested once
    for name, value in vars(args).items():
        if name in _INPUTS:
            if value:
                if value not in digested:
                    digested[value] = _digest_path(Path(value), reads)
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


def _emit(payload: dict, fmt: str, table: Callable[[], list[str]]) -> None:
    """Write the payload as JSON, or with `--format table` the lines that
    `table` builds; they are built only then."""
    if fmt == "table":
        sys.stdout.write("\n".join(table()) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _metric_table(report_dict: dict) -> list[str]:
    from .metrics import METRIC_FIELDS

    lines = [f"{'metric':<22}{'score':>8}  ci95"]
    ci = report_dict.get("ci", {})
    for name in METRIC_FIELDS:
        bounds = ci.get(name)
        span = f"[{bounds[0]:.2f}, {bounds[1]:.2f}]" if bounds else ""
        lines.append(f"{METRIC_LABELS[name]:<22}{report_dict[name]:>8.2f}  {span}".rstrip())
    lines.append(
        f"n_utterances={report_dict['n_utterances']} n_clips={report_dict['n_clips']}"
    )
    return lines


def _agreement_table(report) -> list[str]:
    lines = ["overall:"] + _metric_table(report.overall.as_dict())
    for pair, pair_report in sorted(report.per_pair.items()):
        lines.append(f"pair {pair[0]} x {pair[1]}:")
        lines.extend(_metric_table(pair_report.as_dict()))
    return lines


# --- commands -----------------------------------------------------------------


def cmd_validate(args, reads: _Reads) -> int:
    diags = validate_paths(args.paths, args.strict)
    for diag in diags:
        sys.stdout.write(json.dumps(diag.as_dict()) + "\n")
    has_error = any(
        d.severity == ERROR or (args.strict and d.severity == WARNING)
        for d in diags
    )
    return 1 if has_error else 0


def cmd_evaluate(args, reads: _Reads) -> int:
    from .metrics import EvalConfig, evaluate_corpus
    from .stats import BootstrapConfig

    gold = load_structures(args.gold, strict=args.strict, read=reads.read)
    pred = load_structures(args.pred, strict=args.strict, read=reads.read)
    bootstrap = (BootstrapConfig(resamples=args.bootstrap, level=args.level,
                                 seed=args.seed) if args.bootstrap else None)
    report = evaluate_corpus(
        gold, pred, EvalConfig(args.aggregate, args.filter_nondialogic, bootstrap))
    report_dict = report.as_dict()
    payload = {"manifest": _manifest("evaluate", args, reads), "report": report_dict}
    _emit(payload, args.format, lambda: _metric_table(report_dict))
    return 0


def cmd_agree(args, reads: _Reads) -> int:
    from .agreement import load_annotators, pairwise_agreement
    from .metrics import EvalConfig

    batches = load_annotators(args.manifest, reads.read)
    report = pairwise_agreement(
        batches, EvalConfig(args.aggregate, args.filter_nondialogic))
    manifest = _manifest("agree", args, reads)
    # the manifest file only names the annotator files; digest what they hold too
    digest = hashlib.sha256(bytes.fromhex(manifest["digests"]["manifest"]))
    for batch in batches:
        digest.update(reads[str(batch.path)])
    manifest["digests"]["manifest"] = digest.hexdigest()
    payload = {"manifest": manifest, "report": report.as_dict()}
    _emit(payload, args.format, lambda: _agreement_table(report))
    return 0


def cmd_baseline(args, reads: _Reads) -> int:
    from .baseline import run_corpus_baseline

    # each clip is run as it is parsed, in clip id order, and only its written
    # bytes are kept: no file is written before every prediction exists
    predictions = {clip_id: serialize_annotation_json(records)
                   for clip_id, records in run_corpus_baseline(
                       iter_corpus(args.corpus, strict=args.strict, read=reads.read),
                       args.faces, args.words, reads.read)}
    if not predictions:
        raise CorpusError(f"no clips found under {args.corpus}")
    out_root = Path(args.out)
    single_file = out_root.suffix == ".json" and len(predictions) == 1
    targets = [out_root if single_file else out_root / f"{clip_id}.annotation.json"
               for clip_id in predictions]
    corpus, inputs = Path(args.corpus).resolve(), {Path(path).resolve() for path in reads}
    if any(t.resolve() in inputs or t.parent.resolve() == corpus for t in targets):
        raise FileExistsError(f"--out {args.out} writes into the corpus or over an input")
    # digest the inputs before any output lands beside them
    payload = {"manifest": _manifest("baseline", args, reads),
               "written": [str(target) for target in targets]}
    if not single_file:
        out_root.mkdir(parents=True, exist_ok=True)
    for target, data in zip(targets, predictions.values()):
        target.write_bytes(data)
    _emit(payload, args.format,
          lambda: ["written:"] + [f"  {w}" for w in payload["written"]])
    return 0


def _require(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _gender_map(path: str, reads: _Reads) -> dict:
    return parse_gender_map_tsv(reads.read(_require(path, "--gender-map")))


def _emit_analysis(args, report: dict, reads: _Reads) -> int:
    manifest = _manifest(f"analyze {args.analysis}", args, reads)
    _emit({"manifest": manifest, "report": report}, args.format,
          lambda: _flatten_table(report))
    return 0


def cmd_threads(args, reads: _Reads) -> int:
    from .stats import BootstrapConfig, gender_thread_shares

    return _emit_analysis(args, gender_thread_shares(
        iter_corpus(args.corpus, read=reads.read),
        _gender_map(args.gender_map, reads),
        include_nondialogic=args.include_nondialogic,
        config=BootstrapConfig(resamples=args.bootstrap, level=args.level,
                               seed=args.seed),
        permutations=args.permutations,
    ).as_dict(), reads)


def cmd_roles(args, reads: _Reads) -> int:
    from .stats import role_report

    # the role counts read no transcript, so none is parsed; the manifest
    # still digests them. Each clip is counted as it is parsed.
    return _emit_analysis(args, role_report(
        iter_corpus(args.corpus, read=reads.read, utterances=False),
        _gender_map(args.gender_map, reads)), reads)


def cmd_logodds(args, reads: _Reads) -> int:
    from .stats import logodds_report, utterance_documents

    # each clip's documents are counted as it is parsed, in clip id order
    docs = utterance_documents(iter_corpus(args.corpus, read=reads.read),
                               args.filter_nondialogic)
    return _emit_analysis(args, logodds_report(
        docs, min_count=args.min_count, c_star=args.c_star, grid=args.grid,
        permutations=args.permutations, seed=args.seed, top=args.top), reads)


def cmd_correlate(args, reads: _Reads) -> int:
    from .stats import feature_correlations, read_features_csv

    data = reads.read(_require(args.features, "features CSV"))
    report = feature_correlations(read_features_csv(
        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")))
    return _emit_analysis(args, report, reads)


def _format_cell(value) -> str:
    """A float to 4 decimals, a list as its formatted cells in brackets."""
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_format_cell, value)) + "]"
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
            columns = list(dict.fromkeys(c for row in value for c in row))
            widths = {
                c: max(len(c), *(len(_format_cell(row.get(c, ""))) for row in value))
                for c in columns
            }
            # each cell is padded to its column's width, but no line ends in spaces
            lines.append((prefix + "  " + "  ".join(
                c.ljust(widths[c]) for c in columns)).rstrip())
            for row in value:
                lines.append((prefix + "  " + "  ".join(
                    _format_cell(row.get(c, "")).ljust(widths[c]) for c in columns)).rstrip())
        elif isinstance(value, list):
            lines.append(f"{label:<32} {_format_cell(value)}")
        elif isinstance(value, float):
            lines.append(f"{label:<32} {value:>12.4f}")
        else:
            lines.append(f"{label:<32} {value}")
    return lines


# --- parser -------------------------------------------------------------------

def _path(text: str) -> str:
    """Argument type of every path: an empty string names no file, and as a
    `Path` it would silently mean the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _seed(text: str) -> int:
    """Argument type of `--seed`: numpy seeds only from non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


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
    "--gender-map": dict(type=_path, required=True, help="participant metadata TSV"),
    "--permutations": dict(type=int, default=1000,
                           help="permutation count for tests/calibration"),
    "--seed": dict(type=_seed, default=0, help="random seed (>= 0)"),
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
    p.add_argument("paths", nargs="+", type=_path)
    _flags(p, "--strict")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("gold", type=_path)
    p.add_argument("pred", type=_path)
    _flags(p, "--aggregate", "--filter-nondialogic", "--bootstrap", "--level",
           "--strict", "--seed", "--format")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("agree", help="pairwise inter-annotator agreement")
    p.add_argument("manifest", type=_path,
                   help="JSON mapping annotator_id to annotation file")
    _flags(p, "--aggregate", "--filter-nondialogic", "--format")
    p.set_defaults(handler=cmd_agree)

    p = sub.add_parser("baseline", help="run the heuristic baseline")
    p.add_argument("corpus", type=_path)
    p.add_argument("--mode", choices=("full", "reply-only"), required=True)
    p.add_argument("--faces", type=_path, help="face track JSON file or directory")
    p.add_argument("--words", type=_path, help="word token TSV file or directory")
    p.add_argument("--out", type=_path, required=True, help="output file or directory")
    _flags(p, "--strict", "--format")
    p.set_defaults(handler=cmd_baseline)

    analyze = sub.add_parser("analyze", help="statistical analyses")
    analyses = analyze.add_subparsers(dest="analysis", required=True)

    p = analyses.add_parser("threads", help="female shares of thread starts and holds")
    p.add_argument("corpus", type=_path)
    _flags(p, "--gender-map")
    p.add_argument("--include-nondialogic", action="store_true",
                   help="keep extra-diegetic/monologue lines in thread events")
    p.add_argument("--bootstrap", type=int, default=10_000, metavar="N",
                   help="bootstrap resamples for CIs")
    _flags(p, "--level", "--permutations", "--seed", "--format")
    p.set_defaults(handler=cmd_threads)

    p = analyses.add_parser("roles", help="role distributions and the gender logit")
    p.add_argument("corpus", type=_path)
    _flags(p, "--gender-map", "--format")
    p.set_defaults(handler=cmd_roles)

    p = analyses.add_parser("logodds", help="register shift under side-participants")
    p.add_argument("corpus", type=_path)
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
    p.add_argument("--features", type=_path, required=True,
                   help="clip-level feature CSV")
    _flags(p, "--format")
    p.set_defaults(handler=cmd_correlate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "baseline" and args.mode == "reply-only":
        for flag, path in (("--faces", args.faces), ("--words", args.words)):
            if path is not None:
                parser.error(f"baseline --mode reply-only does not read {flag}")
    if args.command == "baseline" and args.mode == "full" and args.faces is None:
        parser.error("baseline --mode full requires --faces (and usually --words)")
    try:
        return args.handler(args, _Reads())
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CorpusError, MetricInputError, StatsError, AgreementError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
