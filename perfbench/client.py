"""The workload process: a closed loop of CLI commands with one client.

Run by run.py in a fresh single-threaded interpreter. Each round calls
`convstruct.cli.main(argv)` in-process for every command of the workload,
one after the other, and every command re-reads its inputs from disk as a
CLI run would. Only the `main` call is timed; output checks run between
commands. With --trace 1 the first half of the time runs untraced (command
times, overhead baseline) and the second half traced (layer metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BOOTSTRAP = "10000"
TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value, expected, what: str) -> None:
    _require(isinstance(value, (int, float)) and abs(value - expected) <= TOLERANCE,
             f"{what} is {value!r}, expected {expected!r}")


def _check_scores(report: dict, expect: dict) -> None:
    _require(report["n_clips"] == expect["n_clips"],
             f"n_clips {report['n_clips']} != {expect['n_clips']}")
    _require(report["n_utterances"] == expect["n_utterances"],
             f"n_utterances {report['n_utterances']} != {expect['n_utterances']}")
    for name, value in report["raw"].items():
        if name != "ci":
            _require(0.0 <= value <= 100.0, f"{name} = {value} is outside [0, 100]")


def check_evaluate_pred(payload, expect, ctx):
    report = payload["report"]
    _check_scores(report, expect)
    _close(report["raw"]["speaker_acc"], expect["speaker_acc"], "speaker_acc")
    _close(report["raw"]["link_f1"], expect["link_f1"], "link_f1")
    if ctx["bootstrap"]:
        ci = report["raw"].get("ci", {})
        _require(len(ci) == 7, f"expected 7 intervals, got {sorted(ci)}")
        for name, (lo, hi) in ci.items():
            _require(0.0 <= lo <= hi <= 100.0, f"bad interval for {name}: {lo}, {hi}")


def check_evaluate_baseline(payload, expect, ctx):
    report = payload["report"]
    _check_scores(report, expect)
    _close(report["raw"]["link_f1"], expect["baseline_link_f1"], "link_f1")


def check_agree(payload, expect, ctx):
    report = payload["report"]
    pairs = expect["agree_pairs"]
    _require(len(report["per_pair"]) == pairs, f"{len(report['per_pair'])} pairs")
    _require(not report["skipped_pairs"], f"skipped {report['skipped_pairs']}")
    overall = report["overall"]
    _require(overall["n_clips"] == expect["n_clips"], "overall n_clips")
    _require(overall["n_utterances"] == pairs * expect["n_utterances"],
             f"overall n_utterances {overall['n_utterances']}")
    _close(overall["raw"]["speaker_acc"], expect["agree_speaker_acc"], "speaker_acc")


def _check_written(payload, expect, ctx):
    written = [Path(p) for p in payload["written"]]
    _require(len(written) == expect["n_clips"], f"{len(written)} files written")
    digests = {}
    for path in written:
        clip_id = path.name[: -len(".annotation.json")]
        _require(clip_id in expect["clip_lines"], f"unexpected output {path.name}")
        digests[clip_id] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check_baseline_full(payload, expect, ctx):
    ctx["files"] = _check_written(payload, expect, ctx)


def check_baseline_reply(payload, expect, ctx):
    digests = _check_written(payload, expect, ctx)
    for clip_id, digest in digests.items():
        _require(digest == expect["reply_only_sha256"][clip_id],
                 f"reply-only output for {clip_id} differs from the independent build")
    ctx["files"] = digests


def check_analyze_threads(payload, expect, ctx):
    report = payload["report"]
    _require(report["start"]["n_events"] == expect["start_events"],
             f"start events {report['start']['n_events']} != {expect['start_events']}")
    _require(report["hold"]["n_events"] == expect["hold_events"],
             f"hold events {report['hold']['n_events']} != {expect['hold_events']}")
    for kind in ("start", "hold"):
        share = report[kind]
        lo, hi = share["ci"]
        _require(0.0 <= lo <= hi <= 1.0 and 0.0 <= share["female_share"] <= 1.0,
                 f"{kind} share out of range")
    for kind in ("delta_start", "delta_hold"):
        delta = report[kind]
        _require(0 < delta["n_clips"] <= expect["n_clips"], f"{kind} n_clips")
        _require(0.0 < delta["p_value"] <= 1.0, f"{kind} p_value")


def check_analyze_logodds(payload, expect, ctx):
    report = payload["report"]
    _require(report["n_documents"] == expect["n_documents"],
             f"n_documents {report['n_documents']} != {expect['n_documents']}")
    _require(report["n_terms"] == expect["n_terms"],
             f"n_terms {report['n_terms']} != {expect['n_terms']}")
    _require(report["shows"] == expect["shows"], "shows differ")
    _require(report["c_star"] in report["calibration"]["grid"], "c_star not on the grid")
    _require(all(math.isfinite(z) for z in report["z"].values()), "non-finite z")


def check_analyze_roles(payload, expect, ctx):
    report = payload["report"]
    _require(report["n_observations"] == expect["n_observations"],
             f"n_observations {report['n_observations']} != {expect['n_observations']}")
    for role, row in expect["p_gender_given_role"].items():
        for gender, value in row.items():
            _close(report["p_gender_given_role"][role][gender], value,
                   f"P({gender} | {role})")
    _require(report["regression"]["n_iter"] >= 1, "logit did not iterate")


# name -> (argv from (data, out dir, knobs), annotation sets read, check)
COMMANDS = {
    "evaluate_boot": (lambda d, o, k: ["evaluate", d / "gold", d / "pred",
                                       "--bootstrap", BOOTSTRAP], 2, check_evaluate_pred),
    "analyze_threads": (lambda d, o, k: ["analyze", "threads", d / "gold", "--gender-map",
                                         d / "genders.tsv", "--bootstrap", BOOTSTRAP],
                        1, check_analyze_threads),
    "evaluate": (lambda d, o, k: ["evaluate", d / "gold", d / "pred"], 2,
                 check_evaluate_pred),
    "agree": (lambda d, o, k: ["agree", d / "agree" / "manifest.json"], 3, check_agree),
    "baseline_full": (lambda d, o, k: ["baseline", d / "gold", "--mode", "full",
                                       "--faces", d / "gold", "--words", d / "gold",
                                       "--out", o / "full"], 1, check_baseline_full),
    "baseline_reply": (lambda d, o, k: ["baseline", d / "gold", "--mode", "reply-only",
                                        "--out", o / "reply"], 1, check_baseline_reply),
    "evaluate_baseline": (lambda d, o, k: ["evaluate", d / "gold", o / "full"], 2,
                          check_evaluate_baseline),
    "analyze_logodds": (lambda d, o, k: ["analyze", "logodds", d / "gold",
                                         "--permutations", k["permutations"]],
                        1, check_analyze_logodds),
    "analyze_roles": (lambda d, o, k: ["analyze", "roles", d / "gold", "--gender-map",
                                       d / "genders.tsv"], 1, check_analyze_roles),
}


def _numbers(value, prefix=""):
    """Flatten every number (not bool) in a JSON value to path -> number."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{prefix}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{prefix}/{i}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield prefix, value


def reference_view(payload: dict, ctx: dict) -> dict:
    """What the seed-0 reference pins: the `raw` scores of evaluate and agree
    reports, every number of an analyze report, and digests of written files."""
    report = payload.get("report")
    if report is None:
        return {"files": ctx.get("files", {})}
    if "raw" in report:
        return {"numbers": dict(_numbers(report["raw"], "/raw"))}
    if "overall" in report:
        subtree = {"overall": report["overall"]["raw"],
                   "per_pair": {k: v["raw"] for k, v in report["per_pair"].items()}}
        return {"numbers": dict(_numbers(subtree))}
    return {"numbers": dict(_numbers(report))}


def check_reference(view: dict, reference: dict, name: str) -> None:
    if "files" in reference:
        _require(view["files"] == reference["files"],
                 f"{name}: written files differ from the seed-0 reference")
        return
    numbers = reference["numbers"]
    _require(set(view["numbers"]) == set(numbers),
             f"{name}: report fields differ from the seed-0 reference")
    for path, expected in numbers.items():
        value = view["numbers"][path]
        if isinstance(expected, int):
            _require(value == expected, f"{name}{path} is {value}, reference {expected}")
        else:
            _close(value, expected, f"{name}{path}")


class Loop:
    """Runs every command of every corpus of the workload, in order, per round."""

    def __init__(self, data: Path, expects: dict, references: dict):
        import convstruct.cli

        self.cli = convstruct.cli
        self.parts = [(corpus, data / corpus, expect) for corpus, expect in expects.items()]
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.views: dict = {corpus: {} for corpus in expects}

    def run_command(self, corpus: str, data: Path, expect: dict, name: str,
                    out: Path) -> tuple[float, float, int]:
        build, reads, check = COMMANDS[name]
        argv = [str(a) for a in build(data, out, expect["knobs"])]
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.command = name
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            _require(code == 0, f"exit code {code}: {stderr.getvalue().strip()[:300]}")
            payload = json.loads(stdout.getvalue())
            ctx = {"bootstrap": "--bootstrap" in argv}
            check(payload, expect, ctx)
            view = reference_view(payload, ctx)
            self.views[corpus][name] = view
            if corpus in self.references:
                check_reference(view, self.references[corpus][name], name)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            self.failed += 1
            if len(self.failures) < 10:
                detail = (str(exc) if isinstance(exc, CheckFailed)
                          else traceback.format_exc(limit=3))
                self.failures.append(f"{corpus} {name}: {detail}")
        return elapsed, cpu, reads * expect["n_utterances"]

    def run_round(self, round_id: int) -> tuple[float, int, dict, float]:
        """(command wall s, lines read, wall s per command, command CPU s)"""
        times, lines, cpu = {}, 0, 0.0
        for corpus, data, expect in self.parts:
            out = data / "out" / f"r{round_id}"
            for name in expect["knobs"]["commands"]:
                times[name], cpu_s, read = self.run_command(corpus, data, expect, name,
                                                            out)
                lines += read
                cpu += cpu_s
            shutil.rmtree(out, ignore_errors=True)
        return sum(times.values()), lines, times, cpu

    def phase(self, seconds: float, first_round: int, min_rounds: int) -> list:
        """Closed loop: the next round starts only when the previous one returned."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            round_id = first_round + len(rounds)
            if self.tracer is not None:
                self.tracer.round = round_id
            rounds.append((round_id, *self.run_round(round_id)))
            if self.tracer is not None:
                self.tracer.settle()
        return rounds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, help="directory of seed-0 references")
    parser.add_argument("--record-reference", type=Path,
                        help="write seed-0 references to this directory instead")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    expects = json.loads((args.data / "expect.json").read_text(encoding="utf-8"))
    references = {}
    for corpus in expects if args.reference is not None else ():
        path = args.reference / f"{corpus}.json"
        if path.exists():
            references[corpus] = json.loads(path.read_text(encoding="utf-8"))["commands"]
    loop = Loop(args.data, expects, references)

    warmup = loop.phase(0.0, 0, 1)
    result = {"warmup_s": warmup[0][1], "references": sorted(references)}
    if args.record_reference is not None:
        if loop.failed:
            sys.stderr.write("\n".join(loop.failures) + "\n")
            return 1
        for corpus, views in loop.views.items():
            (args.record_reference / f"{corpus}.json").write_text(json.dumps(
                {"corpus": corpus, "seed": expects[corpus]["seed"], "commands": views},
                indent=1, sort_keys=True) + "\n", encoding="utf-8")
    elif args.trace == 0:
        result["rounds"] = loop.phase(args.seconds, 1, 3)
    else:
        from tracing import Tracer

        result["rounds"] = loop.phase(args.seconds / 2, 1, 2)
        loop.tracer = Tracer()
        loop.tracer.install()
        traced = loop.phase(args.seconds / 2, 1 + len(result["rounds"]), 2)
        result["traced_rounds"] = traced
        result["trace"] = loop.tracer.metrics([r[0] for r in traced])
        result["trace"]["overhead_frac"] = (
            statistics.median(r[1] for r in traced)
            / statistics.median(r[1] for r in result["rounds"]) - 1.0)
        loop.tracer.write(args.result.with_name("spans.jsonl"))

    import numpy
    import scipy

    result.update({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
    })
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
