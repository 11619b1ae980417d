"""Outside-in spans around convstruct's public functions.

`Tracer.install()` replaces each traced function with a timing wrapper in
every convstruct module that holds a reference to it (a name bound by
`from .x import f` in another module would otherwise bypass the span), so no
file under src/ changes. Spans stay in memory and are written once, at the end.

Counts that need work beyond reading a length (contingency nonzeros, file
sizes) are computed between rounds from references the wrapper kept, so that
work lands in no span and in no timed round.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _partition_counts(a):
    gold, pred = a["gold"], a["pred"]
    label = {}
    for g, cluster in enumerate(gold.clusters):
        for x in cluster:
            label[x] = g
    nonzero = {(label[x], p) for p, cluster in enumerate(pred.clusters) for x in cluster}
    return {"cells": len(gold.clusters) * len(pred.clusters), "nonzero": len(nonzero),
            "n": len(label)}


def _path_bytes(a):
    path = Path(a["path"])
    if path.is_file():
        return {"digest_bytes": path.stat().st_size}
    return {"digest_bytes": sum(p.stat().st_size for p in path.rglob("*") if p.is_file())}


def _bootstrap_draws(a):
    resamples = a["config"].resamples if a["config"] is not None else 10_000
    return {"calls": 1, "draws": resamples * len(a["units"])}


def _face_pairs(a):
    spans = sum(len(t.spans) for t in a["tracks"])
    return {"pairs": len(a["words"]) * spans,
            "n": len({w.line_idx for w in a["words"]})}


def _gender_events(a):
    report = a["return"]
    return {"events": report.start.n_events + report.hold.n_events}


# (layer, module, function, counter). A counter maps the bound arguments
# (plus "return") to counts; it runs between rounds. A function missing from
# the code under test is skipped and listed in the result.
TARGETS = [
    ("corpus.parse", "convstruct.corpus", "load_structures", None),
    ("corpus.parse", "convstruct.corpus", "load_corpus", None),
    ("corpus.parse", "convstruct.corpus", "parse_annotation_json",
     lambda a: {"records": len(a["return"])}),
    ("corpus.parse", "convstruct.corpus", "parse_transcript_tsv", None),
    ("corpus.parse", "convstruct.corpus", "parse_cast_json", None),
    ("corpus.serialize", "convstruct.corpus", "serialize_annotation_json", None),
    ("threads.derive", "convstruct.threads", "derive_threads",
     lambda a: {"lines": len(a["records"])}),
    ("threads.derive", "convstruct.threads", "link_set",
     lambda a: {"lines": len(a["records"])}),
    ("threads.events", "convstruct.threads", "thread_events", None),
    ("metrics.score_clip", "convstruct.metrics", "score_clip", lambda a: {"calls": 1}),
    ("metrics.partition", "convstruct.metrics", "nvi_score", None),
    ("metrics.partition", "convstruct.metrics", "one_to_one", _partition_counts),
    ("metrics.partition", "convstruct.metrics", "exact_match", None),
    ("metrics.evaluate", "convstruct.metrics", "evaluate_corpus", None),
    ("stats.bootstrap", "convstruct.stats.bootstrap", "bootstrap_ci", _bootstrap_draws),
    ("agreement", "convstruct.agreement", "pairwise_agreement",
     lambda a: {"pairs": len(a["batches"]) * (len(a["batches"]) - 1) // 2}),
    ("baseline.face_counts", "convstruct.baseline", "face_word_counts", _face_pairs),
    ("baseline.run", "convstruct.baseline", "run_baseline", None),
    ("baseline.parse", "convstruct.baseline", "parse_face_tracks_json", None),
    ("baseline.parse", "convstruct.baseline", "parse_word_tokens_tsv", None),
    ("stats.gender", "convstruct.stats.gender", "gender_thread_shares", _gender_events),
    ("stats.logodds.counts", "convstruct.stats.logodds", "TermCounts.from_documents",
     None),
    ("stats.logodds.calibrate", "convstruct.stats.logodds", "calibrate_prior",
     lambda a: {"tables": a["permutations"] * len(a["counts"].shows)}),
    ("stats.regression.fit", "convstruct.stats.regression", "multinomial_logit",
     lambda a: {"obs": a["return"].n_obs, "iters": a["return"].n_iter}),
    ("cli", "convstruct.cli", "main", None),
]
# Counted but not timed: a span here would take the digest out of cli.self_s.
COUNT_ONLY = [("cli", "convstruct.cli", "_digest_path", _path_bytes)]

LAYERS = list(dict.fromkeys(layer for layer, *_ in TARGETS))
# Layers whose counter reports an input size "n" (clip lines): their time
# per parent span is fitted against it.
SLOPE_LAYERS = ("metrics.partition", "baseline.face_counts")

# Per-layer metrics taken from the traced rounds: name -> (unit, how).
# "busy" sums the outermost spans of a layer, "self" subtracts child spans,
# "count" sums a counter; all three are per round, median over rounds.
LAYER_METRICS = {
    "corpus.parse.busy_s": ("s", "busy", "corpus.parse"),
    "corpus.parse.records": ("count", "count", "corpus.parse.records"),
    "corpus.serialize.busy_s": ("s", "busy", "corpus.serialize"),
    "threads.derive.busy_s": ("s", "busy", "threads.derive"),
    "threads.derive.lines": ("count", "count", "threads.derive.lines"),
    "threads.events.busy_s": ("s", "busy", "threads.events"),
    "metrics.score_clip.self_s": ("s", "self", "metrics.score_clip"),
    "metrics.score_clip.calls": ("count", "count", "metrics.score_clip.calls"),
    "metrics.partition.busy_s": ("s", "busy", "metrics.partition"),
    "metrics.partition.cells": ("count", "count", "metrics.partition.cells"),
    "metrics.evaluate.self_s": ("s", "self", "metrics.evaluate"),
    "stats.bootstrap.busy_s": ("s", "busy", "stats.bootstrap"),
    "stats.bootstrap.calls": ("count", "count", "stats.bootstrap.calls"),
    "stats.bootstrap.draws": ("count", "count", "stats.bootstrap.draws"),
    "agreement.self_s": ("s", "self", "agreement"),
    "agreement.pairs": ("count", "count", "agreement.pairs"),
    "baseline.face_counts.busy_s": ("s", "busy", "baseline.face_counts"),
    "baseline.face_counts.pairs": ("count", "count", "baseline.face_counts.pairs"),
    "baseline.run.self_s": ("s", "self", "baseline.run"),
    "baseline.parse.busy_s": ("s", "busy", "baseline.parse"),
    "stats.gender.self_s": ("s", "self", "stats.gender"),
    "stats.gender.events": ("count", "count", "stats.gender.events"),
    "stats.logodds.counts.busy_s": ("s", "busy", "stats.logodds.counts"),
    "stats.logodds.calibrate.busy_s": ("s", "busy", "stats.logodds.calibrate"),
    "stats.logodds.calibrate.tables": ("count", "count", "stats.logodds.calibrate.tables"),
    "stats.regression.fit.busy_s": ("s", "busy", "stats.regression.fit"),
    "stats.regression.fit.obs": ("count", "count", "stats.regression.fit.obs"),
    "stats.regression.fit.iters": ("count", "count", "stats.regression.fit.iters"),
    "cli.self_s": ("s", "self", "cli"),
    "cli.digest_bytes": ("bytes", "count", "cli.digest_bytes"),
}


def _loglog_slope(points: list[tuple[int, float]]) -> tuple[float, int, int]:
    """Least-squares slope of log(time) on log(n), over per-n medians."""
    by_n = defaultdict(list)
    for n, t in points:
        if n > 0 and t > 0:
            by_n[n].append(t)
    if len(by_n) < 3:
        return 0.0, 0, 0
    xs = [math.log(n) for n in sorted(by_n)]
    ys = [math.log(statistics.median(by_n[n])) for n in sorted(by_n)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return slope, min(by_n), max(by_n)


class Tracer:
    """Collects spans (name, layer, start, end, parent, round, command, error)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.round = 0
        self.command = ""
        self.pending: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # (layer, parent span) -> input size, for the log-log slopes
        self.slope_n: dict[tuple[str, int], int] = {}
        self.missing: list[str] = []
        self.counter_errors: list[str] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        import convstruct.cli  # noqa: F401  (imports every module it uses)

        for layer, module_name, name, counter in TARGETS:
            self._patch(layer, module_name, name, counter, timed=True)
        for layer, module_name, name, counter in COUNT_ONLY:
            self._patch(layer, module_name, name, counter, timed=False)

    def _patch(self, layer, module_name, name, counter, timed):
        module = importlib.import_module(module_name)
        if "." in name:
            owner_name, attr = name.split(".")
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if not isinstance(raw, classmethod):
                self.missing.append(f"{module_name}.{name}")
                return
            wrapped = self._wrap(layer, name, raw.__func__, counter, timed)
            setattr(owner, attr, classmethod(wrapped))
            return
        original = getattr(module, name, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{name}")
            return
        wrapped = self._wrap(layer, name, original, counter, timed)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("convstruct"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _wrap(self, layer, name, fn, counter, timed):
        spans, stack, pending = self.spans, self.stack, self.pending
        signature = inspect.signature(fn)
        clock = time.perf_counter

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                pending.append((-1, layer, signature, counter, args, kwargs, result,
                                self.round))
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.round,
                              self.command, error)
            if counter is not None:
                pending.append((idx, layer, signature, counter, args, kwargs, result,
                                self.round))
            return result
        return traced

    # --- between rounds -----------------------------------------------------

    def settle(self) -> None:
        """Run the deferred counters for the round just finished."""
        for idx, layer, signature, counter, args, kwargs, result, rnd in self.pending:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                found = counter({**bound.arguments, "return": result})
            except Exception as exc:  # a changed signature must not stop the run
                self.counter_errors.append(f"{layer}: {type(exc).__name__}: {exc}")
                continue
            if "n" in found:
                self.slope_n[(layer, self.spans[idx][4])] = found.pop("n")
            for key, value in found.items():
                self.counts[rnd][f"{layer}.{key}"] += value
        self.pending.clear()

    # --- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "round", "command", "error")
        with path.open("w", encoding="utf-8") as handle:
            for idx, span in enumerate(self.spans):
                handle.write(json.dumps({"id": idx, **dict(zip(keys, span))}) + "\n")

    def metrics(self, rounds: list[int]) -> dict:
        """Per-round layer metrics (median over `rounds`) plus layer shares."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        errors = defaultdict(int)
        # per command: summed duration of its cli spans, and of each layer in it
        command_s = defaultdict(float)
        command_layer_s = defaultdict(lambda: defaultdict(float))
        for idx, (name, layer, start, end, parent, rnd, command, error) in enumerate(spans):
            dur = end - start
            own[rnd][layer] += dur - child[idx]
            up = parent
            while up >= 0 and spans[up][1] != layer:
                up = spans[up][4]
            if up >= 0:
                continue
            busy[rnd][layer] += dur
            errors[layer] += error
            command_layer_s[command][layer] += dur
            if layer == "cli":
                command_s[command] += dur

        out = {}
        for metric, (unit, how, key) in LAYER_METRICS.items():
            table = {"busy": busy, "self": own, "count": self.counts}[how]
            values = [table[r].get(key, 0.0) for r in rounds]
            out[metric] = (statistics.median(values) if values else 0.0, unit)

        cells = sum(self.counts[r].get("metrics.partition.cells", 0.0) for r in rounds)
        nonzero = sum(self.counts[r].get("metrics.partition.nonzero", 0.0) for r in rounds)
        out["metrics.partition.nonzero_frac"] = (nonzero / cells if cells else 0.0, "ratio")

        # one point per parent span: a clip's three partition metrics together
        layer_t = defaultdict(float)
        for name, layer, start, end, parent, *_ in spans:
            if (layer, parent) in self.slope_n:
                layer_t[(layer, parent)] += end - start
        for layer in SLOPE_LAYERS:
            slope, lo, hi = _loglog_slope([(self.slope_n[key], t)
                                           for key, t in layer_t.items() if key[0] == layer])
            out[f"{layer}.slope"] = (slope, "ratio")
            out[f"{layer}.slope_n_min"] = (lo, "lines")
            out[f"{layer}.slope_n_max"] = (hi, "lines")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (errors[layer], "count")

        shares = {
            command: {layer: s / command_s[command]
                      for layer, s in sorted(layers.items()) if layer != "cli"}
            for command, layers in sorted(command_layer_s.items()) if command_s[command]
        }
        return {"metrics": out, "shares": shares, "missing": self.missing,
                "counter_errors": self.counter_errors[:20]}
