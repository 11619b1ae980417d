"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines; any
assertion failure prints the matching FAIL line. Criterion 6 needs the
released annotation corpus on disk (TV_MMPC_DATA env var) and is skipped,
i.e. waived, when it is absent.
"""

import contextlib
import dataclasses
import functools
import io
import json
import os
import random
import time

import numpy as np
import pytest

from convstruct.baseline import run_baseline
from convstruct.cli import main
from convstruct.corpus import Clip, Utterance, load_corpus, serialize_annotation_json
from convstruct.metrics import (
    EvalConfig,
    evaluate_corpus,
    exact_match,
    link_f1,
    nvi_score,
    one_to_one,
)
from convstruct.stats.bootstrap import BootstrapConfig, bootstrap_ratio_ci
from convstruct.stats.logodds import (
    TermCounts,
    calibrate_prior,
    weighted_logodds,
)
from convstruct.stats.regression import _design, multinomial_logit
from convstruct.threads import derive_threads, link_set

from conftest import random_clip, random_partition, table4_records
from test_metrics import (
    brute_force_exact_match,
    direct_vi_score,
    enumeration_one_to_one,
)
from test_regression import loglik_and_gradient


def criterion(number, description, limit_s=None):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                func(*args, **kwargs)
            except Exception:
                print(f"ACCEPTANCE {number} FAIL - {description}")
                raise
            elapsed = time.monotonic() - started
            if limit_s is not None and elapsed > limit_s:
                print(f"ACCEPTANCE {number} FAIL - {description} "
                      f"(runtime {elapsed:.1f}s > {limit_s}s)")
                raise AssertionError(
                    f"runtime {elapsed:.1f}s exceeded the {limit_s}s limit")
            print(f"ACCEPTANCE {number} PASS - {description} ({elapsed:.1f}s)")
        return wrapper
    return decorate


@criterion(1, "identity: gold vs itself is exactly 100 on all seven metrics",
           limit_s=5)
def test_criterion_1_identity_suite():
    rng = random.Random(2024)
    for k in range(100):
        clip = random_clip(rng, f"clip{k}")
        report = evaluate_corpus({clip.clip_id: list(clip.gold)},
                                 {clip.clip_id: list(clip.gold)})
        for name, value in report.as_dict()["raw"].items():
            assert value == 100.0, (clip.clip_id, name, value)


@criterion(2, "one-to-one equals exhaustive assignment enumeration, exactly",
           limit_s=10)
def test_criterion_2_assignment_oracle():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(1, 12)
        elements = list(range(1, n + 1))
        gold = random_partition(rng, elements, max_clusters=6)
        pred = random_partition(rng, elements, max_clusters=6)
        assert one_to_one(gold, pred) == enumeration_one_to_one(gold, pred)


@criterion(3, "1-NVI matches a direct entropy recomputation within 1e-9")
def test_criterion_3_entropy_oracle():
    rng = random.Random(777)
    for _ in range(500):
        n = rng.randint(1, 25)
        elements = list(range(1, n + 1))
        gold = random_partition(rng, elements)
        pred = random_partition(rng, elements)
        assert abs(nvi_score(gold, pred) - direct_vi_score(gold, pred)) <= 1e-9


@criterion(4, "exact match agrees with brute-force set-identity counting")
def test_criterion_4_exact_match_oracle():
    rng = random.Random(12321)
    for _ in range(500):
        n = rng.randint(1, 20)
        elements = list(range(1, n + 1))
        gold = random_partition(rng, elements)
        pred = random_partition(rng, elements)
        assert exact_match(gold, pred) == brute_force_exact_match(gold, pred)


@criterion(5, "worked example: threads {{11,12},{13,14}}; reply-only link F1 0.8")
def test_criterion_5_worked_example():
    gold = table4_records()
    part = derive_threads(gold)
    assert [sorted(c) for c in part.clusters] == [[11, 12], [13, 14]]

    utterances = tuple(
        Utterance("bbt", i, float(i), float(i) + 0.8, "line")
        for i in (11, 12, 13, 14)
    )
    pred = run_baseline(Clip(clip_id="bbt", utterances=utterances), (), ())
    score = link_f1(link_set(gold), link_set(pred))
    assert score.precision == pytest.approx(2 / 3, abs=1e-12)
    assert score.recall == 1.0
    assert score.f1 == pytest.approx(0.8, abs=1e-12)


@criterion(6, "dataset reproduction: Table-1 totals and baseline thread row",
           limit_s=60)
def test_criterion_6_dataset_reproduction():
    root = os.environ.get("TV_MMPC_DATA")
    if not root or not os.path.isdir(root):
        pytest.skip("released annotation corpus not available; criterion waived")
    corpus = load_corpus(root)
    gold = {c: list(corpus[c].gold) for c in corpus if corpus[c].gold}
    n_records = sum(len(records) for records in gold.values())
    n_addressees = sum(len(r.addressees) for records in gold.values()
                       for r in records)
    n_side = sum(len(r.side_participants) for records in gold.values()
                 for r in records)
    assert n_records == 4378
    assert n_addressees == 5599
    assert n_side == 3412

    pred = {}
    for clip_id, records in gold.items():
        lines = sorted(r.line_idx for r in records)
        utterances = tuple(Utterance(clip_id, i, float(i), float(i) + 0.5, "")
                           for i in lines)
        pred[clip_id] = run_baseline(
            Clip(clip_id=clip_id, utterances=utterances), (), ())
    expected = {"link_f1": 92.67, "nvi_score": 83.34,
                "one_to_one": 76.20, "exact_match_f1": 31.93}
    hit = False
    for mode in ("micro", "macro"):
        report = evaluate_corpus(gold, pred, EvalConfig(aggregate=mode))
        if all(abs(getattr(report, name) - target) <= 1.5
               for name, target in expected.items()):
            hit = True
    assert hit, "no aggregation mode lands within 1.5 points of the baseline row"


@criterion(7, "log-odds calibration on a synthetic null corpus; exact antisymmetry",
           limit_s=30)
def test_criterion_7_logodds_calibration():
    rng = np.random.default_rng(99)
    vocab = 50
    weights = np.arange(1, vocab + 1, dtype=float)[::-1]
    probs = weights / weights.sum()
    terms = [f"t{k}" for k in range(vocab)]
    docs = []
    for s in range(4):
        for d in range(200):
            draws = rng.multinomial(20, probs)
            tokens = []
            for term, count in zip(terms, draws):
                tokens.extend([term] * int(count))
            docs.append((f"show{s}", "a" if d % 2 == 0 else "b", tokens))
    counts = TermCounts.from_documents(docs, min_count=5)
    c_star = calibrate_prior(counts, np.logspace(0, 4, 9), permutations=20, seed=7)
    _, _, zeta = weighted_logodds(counts, c_star)
    sd = float(np.std(zeta[np.isfinite(zeta)], ddof=1))
    assert 0.9 <= sd <= 1.1, f"null-zeta sd {sd:.4f} with C*={c_star}"

    delta, _, zeta = weighted_logodds(counts, c_star)
    swapped = dataclasses.replace(counts, y_a=counts.y_b, y_b=counts.y_a)
    swapped_delta, _, swapped_zeta = weighted_logodds(swapped, c_star)
    assert np.array_equal(swapped_delta, -delta)
    assert np.array_equal(swapped_zeta, -zeta)


@criterion(8, "regression: cross-product OR 1e-6; gradient vs FD 1e-4; "
              "balanced OR 1.00")
def test_criterion_8_regression_oracle():
    cells = {
        ("speaker", False, "s"): 30, ("addressee", False, "s"): 10,
        ("speaker", True, "s"): 20, ("addressee", True, "s"): 25,
    }
    observations = []
    for key, count in sorted(cells.items()):
        observations.extend([key] * count)
    fit = multinomial_logit(observations)
    cross_product = (25 * 30) / (20 * 10)
    assert abs(fit.outcomes["addressee"].odds_ratio - cross_product) <= 1e-6

    balanced = []
    for show in ("s1", "s2"):
        for role, count in (("speaker", 25), ("addressee", 15),
                            ("side-participant", 10)):
            balanced.extend([(role, False, show)] * count)
            balanced.extend([(role, True, show)] * count)
    fit = multinomial_logit(balanced)
    for outcome in fit.outcomes.values():
        assert abs(outcome.odds_ratio - 1.0) <= 1e-6

    x, y, _, _ = _design(balanced, "speaker")
    rng = np.random.default_rng(5)
    for _ in range(3):
        beta = rng.normal(scale=0.5, size=(y.shape[1], x.shape[1]))
        _, grad = loglik_and_gradient(beta, x, y)
        step = 1e-5
        for j in range(beta.shape[0]):
            for k in range(beta.shape[1]):
                up, down = beta.copy(), beta.copy()
                up[j, k] += step
                down[j, k] -= step
                numeric = (loglik_and_gradient(up, x, y)[0]
                           - loglik_and_gradient(down, x, y)[0]) / (2 * step)
                denom = max(abs(numeric), 1e-8)
                assert abs(grad[j, k] - numeric) / denom <= 1e-4


@criterion(9, "bootstrap 95% intervals cover a Bernoulli(0.5) mean 93-97% "
              "of the time", limit_s=30)
def test_criterion_9_bootstrap_coverage():
    hits = 0
    trials = 1000
    for seed in range(trials):
        rng = np.random.default_rng(1_000_000 + seed)
        sample = rng.integers(0, 2, size=200).astype(float)
        # the mean is the ratio statistic with unit denominators
        ((lo, hi),) = bootstrap_ratio_ci(sample, np.ones(sample.size),
                                         BootstrapConfig(resamples=1000, seed=seed))
        if lo <= 0.5 <= hi:
            hits += 1
    coverage = hits / trials
    assert 0.93 <= coverage <= 0.97, f"coverage {coverage:.3f}"


def transcript_tsv(utterances) -> str:
    """Transcript TSV of utterances: three-decimal seconds, no speaker hint."""
    rows = ["start\tend\tspeaker\ttext"]
    rows += [f"{u.start_s:.3f}\t{u.end_s:.3f}\t\t{u.text}" for u in utterances]
    return "\n".join(rows) + "\n"


@criterion(10, "CLI runs are byte-identical for fixed inputs, flags, and seed")
def test_criterion_10_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(31337)
    gender_rows = ["canonical_name\tgender\tshow_id"]
    seen = set()
    for k in range(6):
        clip = random_clip(rng, f"clip{k}", show_id="showx")
        (corpus / f"clip{k}.annotation.json").write_bytes(
            serialize_annotation_json(clip.gold))
        (corpus / f"clip{k}.transcript.tsv").write_text(transcript_tsv(clip.utterances))
        (corpus / f"clip{k}.cast.json").write_text(json.dumps({
            "clip_id": clip.clip_id, "show_id": "showx",
            "cast": [p.token for p in clip.cast]}))
        for p in clip.cast:
            if p.canonical_name not in seen:
                seen.add(p.canonical_name)
                gender = "female" if len(seen) % 2 else "male"
                gender_rows.append(f"{p.canonical_name}\t{gender}\tshowx")
    gender_path = tmp_path / "genders.tsv"
    gender_path.write_text("\n".join(gender_rows) + "\n")

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue().encode("utf-8")

    commands = [
        ["evaluate", str(corpus), str(corpus), "--bootstrap", "300", "--seed", "11"],
        ["evaluate", str(corpus), str(corpus), "--aggregate", "macro",
         "--bootstrap", "300", "--seed", "11"],
        ["validate", str(corpus)],
        ["analyze", "threads", str(corpus), "--gender-map", str(gender_path),
         "--bootstrap", "200", "--permutations", "200", "--seed", "5"],
    ]
    for argv in commands:
        first = run(argv)
        second = run(argv)
        assert first[0] == second[0]
        assert first[1] == second[1], f"output differs for {argv}"
