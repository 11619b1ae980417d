"""Seeded synthetic corpora in convstruct's on-disk layout.

`generate(workload, seed, out)` writes everything one benchmark workload
needs, so the CLI runs on it unmodified. A workload combines corpora; each
corpus gets its own directory:

    out/<corpus>/gold/<clip>.annotation.json     gold structure
    out/<corpus>/gold/<clip>.transcript.tsv      transcript
    out/<corpus>/gold/<clip>.cast.json           cast list
    out/<corpus>/gold/<clip>.faces.json          face tracks (baseline corpus)
    out/<corpus>/gold/<clip>.words.tsv           word timings (baseline corpus)
    out/<corpus>/pred/<clip>.annotation.json     gold with planted perturbations
    out/<corpus>/agree/manifest.json             `agree` manifest, one file per annotator
    out/<corpus>/genders.tsv                     complete gender map
    out/<corpus>/expect.json                     counts and answers the generator knows

Only `random.Random` drives the content and every number is written with a
fixed format, so the same (workload, seed) gives byte-identical files on any
machine. The amount of work (clip sizes, participant counts, perturbation
counts) follows fixed schedules; the seed moves only the content, so runs on
different seeds measure the same amount of work.

The generator imports nothing from convstruct: the answers it plants are
computed here, independently of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

FIRST = ["ada", "ben", "cleo", "dev", "eva", "finn", "gus", "hana", "ivo", "jo",
         "kai", "lea", "milo", "nia", "otto", "pia", "quin", "rosa", "sol", "tess"]
LAST = ["abara", "brook", "costa", "dahl", "engel", "frost", "greer", "holm",
        "ibsen", "jaro", "kerr", "lund", "moss", "noor", "orr", "park"]
SYLLABLES = ["ba", "de", "fi", "go", "hu", "ka", "le", "mi", "no", "pu", "ra", "se",
             "ti", "vo", "wu", "xa", "ye", "zo", "an", "el", "is", "om", "ur", "ty"]

# Knobs per corpus. `lines` is a fixed schedule of clip sizes (cycled over
# the clips), so every seed yields the same number of lines.
CORPORA: dict[str, dict] = {
    "eval-boot": dict(
        clips=32, lines=[20, 28, 36, 44, 52, 60], participants=(2, 8),
        cast_per_show=10, shows=4, start_rate=0.3, reply_distance=4,
        perturb_rate=0.2, annotators=0, vocabulary=600, words_per_line=(3, 12),
        spans_per_minute=0.0,
        commands=["evaluate_boot", "analyze_threads"],
    ),
    "long-threads": dict(
        clips=5, lines=[280, 400, 560, 800, 1130], participants=(12, 12),
        cast_per_show=14, shows=1, start_rate=0.4, reply_distance=12,
        perturb_rate=0.3, annotators=3, annotator_rate=0.15, vocabulary=600,
        words_per_line=(3, 12), spans_per_minute=0.0,
        commands=["evaluate", "agree"],
    ),
    "baseline-roundtrip": dict(
        clips=5, lines=[50, 70, 100, 140, 200], participants=(4, 6),
        cast_per_show=8, shows=2, start_rate=0.3, reply_distance=4,
        perturb_rate=0.0, annotators=0, vocabulary=600, words_per_line=(3, 12),
        spans_per_minute=12.0,
        commands=["baseline_full", "baseline_reply", "evaluate_baseline"],
    ),
    "analyze-stats": dict(
        clips=200, lines=[15, 20, 25, 30, 35], participants=(3, 6),
        cast_per_show=8, shows=20, start_rate=0.3, reply_distance=4,
        perturb_rate=0.0, annotators=0, vocabulary=3000, words_per_line=(3, 12),
        spans_per_minute=0.0, permutations=36,
        commands=["analyze_logodds", "analyze_roles"],
    ),
}

# Each workload pairs a corpus whose hot layer is the bootstrap or the partition
# metrics with one whose hot layer is the baseline or the statistics, so every
# optimisation has a workload that runs its layer and one that does not, while
# two long runs fit the time budget of the whole benchmark.
WORKLOADS: dict[str, list[str]] = {
    "boot-baseline": ["eval-boot", "baseline-roundtrip"],
    "threads-stats": ["long-threads", "analyze-stats"],
}


def _vocabulary(size: int) -> list[str]:
    """Distinct lowercase pseudo-words; tokenize() keeps each one whole."""
    words = []
    for a in SYLLABLES:
        for b in SYLLABLES:
            for c in ("", *SYLLABLES):
                words.append(a + b + c)
                if len(words) == size:
                    return words
    raise ValueError(f"vocabulary of {size} words is too large")


def _texts(rng: random.Random, vocab: list[str], sizes: list[int],
           words_per_line: tuple[int, int], exponent: float = 1.1) -> list[list[str]]:
    """The words of every line of the corpus, in order.

    Line lengths cycle through words_per_line on a fixed schedule and each
    word's count is its Zipf share of the total (largest remainders get the
    rounding), so every seed yields the same number of tokens and of terms
    at any minimum count; the seed only decides which word has which rank
    (the caller shuffles `vocab`) and where each token lands.
    """
    lo, hi = words_per_line
    lengths = [lo + (7 * j) % (hi - lo + 1) for j in range(sum(sizes))]
    total = sum(lengths)
    weights = [1.0 / rank ** exponent for rank in range(1, len(vocab) + 1)]
    norm = sum(weights)
    shares = [total * w / norm for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(vocab)), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    pool = [word for word, count in zip(vocab, counts) for _ in range(count)]
    rng.shuffle(pool)
    texts, at = [], 0
    for length in lengths:
        texts.append(pool[at:at + length])
        at += length
    return texts


def _annotation_bytes(records: list[dict]) -> bytes:
    """Same layout as convstruct's serializer: indent 2, sorted role lists."""
    out = []
    for r in records:
        out.append({
            "line_idx": r["line_idx"],
            "speaker": r["speaker"],
            "addressee": sorted(r["addressee"]),
            "side_participant": sorted(r["side_participant"]),
            "reply_to": r["reply_to"],
        })
    return (json.dumps(out, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _link_f1(gold: list[dict], pred: list[dict]) -> float:
    """F1 over exact (child, parent) reply pairs, as the paper defines it."""
    g = {(r["line_idx"], r["reply_to"]) for r in gold if r["reply_to"] != r["line_idx"]}
    p = {(r["line_idx"], r["reply_to"]) for r in pred if r["reply_to"] != r["line_idx"]}
    if not g and not p:
        return 1.0
    tp = len(g & p)
    precision = tp / len(p) if p else 0.0
    recall = tp / len(g) if g else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _gold_clip(rng: random.Random, people: list[str], knobs: dict,
               texts: list[list[str]]) -> tuple[list[dict], list[dict]]:
    """Gold records plus utterances (start, end, speaker, words) for one clip."""
    records, utterances = [], []
    t = round(rng.uniform(0.0, 2.0), 3)
    for i, words in enumerate(texts, start=1):
        speaker = rng.choice(people)
        if i == 1 or rng.random() < knobs["start_rate"]:
            reply = i
        else:
            reply = i - rng.randint(1, min(i - 1, knobs["reply_distance"]))
        others = [p for p in people if p != speaker]
        rng.shuffle(others)
        parent = records[reply - 1]["speaker"] if reply != i else None
        if parent is not None and parent != speaker:
            others.remove(parent)
            others.insert(0, parent)
        n_addr = rng.randint(0, min(2, len(others)))
        n_side = rng.randint(0, min(2, len(others) - n_addr))
        records.append({
            "line_idx": i, "speaker": speaker,
            "addressee": others[:n_addr],
            "side_participant": others[n_addr:n_addr + n_side],
            "reply_to": reply,
        })
        duration = round(rng.uniform(0.8, 4.0), 3)
        utterances.append({"start": t, "end": round(t + duration, 3),
                           "speaker": speaker, "words": words})
        t = round(t + duration + rng.uniform(0.05, 0.6), 3)
    return records, utterances


def _perturb(rng: random.Random, gold: list[dict], people: list[str],
             rate: float) -> tuple[list[dict], int]:
    """Copy of gold with round(rate * n) lines changed; returns (pred, wrong speakers).

    Each chosen line gets one change: a different speaker, a different reply
    target, or a reshuffled addressee set. Records stay valid.
    """
    pred = [dict(r, addressee=list(r["addressee"]),
                 side_participant=list(r["side_participant"])) for r in gold]
    wrong_speakers = 0
    for pos in sorted(rng.sample(range(len(pred)), round(rate * len(pred)))):
        r = pred[pos]
        i = r["line_idx"]
        kind = rng.choice(("speaker", "reply", "roles") if i > 1 else ("speaker", "roles"))
        if kind == "speaker":
            r["speaker"] = rng.choice([p for p in people if p != r["speaker"]])
            r["addressee"] = [p for p in r["addressee"] if p != r["speaker"]]
            r["side_participant"] = [p for p in r["side_participant"]
                                     if p != r["speaker"]]
            wrong_speakers += 1
        elif kind == "reply":
            choices = [j for j in range(1, i + 1) if j != r["reply_to"]]
            r["reply_to"] = rng.choice(choices)
        else:
            others = [p for p in people if p != r["speaker"]]
            r["addressee"] = rng.sample(others, rng.randint(0, min(2, len(others))))
            r["side_participant"] = [p for p in r["side_participant"]
                                     if p not in r["addressee"]]
    return pred, wrong_speakers


def _faces(rng: random.Random, people: list[str], end_s: float,
           per_minute: float) -> list[dict]:
    """Alternating visible/hidden intervals along the clip for every face."""
    mean_cycle = 60.0 / per_minute
    faces = []
    for name in people:
        spans = []
        t = rng.uniform(0.0, mean_cycle)
        while t < end_s:
            length = rng.uniform(0.3, 0.7) * mean_cycle
            spans.append([round(t, 3), round(t + length, 3)])
            t += length + rng.uniform(0.3, 0.7) * mean_cycle
        faces.append({"name": name, "spans": spans})
    return faces


def _words_tsv(utterances: list[dict]) -> bytes:
    rows = ["line_idx\tword\tstart\tend"]
    for i, u in enumerate(utterances, start=1):
        step = (u["end"] - u["start"]) / len(u["words"])
        for k, word in enumerate(u["words"]):
            rows.append(f"{i}\t{word}\t{u['start'] + k * step:.3f}"
                        f"\t{u['start'] + (k + 1) * step:.3f}")
    return ("\n".join(rows) + "\n").encode("utf-8")


def _role_counts(records: list[dict], gender: dict[str, str], counts: dict) -> int:
    n = 0
    for r in records:
        members = [("speaker", r["speaker"])]
        members += [("addressee", p) for p in r["addressee"]]
        members += [("side-participant", p) for p in r["side_participant"]]
        for role, person in members:
            row = counts.setdefault(role, {})
            row[gender[person]] = row.get(gender[person], 0) + 1
            n += 1
    return n


def _thread_event_counts(records: list[dict]) -> tuple[int, int]:
    """(mid-clip thread starts, replies to another speaker's line)."""
    starts = sum(1 for r in records if r["reply_to"] == r["line_idx"]) - 1
    holds = sum(1 for r in records if r["reply_to"] != r["line_idx"]
                and records[r["reply_to"] - 1]["speaker"] != r["speaker"])
    return starts, holds


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's corpora under `out`; return {corpus: expectations}."""
    return {name: _generate_corpus(name, seed, out / name)
            for name in WORKLOADS[workload]}


def _generate_corpus(name: str, seed: int, out: Path) -> dict:
    knobs = CORPORA[name]
    rng = random.Random(f"{name}:{seed}")
    vocab = _vocabulary(knobs["vocabulary"])
    rng.shuffle(vocab)

    shows = [f"show{s:02d}" for s in range(knobs["shows"])]
    casts: dict[str, list[str]] = {}
    gender: dict[str, str] = {}
    pool = [f"{a} {b}" for a in FIRST for b in LAST]
    rng.shuffle(pool)
    for s, show in enumerate(shows):
        size = knobs["cast_per_show"]
        casts[show] = pool[s * size:(s + 1) * size]
        for k, name in enumerate(casts[show]):
            gender[name] = ("female", "male")[k % 2]

    gold_dir, pred_dir = out / "gold", out / "pred"
    gold_dir.mkdir(parents=True)
    if knobs["perturb_rate"] > 0:
        pred_dir.mkdir()

    sizes = [knobs["lines"][c % len(knobs["lines"])] for c in range(knobs["clips"])]
    rng.shuffle(sizes)
    texts = _texts(rng, vocab, sizes, knobs["words_per_line"])
    pmin, pmax = knobs["participants"]
    expect: dict = {"corpus": name, "seed": seed, "n_clips": knobs["clips"],
                    "n_utterances": sum(sizes), "clip_lines": {},
                    "reply_only_sha256": {}}
    wrong_speakers = 0
    link_f1s = []
    baseline_link_f1s = []
    starts = holds = 0
    role_counts: dict = {}
    n_role_obs = 0
    token_counts: dict[str, int] = {}
    annotators = {f"ann{k + 1}": {} for k in range(knobs["annotators"])}
    annotator_speakers: dict[str, list[str]] = {a: [] for a in annotators}

    for c, n in enumerate(sizes):
        clip_id = f"clip{c:04d}"
        show = shows[c % len(shows)]
        k = pmin + (c % (pmax - pmin + 1))
        people = rng.sample(casts[show], k)
        records, utterances = _gold_clip(rng, people, knobs, texts[:n])
        del texts[:n]
        expect["clip_lines"][clip_id] = n
        (gold_dir / f"{clip_id}.annotation.json").write_bytes(_annotation_bytes(records))
        transcript = ["start\tend\tspeaker\ttext"]
        transcript += [f"{u['start']:.3f}\t{u['end']:.3f}\t{u['speaker']}\t"
                       + " ".join(u["words"]) for u in utterances]
        (gold_dir / f"{clip_id}.transcript.tsv").write_bytes(
            ("\n".join(transcript) + "\n").encode("utf-8"))
        cast = {"clip_id": clip_id, "show_id": show, "cast": sorted(people)}
        (gold_dir / f"{clip_id}.cast.json").write_bytes(
            (json.dumps(cast, indent=2) + "\n").encode("utf-8"))

        if knobs["perturb_rate"] > 0:
            pred, wrong = _perturb(rng, records, people, knobs["perturb_rate"])
            wrong_speakers += wrong
            link_f1s.append(_link_f1(records, pred))
            (pred_dir / f"{clip_id}.annotation.json").write_bytes(_annotation_bytes(pred))
        for annotator, clips in annotators.items():
            version, _ = _perturb(rng, records, people, knobs["annotator_rate"])
            clips[clip_id] = version
            annotator_speakers[annotator] += [r["speaker"] for r in version]

        if knobs["spans_per_minute"] > 0:
            faces = {"clip_id": clip_id,
                     "faces": _faces(rng, people, utterances[-1]["end"],
                                     knobs["spans_per_minute"])}
            (gold_dir / f"{clip_id}.faces.json").write_bytes(
                (json.dumps(faces) + "\n").encode("utf-8"))
            (gold_dir / f"{clip_id}.words.tsv").write_bytes(_words_tsv(utterances))
        chain = [{"line_idx": i, "speaker": "unknown", "addressee": [],
                  "side_participant": [], "reply_to": max(1, i - 1)}
                 for i in range(1, n + 1)]
        expect["reply_only_sha256"][clip_id] = hashlib.sha256(
            _annotation_bytes(chain)).hexdigest()
        baseline_link_f1s.append(_link_f1(records, chain))

        s, h = _thread_event_counts(records)
        starts, holds = starts + s, holds + h
        n_role_obs += _role_counts(records, gender, role_counts)
        for u in utterances:
            for word in u["words"]:
                token_counts[word] = token_counts.get(word, 0) + 1

    rows = ["canonical_name\tgender\tshow_id"]
    rows += [f"{name}\t{gender[name]}\t{show}" for show in shows for name in casts[show]]
    (out / "genders.tsv").write_bytes(("\n".join(rows) + "\n").encode("utf-8"))

    if annotators:
        agree_dir = out / "agree"
        agree_dir.mkdir()
        table = {}
        for annotator, clips in annotators.items():
            payload = {cid: json.loads(_annotation_bytes(recs))
                       for cid, recs in clips.items()}
            (agree_dir / f"{annotator}.json").write_bytes(
                (json.dumps(payload) + "\n").encode("utf-8"))
            table[annotator] = f"{annotator}.json"
        (agree_dir / "manifest.json").write_bytes(
            (json.dumps({"annotators": table}, indent=2) + "\n").encode("utf-8"))
        # Speakers agree or not regardless of direction, so each pair's
        # symmetrized speaker accuracy is its plain match rate.
        names = sorted(annotators)
        pair_acc = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                same = sum(x == y for x, y in zip(annotator_speakers[a],
                                                  annotator_speakers[b]))
                pair_acc.append(100.0 * (same / expect["n_utterances"]))
        expect["agree_speaker_acc"] = sum(pair_acc) / len(pair_acc)
        expect["agree_pairs"] = len(pair_acc)

    total = expect["n_utterances"]
    expect["speaker_acc"] = 100.0 * ((total - wrong_speakers) / total)
    expect["link_f1"] = 100.0 * sum(link_f1s) / len(link_f1s) if link_f1s else None
    expect["baseline_link_f1"] = 100.0 * sum(baseline_link_f1s) / len(baseline_link_f1s)
    expect["start_events"], expect["hold_events"] = starts, holds
    expect["n_observations"] = n_role_obs
    expect["p_gender_given_role"] = {
        role: {g: row.get(g, 0) / sum(row.values()) for g in ("female", "male")}
        for role, row in sorted(role_counts.items())}
    expect["n_documents"] = total
    # terms at or above the CLI's default --min-count of 5
    expect["n_terms"] = sum(1 for c in token_counts.values() if c >= 5)
    expect["shows"] = shows
    expect["knobs"] = knobs
    (out / "expect.json").write_bytes(
        (json.dumps(expect, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return expect
