"""Gendered thread dynamics and role distributions.

Measures who starts threads mid-clip and who holds them by receiving replies,
as raw female shares and as per-clip deltas normalized by each clip's female
share of speaking time. Delta significance comes from a seeded sign-flip
permutation test; all reported means carry bootstrap CIs (both draws come
from `stats.bootstrap`). Roles are counted in one (role, gender, show) table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..corpus import Clip, _in_clip_order, lookup_gender
from ..threads import thread_events
from .bootstrap import BootstrapConfig, StatsError, _ratio_cis, _sign_flip_ps
from .regression import LogitResult, multinomial_logit


@dataclass(frozen=True)
class ShareStats:
    """A corpus-wide female share with its bootstrap interval."""

    share: float
    ci: tuple[float, float]
    n_events: int

    def as_dict(self) -> dict:
        return {"female_share": self.share, "ci": list(self.ci), "n_events": self.n_events}


@dataclass(frozen=True)
class DeltaStats:
    """Per-clip normalized differences: mean, CI, and permutation p-value."""

    mean: float
    ci: tuple[float, float]
    p_value: float
    n_clips: int
    per_clip: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "ci": list(self.ci),
            "p_value": self.p_value,
            "n_clips": self.n_clips,
            "per_clip": {k: self.per_clip[k] for k in sorted(self.per_clip)},
        }


@dataclass(frozen=True)
class ThreadShareReport:
    start: ShareStats
    hold: ShareStats
    delta_start: DeltaStats
    delta_hold: DeltaStats

    def as_dict(self) -> dict:
        return {"start": self.start.as_dict(), "hold": self.hold.as_dict(),
                "delta_start": self.delta_start.as_dict(),
                "delta_hold": self.delta_hold.as_dict()}


def gender_thread_shares(
    clips: Iterable[Clip],
    gender_map: Mapping[tuple[str, str], str],
    include_nondialogic: bool = False,
    config: BootstrapConfig | None = None,
    permutations: int = 10_000,
) -> ThreadShareReport:
    """Female share of thread starts and holds, raw and speaking-time normalized.

    Events with unknown speaker gender are dropped. Each clip's delta is the
    female share of that clip's events minus the female share of its speaking
    time; clips without any gendered event are skipped for the respective
    delta, and clips without gendered speaking time are skipped entirely.
    The draws take the clips in clip id order (`corpus._in_clip_order`).
    """
    if permutations < 1:
        raise StatsError(f"permutations must be >= 1, got {permutations}")
    if not gender_map:
        raise StatsError("gender map is empty")
    config = config or BootstrapConfig()

    # one row per clip: start female, start total, hold female, hold total,
    # female share of gendered speaking time (NaN without any)
    clip_ids: list[str] = []
    rows: list[tuple[float, ...]] = []
    for clip in _in_clip_order(clips):
        if clip.gold is None:
            continue
        events = thread_events(clip.gold, include_nondialogic=include_nondialogic)

        def gender_of(participant):
            return lookup_gender(gender_map, clip.show_id, participant)

        start_genders = [g for _, p in events.starters if (g := gender_of(p))]
        hold_genders = [g for _, p in events.holders if (g := gender_of(p))]

        female_time = 0.0
        total_time = 0.0
        speakers = {r.line_idx: r.speaker for r in clip.gold}
        for u in clip.utterances:
            speaker = speakers.get(u.line_idx)
            if speaker is None:
                continue
            g = gender_of(speaker)
            if g is None:
                continue
            total_time += u.duration_s
            if g == "female":
                female_time += u.duration_s

        clip_ids.append(clip.clip_id)
        rows.append((start_genders.count("female"), len(start_genders),
                     hold_genders.count("female"), len(hold_genders),
                     female_time / total_time if total_time > 0 else np.nan))
    table = np.array(rows, dtype=np.float64).reshape(-1, 5)
    columns = {"start": (table[:, 0], table[:, 1]), "hold": (table[:, 2], table[:, 3])}
    time_share = table[:, 4]

    def share_units(kind: str) -> tuple[np.ndarray, np.ndarray]:
        female, total = columns[kind]
        units = total > 0
        if not units.any():
            raise StatsError(f"no gendered {kind} events in the corpus")
        return female[units], total[units]

    def delta_units(kind: str) -> tuple[np.ndarray, np.ndarray]:
        female, total = columns[kind]
        usable = (total > 0) & ~np.isnan(time_share)
        if not usable.any():
            raise StatsError(f"no clips usable for the {kind} delta")
        return usable, female[usable] / total[usable] - time_share[usable]

    shares = [share_units("start"), share_units("hold")]
    deltas = [delta_units("start"), delta_units("hold")]
    # statistics over equally many clips share one resample and one sign draw
    intervals = _ratio_cis(
        [*shares, *((values, np.ones(values.size)) for _, values in deltas)], config)
    p_values = _sign_flip_ps([values for _, values in deltas], permutations, config.seed)
    raw = [ShareStats(share=float(female.sum() / total.sum()), ci=ci,
                      n_events=int(total.sum()))
           for (female, total), (ci,) in zip(shares, intervals)]
    ids = np.array(clip_ids)
    normalized = [DeltaStats(mean=float(np.mean(values)), ci=ci, p_value=p,
                             n_clips=values.size,
                             per_clip=dict(zip(ids[usable].tolist(), values.tolist())))
                  for (usable, values), (ci,), p in zip(deltas, intervals[2:], p_values)]
    return ThreadShareReport(*raw, *normalized)


@dataclass(frozen=True)
class RoleDistributions:
    """Empirical P(gender | role) and P(role | gender) tables."""

    p_gender_given_role: dict[str, dict[str, float]]
    p_role_given_gender: dict[str, dict[str, float]]


def role_distributions(observations: Iterable[tuple[str, str]]) -> RoleDistributions:
    """Conditional frequency tables over (role, gender) observations.

    The observations are counted with `Counter`, so a mapping of each
    (role, gender) to its count works as well. Only observed roles and
    genders get a row, so no conditioning cell is empty.
    """
    cells = Counter(observations)
    if not cells or min(cells.values()) < 1:
        raise StatsError("observation counts must be >= 1" if cells else "no observations")
    roles = sorted({role for role, _ in cells})
    genders = sorted({g for _, g in cells})
    role_totals = {role: sum(cells[role, g] for g in genders) for role in roles}
    gender_totals = {g: sum(cells[role, g] for role in roles) for g in genders}
    return RoleDistributions(
        p_gender_given_role={role: {g: cells[role, g] / role_totals[role] for g in genders}
                             for role in roles},
        p_role_given_gender={g: {role: cells[role, g] / gender_totals[g] for role in roles}
                             for g in genders},
    )


def role_counts(
    clips: Iterable[Clip], gender_map: Mapping[tuple[str, str], str]
) -> Counter[tuple[str, str, str]]:
    """How many gendered speakers, addressees and side-participants of gold
    lines each (role, gender, show_id) has."""
    counts: Counter[tuple[str, str, str]] = Counter()
    for clip in clips:
        for record in clip.gold or ():
            for role, members in (("speaker", (record.speaker,)),
                                  ("addressee", record.addressees),
                                  ("side-participant", record.side_participants)):
                for participant in members:
                    gender = lookup_gender(gender_map, clip.show_id, participant)
                    if gender is not None:
                        counts[role, gender, clip.show_id] += 1
    return counts


@dataclass(frozen=True)
class RoleReport:
    """Role distributions by gender plus the multinomial logit on them."""

    distributions: RoleDistributions
    fit: LogitResult

    def as_dict(self) -> dict:
        fit = self.fit
        outcomes = {}
        for outcome in sorted(fit.outcomes):
            est = fit.outcomes[outcome]
            outcomes[outcome] = {"odds_ratio_female": est.odds_ratio,
                                 "coef": dict(sorted(est.coef.items())),
                                 "se": dict(sorted(est.se.items())),
                                 "p": dict(sorted(est.p.items()))}
        return {
            "n_observations": fit.n_obs,
            "p_gender_given_role": self.distributions.p_gender_given_role,
            "p_role_given_gender": self.distributions.p_role_given_gender,
            "regression": {
                "reference": fit.reference,
                "outcomes": outcomes,
                "log_likelihood": fit.log_likelihood,
                "n_iter": fit.n_iter,
            },
        }


def role_report(
    clips: Iterable[Clip], gender_map: Mapping[tuple[str, str], str]
) -> RoleReport:
    """Who holds which role, by gender: distributions and the female odds ratios."""
    table = role_counts(clips, gender_map)
    if not table:
        raise StatsError("no gendered role observations in the corpus")
    by_gender: Counter[tuple[str, str]] = Counter()
    for (role, gender, _), count in table.items():
        by_gender[role, gender] += count
    # lookup_gender gives only "female" or "male", so no two keys merge here
    return RoleReport(
        distributions=role_distributions(by_gender),
        fit=multinomial_logit({(role, gender == "female", show): count
                               for (role, gender, show), count in table.items()}),
    )
