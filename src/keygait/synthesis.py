"""Seeded synthetic keystroke data with known ground truth.

Each subject gets a canonical key sequence (a capitalized two-word name
typed with their preferred Shift key) and a timing profile: per-key
lognormal medians drawn once per subject, with modifier keys given a
wider between-subject spread than letters so modifier timing carries
real identity signal. Samples draw per-keystroke durations and latencies
around those medians.

Impostor samples type the victim's key sequence with an independently
drawn profile and the impostor's own Shift preference.
``impostor_separation`` scales the impostor profile's between-subject
offsets: below 1 pulls impostors toward the population center, which
makes them harder to reject. With ``impostor_source="victim"`` impostors
sample from the victim's own profile, which is the null model (EER near
0.5).

Modifier perturbations make sequences differ the way real captures do:
a Shift keystroke can be dropped, transposed with the following key, or
replaced by Caps Lock. Every applied perturbation is logged. Samples can
also hesitate (a few latencies stretched hard), which plants the score
outliers that separate robust from brittle score normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import JsonConfig, check_positive_finite
from .datasets import tsv
from .events import Keystroke, KeystrokeSequence, Label, Role, Sample, SubjectDataset
from .evaluation import derive_seed
from .scancodes import MODIFIER_KEYS, SHIFT_KEYS

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SynthConfig(JsonConfig):
    """Generator settings; every field has a reproducible effect."""

    n_subjects: int = 10
    name_length: tuple[int, int] = (12, 30)
    n_templates: int = 4
    genuine_queries: tuple[int, int] = (10, 10)
    impostor_queries: tuple[int, int] = (10, 10)
    shift_drop: float = 0.0
    shift_transpose: float = 0.0
    capslock_sub: float = 0.0
    hesitation_rate: float = 0.1
    clock_quantum_ms: int = 0
    impostor_separation: float = 0.4
    impostor_source: str = "independent"
    seed: int = 0
    letter_duration_ms: float = 90.0
    letter_latency_ms: float = 160.0
    modifier_duration_ms: float = 150.0
    modifier_latency_ms: float = 210.0
    between_subject_sd: float = 0.18
    modifier_between_sd: float = 0.8
    within_sample_sd: float = 0.15

    def __post_init__(self) -> None:
        if self.n_subjects < 1:
            raise ValueError(f"n_subjects must be positive, got {self.n_subjects}")
        lo, hi = self.name_length
        if not (6 <= lo <= hi):
            raise ValueError(f"name_length must satisfy 6 <= lo <= hi, got {self.name_length}")
        if self.n_templates < 1:
            raise ValueError(f"n_templates must be positive, got {self.n_templates}")
        for field_name in ("shift_drop", "shift_transpose", "capslock_sub", "hesitation_rate"):
            p = getattr(self, field_name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{field_name} must be a probability, got {p}")
        if self.shift_drop + self.shift_transpose + self.capslock_sub > 1.0:
            raise ValueError("per-keystroke perturbation rates must sum to at most 1")
        if self.clock_quantum_ms < 0:
            raise ValueError(f"clock_quantum_ms must be non-negative, got {self.clock_quantum_ms}")
        check_positive_finite("impostor_separation", self.impostor_separation)
        if self.impostor_source not in ("independent", "victim"):
            raise ValueError(f"impostor_source must be 'independent' or 'victim', got {self.impostor_source!r}")


@dataclass(frozen=True)
class PerturbationRecord:
    subject_id: str
    sample_id: str
    kind: str
    position: int  # index into the canonical key sequence


# key -> (duration_median_ms, latency_median_ms)
_Profile = dict[str, tuple[float, float]]


def _make_profile(
    rng: np.random.Generator, keys: set[str], config: SynthConfig, scale: float
) -> _Profile:
    profile: _Profile = {}
    for key in sorted(keys):
        if key in MODIFIER_KEYS:
            base_d, base_p = config.modifier_duration_ms, config.modifier_latency_ms
            spread = config.modifier_between_sd
        else:
            base_d, base_p = config.letter_duration_ms, config.letter_latency_ms
            spread = config.between_subject_sd
        dur = base_d * float(np.exp(scale * rng.normal(0.0, spread)))
        lat = base_p * float(np.exp(scale * rng.normal(0.0, spread)))
        profile[key] = (dur, lat)
    return profile


def _profile_keys(canonical: list[str]) -> set[str]:
    # Caps Lock and both Shifts are always present so perturbed and
    # shift-swapped renditions can be timed.
    return set(canonical) | MODIFIER_KEYS


def _make_name(rng: np.random.Generator, config: SynthConfig, shift: str) -> list[str]:
    lo, hi = config.name_length
    total = int(rng.integers(lo, hi + 1))
    n_letters = total - 3  # two shifts and one space
    first = max(2, min(n_letters - 2, int(round(n_letters * rng.uniform(0.35, 0.65)))))
    words = [first, n_letters - first]
    keys: list[str] = []
    for w, count in enumerate(words):
        if w > 0:
            keys.append("space")
        keys.append(shift)
        prev = ""
        for _ in range(count):
            letter = prev
            while letter == prev:  # no immediate repeats; keeps captures physical
                letter = _LETTERS[int(rng.integers(0, 26))]
            keys.append(letter)
            prev = letter
    return keys


def _perturb(
    canonical: list[str],
    rng: np.random.Generator,
    config: SynthConfig,
    subject_id: str,
    sample_id: str,
    log: list[PerturbationRecord],
) -> list[str]:
    p_caps = config.capslock_sub
    p_drop = config.shift_drop
    p_trans = config.shift_transpose
    fates: dict[int, str] = {}
    for i, key in enumerate(canonical):
        if key not in SHIFT_KEYS:
            continue
        u = float(rng.uniform())
        if u < p_caps:
            fates[i] = "capslock_sub"
        elif u < p_caps + p_drop:
            fates[i] = "shift_drop"
        elif u < p_caps + p_drop + p_trans and i + 1 < len(canonical):
            fates[i] = "shift_transpose"
    result: list[str] = []
    i = 0
    while i < len(canonical):
        fate = fates.get(i)
        if fate is not None:
            log.append(PerturbationRecord(subject_id, sample_id, fate, i))
        if fate == "shift_drop":
            i += 1
        elif fate == "capslock_sub":
            result.append("capslock")
            i += 1
        elif fate == "shift_transpose":
            result.append(canonical[i + 1])
            result.append(canonical[i])
            i += 2
        else:
            result.append(canonical[i])
            i += 1
    return result


def _time_keys(
    keys: list[str],
    profile: _Profile,
    rng: np.random.Generator,
    config: SynthConfig,
) -> KeystrokeSequence:
    n = len(keys)
    sd = config.within_sample_sd
    durations = np.empty(n)
    latencies = np.empty(n)
    for i, key in enumerate(keys):
        med_d, med_p = profile[key]
        durations[i] = med_d * np.exp(rng.normal(0.0, sd))
        latencies[i] = med_p * np.exp(rng.normal(0.0, sd))
    if config.hesitation_rate > 0 and n > 1 and rng.uniform() < config.hesitation_rate:
        count = min(int(rng.integers(1, 4)), n - 1)
        where = rng.choice(np.arange(1, n), size=count, replace=False)
        latencies[where] *= rng.uniform(3.0, 6.0, size=count)
    press = 0
    q = config.clock_quantum_ms
    presses = np.empty(n, dtype=np.int64)
    releases = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i > 0:
            press += max(1, int(round(latencies[i])))
        presses[i] = press
        releases[i] = press + max(1, int(round(durations[i])))
    # A key cannot be re-pressed while still held: long holds are capped
    # strictly before the same key's next press, with a full quantum of
    # slack so floor quantization cannot merge the two timestamps.
    next_press: dict[str, int] = {}
    gap = max(1, q)
    for i in range(n - 1, -1, -1):
        if keys[i] in next_press:
            releases[i] = min(releases[i], next_press[keys[i]] - gap)
        releases[i] = max(releases[i], presses[i])
        next_press[keys[i]] = int(presses[i])
    if q > 0:
        presses = (presses // q) * q
        releases = (releases // q) * q
    return KeystrokeSequence(
        tuple(Keystroke(k, int(p), int(r)) for k, p, r in zip(keys, presses, releases))
    )


def generate_synthetic(
    config: SynthConfig,
) -> tuple[SubjectDataset, list[PerturbationRecord]]:
    """Generate a labeled dataset plus the perturbation audit log.

    Fully deterministic: per-subject streams derive from the master seed,
    so subject k's data does not depend on how many subjects follow it.
    """
    dataset = SubjectDataset()
    log: list[PerturbationRecord] = []
    for idx in range(config.n_subjects):
        subject_id = f"s{idx + 1:03d}"
        rng = np.random.default_rng(derive_seed(config.seed, "subject", idx))
        shift = "lshift" if rng.uniform() < 0.5 else "rshift"
        canonical = _make_name(rng, config, shift)
        profile = _make_profile(rng, _profile_keys(canonical), config, 1.0)

        n_genuine = int(rng.integers(config.genuine_queries[0], config.genuine_queries[1] + 1))
        n_impostor = int(rng.integers(config.impostor_queries[0], config.impostor_queries[1] + 1))

        for t in range(config.n_templates):
            sample_id = f"t{t + 1:02d}"
            keys = _perturb(canonical, rng, config, subject_id, sample_id, log)
            seq = _time_keys(keys, profile, rng, config)
            dataset.add(Sample(subject_id, sample_id, Role.TEMPLATE, seq, Label.GENUINE))

        kinds = [Label.GENUINE] * n_genuine + [Label.IMPOSTOR] * n_impostor
        order = rng.permutation(len(kinds))
        for q_index, pick in enumerate(order):
            label = kinds[pick]
            sample_id = f"q{q_index + 1:02d}"
            if label is Label.GENUINE:
                keys = _perturb(canonical, rng, config, subject_id, sample_id, log)
                seq = _time_keys(keys, profile, rng, config)
            else:
                if config.impostor_source == "victim":
                    imp_profile = profile
                    imp_keys = list(canonical)
                else:
                    imp_shift = "lshift" if rng.uniform() < 0.5 else "rshift"
                    imp_keys = [imp_shift if k in SHIFT_KEYS else k for k in canonical]
                    imp_profile = _make_profile(
                        rng,
                        _profile_keys(imp_keys),
                        config,
                        config.impostor_separation,
                    )
                keys = _perturb(imp_keys, rng, config, subject_id, sample_id, log)
                seq = _time_keys(keys, imp_profile, rng, config)
            dataset.add(Sample(subject_id, sample_id, Role.QUERY, seq, label))
    return dataset, log


def write_perturbations(log: list[PerturbationRecord], path: str | Path) -> None:
    header = [f.name for f in fields(PerturbationRecord)]
    Path(path).write_text(tsv(map(attrgetter(*header), log), header))
