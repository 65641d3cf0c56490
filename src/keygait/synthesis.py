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
makes them harder to reject. With ``impostor_source="victim"`` an
impostor is drawn exactly as a genuine query, from the victim's own name
and profile, which is the null model (EER near 0.5).

Modifier perturbations make sequences differ the way real captures do:
a Shift keystroke can be dropped, transposed with the following key, or
replaced by Caps Lock. Each Shift draws one uniform, in key order, that
picks its fate, and every applied perturbation is logged. Samples can
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
from .events import MAX_DELTA_MS, KeystrokeSequence, Label, Role, Sample, SubjectDataset
from .evaluation import derive_seed
from .scancodes import MODIFIER_KEYS, SHIFT_KEYS

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The timing model: population medians (ms) of a keystroke's duration and
# latency, and the log-normal spreads of the per-subject medians around them
# and of each sample's draws around those.
LETTER_DURATION_MS = 90.0
LETTER_LATENCY_MS = 160.0
MODIFIER_DURATION_MS = 150.0
MODIFIER_LATENCY_MS = 210.0
BETWEEN_SUBJECT_SD = 0.18
MODIFIER_BETWEEN_SD = 0.8
WITHIN_SAMPLE_SD = 0.15


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

    def __post_init__(self) -> None:
        # Sample ids are sNNN, tNN and qNN, so the counts are bounded
        # before any subject is generated.
        for field_name, most in (("n_subjects", 999), ("n_templates", 99)):
            n = getattr(self, field_name)
            if not 1 <= n <= most:
                raise ValueError(f"{field_name} must be between 1 and {most}, got {n}")
        # Names are drawn a letter at a time and audited by an edit distance
        # that costs length times distance: 3 subjects at 1000 keys, 33 times
        # the default, take 0.3 s at the standard perturbation rates and
        # 1.6 s at the highest.
        lo, hi = self.name_length
        if not 6 <= lo <= hi <= 1000:
            raise ValueError(f"name_length must satisfy 6 <= lo <= hi <= 1000, got {(lo, hi)}")
        for field_name in ("genuine_queries", "impostor_queries"):
            lo, hi = getattr(self, field_name)
            if not 0 <= lo <= hi:
                raise ValueError(f"{field_name} must satisfy 0 <= lo <= hi, got {(lo, hi)}")
        n_queries = self.genuine_queries[1] + self.impostor_queries[1]
        if n_queries > 99:
            raise ValueError(
                f"genuine_queries[1] + impostor_queries[1] must be at most 99, got {n_queries}"
            )
        for field_name in ("shift_drop", "shift_transpose", "capslock_sub", "hesitation_rate"):
            p = getattr(self, field_name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{field_name} must be a probability, got {p}")
        total = self.shift_drop + self.shift_transpose + self.capslock_sub
        if total > 1.0:
            raise ValueError(
                f"shift_drop + shift_transpose + capslock_sub must be at most 1, got {total}"
            )
        # The model's holds (90 ms) and latencies (160 ms) are far shorter
        # than a second, so a coarser clock floors nearly all of them to 0.
        if not 0 <= self.clock_quantum_ms <= 1000:
            raise ValueError(
                f"clock_quantum_ms must be between 0 and 1000, got {self.clock_quantum_ms}"
            )
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


def _make_profile(rng: np.random.Generator, keys: set[str], scale: float) -> _Profile:
    ordered = sorted(keys)
    modifier = np.array([key in MODIFIER_KEYS for key in ordered])
    base = np.where(
        modifier[:, None],
        [MODIFIER_DURATION_MS, MODIFIER_LATENCY_MS],
        [LETTER_DURATION_MS, LETTER_LATENCY_MS],
    )
    spread = np.where(modifier, MODIFIER_BETWEEN_SD, BETWEEN_SUBJECT_SD)
    # One (duration, latency) draw per key, in sorted key order. A huge
    # scale overflows to inf here, which _time_keys rejects.
    z = rng.normal(0.0, spread[:, None], size=(len(ordered), 2))
    with np.errstate(over="ignore"):
        medians = base * np.exp(scale * z)
    return dict(zip(ordered, map(tuple, medians.tolist())))


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
    # Each Shift draws one uniform, in key order, that picks its fate. A
    # swapped Shift's partner is never a Shift (_make_name puts a letter
    # after each), so swapping skips no draw.
    caps = config.capslock_sub
    drop = caps + config.shift_drop
    swap = drop + config.shift_transpose
    result: list[str] = []
    i = 0
    while i < len(canonical):
        key = canonical[i]
        kind = None
        if key in SHIFT_KEYS:
            u = float(rng.uniform())
            if u < caps:
                kind, key = "capslock_sub", "capslock"
            elif u < drop:
                kind = "shift_drop"
            elif u < swap and i + 1 < len(canonical):
                kind = "shift_transpose"
                result.append(canonical[i + 1])
            if kind is not None:
                log.append(PerturbationRecord(subject_id, sample_id, kind, i))
        if kind != "shift_drop":
            result.append(key)
        i += 2 if kind == "shift_transpose" else 1
    return result


def _time_keys(
    keys: list[str],
    profile: _Profile,
    rng: np.random.Generator,
    config: SynthConfig,
) -> KeystrokeSequence:
    n = len(keys)
    # One (duration, latency) draw per keystroke, in key order.
    z = rng.normal(0.0, WITHIN_SAMPLE_SD, size=(n, 2))
    with np.errstate(over="ignore"):
        durations, latencies = (np.array([profile[key] for key in keys]) * np.exp(z)).T
        if config.hesitation_rate > 0 and n > 1 and rng.uniform() < config.hesitation_rate:
            count = min(int(rng.integers(1, 4)), n - 1)
            where = rng.choice(np.arange(1, n), size=count, replace=False)
            latencies[where] *= rng.uniform(3.0, 6.0, size=count)
        # Whole milliseconds, at least 1; np.rint rounds half to even, as round() does.
        steps = np.maximum(1, np.rint(latencies[1:]))
        presses = np.concatenate(([0.0], np.cumsum(steps)))
        releases = presses + np.maximum(1, np.rint(durations))
    # Sums of whole floats are exact below 2**53, so every time is exact
    # once the largest is in range (NaN fails the test too).
    last = releases.max()
    if not last <= MAX_DELTA_MS:
        raise ValueError(
            f"a synthetic timestamp of {last} ms is past 2**53 - 1 ms: "
            "impostor_separation is too large"
        )
    releases = releases.astype(np.int64).tolist()
    presses = presses.astype(np.int64).tolist()
    # A key cannot be re-pressed while still held: long holds are capped
    # strictly before the same key's next press, with a full quantum of
    # slack so floor quantization cannot merge the two timestamps. The
    # loop leaves release >= press, which floor quantization keeps, so
    # the columns need no check.
    q = config.clock_quantum_ms
    next_press: dict[str, int] = {}
    gap = max(1, q)
    for i in range(n - 1, -1, -1):
        if keys[i] in next_press:
            releases[i] = min(releases[i], next_press[keys[i]] - gap)
        releases[i] = max(releases[i], presses[i])
        next_press[keys[i]] = presses[i]
    if q > 0:
        presses = [p // q * q for p in presses]
        releases = [r // q * q for r in releases]
    return KeystrokeSequence._of(
        tuple(keys), np.array(presses, np.int64), np.array(releases, np.int64)
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
        # Caps Lock and both Shifts are always timed, so this key set covers
        # every rendition of the name, an impostor's own Shift included.
        keys = set(canonical) | MODIFIER_KEYS
        profile = _make_profile(rng, keys, 1.0)

        n_genuine = int(rng.integers(config.genuine_queries[0], config.genuine_queries[1] + 1))
        n_impostor = int(rng.integers(config.impostor_queries[0], config.impostor_queries[1] + 1))

        def draw(sample_id: str, role: Role, label: Label, name: list[str], timing: _Profile) -> None:
            typed = _perturb(name, rng, config, subject_id, sample_id, log)
            seq = _time_keys(typed, timing, rng, config)
            dataset.add(Sample(subject_id, sample_id, role, seq, label))

        for t in range(config.n_templates):
            draw(f"t{t + 1:02d}", Role.TEMPLATE, Label.GENUINE, canonical, profile)

        kinds = [Label.GENUINE] * n_genuine + [Label.IMPOSTOR] * n_impostor
        order = rng.permutation(len(kinds))
        for q_index, pick in enumerate(order):
            name, timing = canonical, profile
            if kinds[pick] is Label.IMPOSTOR and config.impostor_source == "independent":
                imp_shift = "lshift" if rng.uniform() < 0.5 else "rshift"
                name = [imp_shift if k in SHIFT_KEYS else k for k in canonical]
                timing = _make_profile(rng, keys, config.impostor_separation)
            draw(f"q{q_index + 1:02d}", Role.QUERY, kinds[pick], name, timing)
    return dataset, log


def write_perturbations(log: list[PerturbationRecord], path: str | Path) -> None:
    header = [f.name for f in fields(PerturbationRecord)]
    Path(path).write_text(tsv(map(attrgetter(*header), log), header), encoding="utf-8")
