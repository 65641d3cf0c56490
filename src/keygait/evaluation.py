"""ROC/EER computation and the end-to-end scoring pipeline.

A query is accepted as genuine when its score is at or above the
threshold. The ROC is evaluated at every distinct score plus an infinite
lead-in, so it always spans (FAR, FRR) = (0, 1) to (1, 0); the EER is
read off at the exact FAR = FRR point when one exists and by linear
interpolation across the sign change otherwise.

run_pipeline prepares every subject (``alignment.align_subject``, then
feature extraction and normalization), fits the detectors one group of
subjects with the same template count at a time, then scores and
normalizes per subject. A group fit gives every subject bit-identical
results to fitting it alone. An ensemble is a pipeline config, not a
detector: each member is fitted and scored like a single detector, and
one combiner averages the members' raw or normalized scores.
Samples that cannot be processed are never dropped: they become flagged
records with a sentinel minimal score and count toward
failure-to-capture. All randomness derives from the config's master
seed via SHA-256, so a rerun with the same config and data is
bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .alignment import align_subject
from .config import DetectorConfig, PipelineConfig
from .detectors import Detector, build_detector
from .errors import AlignmentError, EvaluationError, KeygaitError
from .events import Label, Role, Sample, SubjectDataset
from .features import (
    extract_feature_matrix,
    fit_feature_normalizer,
    normalize_feature_matrix,
)
from .scorenorm import ScoreRecord, ScoreSet, apply_normalization

SENTINEL_SCORE = float("-inf")


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary parts (SHA-256, not hash())."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass(frozen=True)
class RocCurve:
    """Operating points ordered by descending threshold."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def eer(self) -> float:
        d = self.far - self.frr
        i = int(np.searchsorted(d, 0.0, side="left"))
        if i < d.size and d[i] == 0.0:
            return float(self.far[i])
        # d is monotone nondecreasing from -1 to +1, so the sign change
        # brackets i-1 and i.
        j = i - 1
        t = d[j] / (d[j] - d[i])
        return float(self.far[j] + t * (self.far[i] - self.far[j]))

    def to_tsv(self) -> str:
        lines = ["threshold\tfar\tfrr"]
        for t, fa, fr in zip(self.thresholds, self.far, self.frr):
            tt = "inf" if np.isposinf(t) else f"{t:.6f}"
            lines.append(f"{tt}\t{fa:.6f}\t{fr:.6f}")
        return "\n".join(lines) + "\n"


def roc(scores: Sequence[float], genuine: Sequence[bool]) -> RocCurve:
    """ROC over pooled scores with boolean genuine labels.

    Raises:
        EvaluationError: empty input or only one class present.
    """
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(genuine, dtype=bool)
    if s.size == 0:
        raise EvaluationError("no scores to evaluate")
    if s.shape != g.shape:
        raise EvaluationError(f"{s.size} scores but {g.size} labels")
    if bool(g.all()) or not bool(g.any()):
        raise EvaluationError("need both genuine and impostor scores")
    gen = np.sort(s[g])
    imp = np.sort(s[~g])
    thresholds = np.concatenate([[np.inf], np.unique(s)[::-1]])
    far = (imp.size - np.searchsorted(imp, thresholds, side="left")) / imp.size
    frr = np.searchsorted(gen, thresholds, side="left") / gen.size
    return RocCurve(thresholds, far, frr)


def effective_scores(scores: ScoreSet) -> tuple[list[float], list[bool]]:
    """The score each record is judged by (normalized when set, else raw)
    and whether it is genuine, in record order.

    Raises:
        EvaluationError: a record has no label.
    """
    values: list[float] = []
    genuine: list[bool] = []
    for r in scores:
        if r.label is None:
            raise EvaluationError(
                f"record {r.subject_id}/{r.sample_id} has no label"
            )
        values.append(
            r.normalized_score if r.normalized_score is not None else r.raw_score
        )
        genuine.append(r.label is Label.GENUINE)
    return values, genuine


def global_eer(scores: ScoreSet) -> float:
    """EER of all scores pooled across subjects."""
    values, genuine = effective_scores(scores)
    return roc(values, genuine).eer()


@dataclass(frozen=True)
class SubjectEerReport:
    per_subject: dict[str, float]
    mean: float
    sd: float


def subject_eer(scores: ScoreSet) -> SubjectEerReport:
    """Per-subject EERs plus their mean and population SD."""
    per_subject: dict[str, float] = {}
    for subject_id, records in sorted(scores.by_subject().items()):
        values, genuine = effective_scores(ScoreSet(tuple(records)))
        try:
            per_subject[subject_id] = roc(values, genuine).eer()
        except EvaluationError as exc:
            raise EvaluationError(f"subject {subject_id}: {exc}") from exc
    eers = np.array(list(per_subject.values()))
    return SubjectEerReport(per_subject, float(eers.mean()), float(eers.std()))


@dataclass
class _SubjectFeatures:
    """Per-subject feature preparation result; detector-independent."""

    subject_id: str
    query_ids: list[str]
    query_labels: list[Label | None]
    template_matrix: np.ndarray | None  # None: the whole subject failed
    query_vectors: list[np.ndarray | None]  # None: that query failed


def _prepare_subject(
    subject_id: str,
    templates: list[Sample],
    queries: list[Sample],
    config: PipelineConfig,
) -> _SubjectFeatures:
    query_ids = [s.sample_id for s in queries]
    query_labels = [s.label for s in queries]
    failed = _SubjectFeatures(subject_id, query_ids, query_labels, None, [None] * len(queries))
    try:
        aligned_t, aligned_q = align_subject(
            [s.sequence for s in templates],
            [s.sequence for s in queries],
            config.alignment,
            merge_shift_keys=config.merge_shift_keys,
        )
    except AlignmentError:
        return failed

    # Every aligned sequence has the target's length, so the templates and
    # queries of a subject form one feature matrix.
    rows = [seq for seq in aligned_t if seq is not None]
    n_templates = len(rows)
    if not n_templates:
        return failed
    query_rows = [i for i, seq in enumerate(aligned_q) if seq is not None]
    rows.extend(aligned_q[i] for i in query_rows)
    try:
        raw = extract_feature_matrix(rows)
        normalizer = fit_feature_normalizer(
            raw[:n_templates], h_f=config.h_f, per_position=config.per_position
        )
        matrix = normalize_feature_matrix(normalizer, raw)
    except KeygaitError:
        return failed

    vectors: list[np.ndarray | None] = [None] * len(queries)
    for i, row in zip(query_rows, matrix[n_templates:]):
        vectors[i] = row
    return _SubjectFeatures(
        subject_id, query_ids, query_labels, matrix[:n_templates], vectors
    )


def _fit_detectors(
    prepared: list[_SubjectFeatures], detector_config: DetectorConfig, seeds: list[int]
) -> list[Detector | None]:
    """One fitted detector per subject (None where preparation or the fit
    failed), fitted one group of equal template counts at a time."""
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(prepared):
        if p.template_matrix is not None:
            groups.setdefault(p.template_matrix.shape[0], []).append(i)
    fitted: list[Detector | None] = [None] * len(prepared)
    for members in groups.values():
        detectors = [build_detector(detector_config, seed=seeds[i]) for i in members]
        errors = type(detectors[0]).fit_group(
            detectors, [prepared[i].template_matrix for i in members]
        )
        for i, detector, error in zip(members, detectors, errors):
            fitted[i] = detector if error is None else None
    return fitted


def _score_subject(prepared: _SubjectFeatures, detector: Detector | None) -> list[ScoreRecord]:
    records: list[ScoreRecord] = []

    def _sentinel(i: int) -> ScoreRecord:
        return ScoreRecord(
            prepared.subject_id,
            prepared.query_ids[i],
            SENTINEL_SCORE,
            label=prepared.query_labels[i],
            flagged=True,
        )

    for i, vec in enumerate(prepared.query_vectors):
        if detector is None or vec is None:
            records.append(_sentinel(i))
            continue
        value = detector.score(vec)
        if not np.isfinite(value):
            records.append(_sentinel(i))
            continue
        records.append(
            ScoreRecord(
                prepared.subject_id,
                prepared.query_ids[i],
                float(value),
                label=prepared.query_labels[i],
            )
        )
    return records


def _raw_scores(
    prepared: list[_SubjectFeatures], detector_config: DetectorConfig, seeds: list[int]
) -> ScoreSet:
    """One detector's records for every subject, in subject then query order."""
    fitted = _fit_detectors(prepared, detector_config, seeds)
    return ScoreSet(
        tuple(r for p, det in zip(prepared, fitted) for r in _score_subject(p, det))
    )


def _scores(
    prepared: list[_SubjectFeatures], config: PipelineConfig, seeds: list[int]
) -> ScoreSet:
    """Raw and normalized records of the configured detector.

    An ensemble scores member ``i`` with the seeds ``seed + 1 + i``. It
    averages the members' raw scores and normalizes the mean or, with
    ``ensemble_normalized``, averages both the raw and the per-member
    normalized scores. A record is flagged when any member flags it or the
    mean raw score is not finite.
    """
    detector = config.detector
    if detector.name != "ensemble":
        return apply_normalization(
            _raw_scores(prepared, detector, seeds), config.score_norm
        )
    member_sets: list[ScoreSet] = []
    for i, member in enumerate(detector.members):
        member_set = _raw_scores(prepared, member, [seed + 1 + i for seed in seeds])
        if config.ensemble_normalized:
            member_set = apply_normalization(member_set, config.score_norm)
        member_sets.append(member_set)
    combined: list[ScoreRecord] = []
    for rows in zip(*(ms.records for ms in member_sets)):
        raw = float(np.mean([r.raw_score for r in rows]))
        if any(r.flagged for r in rows) or not np.isfinite(raw):
            combined.append(
                replace(rows[0], raw_score=SENTINEL_SCORE, normalized_score=0.0, flagged=True)
            )
        elif config.ensemble_normalized:
            normalized = float(np.mean([r.normalized_score for r in rows]))
            combined.append(replace(rows[0], raw_score=raw, normalized_score=normalized))
        else:
            combined.append(replace(rows[0], raw_score=raw))
    scores = ScoreSet(tuple(combined))
    if config.ensemble_normalized:
        return scores
    return apply_normalization(scores, config.score_norm)


def run_pipeline(dataset: SubjectDataset, config: PipelineConfig) -> ScoreSet:
    """Score every query in the dataset under one config.

    Per subject: align (or apply the configured baseline), extract and
    normalize features against the subject's templates, fit the detector
    with a seed derived from (master seed, subject id), score the
    queries, then normalize scores per subject. An ensemble config fits
    and scores each member this way and averages the members' raw or,
    with ``ensemble_normalized``, normalized scores. Failed samples come
    back flagged with the sentinel score; record count in == record count
    out.
    """
    prepared = [
        _prepare_subject(
            sid,
            sorted(dataset.subjects[sid].templates, key=lambda s: s.sample_id),
            sorted(dataset.subjects[sid].queries, key=lambda s: s.sample_id),
            config,
        )
        for sid in dataset.subject_ids()
    ]
    seeds = [derive_seed(config.seed, p.subject_id) for p in prepared]
    return _scores(prepared, config, seeds)


@dataclass(frozen=True)
class MonteCarloResult:
    mean_eer: float
    sd_eer: float
    eers: tuple[float, ...]


def monte_carlo_validate(
    dataset: SubjectDataset,
    config: PipelineConfig,
    repetitions: int = 10,
    n_templates: int = 4,
    seed: int | None = None,
) -> MonteCarloResult:
    """Repeated random template/query splits of a fully labeled dataset.

    Each repetition draws ``n_templates`` templates per subject uniformly
    without replacement from that subject's genuine samples; everything
    else (remaining genuine plus all impostors) becomes queries. The full
    pipeline runs on each split with a repetition-derived seed and the
    global EER is recorded.

    Raises:
        EvaluationError: a sample is unlabeled, or a subject has fewer
            than n_templates + 1 genuine samples.
    """
    if repetitions < 1:
        raise EvaluationError(f"repetitions must be positive, got {repetitions}")
    master = config.seed if seed is None else seed
    pools: list[tuple[str, list[Sample], list[Sample]]] = []
    for subject_id in dataset.subject_ids():
        entry = dataset.subjects[subject_id]
        samples = list(entry.templates) + list(entry.queries)
        genuine: list[Sample] = []
        impostor: list[Sample] = []
        for s in samples:
            if s.label is Label.GENUINE:
                genuine.append(s)
            elif s.label is Label.IMPOSTOR:
                impostor.append(s)
            else:
                raise EvaluationError(
                    f"sample {subject_id}/{s.sample_id} is unlabeled; "
                    "validation needs full labels"
                )
        if len(genuine) < n_templates + 1:
            raise EvaluationError(
                f"subject {subject_id} has {len(genuine)} genuine samples; "
                f"need at least {n_templates + 1}"
            )
        genuine.sort(key=lambda s: s.sample_id)
        impostor.sort(key=lambda s: s.sample_id)
        pools.append((subject_id, genuine, impostor))

    eers: list[float] = []
    for rep in range(repetitions):
        rep_seed = derive_seed(master, "rep", rep)
        rng = np.random.default_rng(rep_seed)
        split = SubjectDataset()
        for subject_id, genuine, impostor in pools:
            chosen = set(rng.choice(len(genuine), size=n_templates, replace=False).tolist())
            for i, s in enumerate(genuine):
                split.add(replace(s, role=Role.TEMPLATE if i in chosen else Role.QUERY))
            for s in impostor:
                split.add(replace(s, role=Role.QUERY))
        scores = run_pipeline(split, replace(config, seed=rep_seed))
        eers.append(global_eer(scores))
    arr = np.array(eers)
    return MonteCarloResult(float(arr.mean()), float(arr.std()), tuple(eers))
