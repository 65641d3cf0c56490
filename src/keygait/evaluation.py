"""ROC/EER computation and the end-to-end scoring pipeline.

A query is accepted as genuine when its score is at or above the
threshold. The ROC is evaluated at every distinct score plus an infinite
lead-in, so it always spans (FAR, FRR) = (0, 1) to (1, 0); the EER is
read off at the exact FAR = FRR point when one exists and by linear
interpolation across the sign change otherwise.

run_pipeline prepares every subject (``alignment.align_subject``, then
feature extraction and normalization), fits the detectors with one
``Detector.fit_group`` call per group of subjects with the same template
count, then scores and normalizes per subject. A group fit gives every
subject bit-identical results to fitting it alone. An ensemble is a
pipeline config, not a detector: each member is fitted and scored like a
single detector, and one combiner averages the members' raw or
normalized scores.
Samples that cannot be processed are never dropped: they become flagged
records with a sentinel minimal score and count toward
failure-to-capture. All randomness derives from the config's master
seed via SHA-256, so a rerun with the same config and data is
bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .alignment import align_subject
from .config import DetectorConfig, PipelineConfig
from .datasets import tsv
from .detectors import Detector, build_detector
from .errors import AlignmentError, EvaluationError, KeygaitError, ScoreNormError
from .events import Label, Role, Sample, SubjectDataset
from .features import extract_features, fit_feature_normalizer, normalize_features
from .scorenorm import SENTINEL_SCORE, ScoreRecord, ScoreSet, normalize_subject


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
        return tsv(zip(self.thresholds, self.far, self.frr), ("threshold", "far", "frr"))


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


def effective_scores(scores: Iterable[ScoreRecord]) -> tuple[list[float], list[bool]]:
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
        values, genuine = effective_scores(records)
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
    template_matrix: np.ndarray | None = None  # None: the whole subject failed
    query_matrix: np.ndarray | None = None  # one row per query that prepared
    query_rows: list[int] = field(default_factory=list)  # their query indices


def _prepare_subject(
    subject_id: str,
    templates: list[Sample],
    queries: list[Sample],
    config: PipelineConfig,
) -> _SubjectFeatures:
    failed = _SubjectFeatures(
        subject_id, [s.sample_id for s in queries], [s.label for s in queries]
    )
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
        raw = extract_features(rows)
        normalizer = fit_feature_normalizer(
            raw[:n_templates], h_f=config.h_f, per_position=config.per_position
        )
        matrix = normalize_features(normalizer, raw)
    except KeygaitError:
        return failed
    return replace(
        failed,
        template_matrix=matrix[:n_templates],
        query_matrix=matrix[n_templates:],
        query_rows=query_rows,
    )


def _fit_detectors(
    prepared: list[_SubjectFeatures], detector_config: DetectorConfig, seeds: list[int]
) -> list[Detector | None]:
    """One fitted detector per subject (None where preparation or the fit
    failed), fitted by one ``fit_group`` call per template count."""
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


def _raw_scores(
    prepared: list[_SubjectFeatures], detector_config: DetectorConfig, seeds: list[int]
) -> list[np.ndarray]:
    """Per subject, one detector's raw score of every query, scored in one
    ``score_all`` call; ``SENTINEL_SCORE`` where the query or the subject
    failed."""
    fitted = _fit_detectors(prepared, detector_config, seeds)
    out: list[np.ndarray] = []
    for p, detector in zip(prepared, fitted):
        raw = np.full(len(p.query_ids), SENTINEL_SCORE)
        if detector is not None and p.query_rows:
            raw[p.query_rows] = detector.score_all(p.query_matrix)
        out.append(raw)
    return out


def _scores(
    prepared: list[_SubjectFeatures], config: PipelineConfig, seeds: list[int]
) -> ScoreSet:
    """Raw and normalized records of the configured detector, in subject
    then query order.

    An ensemble scores member ``i`` with the seeds ``seed + 1 + i``. It
    averages the members' raw scores and normalizes the mean or, with
    ``ensemble_normalized``, averages the per-member normalized scores. A
    record is flagged when its (mean) raw score is not finite; the
    normalization of the mean and of every member leaves it out. A subject
    whose scores cannot be normalized is flagged whole.
    """
    norm = config.score_norm
    ensemble = config.detector.name == "ensemble"
    member_raw = [
        _raw_scores(prepared, m, [seed + offset for seed in seeds])
        for offset, m in enumerate(config.detector.singles(), start=int(ensemble))
    ]
    records: list[ScoreRecord] = []
    for p, raws in zip(prepared, zip(*member_raw)):
        # a single detector keeps its bits: a mean of one turns -0.0 into 0.0
        raw = np.mean(raws, axis=0) if ensemble else raws[0]
        flagged = ~np.isfinite(raw)
        raw[flagged] = SENTINEL_SCORE
        flags = flagged.tolist()
        try:
            if ensemble and config.ensemble_normalized:
                per_member = [normalize_subject(p.subject_id, r.tolist(), flags, norm) for r in raws]
                normalized = np.mean(per_member, axis=0).tolist()
            else:
                normalized = normalize_subject(p.subject_id, raw.tolist(), flags, norm)
        except ScoreNormError:
            # too few live scores to normalize (sd needs 2): the subject is
            # flagged whole, like one whose preparation failed
            raw[:] = SENTINEL_SCORE
            flags = [True] * len(flags)
            normalized = normalize_subject(p.subject_id, raw.tolist(), flags, norm)
        records.extend(
            ScoreRecord(p.subject_id, q, r, n, label, f)
            for q, r, n, label, f in zip(
                p.query_ids, raw.tolist(), normalized, p.query_labels, flags
            )
        )
    return ScoreSet(tuple(records))


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

    Raises:
        Nothing for a detector: a ``PipelineConfig`` cannot hold an unknown
            detector or invalid detector params, because its constructor
            builds each detector config once and raises ValueError.
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
) -> MonteCarloResult:
    """Repeated random template/query splits of a fully labeled dataset.

    Each repetition draws ``n_templates`` templates per subject uniformly
    without replacement from that subject's genuine samples; everything
    else (remaining genuine plus all impostors) becomes queries. The full
    pipeline runs on each split with a seed derived from ``config.seed``
    and the repetition, and the global EER is recorded.

    Raises:
        EvaluationError: repetitions or n_templates is below 1, a sample
            is unlabeled, or a subject has fewer than n_templates + 1
            genuine samples.
    """
    if repetitions < 1:
        raise EvaluationError(f"repetitions must be positive, got {repetitions}")
    if n_templates < 1:
        raise EvaluationError(f"n_templates must be positive, got {n_templates}")
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
        rep_seed = derive_seed(config.seed, "rep", rep)
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
