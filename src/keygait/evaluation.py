"""ROC/EER computation and the end-to-end scoring pipeline.

A query is accepted as genuine when its score is at or above the
threshold. The ROC is evaluated at every distinct score plus an infinite
lead-in, so it always spans (FAR, FRR) = (0, 1) to (1, 0); the EER is
read off at the exact FAR = FRR point when one exists and by linear
interpolation across the sign change otherwise.

The pipeline is three stages, and run_pipeline runs them in turn:
``prepare`` aligns every subject to one index matrix into its samples'
columns (``alignment.align_subject``), gathers their press and release
times through it, and extracts and normalizes the features of all its
rows at once, keeping each sample's alignment record; ``raw_scores``
fits the detector with one ``Detector.fit_group`` call per group of
subjects with the same template count and scores each subject's
queries; ``normalize_scores`` normalizes the raw scores per subject.
Score normalization reads only raw scores, so ``keygait ablate``
prepares and fits once per alignment and normalizes those raw scores
once per kind. A group fit gives every subject bit-identical results to
fitting it alone, so for the three networks (autoencoder, contractive,
variational) ``raw_scores`` fits and scores the subjects across
processes (``_processes.across_processes``),
with the same function that scores all subjects inline, and no output
byte depends on the CPU count. An ensemble is a pipeline config, not a
detector: each member is fitted and scored like a single detector, and
``raw_scores`` averages the members' raw scores.
Samples that cannot be processed are never dropped: they become flagged
records with a sentinel minimal score and count toward
failure-to-capture. All randomness derives from the config's master
seed via SHA-256, so a rerun with the same config and data is
bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import Sequence

import numpy as np

from ._processes import across_processes
from .alignment import AlignmentMapping, align_subject
from .config import PipelineConfig
from .datasets import tsv
from .detectors import build_detector
from .errors import AlignmentError, EvaluationError, KeygaitError, ScoreNormError
from .events import Label, Role, Sample, SubjectDataset, SubjectSamples
from .features import extract_features, fit_feature_normalizer, normalize_features
from .scorenorm import SENTINEL_SCORE, ScoreSet, normalize_subject


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
        columns = (self.thresholds.tolist(), self.far.tolist(), self.frr.tolist())
        return tsv(zip(*columns), ("threshold", "far", "frr"))


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


def effective_scores(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    """Each record's ``score`` and whether it is genuine, as arrays in
    record order.

    Raises:
        EvaluationError: a record has no label.
    """
    if None in scores.labels:
        i = scores.labels.index(None)
        raise EvaluationError(f"record {scores.subject_ids[i]}/{scores.sample_ids[i]} has no label")
    return scores.score, np.array(scores.labels, object) == Label.GENUINE


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
    """Per-subject EERs, each from one :func:`roc` over the subject's rows,
    plus their mean and population SD.

    Raises:
        EvaluationError: no scores, or a subject whose EER is undefined or
            that holds an unlabeled record.
    """
    if not len(scores):
        raise EvaluationError("no scores to evaluate")
    genuine = np.array(scores.labels, object) == Label.GENUINE
    per_subject: dict[str, float] = {}
    for subject_id, rows in scores.subject_slices():
        if None in scores.labels[rows]:
            effective_scores(scores)  # raises for this subject's unlabeled record
        try:
            per_subject[subject_id] = roc(scores.score[rows], genuine[rows]).eer()
        except EvaluationError as exc:
            raise EvaluationError(f"subject {subject_id}: {exc}") from exc
    eers = np.array(list(per_subject.values()))
    return SubjectEerReport(per_subject, float(eers.mean()), float(eers.std()))


@dataclass
class PreparedSubject:
    """One subject's aligned, normalized features, and what alignment did
    to each of its templates and queries; detector-independent."""

    subject_id: str
    query_ids: list[str]
    query_labels: list[Label | None]
    template_matrix: np.ndarray | None = None  # None: the whole subject failed
    query_matrix: np.ndarray | None = None  # one row per query that prepared
    query_rows: list[int] = field(default_factory=list)  # their query indices
    # per template, in sample id order, and per query: its alignment record,
    # None where it did not align (all of them when no template is non-empty)
    template_alignments: list[AlignmentMapping | None] = field(default_factory=list)
    query_alignments: list[AlignmentMapping | None] = field(default_factory=list)


def _prepare_subject(
    subject_id: str,
    templates: list[Sample],
    queries: list[Sample],
    config: PipelineConfig,
) -> PreparedSubject:
    prepared = PreparedSubject(
        subject_id,
        [s.sample_id for s in queries],
        [s.label for s in queries],
        template_alignments=[None] * len(templates),
        query_alignments=[None] * len(queries),
    )
    sequences = [s.sequence for s in chain(templates, queries)]
    try:
        index, prepared.template_alignments, prepared.query_alignments = align_subject(
            sequences[: len(templates)], sequences[len(templates) :], config.alignment
        )
    except AlignmentError:
        return prepared

    # Every row has the target's length, so the templates and queries of a
    # subject form one feature matrix, gathered from their given times.
    query_rows = [i for i, m in enumerate(prepared.query_alignments) if m is not None]
    n_templates = len(index) - len(query_rows)
    press = np.concatenate([s.press for s in sequences])[index]
    release = np.concatenate([s.release for s in sequences])[index]
    try:
        raw = extract_features(press, release)
        normalizer = fit_feature_normalizer(raw[:n_templates], h_f=config.h_f)
        matrix = normalize_features(normalizer, raw)
    except KeygaitError:
        return prepared
    prepared.template_matrix = matrix[:n_templates]
    prepared.query_matrix = matrix[n_templates:]
    prepared.query_rows = query_rows
    return prepared


def prepare(dataset: SubjectDataset, config: PipelineConfig) -> list[PreparedSubject]:
    """Stage 1: every subject aligned by ``config.alignment`` and its
    features normalized against its templates, in subject id order."""
    return [
        _prepare_subject(
            sid,
            sorted(dataset.subjects[sid].templates, key=lambda s: s.sample_id),
            sorted(dataset.subjects[sid].queries, key=lambda s: s.sample_id),
            config,
        )
        for sid in dataset.subject_ids()
    ]


def _score_subjects(prepared: list[PreparedSubject], config: PipelineConfig) -> list[list[np.ndarray]]:
    """Per subject, per member of the configured detector (or the single
    detector), the raw score of every query: each member fitted by one
    ``fit_group`` per template count, and each subject's queries scored by
    one ``score_all`` right after its group's fit; ``SENTINEL_SCORE``
    where the query, the subject or its fit failed. Subject ``s`` is
    seeded ``derive_seed(config.seed, s)``, plus ``1 + i`` for ensemble
    member ``i``."""
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(prepared):
        if p.template_matrix is not None:
            groups.setdefault(p.template_matrix.shape[0], []).append(i)
    seeds = [derive_seed(config.seed, p.subject_id) for p in prepared]
    singles = config.detector.singles()
    scores = [[np.full(len(p.query_ids), SENTINEL_SCORE) for _ in singles] for p in prepared]
    offset = int(config.detector.name == "ensemble")
    for m, member in enumerate(singles):
        for group in groups.values():
            detectors = [build_detector(member, seed=seeds[i] + offset + m) for i in group]
            errors = type(detectors[0]).fit_group(detectors, [prepared[i].template_matrix for i in group])
            for i, detector, error in zip(group, detectors, errors):
                p = prepared[i]
                if error is None and p.query_rows:
                    scores[i][m][p.query_rows] = detector.score_all(p.query_matrix)
    return scores


def raw_scores(prepared: list[PreparedSubject], config: PipelineConfig) -> list[np.ndarray]:
    """Stage 2: per subject, in ``prepared``'s order, the raw score of every
    query: the detector's, or the mean of an ensemble's members' scores
    (``_score_subjects``), taken in this process.

    When a member's class sets ``fit_across_processes`` (the three
    networks), the subjects are fitted and scored across processes
    (``_processes.across_processes``), and only their scores come back;
    no byte depends on the CPU count. An exception from a fit is raised
    here as it would be inline.

    The raw mean weights each member by its raw scores' scale. On the
    README quick start's set (sd 4.45 for manhattan, 0.093 for the
    one-class SVM) their mean's EER under sd, 0.052 / 0.116 / 0.042 for
    align / truncate / discard, tracks manhattan's 0.052 / 0.118 / 0.042;
    yet manhattan + variational reads 0.038 under sd with align, against
    0.052 and 0.042 alone. Averaging normalized scores instead won 4 of 18
    cells (3 pairs x 3 alignments x minmax and sd), by at most 0.004, and
    lost 13, by up to 0.028."""
    score = partial(_score_subjects, config=config)
    if any(build_detector(m).fit_across_processes for m in config.detector.singles()):
        members = across_processes(score, prepared)
    else:
        members = score(prepared)
    if config.detector.name != "ensemble":
        # a single detector keeps its bits: a mean of one turns -0.0 into 0.0
        return [m[0] for m in members]
    return [np.mean(m, axis=0) for m in members]


def normalize_scores(
    prepared: list[PreparedSubject], raws: list[np.ndarray], config: PipelineConfig
) -> ScoreSet:
    """Stage 3: the raw and normalized score columns of stage 2's scores
    under ``config.score_norm``, filled subject by subject in ``prepared``'s
    order, which :func:`prepare` makes (subject_id, sample_id) order.
    ``raws`` is only read, so one stage 2 result serves every score
    normalization.

    A record is flagged when its raw score is not finite; normalization
    leaves it out. A subject whose scores cannot be normalized is flagged
    whole.
    """
    norm = config.score_norm
    raw_column: list[float] = []
    normalized_column: list[float] = []
    flag_column: list[bool] = []
    for p, raw in zip(prepared, raws):
        flagged = ~np.isfinite(raw)
        raw = np.where(flagged, SENTINEL_SCORE, raw).tolist()
        flags = flagged.tolist()
        try:
            normalized = normalize_subject(p.subject_id, raw, flags, norm)
        except ScoreNormError:
            # too few live scores to normalize (sd needs 2): the subject is
            # flagged whole, like one whose preparation failed
            raw = [SENTINEL_SCORE] * len(raw)
            flags = [True] * len(flags)
            normalized = normalize_subject(p.subject_id, raw, flags, norm)
        raw_column += raw
        normalized_column += normalized
        flag_column += flags
    return ScoreSet._of(
        [p.subject_id for p in prepared for _ in p.query_ids],
        [q for p in prepared for q in p.query_ids],
        raw_column,
        normalized_column,
        [label for p in prepared for label in p.query_labels],
        flag_column,
    )


def run_pipeline(dataset: SubjectDataset, config: PipelineConfig) -> ScoreSet:
    """Score every query in the dataset under one config: the three stages
    :func:`prepare`, :func:`raw_scores` and :func:`normalize_scores` in turn.

    Failed samples come back flagged with the sentinel score; record count
    in == record count out.

    Raises:
        Nothing for a detector: a ``PipelineConfig`` cannot hold an unknown
            detector or invalid detector params, because its constructor
            builds each detector config once and raises ValueError.
    """
    prepared = prepare(dataset, config)
    return normalize_scores(prepared, raw_scores(prepared, config), config)


@dataclass(frozen=True)
class MonteCarloResult:
    mean_eer: float
    sd_eer: float
    eers: tuple[float, ...]


def check_split_counts(repetitions: int, n_templates: int) -> None:
    """EvaluationError unless both Monte Carlo split counts are at least 1
    and ``repetitions`` is at most 10,000: each repetition runs the whole
    pipeline (10 take 0.15 s on 50 subjects with manhattan), so 10**29 of
    them would never finish, where 10,000 take minutes."""
    for name, value in (("repetitions", repetitions), ("n_templates", n_templates)):
        if value < 1:
            raise EvaluationError(f"{name} must be positive, got {value}")
    if repetitions > 10_000:
        raise EvaluationError(f"repetitions must be at most 10000, got {repetitions}")


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
        EvaluationError: repetitions or n_templates is below 1,
            repetitions is above 10,000, a sample is unlabeled, or a
            subject has fewer than n_templates + 1 genuine samples.
    """
    check_split_counts(repetitions, n_templates)
    pools: list[tuple[str, list[Sample], list[Sample], list[Sample]]] = []
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
        # Each sample in every role it can take, built once for all splits.
        pools.append(
            (
                subject_id,
                [replace(s, role=Role.TEMPLATE) for s in genuine],
                [replace(s, role=Role.QUERY) for s in genuine],
                [replace(s, role=Role.QUERY) for s in impostor],
            )
        )

    eers: list[float] = []
    for rep in range(repetitions):
        rep_seed = derive_seed(config.seed, "rep", rep)
        rng = np.random.default_rng(rep_seed)
        split = SubjectDataset()
        for subject_id, as_template, as_query, impostor in pools:
            chosen = set(rng.choice(len(as_template), size=n_templates, replace=False).tolist())
            split.subjects[subject_id] = SubjectSamples(
                [s for i, s in enumerate(as_template) if i in chosen],
                [s for i, s in enumerate(as_query) if i not in chosen] + impostor,
            )
        scores = run_pipeline(split, replace(config, seed=rep_seed))
        eers.append(global_eer(scores))
    arr = np.array(eers)
    return MonteCarloResult(float(arr.mean()), float(arr.std()), tuple(eers))
