"""Release gate: one test per shipping criterion, each at its stated
tolerance. Run with -v for a single pass/fail line per criterion.

Criteria 9 (second half) and 10 need the reference dataset, which cannot
be redistributed with this package. Point KEYGAIT_KBOC_DIR at a dataset
directory in the canonical on-disk format to enable them; without it,
criterion 10 skips with an explicit message and criterion 9 checks the
synthetic quanta only. Criterion 9 has a negative half as well: a
millisecond-true synthetic clock has no quantum to recover.
"""

import time
from statistics import mean

import numpy as np
import pytest

from keygait import (
    Label,
    OneClassSvm,
    PipelineConfig,
    ResolutionError,
    ScoreNormConfig,
    ScoreRecord,
    ScoreSet,
    SynthConfig,
    align,
    apply_normalization,
    audit_dataset,
    collect_latencies,
    damerau_levenshtein,
    estimate_resolution,
    generate_synthetic,
    global_eer,
    load_dataset,
    monte_carlo_validate,
    roc,
    run_pipeline,
    subject_eer,
    write_dataset,
)
from keygait.cli import main as cli_main
from keygait.detectors import _nn
from keygait.detectors import autoencoder as ae
from keygait.detectors import contractive as cae
from keygait.detectors import variational as vae
from keygait.detectors.ocsvm import rbf_kernel

from conftest import kboc_dir
from oracles import (
    all_strings,
    bfs_edit_distances,
    central_difference,
    max_relative_error,
    ocsvm_dual_oracle,
    rows,
    seq,
)


def _mkseq(keys, gap=100, duration=60):
    return seq([(key, i * gap, i * gap + duration) for i, key in enumerate(keys)])


def _flat(params, keys):
    arrays = []
    for k in keys:
        v = params[k]
        arrays.extend(v if isinstance(v, list) else [v])
    return np.concatenate([a.ravel() for a in arrays])


def _assign(params, keys, vec):
    pos = 0
    for k in keys:
        v = params[k]
        for a in v if isinstance(v, list) else [v]:
            a[...] = vec[pos : pos + a.size].reshape(a.shape)
            pos += a.size


STANDARD_FIXTURE = dict(
    n_subjects=50, shift_drop=0.05, shift_transpose=0.03, capslock_sub=0.02
)


@pytest.fixture(scope="module")
def desk_scale():
    """Mean global EER over seeds 0..4 for every cell criteria 7/8 need."""
    t0 = time.monotonic()
    cells: dict[tuple[str, str], list[float]] = {}
    wanted = [
        ("align", "sd"),
        ("truncate", "sd"),
        ("discard", "sd"),
        ("align", "minmax"),
        ("align", "none"),
    ]
    for seed in range(5):
        dataset, _ = generate_synthetic(SynthConfig(seed=seed, **STANDARD_FIXTURE))
        for method, kind in wanted:
            config = PipelineConfig(
                alignment=method,
                score_norm=ScoreNormConfig(kind=kind, h_s=2.0),
                seed=seed,
            )
            cells.setdefault((method, kind), []).append(
                global_eer(run_pipeline(dataset, config))
            )
    elapsed = time.monotonic() - t0
    return {k: mean(v) for k, v in cells.items()}, elapsed


def test_criterion_01_edit_distance_matches_exhaustive_search():
    t0 = time.monotonic()
    alphabet = ("a", "b", "c")
    oracle = bfs_edit_distances(alphabet, operand_len=4)
    operands = all_strings(alphabet, 4)
    assert len(operands) == 121
    for x in operands:
        for y in operands:
            assert damerau_levenshtein(x, y) == oracle[(x, y)]
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        params = ae.init_params(rng, [6, 5, 4, 3])
        X = rng.uniform(0.0, 1.0, size=(3, 6))
        _, grads = ae.loss_and_grads(params, X)
        theta0 = _flat(params, ("W", "b", "c"))

        def f_ae(theta):
            _assign(params, ("W", "b", "c"), theta)
            value = ae.loss_and_grads(params, X)[0]
            _assign(params, ("W", "b", "c"), theta0)
            return value

        numeric = central_difference(f_ae, theta0.copy())
        worst = max(worst, max_relative_error(_flat(grads, ("W", "b", "c")), numeric))

    for _ in range(20):
        params = cae.init_params(rng, 5, 7)
        X = rng.uniform(0.0, 1.0, size=(3, 5))
        _, grads = cae.loss_and_grads(params, X, 1.5)
        theta0 = _flat(params, ("W", "bh", "by"))

        def f_cae(theta):
            _assign(params, ("W", "bh", "by"), theta)
            value = cae.loss_and_grads(params, X, 1.5)[0]
            _assign(params, ("W", "bh", "by"), theta0)
            return value

        numeric = central_difference(f_cae, theta0.copy())
        worst = max(worst, max_relative_error(_flat(grads, ("W", "bh", "by")), numeric))

    for _ in range(20):
        params = vae.init_params(rng, 5, (4, 4), 2)
        X = rng.uniform(0.05, 0.95, size=(2, 5))
        eps = rng.standard_normal((2, 2))
        _, grads = vae.loss_and_grads(params, X, eps)
        arrays = _nn.leaves(params)
        theta0 = np.concatenate([a.ravel() for a in arrays])

        def f_vae(theta):
            pos = 0
            for a in arrays:
                a[...] = theta[pos : pos + a.size].reshape(a.shape)
                pos += a.size
            value = vae.loss_and_grads(params, X, eps)[0]
            pos = 0
            for a in arrays:
                a[...] = theta0[pos : pos + a.size].reshape(a.shape)
                pos += a.size
            return value

        numeric = central_difference(f_vae, theta0.copy())
        analytic = np.concatenate([g.ravel() for g in _nn.leaves(grads)])
        worst = max(worst, max_relative_error(analytic, numeric))

    assert worst < 1e-4
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_contractive_penalty_matches_jacobian():
    rng = np.random.default_rng(303)
    for _ in range(10):
        params = cae.init_params(rng, 6, 9)
        X = rng.uniform(0.1, 0.9, size=(2, 6))
        analytic = cae.contractive_penalty(params, X)
        h = 1e-5
        total = 0.0
        for r in range(X.shape[0]):
            for j in range(X.shape[1]):
                up = X[r].copy()
                up[j] += h
                down = X[r].copy()
                down[j] -= h
                col = (
                    cae.encode(params, up.reshape(1, -1))
                    - cae.encode(params, down.reshape(1, -1))
                ) / (2.0 * h)
                total += float((col**2).sum())
        assert abs(analytic - total) / max(abs(total), 1e-12) < 1e-5


def test_criterion_04_ocsvm_solver_reaches_the_dual_optimum():
    rng = np.random.default_rng(404)
    found_interior = 0
    for _ in range(10):
        X = rng.uniform(size=(4, 6))
        det = OneClassSvm(nu=0.5, gamma=0.9).fit(X)
        expected, _ = ocsvm_dual_oracle(rbf_kernel(X, X, 0.9), 0.5)
        assert det.dual_objective() == pytest.approx(expected, abs=1e-6)
        cap = 1.0 / (0.5 * 4)
        eps = 1e-9 * cap
        for i, a in enumerate(det.alpha_):
            if eps < a < cap - eps:
                found_interior += 1
                assert abs(det.score(X[i])) < 1e-8
    assert found_interior > 0


def test_criterion_05_eer_fixtures_and_minmax_invariance():
    perfect = roc([0.9, 0.8, 0.7, 0.2, 0.1], [True, True, True, False, False])
    assert perfect.eer() == 0.0

    same = roc([0.3, 0.5, 0.9, 0.3, 0.5, 0.9], [True] * 3 + [False] * 3)
    assert same.eer() == 0.5

    crossover = roc(
        [0.9, 0.8, 0.7, 0.6, 0.4, 0.75, 0.5, 0.3],
        [True, True, True, True, True, False, False, False],
    )
    assert abs(crossover.eer() - 1.0 / 3.0) <= 1e-9

    # per-subject min/max rescaling must not move any subject's EER
    rng = np.random.default_rng(505)
    records = []
    for s in range(6):
        labels = [Label.GENUINE] * 6 + [Label.IMPOSTOR] * 6
        for i, label in enumerate(labels):
            raw = float(rng.integers(-5000, 5000)) / 1000.0
            records.append(ScoreRecord(f"s{s:02d}", f"q{i:02d}", raw, label=label))
    raw_set = ScoreSet(tuple(records))
    normalized = apply_normalization(raw_set, ScoreNormConfig(kind="minmax"))
    before = subject_eer(raw_set).per_subject
    after = subject_eer(normalized).per_subject
    assert before == after


def test_criterion_06_alignment_invariants_and_hand_traced_case():
    typed = _mkseq(["lshift", "j", "o", "space", "rshift", "k"])
    identical, mapping = align(typed, typed)
    assert rows(identical) == rows(typed)
    assert not any(mapping.substituted)

    rng = np.random.default_rng(606)
    keys = ["lshift", "a", "b", "space", "c", "d", "rshift", "e"]
    for _ in range(50):
        target = _mkseq(keys)
        take = rng.random(len(keys)) > 0.25
        take[0] = True
        given_keys = [k for k, keep in zip(keys, take) if keep]
        order = rng.permutation(len(given_keys))
        given = _mkseq([given_keys[i] for i in order])
        aligned, mapping = align(given, target)
        assert len(aligned) == len(target)
        if not mapping.flagged:
            assert len(set(mapping.index)) == len(mapping.index)

    target = _mkseq(["lshift", "j", "space", "lshift", "m"])
    given = _mkseq(["j", "space", "lshift", "m"])
    aligned, mapping = align(given, target)
    assert mapping.substituted == (False, False, False, True, False)
    assert mapping.index == (2, 0, 1, 3, 3)
    assert mapping.flagged
    latencies = np.diff(aligned.press)
    assert latencies[0] < 0


def test_criterion_07_alignment_ordering_on_the_standard_fixture(desk_scale):
    cells, elapsed = desk_scale
    align_eer = cells[("align", "sd")]
    truncate_eer = cells[("truncate", "sd")]
    discard_eer = cells[("discard", "sd")]
    assert align_eer < discard_eer
    assert align_eer <= truncate_eer + 0.01
    assert elapsed < 120.0


def test_criterion_08_score_norm_ordering_on_the_standard_fixture(desk_scale):
    cells, elapsed = desk_scale
    assert cells[("align", "sd")] < cells[("align", "minmax")]
    assert cells[("align", "minmax")] < cells[("align", "none")]
    assert elapsed < 120.0


def test_criterion_09_resolution_estimator_recovers_clock_quanta():
    for quantum in (10, 15, 40, 50):
        dataset, _ = generate_synthetic(
            SynthConfig(n_subjects=8, clock_quantum_ms=quantum, seed=909)
        )
        estimate = estimate_resolution(collect_latencies(dataset))
        assert abs(estimate - quantum) <= max(1.0, 0.1 * quantum)

    reference = kboc_dir()
    if reference is not None:
        estimate = estimate_resolution(collect_latencies(load_dataset(reference)))
        assert abs(estimate - 46.4) <= 3.0


@pytest.mark.parametrize("seed", [0, 909])
@pytest.mark.parametrize("n_subjects", [1, 3, 20, 50])
def test_criterion_09_millisecond_true_clock_is_indeterminate(n_subjects, seed):
    dataset, _ = generate_synthetic(SynthConfig(n_subjects=n_subjects, seed=seed))
    with pytest.raises(ResolutionError, match="indeterminate"):
        estimate_resolution(collect_latencies(dataset))


def test_criterion_10_reference_dataset_reproduction():
    """Development-set numbers must reproduce when the dataset is present.

    Test-set EERs are NOT reproducible: the test queries' labels were
    never released, so no labeled test-set evaluation exists to compare
    against. The development set is the only ground-truthed split, and
    the determinism and property tests elsewhere in this suite cover the
    pipeline that produced the unlabeled test-set submissions.
    """
    reference = kboc_dir()
    if reference is None:
        pytest.skip(
            "reference dataset not available: set KEYGAIT_KBOC_DIR to a "
            "dataset directory in the canonical format to enable this check"
        )
    dataset = load_dataset(reference)

    report = audit_dataset(dataset)
    by_type = {r.comparison_type: r for r in report.rows}
    tt = by_type["template-template"]
    qt = by_type["query-template"]
    assert (tt.count_differing, tt.count_total) == (226, 1800)
    assert (qt.count_differing, qt.count_total) == (1545, 24000)

    config = PipelineConfig(
        alignment="align", score_norm=ScoreNormConfig(kind="sd", h_s=2.0)
    )
    result = monte_carlo_validate(dataset, config, repetitions=10, n_templates=4)
    assert abs(result.mean_eer - 0.0695) <= 2 * 0.0117


def test_criterion_11_evaluate_is_byte_deterministic(tmp_path):
    dataset, _ = generate_synthetic(SynthConfig(n_subjects=4, seed=1111))
    data = tmp_path / "data"
    write_dataset(dataset, data)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            [
                "evaluate", "--data", str(data), "--out", str(out),
                "--detector", "autoencoder", "--seed", "17",
            ]
        )
        assert code == 0
        runs.append(out)
    a, b = runs
    assert (a / "scores.tsv").read_bytes() == (b / "scores.tsv").read_bytes()
    assert (a / "raw_scores.tsv").read_bytes() == (b / "raw_scores.tsv").read_bytes()
