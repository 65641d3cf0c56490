import inspect
import json
import re
import warnings
from dataclasses import replace
from itertools import repeat
from typing import get_type_hints

import numpy as np
import pytest

from keygait import (
    ContractiveAutoencoder,
    DetectorConfig,
    ManhattanDetector,
    OneClassSvm,
    TiedAutoencoder,
    TrainingError,
    VariationalAutoencoder,
    build_detector,
)
from keygait import detectors
from keygait.config import decode_fields
from keygait.detectors import DETECTOR_NAMES, _nn
from keygait.detectors import autoencoder as ae
from keygait.detectors import contractive as cae
from keygait.detectors import variational as vae
from keygait.detectors.base import MAX_WIDTH
from keygait.detectors.ocsvm import project_capped_simplex, rbf_kernel

from oracles import (
    bisection_capped_simplex,
    central_difference,
    max_relative_error,
    ocsvm_dual_oracle,
    reference_autoencoder_fit,
    reference_contractive_grads,
    reference_expit,
    reference_vae_fit,
)


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


class TestManhattan:
    def test_score_is_negative_l1_to_mean(self):
        det = ManhattanDetector().fit(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert det.score(np.array([1.0, 1.0])) == 0.0
        assert det.score(np.array([3.0, 0.0])) == -3.0

    def test_scaled_variant(self):
        x = np.array([[0.0], [2.0], [4.0]])
        det = ManhattanDetector(scaled=True).fit(x)
        # mean 2, mean absolute deviation 4/3
        assert det.score(np.array([6.0])) == pytest.approx(-4.0 / (4.0 / 3.0))

    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ManhattanDetector().score(np.zeros(3))


class TestTiedAutoencoder:
    KEYS = ("W", "b", "c")

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            dims = [6, 5, 4, 3]
            params = ae.init_params(rng, dims)
            X = rng.uniform(0.0, 1.0, size=(3, 6))
            _, grads = ae.loss_and_grads(params, X)

            theta0 = _flat(params, self.KEYS)

            def f(theta):
                _assign(params, self.KEYS, theta)
                value = ae.loss_and_grads(params, X)[0]
                _assign(params, self.KEYS, theta0)
                return value

            numeric = central_difference(f, theta0.copy())
            assert max_relative_error(_flat(grads, self.KEYS), numeric) < 1e-4

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.2, 0.8, size=(4, 7))
        init = TiedAutoencoder(epochs=0, seed=3).fit(X)
        trained = TiedAutoencoder(epochs=300, seed=3).fit(X)
        loss_init = ae.loss_and_grads(init.params_, X)[0]
        loss_trained = ae.loss_and_grads(trained.params_, X)[0]
        assert loss_trained < loss_init

    def test_deterministic_given_seed(self):
        X = np.random.default_rng(1).uniform(size=(4, 7))
        q = np.full(7, 0.4)
        a = TiedAutoencoder(epochs=50, seed=9).fit(X).score(q)
        b = TiedAutoencoder(epochs=50, seed=9).fit(X).score(q)
        assert a == b
        c = TiedAutoencoder(epochs=50, seed=10).fit(X).score(q)
        assert a != c

    def test_score_is_negated_squared_error(self):
        X = np.random.default_rng(2).uniform(size=(3, 5))
        det = TiedAutoencoder(epochs=0, seed=0).fit(X)
        q = X[0]
        recon = ae.reconstruct(det.params_, q.reshape(1, -1))[0]
        assert det.score(q) == pytest.approx(-float(((q - recon) ** 2).sum()))

    def test_nonfinite_loss_raises_with_epoch(self):
        X = np.array([[0.5, np.nan, 0.5, 0.5], [0.4, 0.4, 0.4, 0.4]])
        with pytest.raises(TrainingError, match="epoch 0"):
            TiedAutoencoder(epochs=50, seed=0).fit(X)


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between non-negative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSigmoid:
    """``_nn.sigmoid`` against ``scipy.special.expit``: the two exps may
    round differently, so the bound is 4 ulp, not equality."""

    @pytest.mark.parametrize("sd", [5.0, 50.0])
    def test_within_4_ulp_of_expit(self, sd):
        z = np.random.default_rng(0).normal(0.0, sd, size=200_000)
        assert _ulps(_nn.sigmoid(z), reference_expit(z)).max() <= 4

    def test_overflow_tail_is_zero_without_a_warning(self):
        z = -np.concatenate([np.linspace(708.5, 800.0, 10_001), [1e10, 1e300, np.finfo(float).max]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _nn.sigmoid(z)
        assert _ulps(got, reference_expit(z)).max() <= 4
        assert np.all(got[z < -710.0] == 0.0) and np.all(got[z > -709.0] > 0.0)

    def test_special_values_match_expit(self):
        z = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
        got = _nn.sigmoid(z)
        np.testing.assert_array_equal(got, reference_expit(z))
        assert got.tolist()[:2] == [1.0, 0.0] and np.isnan(got[2])


class TestContractiveAutoencoder:
    KEYS = ("W", "bh", "by")

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            params = cae.init_params(rng, 5, 7)
            X = rng.uniform(0.0, 1.0, size=(3, 5))
            lam = 1.5
            _, grads = cae.loss_and_grads(params, X, lam)

            theta0 = _flat(params, self.KEYS)

            def f(theta):
                _assign(params, self.KEYS, theta)
                value = cae.loss_and_grads(params, X, lam)[0]
                _assign(params, self.KEYS, theta0)
                return value

            numeric = central_difference(f, theta0.copy())
            assert max_relative_error(_flat(grads, self.KEYS), numeric) < 1e-4

    @pytest.mark.parametrize("d, hidden", [(1, 1), (5, 7), (12, 3), (49, 400)])
    @pytest.mark.parametrize("reg_weight", [0.0, 0.3, 1.5, 40.0])
    def test_fused_gradient_matches_separate_products(self, d, hidden, reg_weight):
        rng = np.random.default_rng(d * 1000 + hidden)
        params = cae.init_params(rng, d, hidden)
        params["bh"] += rng.normal(size=hidden)
        params["by"] += rng.normal(size=d)
        X = rng.uniform(size=(4, d))
        _, grads = cae.loss_and_grads(params, X, reg_weight)
        expected = reference_contractive_grads(params, X, reg_weight)
        for name in self.KEYS:
            scale = np.abs(expected[name]).max()
            assert np.abs(grads[name] - expected[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    @pytest.mark.parametrize("d, hidden", [(5, 7), (49, 400)])
    @pytest.mark.parametrize("reg_weight", [0.0, 1.5])
    def test_gradient_matches_separate_products_at_every_batch_size(self, n_rows, d, hidden, reg_weight):
        rng = np.random.default_rng(n_rows * 100 + d)
        params = cae.init_params(rng, d, hidden)
        params["bh"] += rng.normal(size=hidden)
        params["by"] += rng.normal(size=d)
        X = rng.uniform(size=(n_rows, d))
        _, grads = cae.loss_and_grads(params, X, reg_weight)
        expected = reference_contractive_grads(params, X, reg_weight)
        for name in self.KEYS:
            scale = np.abs(expected[name]).max()
            assert np.abs(grads[name] - expected[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("d, hidden", [(1, 1), (6, 8), (49, 400)])
    def test_init_keeps_the_draws_of_the_hidden_by_input_layout(self, d, hidden):
        # W is stored as (d, hidden): the transpose of the same draws
        W = cae.init_params(np.random.default_rng(7), d, hidden)["W"]
        expected = _nn.xavier_uniform(np.random.default_rng(7), hidden, d).T
        assert W.shape == (d, hidden) and W.flags.c_contiguous
        assert W.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_penalty_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            params = cae.init_params(rng, 6, 9)
            X = rng.uniform(0.1, 0.9, size=(2, 6))
            analytic = cae.contractive_penalty(params, X)
            # the inline copy that training uses carries the same penalty
            lam = 1.5
            weighted = cae.loss_and_grads(params, X, lam)[0] - cae.loss_and_grads(params, X, 0.0)[0]
            assert weighted == pytest.approx(lam * analytic, rel=1e-12, abs=0.0)

            total = 0.0
            h = 1e-5
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

    def test_fit_reusing_buffers_matches_fresh_gradients(self):
        # fit fills one set of gradient buffers every epoch; nothing of an
        # epoch may leak into the next
        X = np.random.default_rng(4).uniform(size=(4, 6))
        det = ContractiveAutoencoder(hidden_dim=8, epochs=30, reg_weight=0.7, seed=2).fit(X)
        params = cae.init_params(np.random.default_rng(2), 6, 8)
        for _ in range(30):
            _, grads = cae.loss_and_grads(params, X, 0.7)
            for name in self.KEYS:
                params[name] -= 0.01 * grads[name]
        for name in self.KEYS:
            assert det.params_[name].tobytes() == params[name].tobytes()

    def test_fit_on_one_row_templates(self):
        X = np.random.default_rng(9).uniform(size=(1, 6))
        det = ContractiveAutoencoder(hidden_dim=8, epochs=30, reg_weight=0.7, seed=3).fit(X)
        params = cae.init_params(np.random.default_rng(3), 6, 8)
        for _ in range(30):
            _, grads = cae.loss_and_grads(params, X, 0.7)
            for name in self.KEYS:
                params[name] -= 0.01 * grads[name]
        for name in self.KEYS:
            assert det.params_[name].tobytes() == params[name].tobytes()
        assert np.isfinite(det.score_all(np.vstack([X, X + 0.1]))).all()

    def test_penalty_weight_changes_training(self):
        X = np.random.default_rng(3).uniform(size=(4, 6))
        a = ContractiveAutoencoder(hidden_dim=8, epochs=40, seed=1).fit(X)
        b = ContractiveAutoencoder(
            hidden_dim=8, epochs=40, reg_weight=0.0, seed=1
        ).fit(X)
        assert a.score(X[0]) != b.score(X[0])

    def test_deterministic_given_seed(self):
        X = np.random.default_rng(4).uniform(size=(4, 6))
        q = np.full(6, 0.5)
        a = ContractiveAutoencoder(hidden_dim=16, epochs=30, seed=2).fit(X).score(q)
        b = ContractiveAutoencoder(hidden_dim=16, epochs=30, seed=2).fit(X).score(q)
        assert a == b

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_group_fit_records_a_diverging_subject(self):
        rng = np.random.default_rng(5)
        Xs = [rng.uniform(size=(4, 6)) for _ in range(3)]
        Xs[1][0, 0] = np.nan
        group = [ContractiveAutoencoder(hidden_dim=8, epochs=20, seed=s) for s in range(3)]
        errors = ContractiveAutoencoder.fit_group(group, Xs)
        assert isinstance(errors[1], TrainingError)
        assert str(errors[1]) == "non-finite loss at epoch 0"
        assert group[1].params_ is None
        for s in (0, 2):
            assert errors[s] is None
            alone = ContractiveAutoencoder(hidden_dim=8, epochs=20, seed=s).fit(Xs[s])
            assert [a.tobytes() for a in group[s].params_.values()] == [
                a.tobytes() for a in alone.params_.values()
            ]


class TestVariationalAutoencoder:
    def test_frozen_noise_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            params = vae.init_params(rng, 6, (5, 5), 3)
            X = rng.uniform(0.05, 0.95, size=(2, 6))
            eps = rng.standard_normal((2, 3))
            _, grads = vae.loss_and_grads(params, X, eps)

            arrays = _nn.leaves(params)
            theta0 = np.concatenate([a.ravel() for a in arrays])

            def f(theta):
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

            numeric = central_difference(f, theta0.copy())
            analytic = np.concatenate([g.ravel() for g in _nn.leaves(grads)])
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_kl_divergence_zero_at_standard_normal(self):
        mu = np.zeros((3, 2))
        logvar = np.zeros((3, 2))
        assert vae.kl_divergence(mu, logvar) == 0.0

    def test_scoring_is_deterministic_after_fit(self):
        X = np.random.default_rng(6).uniform(size=(4, 6))
        det = VariationalAutoencoder(epochs=5, seed=8).fit(X)
        q = np.full(6, 0.5)
        assert det.score(q) == det.score(q)

    def test_fit_deterministic_given_seed(self):
        X = np.random.default_rng(7).uniform(size=(4, 6))
        q = np.full(6, 0.3)
        a = VariationalAutoencoder(epochs=10, seed=5).fit(X).score(q)
        b = VariationalAutoencoder(epochs=10, seed=5).fit(X).score(q)
        assert a == b

    def test_training_improves_reconstruction(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.3, 0.7, size=(6, 5))
        init = VariationalAutoencoder(epochs=0, seed=4).fit(X)
        trained = VariationalAutoencoder(epochs=300, seed=4).fit(X)
        assert vae.reconstruction_losses(trained.params_, X).sum() < vae.reconstruction_losses(
            init.params_, X
        ).sum()


@pytest.mark.parametrize(
    "cls, name, value, bound",
    [
        (TiedAutoencoder, "learning_rate", 0.0, "positive"),
        (TiedAutoencoder, "learning_rate", -0.5, "positive"),
        (ContractiveAutoencoder, "learning_rate", 0.0, "positive"),
        (ContractiveAutoencoder, "learning_rate", -0.01, "positive"),
        (ContractiveAutoencoder, "reg_weight", -1.5, "non-negative"),
        (ContractiveAutoencoder, "reg_weight", float("nan"), "non-negative"),
        (VariationalAutoencoder, "learning_rate", -0.001, "positive"),
        (VariationalAutoencoder, "learning_rate", float("nan"), "positive"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_setting_that_would_train_another_model_is_an_error(cls, name, value, bound):
    # gradient ascent, a frozen init or a rewarded Jacobian would train
    # without any error and score a different model
    with pytest.raises(ValueError, match=rf"^{name} must be {bound}, got {value}$"):
        cls(**{name: value})


@pytest.mark.parametrize(
    "cls, params, message",
    [
        (ContractiveAutoencoder, {"hidden_dim": 10**12}, "hidden_dim must be at most 10000, got 1000000000000"),
        (ContractiveAutoencoder, {"hidden_dim": 0}, "hidden_dim must be positive, got 0"),
        (TiedAutoencoder, {"hidden_sizes": (5, 10**12)}, "hidden_sizes[1] must be at most 10000, got 1000000000000"),
        (TiedAutoencoder, {"hidden_sizes": (0,)}, "hidden_sizes[0] must be positive, got 0"),
        (VariationalAutoencoder, {"hidden_sizes": (10001, 5)}, "hidden_sizes[0] must be at most 10000, got 10001"),
        (VariationalAutoencoder, {"latent_dim": 10**12}, "latent_dim must be at most 10000, got 1000000000000"),
        (VariationalAutoencoder, {"latent_dim": 0}, "latent_dim must be positive, got 0"),
        (TiedAutoencoder, {"hidden_sizes": ()}, "hidden_sizes needs at least one hidden layer"),
        (VariationalAutoencoder, {"hidden_sizes": ()}, "hidden_sizes needs at least one hidden layer"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_layer_width_outside_the_bound_is_an_error(cls, params, message):
    # a width too large to allocate fails here, before any data is read
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        cls(**params)


def test_layer_width_at_the_bound_constructs():
    assert ContractiveAutoencoder(hidden_dim=MAX_WIDTH).hidden_dim == MAX_WIDTH
    assert TiedAutoencoder(hidden_sizes=(MAX_WIDTH,)).hidden_sizes == (MAX_WIDTH,)
    assert VariationalAutoencoder(hidden_sizes=(MAX_WIDTH,), latent_dim=MAX_WIDTH).latent_dim == MAX_WIDTH


class TestStackedTraining:
    """A padded stack of subjects computes each subject's gradients
    bit for bit as that subject alone, and zero in the padding."""

    WIDTHS = [4, 7, 5]

    def _check(self, per_subject, stacked_loss, single):
        net = _nn.StackedParams(per_subject)
        loss = stacked_loss(net)
        for s, params in enumerate(per_subject):
            expected_loss, expected = single(s, params)
            assert loss[s] == pytest.approx(expected_loss, rel=1e-12)
            got = _nn.leaves(net.subject(s, net.grads))
            assert [g.tobytes() for g in got] == [g.tobytes() for g in _nn.leaves(expected)]
        for t, *own in zip(_nn.leaves(net.grads), *map(_nn.leaves, per_subject)):
            padding = t.copy()
            for s, a in enumerate(own):
                padding[s][tuple(slice(0, n) for n in a.shape)] = 0.0
            assert not padding.any()

    def test_autoencoder(self):
        rng = np.random.default_rng(31)
        per_subject = [ae.init_params(rng, [w, 5, 4, 3]) for w in self.WIDTHS]
        Xs = [rng.uniform(size=(3, w)) for w in self.WIDTHS]
        X, widths = _nn.stack_templates(Xs)
        self._check(
            per_subject,
            lambda net: ae._epoch(net.params, net.grads, X, widths)(),
            lambda s, params: ae.loss_and_grads(params, Xs[s]),
        )

    def test_variational(self):
        rng = np.random.default_rng(32)
        per_subject = [vae.init_params(rng, w, (5, 5), 3) for w in self.WIDTHS]
        Xs = [rng.uniform(size=(2, w)) for w in self.WIDTHS]
        eps = rng.standard_normal((len(Xs), 2, 3))
        X, widths = _nn.stack_templates(Xs)
        mask = _nn.width_mask(widths)
        self._check(
            per_subject,
            lambda net: vae._epoch(net.params, net.grads, X, eps, widths, mask)(),
            lambda s, params: vae.loss_and_grads(params, Xs[s], eps[s]),
        )


    # the shapes at which a buffer reused across epochs or batches could
    # have the wrong size: one row, a short last batch, one batch of fewer
    # rows than batch_size, one hidden layer
    @pytest.mark.parametrize(
        "rows, batch_size, hidden_sizes",
        [(4, 2, (5, 4, 3)), (1, 2, (5, 4, 3)), (5, 2, (5, 4, 3)), (3, 8, (5, 4, 3)), (4, 2, (5,))],
        ids=["standard", "one-row", "short-last-batch", "batch-past-rows", "one-hidden-layer"],
    )
    def test_group_fits_match_reference_per_subject_training(self, rows, batch_size, hidden_sizes):
        rng = np.random.default_rng(33)
        Xs = [rng.uniform(size=(rows, w)) for w in self.WIDTHS]
        seeds = [5, 6, 7]
        group = [TiedAutoencoder(hidden_sizes=hidden_sizes, epochs=30, seed=s) for s in seeds]
        assert TiedAutoencoder.fit_group(group, Xs) == [None] * 3
        for det, X, seed in zip(group, Xs, seeds):
            params = ae.init_params(np.random.default_rng(seed), [X.shape[1], *hidden_sizes])
            expected = reference_autoencoder_fit(params, X, 0.5, 30)
            assert [a.tobytes() for a in _nn.leaves(det.params_)] == [
                a.tobytes() for a in _nn.leaves(expected)
            ]
        group = [VariationalAutoencoder(batch_size=batch_size, epochs=30, seed=s) for s in seeds]
        assert VariationalAutoencoder.fit_group(group, Xs) == [None] * 3
        for det, X, seed in zip(group, Xs, seeds):
            draws = np.random.default_rng(seed)
            params = vae.init_params(draws, X.shape[1], (5, 5), 3)
            expected = reference_vae_fit(params, X, draws, 0.001, batch_size, 30)
            assert [a.tobytes() for a in _nn.leaves(det.params_)] == [
                a.tobytes() for a in _nn.leaves(expected)
            ]

    @pytest.mark.parametrize(
        "detector, poison",
        [
            (TiedAutoencoder(epochs=20), 1e160),
            (VariationalAutoencoder(epochs=20), 1e4),
            (ContractiveAutoencoder(hidden_dim=8, epochs=20), 1e200),
        ],
        ids=["autoencoder", "variational", "contractive"],
    )
    def test_a_diverging_subject_fails_silently_under_any_errstate(self, detector, poison):
        # the TrainingError is the report: the fit sets its own errstate and
        # restores the caller's, which here would raise on any warning
        rng = np.random.default_rng(5)
        Xs = [rng.uniform(size=(4, 6)) for _ in range(3)]
        Xs[1][0, 0] = poison
        group = [replace(detector, seed=s) for s in range(3)]
        with np.errstate(all="raise"):
            errors = type(detector).fit_group(group, Xs)
            assert set(np.geterr().values()) == {"raise"}
        assert [str(e) for e in errors] == ["None", "non-finite loss at epoch 0", "None"]
        for s in (0, 2):
            alone = replace(detector, seed=s).fit(Xs[s])
            assert [a.tobytes() for a in _nn.leaves(group[s].params_)] == [
                a.tobytes() for a in _nn.leaves(alone.params_)
            ]

    def test_group_members_share_every_setting_but_the_seed(self):
        Xs = [np.zeros((2, 3))] * 2
        group = [TiedAutoencoder(epochs=1, seed=0), TiedAutoencoder(epochs=2, seed=1)]
        with pytest.raises(ValueError, match="agree on hidden_sizes, learning_rate, epochs$"):
            TiedAutoencoder.fit_group(group, Xs)


class TestParameterStore:
    """The three networks keep their parameters in `_nn.StackedParams`:
    the public gradients hold one array per parameter, and a fit hands
    back weights that own their memory, not views of the stack."""

    NAMES = ["autoencoder", "contractive", "variational"]

    @pytest.mark.parametrize(
        "init, loss_and_grads",
        [
            (lambda rng: ae.init_params(rng, [6, 5, 4, 3]), lambda p, X, rng: ae.loss_and_grads(p, X)),
            (lambda rng: cae.init_params(rng, 6, 8), lambda p, X, rng: cae.loss_and_grads(p, X, 1.5)),
            (
                lambda rng: vae.init_params(rng, 6, (5, 5), 3),
                lambda p, X, rng: vae.loss_and_grads(p, X, rng.standard_normal((3, 3))),
            ),
        ],
        ids=NAMES,
    )
    def test_loss_and_grads_returns_one_gradient_per_parameter(self, init, loss_and_grads):
        rng = np.random.default_rng(41)
        params = init(rng)
        _, grads = loss_and_grads(params, rng.uniform(size=(3, 6)), rng)

        def shapes(p):
            return {k: [a.shape for a in v] if isinstance(v, list) else v.shape for k, v in p.items()}

        assert shapes(grads) == shapes(params)

    @pytest.mark.parametrize(
        "detector",
        [TiedAutoencoder(epochs=20), ContractiveAutoencoder(hidden_dim=8, epochs=20), VariationalAutoencoder(epochs=20)],
        ids=NAMES,
    )
    def test_fitted_weights_own_their_memory(self, detector):
        rng = np.random.default_rng(42)
        Xs = [rng.uniform(size=(4, w)) for w in TestStackedTraining.WIDTHS]
        group = [replace(detector, seed=s) for s in range(len(Xs))]
        assert type(detector).fit_group(group, Xs) == [None] * len(Xs)
        for det in [*group, replace(detector).fit(Xs[0])]:
            assert all(a.base is None for a in _nn.leaves(det.params_))

class TestTrain:
    """`_nn.train`, the one loop every network fits through, on a fake
    step: subject 1's loss turns non-finite at epoch 2, subject 0's at 4
    (and the mirror case)."""

    def _train(self, losses, n):
        """The errors, the epochs stepped, the updates run and the pair
        the loop left unread, over 10 epochs of ``losses(epoch)``."""
        stepped, updates, states = [], [], []

        def step():
            stepped.append(len(stepped))
            states.append(np.geterr())
            return losses(stepped[-1])

        pairs = zip(range(10), repeat(step))
        with np.errstate(all="raise"):
            errors = _nn.train(pairs, lambda: updates.append(None), n)
            assert set(np.geterr().values()) == {"raise"}
        assert all(set(state.values()) == {"ignore"} for state in states)
        return errors, stepped, len(updates), next(pairs, (None,))[0]

    @pytest.mark.parametrize("as_losses", [tuple, np.array], ids=["tuple", "array"])
    @pytest.mark.parametrize("order", [1, -1], ids=["last-fails-first", "first-fails-first"])
    def test_each_subject_fails_at_its_first_non_finite_loss(self, as_losses, order):
        errors, stepped, updates, unread = self._train(
            lambda e: as_losses([1.0 if e < 4 else np.nan, 2.0 if e < 2 else (np.inf if e == 2 else np.nan)][::order]),
            2,
        )
        assert [type(e) for e in errors] == [TrainingError, TrainingError]
        assert [str(e) for e in errors][::order] == ["non-finite loss at epoch 4", "non-finite loss at epoch 2"]
        # no update in the epoch where the last subject failed, no step after it
        assert (stepped, updates, unread) == ([0, 1, 2, 3, 4], 4, 5)

    def test_a_group_of_one_fails_the_same_way(self):
        # the contractive autoencoder's step returns a 1-tuple
        errors, stepped, updates, unread = self._train(lambda e: (1.0 if e < 4 else np.nan,), 1)
        assert [str(e) for e in errors] == ["non-finite loss at epoch 4"]
        assert (stepped, updates, unread) == ([0, 1, 2, 3, 4], 4, 5)

    def test_a_finite_fit_runs_every_step(self):
        errors, stepped, updates, unread = self._train(lambda e: (1.0, 2.0), 2)
        assert (errors, stepped, updates, unread) == ([None, None], list(range(10)), 10, None)


class TestProjection:
    def test_hand_cases(self):
        out = project_capped_simplex(np.array([10.0, 0.0, 0.0]), cap=0.5)
        assert np.allclose(out, [0.5, 0.25, 0.25])
        out = project_capped_simplex(np.zeros(4), cap=0.3)
        assert np.allclose(out, 0.25)

    def test_infeasible_cap_raises(self):
        with pytest.raises(TrainingError):
            project_capped_simplex(np.zeros(2), cap=0.4)

    def test_projection_characterization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            cap = float(rng.uniform(1.0 / n, 1.2))
            v = rng.normal(0.0, 3.0, size=n)
            a = project_capped_simplex(v, cap)
            assert abs(a.sum() - 1.0) < 1e-12
            assert np.all(a >= -1e-15) and np.all(a <= cap + 1e-15)
            free = (a > 1e-12) & (a < cap - 1e-12)
            if free.any():
                tau = (v[free] - a[free]).mean()
                assert np.allclose(np.clip(v - tau, 0.0, cap), a, atol=1e-9)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(16)
        for trial in range(600):
            n = int(rng.integers(1, 12))
            # every third trial nu = 1 (all entries capped); every other, ties
            cap = 1.0 / n if trial % 3 == 0 else float(rng.uniform(1.0 / n, 1.2))
            if trial % 2:
                v = rng.integers(-2, 3, size=n) * float(rng.uniform(0.05, 1.0))
            else:
                v = rng.normal(0.0, 3.0, size=n)
            a = project_capped_simplex(v, cap)
            assert np.abs(a - bisection_capped_simplex(v, cap)).max() <= 1e-12

    def test_projection_is_nearest_feasible_point(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = 5
            cap = 0.4
            v = rng.normal(size=n)
            a = project_capped_simplex(v, cap)
            d_a = float(((v - a) ** 2).sum())
            for _ in range(200):
                b = project_capped_simplex(rng.normal(size=n), cap)
                assert d_a <= ((v - b) ** 2).sum() + 1e-9


class TestOneClassSvm:
    def test_dual_objective_matches_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X = rng.uniform(size=(4, 6))
            det = OneClassSvm(nu=0.5, gamma=0.9).fit(X)
            K = rbf_kernel(X, X, 0.9)
            expected, _ = ocsvm_dual_oracle(K, 0.5)
            assert det.dual_objective() == pytest.approx(expected, abs=1e-6)

    def test_interior_support_vectors_score_zero(self):
        rng = np.random.default_rng(13)
        found_interior = 0
        for _ in range(6):
            X = rng.uniform(size=(4, 5))
            det = OneClassSvm(nu=0.5, gamma=0.9).fit(X)
            cap = 1.0 / (0.5 * 4)
            eps = 1e-9 * cap
            for i, a in enumerate(det.alpha_):
                if eps < a < cap - eps:
                    found_interior += 1
                    assert abs(det.score(X[i])) < 1e-8
        assert found_interior > 0

    def test_kkt_residual_small(self):
        X = np.random.default_rng(14).uniform(size=(6, 4))
        det = OneClassSvm(nu=0.3, gamma=1.2).fit(X)
        assert det.kkt_residual() < 1e-9

    def test_nu_one_puts_every_alpha_at_cap(self):
        X = np.random.default_rng(15).uniform(size=(4, 3))
        det = OneClassSvm(nu=1.0, gamma=0.9).fit(X)
        assert np.allclose(det.alpha_, 0.25)

    @pytest.mark.parametrize("n", [49, 98, 103, 107, 161, 187, 196, 197])
    def test_nu_one_fits_where_n_times_cap_rounds_below_one(self, n):
        assert n * (1.0 / n) < 1.0
        X = np.random.default_rng(16).uniform(size=(n, 3))
        det = OneClassSvm(nu=1.0).fit(X)
        assert det.kkt_residual() == 0.0
        assert np.all(det.alpha_ == 1.0 / n)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OneClassSvm(nu=0.0)
        with pytest.raises(ValueError):
            OneClassSvm(nu=1.5)
        with pytest.raises(ValueError):
            OneClassSvm(gamma=-1.0)
        with pytest.raises(ValueError):
            OneClassSvm(gamma=float("nan"))


class TestBuildDetector:
    def test_all_names_construct(self):
        for name in ("manhattan", "autoencoder", "contractive", "variational", "ocsvm"):
            det = build_detector(DetectorConfig(name=name))
            assert hasattr(det, "fit")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown detector"):
            build_detector(DetectorConfig(name="nope"))

    def test_params_and_seed_injection(self):
        config = DetectorConfig(name="autoencoder", params={"epochs": 7, "hidden_sizes": [4, 3]})
        det = build_detector(config, seed=42)
        assert det.epochs == 7
        assert det.hidden_sizes == (4, 3)
        assert det.seed == 42

    def test_seed_ignored_for_unseeded_detectors(self):
        det = build_detector(DetectorConfig(name="manhattan", params={"seed": 5}))
        assert not hasattr(det, "seed")

    def test_seed_injected_where_the_constructor_takes_one(self):
        for name in ("autoencoder", "contractive", "variational"):
            assert build_detector(DetectorConfig(name=name, params={"seed": 5}), seed=9).seed == 9
        assert not hasattr(build_detector(DetectorConfig(name="ocsvm"), seed=9), "seed")

    def test_unknown_param_names_the_key(self):
        with pytest.raises(ValueError, match=r"detector 'ocsvm' takes no parameter\(s\) gama$"):
            build_detector(DetectorConfig(name="ocsvm", params={"nu": 0.3, "gama": 0.5}))

    @pytest.mark.parametrize("name", ["tol", "max_iter"])
    def test_svm_solver_limits_are_not_params(self, name):
        with pytest.raises(ValueError, match=rf"detector 'ocsvm' takes no parameter\(s\) {name}$"):
            build_detector(DetectorConfig(name="ocsvm", params={name: 1}))

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("autoencoder", {"epochs": "5"}, "TiedAutoencoder.epochs: expected an integer, got '5'"),
            ("autoencoder", {"hidden_sizes": 5}, "TiedAutoencoder.hidden_sizes: expected a list, got 5"),
            (
                "autoencoder",
                {"learning_rate": "0.1"},
                "TiedAutoencoder.learning_rate: expected a finite number, got '0.1'",
            ),
            ("ocsvm", {"nu": "0.5"}, "OneClassSvm.nu: expected a finite number, got '0.5'"),
            ("ocsvm", {"gamma": float("nan")}, "OneClassSvm.gamma: expected a finite number, got nan"),
            ("manhattan", {"scaled": "no"}, "ManhattanDetector.scaled: expected true or false, got 'no'"),
            (
                "variational",
                {"batch_size": 1.5},
                "VariationalAutoencoder.batch_size: expected an integer, got 1.5",
            ),
            (
                "contractive",
                {"epochs": 2.0},
                "ContractiveAutoencoder.epochs: expected an integer, got 2.0",
            ),
        ],
    )
    def test_ill_typed_param_names_the_key(self, name, params, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build_detector(DetectorConfig(name=name, params=params))

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_every_constructor_parameter_is_typed(self, name):
        # build_detector checks params against these hints; the JSON form
        # of every default must decode back to itself
        cls = detectors._CLASSES[name]
        defaults = {p.name: p.default for p in inspect.signature(cls).parameters.values()}
        hints = get_type_hints(cls.__init__)
        assert set(defaults) <= set(hints)
        assert decode_fields(name, hints, json.loads(json.dumps(defaults))) == defaults

    def test_ensemble_needs_members(self):
        with pytest.raises(ValueError):
            build_detector(DetectorConfig(name="ensemble"))


_SCORING = [
    (ManhattanDetector, {}),
    (ManhattanDetector, {"scaled": True}),
    (OneClassSvm, {}),
    (TiedAutoencoder, {"epochs": 30}),
    (ContractiveAutoencoder, {"hidden_dim": 16, "epochs": 30}),
    (VariationalAutoencoder, {"epochs": 10}),
]


@pytest.mark.parametrize(
    "cls, params", _SCORING, ids=lambda v: v.__name__ if isinstance(v, type) else str(v)
)
class TestBatchScoring:
    """``score_all`` is the primitive; ``score`` is its one-row case."""

    def _data(self):
        rng = np.random.default_rng(17)
        return rng.uniform(0.2, 0.8, size=(6, 5)), rng.uniform(0.0, 1.0, size=(9, 5))

    def test_score_is_the_one_row_case(self, cls, params):
        X, Q = self._data()
        det = cls(**params).fit(X)
        for q in Q:
            value = det.score(q)
            assert isinstance(value, float)
            assert np.float64(value).tobytes() == det.score_all(q[None])[0].tobytes()

    def test_matrix_matches_rows(self, cls, params):
        X, Q = self._data()
        det = cls(**params).fit(X)
        batch = det.score_all(Q)
        assert batch.shape == (len(Q),)
        rows = np.array([det.score(q) for q in Q])
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=0.0)

    def test_unfitted_raises(self, cls, params):
        _, Q = self._data()
        det = cls(**params)
        with pytest.raises(RuntimeError):
            det.score(Q[0])
        with pytest.raises(RuntimeError):
            det.score_all(Q)
