import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keygait import (
    FeatureError,
    RawFeatureMatrix,
    extract_features,
    fit_feature_normalizer,
    normalize_features,
)

from oracles import reference_normalized_features, seq


def aligned(*triples):
    return seq(triples, aligned=True)


def features(seqs):
    """``extract_features`` of equal-length sequences, one row each."""
    return extract_features(np.array([s.press for s in seqs]), np.array([s.release for s in seqs]))


def test_extraction_values():
    s = aligned(("a", 0, 80), ("b", 120, 190), ("c", 250, 310))
    v = features([s])
    assert len(v) == 1
    assert v.durations.tolist() == [[80.0, 70.0, 60.0]]
    assert v.latencies.tolist() == [[120.0, 130.0]]


def test_negative_latency_preserved():
    s = aligned(("b", 100, 150), ("a", 40, 90))
    v = features([s])
    assert v.latencies.tolist() == [[-60.0]]


def test_requires_two_keystrokes():
    s = aligned(("a", 0, 10))
    with pytest.raises(FeatureError):
        features([s])


def _template_seqs():
    return [
        aligned(("a", 0, 80), ("b", 150, 240), ("c", 300, 390)),
        aligned(("a", 0, 100), ("b", 170, 260), ("c", 330, 400)),
        aligned(("a", 0, 90), ("b", 160, 250), ("c", 310, 380)),
    ]


def _template_vectors():
    """One one-row matrix per template."""
    return [features([s]) for s in _template_seqs()]


def _templates():
    return features(_template_seqs())


class TestNormalization:
    def test_output_in_unit_interval(self):
        vectors = _template_vectors()
        norm = fit_feature_normalizer(_templates())
        for v in vectors:
            out = normalize_features(norm, v)
            assert out.shape == (1, 5)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_out_of_range_clamps(self):
        norm = fit_feature_normalizer(_templates())
        far = features([aligned(("a", 0, 5000), ("b", 6000, 6001), ("c", 6002, 6003))])
        out = normalize_features(norm, far)[0]
        assert out[0] == 1.0  # huge duration clamps high
        assert out[1] == 0.0  # tiny duration clamps low

    def test_constant_feature_maps_to_half(self):
        seqs = [aligned(("a", 0, 50), ("b", 100, 150)), aligned(("a", 0, 50), ("b", 100, 150))]
        norm = fit_feature_normalizer(features(seqs))
        out = normalize_features(norm, features(seqs[:1]))
        assert np.allclose(out, 0.5)

    def test_pooled_mean_value_maps_to_half(self):
        norm = fit_feature_normalizer(_templates())
        center = RawFeatureMatrix(
            durations=np.full((1, 3), norm.mu_d), latencies=np.full((1, 2), norm.mu_p)
        )
        assert np.allclose(normalize_features(norm, center), 0.5)

    def test_wider_h_f_compresses_toward_half(self):
        narrow = fit_feature_normalizer(_templates(), h_f=1.0)
        wide = fit_feature_normalizer(_templates(), h_f=4.0)
        v = _template_vectors()[0]
        spread_narrow = np.abs(normalize_features(narrow, v) - 0.5)
        spread_wide = np.abs(normalize_features(wide, v) - 0.5)
        assert np.all(spread_wide <= spread_narrow + 1e-12)

    @pytest.mark.parametrize("n_keys", [2, 3, 6])
    def test_pooled_bounds_apply_at_any_length(self, n_keys):
        # fitted on three-key templates; every position shares the bounds
        norm = fit_feature_normalizer(_templates())

        def evenly_typed(n):
            return aligned(*((chr(ord("a") + i), 150 * i, 150 * i + 90) for i in range(n)))

        out = normalize_features(norm, features([evenly_typed(n_keys)]))[0]
        three = normalize_features(norm, features([evenly_typed(3)]))[0]
        assert out.shape == (2 * n_keys - 1,)
        assert np.all(out[:n_keys] == three[0])
        assert np.all(out[n_keys:] == three[3])

    def test_empty_or_mismatched_fit_rejected(self):
        with pytest.raises(FeatureError):
            fit_feature_normalizer(_templates()[:0])
        with pytest.raises(FeatureError):
            fit_feature_normalizer(extract_features(np.zeros((2, 2)), np.zeros((2, 3))))

    @pytest.mark.parametrize("h_f", [0.0, float("nan"), float("inf")])
    def test_h_f_must_be_positive(self, h_f):
        with pytest.raises(FeatureError):
            fit_feature_normalizer(_templates(), h_f=h_f)

    @pytest.mark.parametrize(
        "h_f, message",
        [
            (1e308, "h_f 1e+308 is too wide: the bound width 2 * h_f * sigma overflows"),
            # finite bound widths, but every template value normalizes to 0.5
            (1e300, "h_f 1e+300 is too wide: it maps distinct template durations to one value"),
            (1e200, "h_f 1e+200 is too wide: it maps distinct template durations to one value"),
        ],
    )
    def test_too_wide_width_is_a_plain_value_error(self, h_f, message):
        # not a FeatureError, which the pipeline would turn into a flagged
        # subject
        with np.errstate(all="raise"), pytest.raises(ValueError) as err:
            fit_feature_normalizer(_templates(), h_f=h_f)
        assert not isinstance(err.value, FeatureError)
        assert str(err.value) == message

    def test_huge_width_over_constant_features_still_fits(self):
        # nothing distinct collapses: a constant feature maps to 0.5 at any width
        raw = RawFeatureMatrix(np.full((3, 3), 80.0), np.full((3, 2), 150.0))
        norm = fit_feature_normalizer(raw, h_f=1e200)
        np.testing.assert_array_equal(normalize_features(norm, raw), 0.5)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),
            st.integers(min_value=1, max_value=300),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_normalized_range_property(timing):
    t = 0
    ks = []
    for gap, dur in timing:
        t += gap
        ks.append(("a", t, t + dur))
        t += 1
    s = aligned(*ks)
    v = features([s])
    norm = fit_feature_normalizer(v)
    out = normalize_features(norm, v)
    assert np.all((out >= 0.0) & (out <= 1.0))


class TestFeatureMatrix:
    def test_rows_are_the_sequences_features(self):
        seqs = [
            aligned(("a", 0, 80), ("b", 150, 240), ("c", 300, 390)),
            aligned(("b", 100, 150), ("a", 40, 90), ("c", 200, 260)),
        ]
        raw = features(seqs)
        assert len(raw) == 2
        assert raw.durations.tolist() == [[80.0, 90.0, 90.0], [50.0, 50.0, 60.0]]
        assert raw.latencies.tolist() == [[150.0, 150.0], [-60.0, 160.0]]
        assert raw[1:].latencies.tolist() == [[-60.0, 160.0]]

    def test_rejects_what_single_extraction_rejects(self):
        # no row, rows of one keystroke, shapes that differ or are not 2-D
        for press, release in ((np.zeros((0, 3)),) * 2, (np.zeros((2, 1)),) * 2,
                               (np.zeros((2, 2)), np.zeros((2, 3))), (np.zeros(3),) * 2):
            with pytest.raises(FeatureError):
                extract_features(press, release)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            RawFeatureMatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            RawFeatureMatrix(np.zeros(3), np.zeros(2))


@st.composite
def _aligned_batches(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=2, max_value=6))
    times = st.tuples(
        st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=400)
    )
    seqs = []
    for _ in range(m):
        pairs = draw(st.lists(times, min_size=n, max_size=n))
        seqs.append(aligned(*(("a", p, p + d) for p, d in pairs)))
    n_templates = draw(st.integers(min_value=1, max_value=m))
    h_f = draw(st.sampled_from([0.5, 1.0, 2.5]))
    return seqs, n_templates, h_f


@given(_aligned_batches())
def test_matrix_rows_equal_per_sequence_features(batch):
    seqs, n_templates, h_f = batch
    raw = features(seqs)
    norm = fit_feature_normalizer(raw[:n_templates], h_f=h_f)
    matrix = normalize_features(norm, raw)
    # the frozen per-sequence reference
    ref_t, ref_q = reference_normalized_features(seqs[:n_templates], seqs[n_templates:], h_f=h_f)
    assert matrix.tobytes() == np.stack(ref_t + ref_q).tobytes()
