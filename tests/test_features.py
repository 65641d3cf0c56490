import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keygait import (
    FeatureError,
    Keystroke,
    KeystrokeSequence,
    RawFeatureMatrix,
    extract_feature_matrix,
    extract_features,
    fit_feature_normalizer,
    normalize_feature_matrix,
    normalize_features,
)

from oracles import reference_normalized_features


def aligned(*triples):
    return KeystrokeSequence(
        tuple(Keystroke(k, p, r) for k, p, r in triples), aligned=True
    )


def test_extraction_values():
    s = aligned(("a", 0, 80), ("b", 120, 190), ("c", 250, 310))
    v = extract_features(s)
    assert v.durations.tolist() == [80.0, 70.0, 60.0]
    assert v.latencies.tolist() == [120.0, 130.0]
    assert len(v) == 5
    assert v.values.tolist() == [80.0, 70.0, 60.0, 120.0, 130.0]


def test_negative_latency_preserved():
    s = KeystrokeSequence(
        (Keystroke("b", 100, 150), Keystroke("a", 40, 90)), aligned=True
    )
    v = extract_features(s)
    assert v.latencies.tolist() == [-60.0]


def test_requires_aligned():
    s = KeystrokeSequence((Keystroke("a", 0, 10), Keystroke("b", 20, 30)))
    with pytest.raises(FeatureError):
        extract_features(s)


def test_requires_two_keystrokes():
    s = KeystrokeSequence((Keystroke("a", 0, 10),), aligned=True)
    with pytest.raises(FeatureError):
        extract_features(s)


def _template_seqs():
    return [
        aligned(("a", 0, 80), ("b", 150, 240), ("c", 300, 390)),
        aligned(("a", 0, 100), ("b", 170, 260), ("c", 330, 400)),
        aligned(("a", 0, 90), ("b", 160, 250), ("c", 310, 380)),
    ]


def _template_vectors():
    return [extract_features(s) for s in _template_seqs()]


def _templates():
    return extract_feature_matrix(_template_seqs())


class TestNormalization:
    def test_output_in_unit_interval(self):
        vectors = _template_vectors()
        norm = fit_feature_normalizer(_templates())
        for v in vectors:
            out = normalize_features(norm, v)
            assert out.shape == (5,)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_out_of_range_clamps(self):
        norm = fit_feature_normalizer(_templates())
        far = extract_features(aligned(("a", 0, 5000), ("b", 6000, 6001), ("c", 6002, 6003)))
        out = normalize_features(norm, far)
        assert out[0] == 1.0  # huge duration clamps high
        assert out[1] == 0.0  # tiny duration clamps low

    def test_constant_feature_maps_to_half(self):
        seqs = [aligned(("a", 0, 50), ("b", 100, 150)), aligned(("a", 0, 50), ("b", 100, 150))]
        norm = fit_feature_normalizer(extract_feature_matrix(seqs))
        out = normalize_features(norm, extract_features(seqs[0]))
        assert np.allclose(out, 0.5)

    def test_pooled_mean_value_maps_to_half(self):
        from keygait import RawFeatureVector

        norm = fit_feature_normalizer(_templates())
        center = RawFeatureVector(
            durations=np.full(3, norm.mu_d), latencies=np.full(2, norm.mu_p)
        )
        assert np.allclose(normalize_features(norm, center), 0.5)

    def test_wider_h_f_compresses_toward_half(self):
        narrow = fit_feature_normalizer(_templates(), h_f=1.0)
        wide = fit_feature_normalizer(_templates(), h_f=4.0)
        v = _template_vectors()[0]
        spread_narrow = np.abs(normalize_features(narrow, v) - 0.5)
        spread_wide = np.abs(normalize_features(wide, v) - 0.5)
        assert np.all(spread_wide <= spread_narrow + 1e-12)

    def test_per_position_mode(self):
        norm = fit_feature_normalizer(_templates(), per_position=True)
        out = normalize_features(norm, _template_vectors()[1])
        assert out.shape == (5,)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        short = extract_features(aligned(("a", 0, 10), ("b", 20, 30)))
        with pytest.raises(FeatureError):
            normalize_features(norm, short)

    def test_empty_or_mismatched_fit_rejected(self):
        with pytest.raises(FeatureError):
            fit_feature_normalizer(_templates()[:0])
        mixed = [
            aligned(("a", 0, 10), ("b", 20, 30)),
            aligned(("a", 0, 10), ("b", 20, 30), ("c", 40, 50)),
        ]
        with pytest.raises(FeatureError):
            fit_feature_normalizer(extract_feature_matrix(mixed))

    @pytest.mark.parametrize("h_f", [0.0, float("nan")])
    def test_h_f_must_be_positive(self, h_f):
        with pytest.raises(FeatureError):
            fit_feature_normalizer(_templates(), h_f=h_f)


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
        ks.append(Keystroke("a", t, t + dur))
        t += 1
    s = KeystrokeSequence(tuple(ks), aligned=True)
    v = extract_features(s)
    norm = fit_feature_normalizer(extract_feature_matrix([s]))
    out = normalize_features(norm, v)
    assert np.all((out >= 0.0) & (out <= 1.0))


class TestFeatureMatrix:
    def test_rows_are_the_sequences_features(self):
        seqs = [
            aligned(("a", 0, 80), ("b", 150, 240), ("c", 300, 390)),
            KeystrokeSequence(
                (Keystroke("b", 100, 150), Keystroke("a", 40, 90), Keystroke("c", 200, 260)),
                aligned=True,
            ),
        ]
        raw = extract_feature_matrix(seqs)
        assert len(raw) == 2
        assert raw.durations.tolist() == [[80.0, 90.0, 90.0], [50.0, 50.0, 60.0]]
        assert raw.latencies.tolist() == [[150.0, 150.0], [-60.0, 160.0]]
        assert raw[1:].latencies.tolist() == [[-60.0, 160.0]]

    def test_rejects_what_single_extraction_rejects(self):
        unaligned = KeystrokeSequence((Keystroke("a", 0, 10), Keystroke("b", 20, 30)))
        ok = aligned(("a", 0, 10), ("b", 20, 30))
        for seqs in ([], [ok, unaligned], [aligned(("a", 0, 10))],
                     [ok, aligned(("a", 0, 10), ("b", 20, 30), ("c", 40, 50))]):
            with pytest.raises(FeatureError):
                extract_feature_matrix(seqs)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            RawFeatureMatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            RawFeatureMatrix(np.zeros(3), np.zeros(2))

    def test_per_position_length_checked(self):
        norm = fit_feature_normalizer(_templates(), per_position=True)
        short = extract_feature_matrix([aligned(("a", 0, 10), ("b", 20, 30))])
        with pytest.raises(FeatureError):
            normalize_feature_matrix(norm, short)


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


@given(_aligned_batches(), st.booleans())
def test_matrix_rows_equal_per_sequence_features(batch, per_position):
    seqs, n_templates, h_f = batch
    raw = extract_feature_matrix(seqs)
    norm = fit_feature_normalizer(raw[:n_templates], h_f=h_f, per_position=per_position)
    matrix = normalize_feature_matrix(norm, raw)
    # the public one-row calls
    vectors = [extract_features(s) for s in seqs]
    single_norm = fit_feature_normalizer(
        extract_feature_matrix(seqs[:n_templates]), h_f=h_f, per_position=per_position
    )
    for row, v in zip(matrix, vectors):
        assert row.tobytes() == normalize_features(single_norm, v).tobytes()
    # the frozen per-sequence reference
    ref_t, ref_q = reference_normalized_features(
        seqs[:n_templates], seqs[n_templates:], h_f=h_f, per_position=per_position
    )
    assert matrix.tobytes() == np.stack(ref_t + ref_q).tobytes()
