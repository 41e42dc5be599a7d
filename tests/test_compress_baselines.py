"""Tests for the baseline compressors: Dense, Top-K, Gaussian-K, QSGD and extensions."""

import numpy as np
import pytest

from repro.compress import (
    DenseCompressor,
    ExchangeKind,
    GaussianKCompressor,
    QSGDCompressor,
    RandKCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.compress.base import sparsity_k


class TestSparsityHelper:
    def test_paper_ratio(self):
        assert sparsity_k(1_000_000, 0.001) == 1000

    def test_minimum_of_one(self):
        assert sparsity_k(10, 0.001) == 1

    def test_full_ratio(self):
        assert sparsity_k(100, 1.0) == 100

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            sparsity_k(100, 0.0)
        with pytest.raises(ValueError):
            sparsity_k(100, 1.5)


class TestDense:
    def test_roundtrip_identity(self, gradient_vector):
        compressor = DenseCompressor()
        payload, ctx = compressor.compress(gradient_vector)
        np.testing.assert_array_equal(payload, gradient_vector)
        np.testing.assert_array_equal(compressor.decompress(payload, ctx), gradient_vector)

    def test_wire_bits_32n(self):
        assert DenseCompressor().wire_bits(1000) == 32_000.0

    def test_complexity_constant(self):
        assert DenseCompressor().computation_complexity(10**6) == "O(1)"

    def test_exchange_allreduce(self):
        assert DenseCompressor.exchange is ExchangeKind.ALLREDUCE


class TestTopK:
    def test_selects_largest_magnitudes(self):
        g = np.array([0.1, -5.0, 0.2, 4.0, -0.3], dtype=np.float32)
        compressor = TopKCompressor(ratio=0.4)  # k = 2
        payload, ctx = compressor.compress(g)
        indices, _ = TopKCompressor.unpack_payload(payload)
        assert ctx["k"] == 2
        assert set(indices) == {1, 3}

    def test_payload_layout(self, gradient_vector):
        compressor = TopKCompressor(ratio=0.01)
        payload, ctx = compressor.compress(gradient_vector)
        k = ctx["k"]
        assert payload.shape == (2 * k,)
        assert payload.dtype == np.float32   # indices ride as int32 bit views
        assert k == sparsity_k(gradient_vector.size, 0.01)

    def test_payload_pack_roundtrip_large_indices(self):
        # int32 bit patterns survive the float32 reinterpretation exactly,
        # unlike a float cast, which loses index precision for huge models.
        indices = np.array([0, 1, 2**31 - 1, 123456789], dtype=np.int64)
        values = np.array([1.5, -2.0, 0.25, 3.0], dtype=np.float32)
        packed = TopKCompressor.pack_payload(indices, values)
        out_idx, out_vals = TopKCompressor.unpack_payload(packed)
        np.testing.assert_array_equal(out_idx, indices)
        np.testing.assert_array_equal(out_vals, values)

    def test_unpack_rejects_non_float32_payloads(self):
        legacy = np.array([0.0, 3.0, 2.0, 4.0])   # float64, indices as plain numbers
        with pytest.raises(TypeError, match="float64"):
            TopKCompressor.unpack_payload(legacy)

    def test_error_feedback_accumulates_untransmitted_mass(self):
        g = np.array([1.0, 0.1, 0.1, 0.1], dtype=np.float32)
        compressor = TopKCompressor(ratio=0.25)   # transmits one value
        compressor.compress(g)
        # The residual holds the three untransmitted small values.
        assert compressor._residual is not None
        assert compressor._residual[0] == 0.0
        np.testing.assert_allclose(compressor._residual[1:], [0.1, 0.1, 0.1], atol=1e-6)
        # After enough iterations the residual pushes small coordinates out:
        # their residual grows by 0.1 per step until it exceeds the
        # repeatedly-reset 1.0 coordinate, so every coordinate is eventually
        # transmitted (the classic error-feedback guarantee).
        transmitted_indices = set()
        for _ in range(40):
            payload, _ = compressor.compress(g)
            indices, _values = TopKCompressor.unpack_payload(payload)
            transmitted_indices.update(int(i) for i in indices)
        assert transmitted_indices == {0, 1, 2, 3}

    def test_no_error_feedback_keeps_no_residual(self, gradient_vector):
        compressor = TopKCompressor(ratio=0.01, error_feedback=False)
        compressor.compress(gradient_vector)
        assert compressor._residual is None

    def test_decompress_gathered_averages_workers(self):
        n = 10
        compressor = TopKCompressor(ratio=0.2)
        # Hand-built payloads: worker A sends index 0 value 2, worker B index 0 value 4.
        payloads = [TopKCompressor.pack_payload(np.array([0, 1]), np.array([2.0, 2.0])),
                    TopKCompressor.pack_payload(np.array([0, 3]), np.array([4.0, 4.0]))]
        dense = compressor.decompress_gathered(payloads, {"n": n, "k": 2})
        assert dense[0] == pytest.approx(3.0)   # (2 + 4) / 2
        assert dense[1] == pytest.approx(1.0)   # only worker A sent index 1
        assert dense[3] == pytest.approx(2.0)   # only worker B sent index 3
        assert dense[5] == 0.0

    def test_unique_indices_reconstruct_exactly(self):
        # The decompress contract requires unique indices per payload (every
        # selector — top-k, random subset, threshold — produces them), which
        # lets reconstruction use direct fancy-index addition.
        compressor = TopKCompressor(ratio=0.4)
        payload = TopKCompressor.pack_payload(np.array([2, 4]),
                                              np.array([1.0, -3.0], dtype=np.float32))
        dense = compressor.decompress_gathered([payload], {"n": 5, "k": 2})
        np.testing.assert_allclose(dense, [0.0, 0.0, 1.0, 0.0, -3.0])

    def test_wire_bits_paper_counts_values_only(self):
        compressor = TopKCompressor(ratio=0.001)
        assert compressor.wire_bits(1_000_000) == 32.0 * 1000
        with_index = TopKCompressor(ratio=0.001, include_index_bits=True)
        assert with_index.wire_bits(1_000_000) == 64.0 * 1000

    def test_reset_state_clears_residual(self, gradient_vector):
        compressor = TopKCompressor(ratio=0.01)
        compressor.compress(gradient_vector)
        compressor.reset_state()
        assert compressor._residual is None

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)

    def test_exchange_allgather(self):
        assert TopKCompressor.exchange is ExchangeKind.ALLGATHER


class TestGaussianK:
    def test_threshold_close_to_topk_threshold_on_gaussian_data(self, rng):
        g = (rng.standard_normal(100_000) * 0.01).astype(np.float32)
        compressor = GaussianKCompressor(ratio=0.001)
        threshold = compressor.estimate_threshold(g)
        k = sparsity_k(g.size, 0.001)
        exact_threshold = np.sort(np.abs(g))[-k]
        assert threshold == pytest.approx(exact_threshold, rel=0.15)

    def test_selection_count_near_target_on_gaussian_data(self, rng):
        g = (rng.standard_normal(100_000) * 0.01).astype(np.float32)
        compressor = GaussianKCompressor(ratio=0.001)
        indices = compressor.select(g)
        k_target = sparsity_k(g.size, 0.001)
        assert 0.2 * k_target <= len(indices) <= 4 * k_target

    def test_selects_at_least_one_even_for_constant_vector(self):
        compressor = GaussianKCompressor(ratio=0.001)
        indices = compressor.select(np.zeros(1000, dtype=np.float32))
        assert len(indices) >= 1

    def test_selection_capped_for_heavy_tailed_data(self, rng):
        # A distribution with much heavier tails than Gaussian would select
        # too many coordinates; the cap bounds the traffic blow-up.
        g = rng.standard_t(df=1.2, size=50_000).astype(np.float32)
        compressor = GaussianKCompressor(ratio=0.001)
        indices = compressor.select(g)
        assert len(indices) <= 4 * sparsity_k(g.size, 0.001)

    def test_complexity_is_linear(self):
        assert GaussianKCompressor().computation_complexity(10**6) == "O(n)"

    def test_compress_roundtrip_through_gather(self, rng):
        g = (rng.standard_normal(5000) * 0.01).astype(np.float32)
        compressor = GaussianKCompressor(ratio=0.01)
        payload, ctx = compressor.compress(g)
        dense = compressor.decompress_gathered([payload], ctx)
        # The densified payload must only contain transmitted coordinates.
        assert dense.shape == g.shape
        assert np.count_nonzero(dense) == payload.size // 2


def whole_vector_quantize(compressor, g):
    """(norm, signed levels) of an unbucketed QSGD payload."""
    payload, _ = compressor.compress(g)
    assert payload[0] == 1.0                     # one bucket: the whole vector
    return payload[1], payload[2:]


class TestQSGD:
    def test_quantization_levels_bounded(self, rng):
        g = rng.standard_normal(1000).astype(np.float32)
        compressor = QSGDCompressor(levels=4, bucket_size=None)
        norm, levels = whole_vector_quantize(compressor, g)
        assert norm == pytest.approx(np.linalg.norm(g), rel=1e-5)
        assert np.abs(levels).max() <= 4

    def test_quantization_unbiased_in_expectation(self, rng):
        g = rng.standard_normal(200).astype(np.float32)
        compressor = QSGDCompressor(levels=4, error_feedback=False, bucket_size=None,
                                    rng=np.random.default_rng(0))
        estimates = np.zeros_like(g, dtype=np.float64)
        trials = 400
        for _ in range(trials):
            payload, ctx = compressor.compress(g)
            estimates += compressor.decompress_gathered([payload], ctx)
        estimates /= trials
        error = np.abs(estimates - g).mean() / np.abs(g).mean()
        assert error < 0.15

    def test_zero_vector_quantizes_to_zero(self):
        compressor = QSGDCompressor(bucket_size=None)
        norm, levels = whole_vector_quantize(compressor, np.zeros(10, dtype=np.float32))
        assert norm == 0.0
        assert np.all(levels == 0)

    def test_compress_payload_layout(self, gradient_vector):
        compressor = QSGDCompressor(bucket_size=512)
        payload, ctx = compressor.compress(gradient_vector)
        num_buckets = int(np.ceil(gradient_vector.size / 512))
        assert payload.shape == (1 + num_buckets + gradient_vector.size,)
        assert int(payload[0]) == num_buckets
        assert ctx["n"] == gradient_vector.size

    def test_unbucketed_payload_layout(self, gradient_vector):
        compressor = QSGDCompressor(bucket_size=None)
        payload, _ = compressor.compress(gradient_vector)
        assert payload.shape == (2 + gradient_vector.size,)

    def test_bucketed_quantization_has_lower_error(self, rng):
        g = rng.standard_normal(8192).astype(np.float32)
        coarse = QSGDCompressor(bucket_size=None, error_feedback=False,
                                rng=np.random.default_rng(0))
        fine = QSGDCompressor(bucket_size=128, error_feedback=False,
                              rng=np.random.default_rng(0))

        def error(compressor):
            payload, ctx = compressor.compress(g)
            estimate = compressor.decompress_gathered([payload], ctx)
            return np.linalg.norm(g - estimate) / np.linalg.norm(g)

        assert error(fine) < error(coarse)

    def test_bucket_size_validation(self):
        with pytest.raises(ValueError):
            QSGDCompressor(bucket_size=0)

    def test_bucketed_roundtrip_shapes(self, rng):
        g = rng.standard_normal(1000).astype(np.float32)
        compressor = QSGDCompressor(bucket_size=300, error_feedback=False)
        payload, _ = compressor.compress(g)
        norms, levels = payload[1:5], payload[5:]
        assert payload[0] == 4.0
        assert levels.shape == (1000,)
        assert norms.shape == (4,)
        recovered = compressor.dequantize_bucketed(norms, levels)
        assert recovered.shape == (1000,)

    def test_error_feedback_residual_updates(self, gradient_vector):
        compressor = QSGDCompressor(error_feedback=True)
        compressor.compress(gradient_vector)
        assert compressor._residual is not None
        assert compressor._residual.shape == gradient_vector.shape

    def test_decompress_gathered_averages(self, rng):
        g = rng.standard_normal(100).astype(np.float32)
        c0 = QSGDCompressor(rng=np.random.default_rng(1), error_feedback=False)
        c1 = QSGDCompressor(rng=np.random.default_rng(2), error_feedback=False)
        p0, ctx = c0.compress(g)
        p1, _ = c1.compress(g)
        dense = c0.decompress_gathered([p0, p1], ctx)
        assert dense.shape == g.shape
        # The average of two unbiased estimates stays close to the input.
        assert np.corrcoef(dense, g)[0, 1] > 0.7

    def test_wire_bits_formula(self):
        assert QSGDCompressor().wire_bits(1000) == pytest.approx(2.8 * 1000 + 32)

    def test_complexity_reports_reference_implementation(self):
        assert QSGDCompressor().computation_complexity(10**6) == "O(n^2)"

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            QSGDCompressor(levels=0)


class TestRandK:
    def test_selects_k_random_indices(self, gradient_vector):
        compressor = RandKCompressor(ratio=0.01, rng=np.random.default_rng(0))
        payload, ctx = compressor.compress(gradient_vector)
        assert ctx["k"] == sparsity_k(gradient_vector.size, 0.01)
        indices, _ = RandKCompressor.unpack_payload(payload)
        assert len(np.unique(indices)) == len(indices)

    def test_different_iterations_select_different_sets(self, gradient_vector):
        compressor = RandKCompressor(ratio=0.01, rng=np.random.default_rng(0))
        p1, _ = compressor.compress(gradient_vector)
        p2, _ = compressor.compress(gradient_vector)
        i1, _v1 = RandKCompressor.unpack_payload(p1)
        i2, _v2 = RandKCompressor.unpack_payload(p2)
        assert set(i1) != set(i2)

    def test_complexity(self):
        assert RandKCompressor().computation_complexity(100) == "O(k)"


class TestTernGrad:
    def test_values_are_ternary(self, rng):
        g = rng.standard_normal(500).astype(np.float32)
        compressor = TernGradCompressor(rng=np.random.default_rng(0))
        payload, _ = compressor.compress(g)
        ternary = payload[1:]
        assert set(np.unique(ternary)).issubset({-1.0, 0.0, 1.0})

    def test_zero_gradient(self):
        compressor = TernGradCompressor()
        payload, _ = compressor.compress(np.zeros(10, dtype=np.float32))
        assert np.all(payload[1:] == 0)

    def test_expectation_roughly_unbiased(self, rng):
        g = (rng.standard_normal(100) * 0.1).astype(np.float32)
        compressor = TernGradCompressor(rng=np.random.default_rng(0), clip_std=None)
        total = np.zeros_like(g, dtype=np.float64)
        trials = 600
        for _ in range(trials):
            payload, ctx = compressor.compress(g)
            total += compressor.decompress_gathered([payload], ctx)
        mean_estimate = total / trials
        assert np.corrcoef(mean_estimate, g)[0, 1] > 0.9

    def test_wire_bits(self):
        assert TernGradCompressor().wire_bits(1000) == pytest.approx(2 * 1000 + 32)


class TestSignSGD:
    def test_payload_contains_scale_and_signs(self, gradient_vector):
        compressor = SignSGDCompressor()
        payload, _ = compressor.compress(gradient_vector)
        assert payload.shape == (gradient_vector.size + 1,)
        assert set(np.unique(payload[1:])).issubset({-1.0, 0.0, 1.0})
        assert payload[0] == pytest.approx(np.abs(gradient_vector).mean(), rel=1e-5)

    def test_error_feedback_reduces_longrun_bias(self, rng):
        # With EF, the accumulated transmitted signal tracks the accumulated
        # gradient; without EF it does not.
        g = (rng.standard_normal(2000) * 0.01).astype(np.float32)
        ef = SignSGDCompressor(error_feedback=True)
        total = np.zeros_like(g, dtype=np.float64)
        for _ in range(50):
            payload, ctx = ef.compress(g)
            total += ef.decompress_gathered([payload], ctx)
        relative_gap = np.linalg.norm(total / 50 - g) / np.linalg.norm(g)
        assert relative_gap < 0.5

    def test_wire_bits_one_per_coordinate(self):
        assert SignSGDCompressor().wire_bits(1000) == pytest.approx(1032.0)

    def test_reset_state(self, gradient_vector):
        compressor = SignSGDCompressor()
        compressor.compress(gradient_vector)
        compressor.reset_state()
        assert compressor._residual is None
