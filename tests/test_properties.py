"""Property-based tests (hypothesis) for core invariants.

These check the algebraic properties the paper's analysis relies on over a
wide range of randomly generated inputs: the A2SGD encoding/decoding
identities, conservation of mass in the collectives, error-feedback
conservation in the sparsifiers, and unbiasedness-style properties of the
quantizers.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm import CollectiveOp, allreduce_ring
from repro.compress import (
    A2SGDCompressor,
    GaussianKCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TopKCompressor,
)
from repro.compress.base import select_by_mask
from repro.tensor import Tensor
from tests.reference_collectives import allreduce_naive
from tests.reference_compressors import encode


# Bounded, finite float arrays representative of gradients.  The package
# enables hardware flush-to-zero at import (repro.utils.denormals), so
# subnormal floats are not representable on this thread — hypothesis must
# not try to generate them.
gradient_arrays = hnp.arrays(
    dtype=np.float32,
    shape=st.integers(min_value=2, max_value=300),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                       allow_infinity=False, allow_subnormal=False, width=32),
)

small_world = st.integers(min_value=1, max_value=6)


class TestA2SGDProperties:
    @given(gradient_arrays)
    @settings(max_examples=60, deadline=None)
    def test_two_means_are_nonnegative_and_bounded(self, gradient):
        payload, _ = A2SGDCompressor().compress(gradient)
        mu_plus, mu_minus = payload
        assert mu_plus >= 0.0
        assert mu_minus >= 0.0
        # Each mean is a float32 masked dot divided by a count, so it can
        # overshoot the true bound by the dot's relative rounding error
        # (hypothesis found the seed's absolute 1e-6 margin was optimistic —
        # and that the old `positive_sum - total` cancellation could inflate
        # µ_- far beyond rounding, which two masked dots now prevent).
        peak = float(np.abs(gradient).max())
        limit = peak * (1.0 + 1e-5 * np.log2(2 + gradient.size)) + 1e-6
        assert mu_plus <= limit
        assert mu_minus <= limit

    @given(gradient_arrays)
    @settings(max_examples=60, deadline=None)
    def test_error_plus_encoding_reconstructs_gradient(self, gradient):
        """g = enc(g) + ε exactly, by construction (Algorithm 1 line 4)."""
        compressor = A2SGDCompressor()
        payload, ctx = compressor.compress(gradient)
        encoded = encode(gradient, payload[0], payload[1])
        np.testing.assert_allclose(ctx["error"] + encoded, gradient, atol=1e-5)

    @given(gradient_arrays)
    @settings(max_examples=60, deadline=None)
    def test_single_worker_roundtrip_lossless(self, gradient):
        compressor = A2SGDCompressor()
        payload, ctx = compressor.compress(gradient)
        np.testing.assert_allclose(compressor.decompress(payload, ctx), gradient, atol=1e-4)

    @given(gradient_arrays)
    @settings(max_examples=60, deadline=None)
    def test_encoding_sum_preserves_sign_split_mass(self, gradient):
        """Σ enc(g) over positives equals µ+·|positives| (mean definition)."""
        positives = gradient[gradient >= 0]
        mu_plus = A2SGDCompressor().compress(gradient)[0][0]
        np.testing.assert_allclose(positives.sum(), mu_plus * positives.size, rtol=1e-3,
                                   atol=1e-3)

    @given(st.lists(gradient_arrays, min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_wire_payload_always_two_scalars(self, gradients):
        n = min(g.size for g in gradients)
        assume(n >= 2)
        for g in gradients:
            payload, _ = A2SGDCompressor().compress(g[:n])
            assert payload.shape == (2,)


float32_bit_patterns = st.integers(min_value=0, max_value=2**32 - 1)


class TestSelectByMaskProperties:
    """select_by_mask ≡ np.where bit for bit.  Operands are drawn as raw
    uint32 patterns, so NaN payloads, infinities, signed zeros and the
    subnormals FTZ/DAZ would flush in float arithmetic are all covered."""

    @given(float32_bit_patterns, float32_bit_patterns,
           hnp.arrays(np.bool_, st.integers(min_value=0, max_value=300)))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_np_where(self, true_bits, false_bits, mask):
        if_true = np.uint32(true_bits).view(np.float32)
        if_false = np.uint32(false_bits).view(np.float32)
        out = select_by_mask(np.empty(mask.shape, dtype=np.float32), mask,
                             if_true, if_false)
        expected = np.where(mask, if_true, if_false)
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))

    @given(float32_bit_patterns, float32_bit_patterns,
           hnp.arrays(np.bool_, st.tuples(st.integers(1, 5), st.integers(0, 40))),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_view_of_a_matrix_leaves_other_rows_alone(self, true_bits, false_bits,
                                                          masks, data):
        row = data.draw(st.integers(0, masks.shape[0] - 1))
        matrix = np.full(masks.shape, 7.0, dtype=np.float32)
        if_true = np.uint32(true_bits).view(np.float32)
        if_false = np.uint32(false_bits).view(np.float32)
        select_by_mask(matrix[row], masks[row], if_true, if_false)
        expected = np.full(masks.shape, 7.0, dtype=np.float32)
        expected[row] = np.where(masks[row], if_true, if_false)
        np.testing.assert_array_equal(matrix.view(np.uint32), expected.view(np.uint32))


class TestCollectiveProperties:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ring_allreduce_matches_naive(self, world_size, length, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.standard_normal(length).astype(np.float32) for _ in range(world_size)]
        ring, _ = allreduce_ring(buffers, CollectiveOp.MEAN)
        naive, _ = allreduce_naive(buffers, CollectiveOp.MEAN)
        for a, b in zip(ring, naive):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=100),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_allreduce_sum_conserves_mass(self, world_size, length, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.standard_normal(length).astype(np.float32) for _ in range(world_size)]
        results, _ = allreduce_ring(buffers, CollectiveOp.SUM)
        np.testing.assert_allclose(results[0].sum(), np.stack(buffers).sum(), rtol=1e-3,
                                   atol=1e-3)

class TestSparsifierProperties:
    @given(gradient_arrays, st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_topk_residual_plus_payload_equals_corrected(self, gradient, ratio):
        """Error feedback never loses mass: residual + transmitted == accumulated."""
        compressor = TopKCompressor(ratio=ratio)
        payload, _ = compressor.compress(gradient)
        indices, values = TopKCompressor.unpack_payload(payload)
        transmitted = np.zeros_like(gradient)
        transmitted[indices] = values
        np.testing.assert_allclose(transmitted + compressor._residual, gradient, atol=1e-5)

    @given(gradient_arrays, st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_topk_selects_exactly_k_unique_indices(self, gradient, ratio):
        compressor = TopKCompressor(ratio=ratio)
        payload, ctx = compressor.compress(gradient)
        indices, _values = TopKCompressor.unpack_payload(payload)
        assert len(np.unique(indices)) == ctx["k"]
        assert np.all((0 <= indices) & (indices < gradient.size))

    @given(gradient_arrays)
    @settings(max_examples=40, deadline=None)
    def test_topk_transmits_largest_magnitudes(self, gradient):
        compressor = TopKCompressor(ratio=0.25, error_feedback=False)
        payload, ctx = compressor.compress(gradient)
        k = ctx["k"]
        indices, _values = TopKCompressor.unpack_payload(payload)
        selected = set(indices)
        threshold = np.sort(np.abs(gradient))[-k]
        must_be_selected = {int(i) for i in np.nonzero(np.abs(gradient) > threshold)[0]}
        assert must_be_selected.issubset(selected)

    @given(gradient_arrays)
    @settings(max_examples=40, deadline=None)
    def test_gaussiank_selection_within_bounds(self, gradient):
        compressor = GaussianKCompressor(ratio=0.1)
        indices = compressor.select(gradient)
        assert 1 <= len(indices) <= gradient.size
        assert len(np.unique(indices)) == len(indices)


class TestQuantizerProperties:
    @given(gradient_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_qsgd_levels_bounded_and_sign_preserved(self, gradient, levels):
        compressor = QSGDCompressor(levels=levels, error_feedback=False, bucket_size=None)
        payload, _ = compressor.compress(gradient)
        norm, quantized = payload[1], payload[2:]
        assert np.abs(quantized).max() <= levels
        nonzero = quantized != 0
        assert np.all(np.sign(quantized[nonzero]) == np.sign(gradient[nonzero]))

    @given(gradient_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_qsgd_dequantize_bounded_by_norm(self, gradient, levels):
        compressor = QSGDCompressor(levels=levels, error_feedback=False, bucket_size=None)
        payload, ctx = compressor.compress(gradient)
        recovered = compressor.decompress_gathered([payload], ctx)
        assert np.all(np.abs(recovered) <= payload[1] + 1e-5)

    @given(gradient_arrays)
    @settings(max_examples=60, deadline=None)
    def test_signsgd_residual_conservation(self, gradient):
        compressor = SignSGDCompressor()
        payload, ctx = compressor.compress(gradient)
        transmitted = payload[0] * payload[1:]
        np.testing.assert_allclose(transmitted + compressor._residual, gradient, atol=1e-4)


class TestTensorProperties:
    @given(hnp.arrays(dtype=np.float32, shape=hnp.array_shapes(min_dims=1, max_dims=3,
                                                               min_side=1, max_side=6),
                      elements=st.floats(min_value=-100, max_value=100, allow_nan=False,
                                         allow_subnormal=False, width=32)))
    @settings(max_examples=60, deadline=None)
    def test_sum_backward_gradient_is_all_ones(self, data):
        t = Tensor(data, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(data))

    @given(hnp.arrays(dtype=np.float32, shape=st.integers(min_value=1, max_value=50),
                      elements=st.floats(min_value=-50, max_value=50, allow_nan=False,
                                         allow_subnormal=False, width=32)))
    @settings(max_examples=60, deadline=None)
    def test_relu_output_nonnegative_and_idempotent(self, data):
        t = Tensor(data)
        out = t.relu()
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.relu().data, out.data)

    @given(hnp.arrays(dtype=np.float32, shape=st.tuples(st.integers(1, 8), st.integers(2, 8)),
                      elements=st.floats(min_value=-20, max_value=20, allow_nan=False,
                                         allow_subnormal=False, width=32)))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_are_distributions(self, data):
        from repro.tensor import functional as F
        probs = F.softmax(Tensor(data)).data
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(data.shape[0]), rtol=1e-4)
