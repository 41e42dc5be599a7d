"""Tests for the A2SGD compressor — the paper's core contribution (Algorithm 1)."""

import copy

import numpy as np
import pytest

from repro.compress import A2SGDCompressor, ExchangeKind
from repro.compress.base import compressor_state_arrays, select_by_mask
from tests.reference_compressors import encode, two_level_means


def means(gradient):
    """(µ₊, µ₋) as the compress kernel computes them: its payload."""
    payload, _ = A2SGDCompressor().compress(gradient)
    return payload[0], payload[1]


def persistent_state(compressor):
    """What a compress call may move on its instance: the checkpointed state
    arrays and the RNG stream position (as comparable bytes / dicts)."""
    rng = getattr(compressor, "rng", None)
    return (sorted((kind, value.tobytes())
                   for kind, value in compressor_state_arrays(compressor).items()),
            None if rng is None else rng.bit_generator.state)


def _f32(bits: int) -> np.float32:
    """The float32 with exactly this bit pattern."""
    return np.uint32(bits).view(np.float32)


#: Scalars a float-arithmetic select would mangle: a NaN with a non-default
#: payload, a signalling NaN, the infinities, both zeros, the smallest and
#: largest float32 subnormals (FTZ/DAZ is on in this process) and ordinary
#: values.
ADVERSARIAL_SCALARS = [
    _f32(0x7FC12345), _f32(0xFFA00001), np.float32(np.inf), np.float32(-np.inf),
    np.float32(0.0), np.float32(-0.0), _f32(0x00000001), _f32(0x807FFFFF),
    np.float32(1.5), np.float32(-3.25e-3),
]


def _masks(n: int):
    alternating = np.zeros(n, dtype=bool)
    alternating[::2] = True
    return {"all_true": np.ones(n, dtype=bool), "all_false": np.zeros(n, dtype=bool),
            "alternating": alternating,
            "random": np.random.default_rng(n).random(n) < 0.5}


class TestSelectByMask:
    """The branch-free select every A2SGD encode/decode site goes through."""

    @pytest.mark.parametrize("n", [0, 1, 7, 65_537])
    def test_bitwise_equal_to_np_where(self, n):
        for mask in _masks(n).values():
            for a in ADVERSARIAL_SCALARS:
                for b in ADVERSARIAL_SCALARS:        # includes a == b
                    out = np.full(n, 7.0, dtype=np.float32)
                    assert select_by_mask(out, mask, a, b) is out
                    expected = np.where(mask, np.float32(a), np.float32(b))
                    np.testing.assert_array_equal(out.view(np.uint32),
                                                  expected.view(np.uint32))

    def test_python_float_operands_round_like_float32(self):
        mask = np.array([True, False, True])
        out = select_by_mask(np.empty(3, dtype=np.float32), mask, 0.1, -1e-50)
        expected = np.where(mask, np.float32(0.1), np.float32(-1e-50))
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))

    def test_writes_one_row_of_a_matrix_and_nothing_else(self):
        matrix = np.full((4, 1001), 9.0, dtype=np.float32)
        mask = _masks(1001)["random"]
        select_by_mask(matrix[2], mask, _f32(0x7FC12345), np.float32(-0.0))
        expected = np.where(mask, _f32(0x7FC12345), np.float32(-0.0))
        np.testing.assert_array_equal(matrix[2].view(np.uint32), expected.view(np.uint32))
        assert np.all(matrix[[0, 1, 3]] == 9.0)

    @pytest.mark.parametrize("out", [np.empty(4, dtype=np.float64),
                                     np.empty(4, dtype=np.int32), [0.0] * 4])
    def test_rejects_non_float32_out(self, out):
        with pytest.raises(TypeError, match="float32"):
            select_by_mask(out, np.ones(4, dtype=bool), 1.0, 2.0)

    def test_rejects_non_bool_mask(self):
        with pytest.raises(TypeError, match="bool mask"):
            select_by_mask(np.empty(4, dtype=np.float32), np.ones(4, dtype=np.uint8), 1.0, 2.0)

    @pytest.mark.parametrize("mask_shape", [(3,), (5,), (1, 4), ()])
    def test_rejects_mismatched_mask_shape(self, mask_shape):
        out = np.full(4, 7.0, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            select_by_mask(out, np.ones(mask_shape, dtype=bool), 1.0, 2.0)
        assert np.all(out == 7.0)            # refused before any write


class TestTwoLevelMeans:
    def test_means_match_definition(self):
        g = np.array([1.0, -2.0, 3.0, -4.0, 0.0], dtype=np.float32)
        mu_plus, mu_minus = means(g)
        # Positive entries (>= 0): 1, 3, 0 -> mean 4/3; negatives: |-2|,|-4| -> 3.
        assert mu_plus == pytest.approx(4.0 / 3.0)
        assert mu_minus == pytest.approx(3.0)

    def test_all_positive_gradient(self):
        g = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        mu_plus, mu_minus = means(g)
        assert mu_plus == pytest.approx(2.0)
        assert mu_minus == 0.0

    def test_all_negative_gradient(self):
        g = np.array([-1.0, -3.0], dtype=np.float32)
        mu_plus, mu_minus = means(g)
        assert mu_plus == 0.0
        assert mu_minus == pytest.approx(2.0)

    def test_zero_vector(self):
        mu_plus, mu_minus = means(np.zeros(4, dtype=np.float32))
        assert mu_plus == 0.0 and mu_minus == 0.0

    def test_means_are_nonnegative(self, gradient_vector):
        mu_plus, mu_minus = means(gradient_vector)
        assert mu_plus >= 0.0 and mu_minus >= 0.0

    def test_enc_operator(self):
        # Without error feedback a worker's own means reconstruct enc(g).
        g = np.array([0.5, -0.25, 2.0], dtype=np.float32)
        compressor = A2SGDCompressor(error_feedback=False)
        payload, ctx = compressor.compress(g)
        mu_plus, mu_minus = payload
        encoded = compressor.decompress(payload, ctx)
        np.testing.assert_allclose(encoded, [mu_plus, -mu_minus, mu_plus], rtol=1e-6)


class TestCompressDecompress:
    def test_payload_is_exactly_two_values(self, gradient_vector):
        payload, _ = A2SGDCompressor().compress(gradient_vector)
        assert payload.shape == (2,)

    def test_payload_contains_the_two_means(self, gradient_vector):
        payload, _ = A2SGDCompressor().compress(gradient_vector)
        mu_plus, mu_minus = two_level_means(gradient_vector)
        assert payload[0] == pytest.approx(mu_plus, rel=1e-6)
        assert payload[1] == pytest.approx(mu_minus, rel=1e-6)

    def test_context_holds_mask_and_error(self, gradient_vector):
        _, ctx = A2SGDCompressor().compress(gradient_vector)
        assert ctx["positive_mask"].shape == gradient_vector.shape
        assert ctx["error"].shape == gradient_vector.shape

    def test_error_vector_is_gradient_minus_encoding(self, gradient_vector):
        compressor = A2SGDCompressor()
        payload, ctx = compressor.compress(gradient_vector)
        encoded = encode(gradient_vector, payload[0], payload[1])
        np.testing.assert_allclose(ctx["error"], gradient_vector - encoded, atol=1e-6)

    def test_single_worker_roundtrip_is_lossless(self, gradient_vector):
        # With one worker the global means equal the local means, so error
        # feedback restores the original gradient exactly (up to float32).
        compressor = A2SGDCompressor()
        payload, ctx = compressor.compress(gradient_vector)
        reconstructed = compressor.decompress(payload, ctx)
        np.testing.assert_allclose(reconstructed, gradient_vector, atol=1e-6)

    def test_reconstruction_with_global_means(self, rng):
        # Simulate two workers: reconstruction must use the global means but
        # keep each worker's own error vector.
        g0 = rng.standard_normal(1000).astype(np.float32)
        g1 = rng.standard_normal(1000).astype(np.float32) * 2.0
        c0, c1 = A2SGDCompressor(), A2SGDCompressor()
        p0, ctx0 = c0.compress(g0)
        p1, ctx1 = c1.compress(g1)
        global_means = (p0 + p1) / 2.0
        r0 = c0.decompress(global_means, ctx0)
        expected = ctx0["error"] + np.where(ctx0["positive_mask"], global_means[0],
                                            -global_means[1])
        np.testing.assert_allclose(r0, expected, atol=1e-6)

    def test_decompress_requires_two_means(self, gradient_vector):
        compressor = A2SGDCompressor()
        _, ctx = compressor.compress(gradient_vector)
        with pytest.raises(ValueError):
            compressor.decompress(np.zeros(3), ctx)

    def test_rejects_non_flat_gradient(self, rng):
        with pytest.raises(ValueError):
            A2SGDCompressor().compress(rng.standard_normal((4, 4)))

    def test_no_error_feedback_drops_error(self, gradient_vector):
        compressor = A2SGDCompressor(error_feedback=False)
        payload, ctx = compressor.compress(gradient_vector)
        np.testing.assert_array_equal(ctx["error"], np.zeros_like(gradient_vector))
        reconstructed = compressor.decompress(payload, ctx)
        # Without the error term the reconstruction is exactly the encoding.
        expected = encode(gradient_vector, payload[0], payload[1])
        np.testing.assert_allclose(reconstructed, expected, atol=1e-6)

    def test_single_mean_ablation(self, gradient_vector):
        compressor = A2SGDCompressor(two_means=False)
        payload, ctx = compressor.compress(gradient_vector)
        assert payload[1] == 0.0
        reconstructed = compressor.decompress(payload, ctx)
        np.testing.assert_allclose(reconstructed, gradient_vector, atol=1e-6)


class TestNonFiniteGradients:
    """A NaN or ±inf entry is refused with its rank and means named — by the
    batch kernel and by the per-rank call async_ps makes every event — instead
    of shipping NaN/inf (or, per rank, silently zero) means."""

    @pytest.mark.parametrize("two_means", [True, False], ids=["two_means", "single_mean"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_names_the_rank_and_its_means(self, rng, bad, two_means):
        G = (rng.standard_normal((4, 64)) * 0.01).astype(np.float32)
        G[2, 5] = bad
        compressors = [A2SGDCompressor(two_means=two_means) for _ in range(4)]
        before = [persistent_state(c) for c in compressors]
        with pytest.raises(FloatingPointError, match=r"rank 2 of 4: \(µ₊, µ₋\) = ") as caught:
            A2SGDCompressor.compress_batch(compressors, G)
        assert "rank 0" not in str(caught.value) and "rank 3" not in str(caught.value)
        assert [persistent_state(c) for c in compressors] == before
        with pytest.raises(FloatingPointError, match="rank 0 of 1"):
            compressors[2].compress(G[2])


class TestStatisticalProperties:
    def test_variance_preserved_with_error_feedback(self, rng):
        # §3: retaining local errors keeps the variance close to dense SGD.
        g = (rng.standard_normal(10_000) * 0.05).astype(np.float32)
        compressor = A2SGDCompressor()
        payload, ctx = compressor.compress(g)
        reconstructed = compressor.decompress(payload, ctx)
        assert reconstructed.var() == pytest.approx(g.var(), rel=1e-4)

    def test_variance_collapses_without_error_feedback(self, rng):
        g = (rng.standard_normal(10_000) * 0.05).astype(np.float32)
        compressor = A2SGDCompressor(error_feedback=False)
        payload, ctx = compressor.compress(g)
        reconstructed = compressor.decompress(payload, ctx)
        # The encoding of a zero-mean Gaussian has variance 2/π of the
        # original (a ±half-normal-mean coin flip), i.e. a ~36% variance drop.
        ratio = reconstructed.var() / g.var()
        assert ratio == pytest.approx(2.0 / np.pi, rel=0.05)
        assert ratio < 0.75

    def test_encoding_preserves_sign_pattern(self, gradient_vector):
        compressor = A2SGDCompressor()
        payload, ctx = compressor.compress(gradient_vector)
        encoded = encode(gradient_vector, payload[0], payload[1])
        assert np.all((encoded >= 0) == (gradient_vector >= 0))

    def test_mean_of_reconstruction_across_workers_close_to_dense(self, rng):
        # The across-worker average of reconstructions should be close to the
        # dense average (the ∇µ term is the only difference).
        gradients = [(rng.standard_normal(5000) * 0.01).astype(np.float32) for _ in range(4)]
        compressors = [A2SGDCompressor() for _ in range(4)]
        payloads, contexts = zip(*(c.compress(g) for c, g in zip(compressors, gradients)))
        global_means = np.mean(np.stack(payloads), axis=0)
        recons = [c.decompress(global_means, ctx) for c, ctx in zip(compressors, contexts)]
        dense_avg = np.mean(np.stack(gradients), axis=0)
        a2sgd_avg = np.mean(np.stack(recons), axis=0)
        gap = np.linalg.norm(a2sgd_avg - dense_avg) / np.linalg.norm(dense_avg)
        assert gap < 0.35

    def test_compress_leaves_the_instance_unchanged(self, gradient_vector):
        # Algorithm 1 keeps nothing on the worker between iterations: the
        # retained error travels in the context, not on the instance.
        compressor = A2SGDCompressor()
        before = copy.deepcopy(vars(compressor))
        compressor.compress(gradient_vector)
        compressor.compress(gradient_vector)
        assert vars(compressor) == before


class TestAnalytics:
    def test_wire_bits_is_constant_in_n(self):
        compressor = A2SGDCompressor()
        assert compressor.wire_bits(1_000) == 64.0
        assert compressor.wire_bits(66_034_000) == 64.0
        assert compressor.wire_bits(10**9, world_size=16) == 64.0

    def test_computation_complexity(self):
        assert A2SGDCompressor().computation_complexity(100) == "O(n)"

    def test_exchange_is_allreduce(self):
        assert A2SGDCompressor.exchange is ExchangeKind.ALLREDUCE

    def test_registry_name(self):
        assert A2SGDCompressor.name == "a2sgd"
        assert A2SGDCompressor.uses_error_feedback
