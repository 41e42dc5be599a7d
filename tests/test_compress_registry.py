"""Tests for the compressor registry and the Table 2 analytic quantities."""

import numpy as np
import pytest

from repro.analysis.convergence import single_shot_error
from repro.compress import (
    COMPRESSORS,
    A2SGDCompressor,
    Compressor,
    DenseCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
    get_compressor,
    list_compressors,
)
from repro.compress.base import compressor_state_arrays
from repro.compress.registry import PAPER_ALGORITHMS


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in COMPRESSORS

    def test_list_compressors_sorted(self):
        names = list_compressors()
        assert names == sorted(names)
        assert "a2sgd" in names and "dense" in names

    def test_get_compressor_case_and_aliases(self):
        assert isinstance(get_compressor("A2SGD"), A2SGDCompressor)
        assert get_compressor("Top-K").name == "topk"
        assert get_compressor("gaussian_k").name == "gaussiank"
        assert get_compressor("TopK").name == "topk"

    def test_get_compressor_forwards_kwargs(self):
        compressor = get_compressor("topk", ratio=0.05)
        assert compressor.ratio == pytest.approx(0.05)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_compressor("zip")

    def test_each_instance_is_fresh(self):
        a = get_compressor("a2sgd")
        b = get_compressor("a2sgd")
        assert a is not b

    def test_base_class_is_abstract(self, gradient_vector):
        base = Compressor()
        with pytest.raises(NotImplementedError):
            base.compress(gradient_vector)
        with pytest.raises(NotImplementedError):
            base.wire_bits(10)
        with pytest.raises(NotImplementedError):
            base.computation_complexity(10)


class TestTable2Quantities:
    """Column 2 and 3 of Table 2 as analytic statements about the compressors."""

    N = 66_034_000  # LSTM-PTB parameter count from Table 1

    def test_communication_bits_match_table2(self):
        assert get_compressor("dense").wire_bits(self.N) == 32 * self.N
        assert get_compressor("qsgd").wire_bits(self.N) == pytest.approx(2.8 * self.N + 32)
        k = int(round(0.001 * self.N))
        assert get_compressor("topk").wire_bits(self.N) == 32 * k
        assert get_compressor("gaussiank").wire_bits(self.N) == 32 * k
        assert get_compressor("a2sgd").wire_bits(self.N) == 64

    def test_a2sgd_is_the_only_constant_traffic_algorithm(self):
        small, large = 10_000, 100_000_000
        for name in PAPER_ALGORITHMS:
            compressor = get_compressor(name)
            ratio = compressor.wire_bits(large) / compressor.wire_bits(small)
            if name == "a2sgd":
                assert ratio == pytest.approx(1.0)
            else:
                assert ratio > 100

    def test_traffic_ordering_matches_paper(self):
        bits = {name: get_compressor(name).wire_bits(self.N) for name in PAPER_ALGORITHMS}
        assert bits["a2sgd"] < bits["topk"] == bits["gaussiank"] < bits["qsgd"] < bits["dense"]

    def test_computation_complexity_strings(self):
        assert get_compressor("dense").computation_complexity(self.N) == "O(1)"
        assert get_compressor("a2sgd").computation_complexity(self.N) == "O(n)"
        assert get_compressor("gaussiank").computation_complexity(self.N) == "O(n)"
        assert get_compressor("topk").computation_complexity(self.N) == "O(n + k log n)"
        assert get_compressor("qsgd").computation_complexity(self.N) == "O(n^2)"

    def test_compression_ratio_headline_number(self):
        # For LSTM-PTB, A2SGD reduces traffic by a factor of ~33 million
        # relative to dense SGD (32n bits vs 64 bits).
        dense_bits = get_compressor("dense").wire_bits(self.N)
        a2sgd_bits = get_compressor("a2sgd").wire_bits(self.N)
        assert dense_bits / a2sgd_bits == pytest.approx(32 * self.N / 64)


class TestCompressorContracts:
    """Every registered compressor obeys the shared interface contract."""

    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_compress_returns_payload_and_context(self, name, gradient_vector):
        compressor = get_compressor(name)
        payload, ctx = compressor.compress(gradient_vector)
        assert isinstance(payload, np.ndarray)
        assert payload.ndim == 1
        assert isinstance(ctx, dict)

    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_roundtrip_produces_gradient_of_same_shape(self, name, gradient_vector):
        compressor = get_compressor(name)
        payload, ctx = compressor.compress(gradient_vector)
        if compressor.exchange.value == "allreduce":
            rebuilt = compressor.decompress(payload, ctx)
        else:
            rebuilt = compressor.decompress_gathered([payload], ctx)
        assert rebuilt.shape == gradient_vector.shape
        assert np.isfinite(rebuilt).all()

    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_wire_bits_positive_and_monotone(self, name):
        compressor = get_compressor(name)
        small = compressor.wire_bits(1_000)
        large = compressor.wire_bits(1_000_000)
        assert small > 0
        assert large >= small

    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_reset_state_clears_persistent_state(self, name, gradient_vector):
        """The error-feedback vectors go; a generator keeps its place (a
        rejoining rank does not restart its stream)."""
        compressor = get_compressor(name)
        compressor.compress(gradient_vector)
        before = compressor_state_arrays(compressor)
        compressor.reset_state()
        after = compressor_state_arrays(compressor)
        assert set(after) <= {"rng"}
        if "rng" in after:
            np.testing.assert_array_equal(after["rng"], before["rng"])


def decoded_payload(compressor, payload, gradient):
    """ĝ read straight off a lone rank's payload layout — independent of the
    compressor's decompress kernels."""
    n = gradient.size
    if isinstance(compressor, TopKCompressor):      # DGC, Rand-K, Gaussian-K
        half = payload.size // 2                    # [int32 index bits, values]
        estimate = np.zeros(n)
        estimate[payload[:half].view(np.int32)] = payload[half:]
        return estimate
    payload = np.asarray(payload, dtype=np.float64)
    if isinstance(compressor, A2SGDCompressor):
        if not compressor.two_means:
            return np.full(n, payload[0])
        return np.where(gradient >= 0, payload[0], -payload[1])
    if isinstance(compressor, DenseCompressor):
        return payload
    if isinstance(compressor, QSGDCompressor):
        buckets = int(payload[0])
        size = compressor.bucket_size or n
        norms = np.repeat(payload[1:1 + buckets], size)[:n]
        return payload[1 + buckets:] / compressor.levels * norms
    assert isinstance(compressor, (SignSGDCompressor, TernGradCompressor))
    return payload[0] * payload[1:]


SINGLE_SHOT = [(name, {}) for name in sorted(COMPRESSORS)] + [
    ("a2sgd", {"two_means": False}), ("a2sgd", {"error_feedback": False}),
    ("qsgd", {"bucket_size": None}), ("dgc", {"clip_norm_factor": None})]


@pytest.mark.parametrize("name, kwargs", SINGLE_SHOT,
                         ids=[f"{n}-{'-'.join(k) or 'default'}" for n, k in SINGLE_SHOT])
def test_single_shot_error_is_the_lone_rank_error(name, kwargs, gradient_vector):
    """‖g − ĝ‖ / ‖g‖, ĝ decoded from the payload of a second fresh instance
    (same settings, same RNG stream)."""
    payload, _ = get_compressor(name, **kwargs).compress(gradient_vector)
    estimate = decoded_payload(get_compressor(name, **kwargs), payload,
                               gradient_vector)
    g = gradient_vector.astype(np.float64)
    expected = np.linalg.norm(g - estimate) / np.linalg.norm(g)
    got = single_shot_error(get_compressor(name, **kwargs), gradient_vector)
    assert got == pytest.approx(expected, rel=1e-5)
    if name == "dense":
        assert got == 0.0
