"""The one exact top-k kernel, ``repro.compress.base.top_k_indices``.

Top-K, DGC and Gaussian-K's over-selection cap select through it.  On rows
of at least ``TOP_K_MIN_SAMPLED_ROW`` entries it partitions only the
candidates at or above a floor taken from a strided sample; shorter rows,
floors that keep fewer than k candidates and ties at the k-th value
partition the whole row.  Either way its selection must be the full-row
``np.argpartition``'s index set, ties and NaN included.  A spy on
``np.argpartition`` records the sizes partitioned, so every case also
states which path it took.

The last tests run the sparsifiers' ``compress_batch`` at paper size
(fnn3, n = 199,240, P = 8) against the per-rank oracle
``tests/reference_compressors.py``: the payloads as per-rank {index: value}
maps (only their order may change), the residuals, velocities and
reconstruction bit for bit — DGC's clipped rows, tied at the k-th value,
included.
"""

import numpy as np
import pytest

from repro.compress import get_compressor
from repro.compress.base import (
    TOP_K_MIN_SAMPLED_ROW,
    TOP_K_SAMPLE_STRIDE,
    top_k_indices,
)
from tests import reference_compressors as oracle

PAPER_N = 199_240
PAPER_K = 199  # sparsity_k(199_240, 0.001)


@pytest.fixture
def partitioned(monkeypatch):
    """The sizes of the arrays ``np.argpartition`` is called on."""
    sizes = []
    real = np.argpartition

    def spy(a, kth, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return real(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "argpartition", spy)
    return sizes


def full_row(magnitudes, k):
    return np.argpartition(magnitudes, -k)[-k:]


def assert_same_set(magnitudes, k):
    expected = full_row(magnitudes, k)
    got = top_k_indices(magnitudes, k)
    assert got.shape == (k,)
    np.testing.assert_array_equal(np.sort(got), np.sort(expected))


def gaussian_magnitudes(n, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal(n) * 0.01).astype(dtype)


# --------------------------------------------------------------------- #
# the kernel against the full-row partition
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n, sampled", [
    (TOP_K_MIN_SAMPLED_ROW - 1, False), (TOP_K_MIN_SAMPLED_ROW, True),
    (PAPER_N, True),
])
@pytest.mark.parametrize("ratio", [0.001, 0.01, 0.05])
def test_matches_full_row_on_both_sides_of_the_cut_off(partitioned, n, sampled, ratio):
    magnitudes = gaussian_magnitudes(n, seed=n)
    k = max(1, round(ratio * n))
    assert_same_set(magnitudes, k)
    own = partitioned[1]  # [0] is the reference's full-row call
    assert (own < n) == sampled


def test_paper_size_selection(partitioned):
    magnitudes = gaussian_magnitudes(PAPER_N, seed=3)
    assert_same_set(magnitudes, PAPER_K)
    # The candidates the floor keeps are a few times k, not the row.
    assert PAPER_K <= partitioned[1] <= 20 * PAPER_K


@pytest.mark.parametrize("n", [100, PAPER_N])
def test_k_of_one_and_k_of_n(n):
    magnitudes = gaussian_magnitudes(n, seed=5)
    assert_same_set(magnitudes, 1)
    assert_same_set(magnitudes, n)
    assert int(top_k_indices(magnitudes, 1)[0]) == int(np.argmax(magnitudes))


@pytest.mark.parametrize("n", [TOP_K_MIN_SAMPLED_ROW - 1, PAPER_N])
def test_float64_rows(partitioned, n):
    """DGC's ``clip_dtype = float64`` state selects in double precision."""
    magnitudes = gaussian_magnitudes(n, seed=9, dtype=np.float64)
    assert_same_set(magnitudes, PAPER_K)


def test_floor_keeping_fewer_than_k_candidates_falls_back(partitioned):
    """The stride carries a ramp above everything else, and half the top k
    avoid the stride: the floor (the sample's ≈ 4k·m/n-th largest) keeps
    only its own rank of the ramp plus those k/2, fewer than k, so the whole
    row is partitioned."""
    n, k = PAPER_N, PAPER_K
    magnitudes = np.zeros(n, dtype=np.float32)
    sample_size = magnitudes[::TOP_K_SAMPLE_STRIDE].size
    magnitudes[::TOP_K_SAMPLE_STRIDE] = 1.0 + np.arange(sample_size, dtype=np.float32)
    off_stride = 1 + TOP_K_SAMPLE_STRIDE * np.arange(k // 2)
    magnitudes[off_stride] = 10.0 * sample_size + np.arange(k // 2, dtype=np.float32)
    assert_same_set(magnitudes, k)
    assert partitioned[1] == n
    assert set(off_stride) <= set(top_k_indices(magnitudes, k).tolist())


@pytest.mark.parametrize("n", [TOP_K_MIN_SAMPLED_ROW - 1, PAPER_N])
def test_nan_and_infinities_select_as_the_full_row(n):
    """NaN ranks above +inf in ``np.argpartition``; the candidates keep it
    (``~(a < floor)``), on and off the sample stride."""
    magnitudes = gaussian_magnitudes(n, seed=13)
    nan_at = [0, 5, TOP_K_SAMPLE_STRIDE, 3 * TOP_K_SAMPLE_STRIDE + 7, n - 1]
    inf_at = [2, 2 * TOP_K_SAMPLE_STRIDE, 999]
    magnitudes[nan_at] = np.nan
    magnitudes[inf_at] = np.abs(np.array([np.inf, -np.inf, np.inf], dtype=np.float32))
    for k in (len(nan_at), len(nan_at) + len(inf_at), PAPER_K):
        assert_same_set(magnitudes, k)
        assert set(nan_at) <= set(top_k_indices(magnitudes, k).tolist())
    # Fewer slots than NaNs: a tie among the NaNs.
    assert_same_set(magnitudes, 2)


def test_nan_floor_keeps_every_entry():
    """A sample all NaN puts the floor at NaN, which no entry is below."""
    magnitudes = gaussian_magnitudes(PAPER_N, seed=17)
    magnitudes[::TOP_K_SAMPLE_STRIDE] = np.nan
    assert_same_set(magnitudes, PAPER_K)
    assert_same_set(magnitudes, 4000)


@pytest.mark.parametrize("n", [TOP_K_MIN_SAMPLED_ROW - 1, PAPER_N])
def test_all_zero_and_tied_rows(partitioned, n):
    """A tie at the k-th value is settled by the full row's partition."""
    zeros = np.zeros(n, dtype=np.float32)
    rng = np.random.default_rng(19)
    tied = rng.integers(0, 4, n).astype(np.float32)
    for row, ks in ((zeros, (1, PAPER_K, n)), (tied, (1, PAPER_K, n // 3))):
        for k in ks:
            del partitioned[:]
            assert_same_set(row, k)
            assert partitioned[-1] == n


def test_tie_among_candidates_falls_back(partitioned):
    """Twin coordinates (an LSTM's two bias vectors get the same gradient)
    tied at the k-th value: the candidates are partitioned, the tie seen,
    and the full row picks the twin."""
    magnitudes = gaussian_magnitudes(PAPER_N, seed=31)
    order = np.argsort(magnitudes)
    magnitudes[order[-PAPER_K - 1]] = magnitudes[order[-PAPER_K]]
    assert_same_set(magnitudes, PAPER_K)
    assert partitioned[1] < PAPER_N and partitioned[2] == PAPER_N


# --------------------------------------------------------------------- #
# paper-size compress_batch against the per-rank oracle
# --------------------------------------------------------------------- #
WORLD_SIZE = 8
ITERATIONS = 3


def payload_map(compressor, payload):
    indices, values = compressor.unpack_payload(payload)
    assert np.unique(indices).size == indices.size
    return dict(zip(indices.tolist(), values.view(np.uint32).tolist()))


@pytest.mark.parametrize("name, kwargs", [
    ("topk", {}), ("topk", {"error_feedback": False}), ("dgc", {}),
    ("dgc", {"clip_dtype": "float32"}), ("dgc", {"clip_norm_factor": None}),
    ("gaussiank", {}),
])
def test_paper_size_compress_batch_matches_oracle(name, kwargs):
    expected_bank = [get_compressor(name, **kwargs) for _ in range(WORLD_SIZE)]
    bank = [get_compressor(name, **kwargs) for _ in range(WORLD_SIZE)]
    cls = type(bank[0])
    rng = np.random.default_rng(23)
    for iteration in range(ITERATIONS):
        G = (rng.standard_normal((WORLD_SIZE, PAPER_N)) * 0.01).astype(np.float32)
        expected = [oracle.compress(c, row.copy()) for c, row in zip(expected_bank, G)]
        payloads, contexts = cls.compress_batch(bank, G.copy())
        where = f"{name} {kwargs} iter {iteration}"
        for rank, ((e_payload, e_ctx), payload, ctx) in enumerate(
                zip(expected, payloads, contexts)):
            assert ctx == e_ctx, f"{where}: ctx rank {rank}"
            assert payload_map(cls, payload) == payload_map(cls, e_payload), \
                f"{where}: payload rank {rank}"
            for attr in ("_residual", "_velocity"):
                e_state = getattr(expected_bank[rank], attr, None)
                state = getattr(bank[rank], attr, None)
                assert (e_state is None) == (state is None)
                if e_state is not None:
                    np.testing.assert_array_equal(state, e_state,
                                                  err_msg=f"{where}: {attr} rank {rank}")
        gathered = [list(payloads) for _ in bank]
        e_gathered = [[p for p, _ in expected] for _ in bank]
        reconstruction = cls.decompress_batch(bank, gathered, contexts)
        e_row = oracle.decompress(expected_bank[0], e_gathered[0], expected[0][1])
        np.testing.assert_array_equal(
            np.asarray(reconstruction), np.broadcast_to(e_row, (WORLD_SIZE, PAPER_N)),
            err_msg=f"{where}: reconstruction")

