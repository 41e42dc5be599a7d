"""A2SGD's row-blocked kernels ≡ the per-rank kernel, bit for bit.

``compress_batch`` / ``decompress_batch`` walk the ``(P, n)`` matrix in row
blocks (whole rows while ``rows · n ≤ STEP_BLOCK_ELEMENTS``, one row per
block above that), so the block edges fall inside P or between rows
depending on ``n``.  Every cell compares payloads, contexts and
reconstruction with the per-rank bodies in
``tests/reference_compressors.py``; the degraded cells run the allreduce
strategy over alive subsets against the per-rank exchange of
``tests/reference_trainer.py``.
"""

import numpy as np
import pytest

from repro.comm import InProcessWorld
from repro.compress import A2SGDCompressor
from repro.compress import a2sgd as a2sgd_module
from repro.compress.base import select_by_mask
from repro.faults.membership import Membership
from repro.optim.sgd import STEP_BLOCK_ELEMENTS
from repro.sync import SyncSpec
from repro.utils.rng import SeedSequenceFactory
from tests import reference_compressors as oracle
from tests.reference_trainer import exchange_per_rank
from tests.test_compress_a2sgd import ADVERSARIAL_SCALARS, persistent_state

WORLD_SIZES = [1, 2, 3, 5, 8, 13]
SIZES = [1, 2, 7, 4522, 21448, 65536, 65537, 199240]
CONFIGS = {"paper": {}, "no_error_feedback": {"error_feedback": False},
           "single_mean": {"two_means": False}}


def gradients(P, n, seed=0):
    G = (np.random.default_rng(seed).standard_normal((P, n)) * 0.01).astype(np.float32)
    G.reshape(-1)[:3] = [0.0, -0.0, 1e-41][:G.size]     # ±0 and a subnormal
    return G


def assert_bitwise_equal(expected, got, what):
    expected, got = np.asarray(expected), np.asarray(got)
    assert expected.dtype == got.dtype and expected.shape == got.shape, what
    assert expected.tobytes() == got.tobytes(), what


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("P", WORLD_SIZES)
def test_blocked_kernels_equal_the_per_rank_kernel(P, n, config):
    G = gradients(P, n, seed=P * 1000 + n)
    kwargs = CONFIGS[config]
    blocked = [A2SGDCompressor(**kwargs) for _ in range(P)]
    per_rank = [A2SGDCompressor(**kwargs) for _ in range(P)]

    payloads, contexts = A2SGDCompressor.compress_batch(blocked, G.copy())
    expected = [oracle.a2sgd_compress(c, row.copy()) for c, row in zip(per_rank, G)]
    # A per-rank global pair (not one shared mean) so a row mix-up shows.
    exchanged = [np.asarray(p, dtype=np.float64)[::-1] * 0.5 for p, _ in expected]
    reconstructed = A2SGDCompressor.decompress_batch(blocked, exchanged, contexts)

    for rank, (payload, ctx) in enumerate(expected):
        where = f"P={P} n={n} {config} rank {rank}"
        assert_bitwise_equal(payload, payloads[rank], f"{where}: payload")
        for key in ("positive_mask", "error"):
            assert_bitwise_equal(ctx[key], contexts[rank][key], f"{where}: {key}")
        assert_bitwise_equal(
            oracle.a2sgd_decompress(per_rank[rank], exchanged[rank], ctx),
            reconstructed[rank], f"{where}: reconstruction")


@pytest.mark.parametrize("P, n", [(8, 4522), (13, 2), (3, 65537), (2, 199240)])
def test_numpy_calls_per_block_not_per_rank(P, n, monkeypatch):
    """The kernels' row dots are a fixed count per block: one block for every
    rank while ``P · n ≤ STEP_BLOCK_ELEMENTS``."""
    calls = []
    row_dots = a2sgd_module._row_dots
    monkeypatch.setattr(a2sgd_module, "_row_dots",
                        lambda a, b: calls.append(len(a)) or row_dots(a, b))
    compressors = [A2SGDCompressor() for _ in range(P)]
    A2SGDCompressor.compress_batch(compressors, gradients(P, n))
    blocks = 1 if P * n <= STEP_BLOCK_ELEMENTS else P
    # The two masked sums of the means, per block.
    assert len(calls) == 2 * blocks and sum(calls) == 2 * P


@pytest.mark.parametrize("P, n", [(4, 64), (3, 65537)], ids=["one_block", "row_blocks"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_rows_are_named_before_anything_moves(P, n, bad):
    G = gradients(P, n)
    G[0, n - 1] = bad
    G[P - 1, 0] = -bad if bad == bad else bad
    compressors = [A2SGDCompressor() for _ in range(P)]
    before = [persistent_state(c) for c in compressors]
    with pytest.raises(FloatingPointError) as caught:
        A2SGDCompressor.compress_batch(compressors, G)
    message = str(caught.value)
    assert f"rank 0 of {P}:" in message and f"rank {P - 1} of {P}:" in message
    assert "rank 1 of" not in message
    assert [persistent_state(c) for c in compressors] == before


def strategy_pair(P, alive):
    """The allreduce strategy and its per-rank reference, each on its own
    world with ``alive`` as the membership."""
    pair = []
    for _ in range(2):
        world = InProcessWorld(P)
        strategy = SyncSpec().build(world, [A2SGDCompressor() for _ in range(P)],
                                   SeedSequenceFactory(0))
        membership = Membership(P)
        for rank in set(range(P)) - set(alive):
            membership.set_alive(rank, False)
        world.membership = membership
        pair.append(strategy)
    return pair


@pytest.mark.parametrize("alive", [(0,), (1, 2, 5), (0, 1, 2, 3, 4, 5, 6), (7,)])
@pytest.mark.parametrize("n", [7, 4522, 65537])
def test_degraded_exchange_equals_the_per_rank_exchange(alive, n):
    P = 8
    strategy, reference = strategy_pair(P, alive)
    for step in range(3):
        G = gradients(P, n, seed=step)
        new, report = strategy.exchange_batched(G.copy())
        expected_rows, expected_report = exchange_per_rank(reference, list(G.copy()))
        assert_bitwise_equal(np.stack(expected_rows).astype(np.float32), new,
                             f"alive {alive} n={n} step {step}")
        dead = sorted(set(range(P)) - set(alive))
        assert_bitwise_equal(G[dead], new[dead], "dead rows pass through")
        assert report == expected_report


class TestPerRowSelect:
    """``select_by_mask`` with one operand pair per row (``(rows, 1)``
    columns) equals a per-row scalar select, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 4522])
    def test_per_row_operands_equal_per_row_where(self, n):
        scalars = np.array(ADVERSARIAL_SCALARS, dtype=np.float32)
        rows = len(scalars)
        mask = np.random.default_rng(n).random((rows, n)) < 0.5
        if_true, if_false = scalars, scalars[::-1].copy()
        out = np.full((rows, n), 7.0, dtype=np.float32)
        assert select_by_mask(out, mask, if_true[:, None], if_false[:, None]) is out
        for r in range(rows):
            expected = np.where(mask[r], if_true[r], if_false[r])
            assert_bitwise_equal(expected.view(np.uint32), out[r].view(np.uint32),
                                 f"row {r}")

    def test_float64_operands_round_like_the_scalar_call(self):
        means = np.array([0.1, -1e-50, 3.0e38, 1e-40])
        mask = np.array([[True, False]] * 4)
        out = select_by_mask(np.empty((4, 2), np.float32), mask, means[:, None],
                             -means[:, None])
        for r, mean in enumerate(means):
            row = select_by_mask(np.empty(2, np.float32), mask[r], mean, -mean)
            assert_bitwise_equal(row.view(np.uint32), out[r].view(np.uint32), f"row {r}")
