"""The compressor kernels must reproduce the per-rank oracle bit for bit.

Every compressor implements ``compress_batch`` / ``decompress_batch`` over the
stacked (P, n) gradient matrix, and gets its per-rank ``compress`` /
``decompress`` from the base class as a batch of one.  For every registered
algorithm, both paths must produce exactly the payloads, contexts,
reconstructions and error-feedback state of the per-rank bodies
in ``tests/reference_compressors.py`` — across iterations, where the residual
state feeds back into the next compression.  Stochastic compressors hold one
RNG per rank, seeded identically on both sides.
"""

import numpy as np
import pytest

from repro.compress import get_compressor, list_compressors
from repro.compress.base import Compressor, ExchangeKind
from tests import reference_compressors as oracle


WORLD_SIZE = 4
N = 1000
ITERATIONS = 4


#: Every registered compressor at its defaults, the non-default
#: configurations each kernel branches on, and mixed-configuration banks (one
#: kwargs dict per rank): batches of one for a2sgd and topk, per-row
#: settings inside the signsgd and terngrad kernels.
CONFIGS = [(name, {}) for name in list_compressors()] + [
    ("a2sgd", {"two_means": False}), ("a2sgd", {"error_feedback": False}),
    ("topk", {"error_feedback": False}), ("qsgd", {"bucket_size": None}),
    ("qsgd", {"error_feedback": False}), ("dgc", {"clip_norm_factor": None}),
    ("dgc", {"clip_dtype": "float32"}), ("signsgd", {"error_feedback": False}),
    ("terngrad", {"clip_std": None}),
    ("a2sgd", [{}, {"two_means": False}, {"error_feedback": False},
               {"two_means": False, "error_feedback": False}]),
    ("topk", [{"ratio": 0.05}, {"ratio": 0.1}, {"ratio": 0.05, "error_feedback": False},
              {"ratio": 0.1}]),
    ("signsgd", [{}, {"error_feedback": False}] * 2),
    ("terngrad", [{}, {"clip_std": None}] * 2),
]


def config_id(config):
    name, kwargs = config
    if isinstance(kwargs, list):
        return f"{name}-mixed"
    return "-".join([name, *(f"{k}={v}" for k, v in kwargs.items())])


def make_compressors(name, kwargs=None):
    """Two identical banks of per-rank compressors (deterministic RNGs);
    ``kwargs`` is one dict for every rank or a list of one per rank."""

    def bank():
        compressors = []
        for rank in range(WORLD_SIZE):
            rank_kwargs = dict(kwargs[rank] if isinstance(kwargs, list) else kwargs or {})
            if name in ("topk", "gaussiank", "randk", "dgc"):
                rank_kwargs.setdefault("ratio", 0.05)
            compressor = get_compressor(name, **rank_kwargs)
            if hasattr(compressor, "rng"):
                compressor.rng = np.random.default_rng(1000 + rank)
            compressors.append(compressor)
        return compressors

    return bank(), bank()


def gradient_stream(seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(ITERATIONS):
        yield (rng.standard_normal((WORLD_SIZE, N)) * 0.01).astype(np.float32)


def reduce_exchanged(payloads, kind):
    """A deterministic stand-in for the collective (mean / gather)."""
    if kind is ExchangeKind.ALLREDUCE:
        mean = np.mean(np.stack([np.asarray(p, dtype=np.float64) for p in payloads]), axis=0)
        return [mean.copy() for _ in payloads]
    return [[np.asarray(p).copy() for p in payloads] for _ in payloads]


def run_oracle(compressors, G, kind):
    payloads, contexts = zip(*(oracle.compress(c, row.copy())
                               for c, row in zip(compressors, G)))
    exchanged = reduce_exchanged(payloads, kind)
    rows = [oracle.decompress(c, e, ctx)
            for c, e, ctx in zip(compressors, exchanged, contexts)]
    return payloads, contexts, np.stack([np.asarray(r, dtype=np.float32) for r in rows])


def run_batched(compressors, G, kind):
    cls = type(compressors[0])
    payloads, contexts = cls.compress_batch(compressors, G.copy())
    exchanged = reduce_exchanged(payloads, kind)
    matrix = cls.decompress_batch(compressors, exchanged, contexts)
    return payloads, contexts, np.asarray(matrix, dtype=np.float32)


def run_batch_of_one(compressors, G, kind):
    """The public per-rank methods — the path async_ps and the parameter
    codec take."""
    payloads, contexts = zip(*(c.compress(row.copy()) for c, row in zip(compressors, G)))
    exchanged = reduce_exchanged(payloads, kind)
    if kind is ExchangeKind.ALLREDUCE:
        rows = [c.decompress(e, ctx) for c, e, ctx in zip(compressors, exchanged, contexts)]
    else:
        rows = [c.decompress_gathered(e, ctx)
                for c, e, ctx in zip(compressors, exchanged, contexts)]
    return payloads, contexts, np.stack([np.asarray(r, dtype=np.float32) for r in rows])


def public(ctx):
    """Underscore-prefixed keys are private kernel caches (e.g. a2sgd's
    stacked mask/error matrices); everything decompress or a checkpoint may
    read must match."""
    return {k for k in ctx if not k.startswith("_")}


def assert_step_matches(name, iteration, expected, got, check_dtype=True):
    (ep, ec, erows, ecomp), (gp, gc, grows, gcomp) = expected, got
    where = f"{name} iter {iteration}"
    for rank in range(WORLD_SIZE):
        np.testing.assert_array_equal(np.asarray(ep[rank]), np.asarray(gp[rank]),
                                      err_msg=f"{where}: payload rank {rank}")
        assert public(ec[rank]) == public(gc[rank])
        for key in public(ec[rank]):
            np.testing.assert_array_equal(np.asarray(ec[rank][key]), np.asarray(gc[rank][key]),
                                          err_msg=f"{where}: ctx[{key}] rank {rank}")
    np.testing.assert_array_equal(erows, grows, err_msg=f"{where}: reconstruction")
    for rank, (e, g) in enumerate(zip(ecomp, gcomp)):
        for attr in ("_residual", "_velocity"):
            estate, gstate = getattr(e, attr, None), getattr(g, attr, None)
            assert (estate is None) == (gstate is None), \
                f"{where}: {attr} present on one side only (rank {rank})"
            if estate is not None:
                np.testing.assert_array_equal(estate, gstate,
                                              err_msg=f"{where}: {attr} rank {rank}")
                if check_dtype:
                    assert estate.dtype == gstate.dtype
        if hasattr(e, "rng"):
            assert e.rng.bit_generator.state == g.rng.bit_generator.state, \
                f"{where}: RNG stream rank {rank}"


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
@pytest.mark.parametrize("run", [run_batched, run_batch_of_one],
                         ids=["batch", "batch_of_one"])
def test_kernels_match_oracle(config, run):
    name, kwargs = config
    expected_bank, bank = make_compressors(name, kwargs)
    kind = bank[0].exchange
    for iteration, G in enumerate(gradient_stream()):
        expected = run_oracle(expected_bank, G, kind)
        got = run(bank, G, kind)
        assert_step_matches(name, iteration, (*expected, expected_bank), (*got, bank))


@pytest.mark.parametrize("clip_dtype", ["float64", "float32"])
def test_dgc_zero_gradient_row_matches_oracle(clip_dtype):
    """A zero-norm row skips the clip inside the kernel.  The oracle keeps a
    fresh rank's state in float32 there, the kernel in ``clip_dtype`` — the
    same values."""
    expected_bank, bank = make_compressors("dgc", {"clip_dtype": clip_dtype})
    for iteration, G in enumerate(gradient_stream(seed=11)):
        G[2] = 0.0
        expected = run_oracle(expected_bank, G, ExchangeKind.ALLGATHER)
        got = run_batched(bank, G, ExchangeKind.ALLGATHER)
        assert_step_matches("dgc", iteration, (*expected, expected_bank), (*got, bank),
                            check_dtype=False)
        assert all(c._velocity.dtype == np.dtype(clip_dtype) for c in bank)


def test_mixed_configuration_falls_back_to_loop():
    """compress_batch with heterogeneous per-rank settings must still be
    correct (it falls back to the per-rank loop internally)."""
    ratios = [0.05, 0.1, 0.05, 0.1]
    batched = [get_compressor("topk", ratio=r) for r in ratios]
    looped = [get_compressor("topk", ratio=r) for r in ratios]
    G = (np.random.default_rng(3).standard_normal((4, N)) * 0.01).astype(np.float32)
    bp, bc = type(batched[0]).compress_batch(batched, G.copy())
    for compressor, row, payload, ctx in zip(looped, G, bp, bc):
        expected_payload, expected_ctx = compressor.compress(row.copy())
        np.testing.assert_array_equal(np.asarray(payload), np.asarray(expected_payload))
        assert ctx["k"] == expected_ctx["k"]


def test_custom_compressor_with_only_batch_kernels_gets_per_rank_methods():
    """A third-party compressor implements the two batch kernels; the
    per-rank methods come from the base class."""

    class NegatingCompressor(Compressor):
        name = "negate"
        exchange = ExchangeKind.ALLREDUCE

        @classmethod
        def compress_batch(cls, compressors, G):
            G = np.asarray(G, dtype=np.float32)
            return list(-G), [{"n": G.shape[1]} for _ in compressors]

        @classmethod
        def decompress_batch(cls, compressors, exchanged, contexts):
            return -np.stack([np.asarray(e, dtype=np.float32) for e in exchanged])

        def wire_bits(self, n, world_size=1):
            return 32.0 * n

        def computation_complexity(self, n):
            return "O(n)"

    G = np.random.default_rng(0).standard_normal((3, 16)).astype(np.float32)
    compressor = NegatingCompressor()
    payload, ctx = compressor.compress(G[0])
    np.testing.assert_array_equal(payload, -G[0])
    assert ctx == {"n": 16}
    np.testing.assert_array_equal(compressor.decompress(payload, ctx), G[0])
    with pytest.raises(ValueError, match="1-D"):
        compressor.compress(G)

    compressors = [NegatingCompressor() for _ in range(3)]
    payloads, contexts = NegatingCompressor.compress_batch(compressors, G)
    exchanged = reduce_exchanged(payloads, ExchangeKind.ALLREDUCE)
    matrix = NegatingCompressor.decompress_batch(compressors, exchanged, contexts)
    expected = np.broadcast_to(np.mean(G, axis=0, dtype=np.float64).astype(np.float32), G.shape)
    np.testing.assert_allclose(matrix, expected, atol=1e-6)


def test_custom_compressor_with_only_per_rank_compress_names_the_missing_kernel():
    """The trainer calls only the batch kernels, so a compressor that
    implements per-rank ``compress`` alone fails there, naming the kernel."""

    class PerRankOnly(Compressor):
        name = "per_rank_only"

        def compress(self, gradient):
            return -np.asarray(gradient), {}

    G = np.ones((2, 8), dtype=np.float32)
    with pytest.raises(NotImplementedError, match="PerRankOnly does not implement compress_batch"):
        PerRankOnly.compress_batch([PerRankOnly(), PerRankOnly()], G)
    with pytest.raises(NotImplementedError, match="decompress_batch"):
        PerRankOnly().decompress(np.ones(8, dtype=np.float32), {})


# --------------------------------------------------------------------- #
# QSGD's whole-matrix kernels, bit for bit
# --------------------------------------------------------------------- #
def bits(array):
    """The array's bit patterns: ``-0.0`` and ``+0.0`` differ here."""
    array = np.asarray(array)
    return array.view({4: np.uint32, 8: np.uint64}[array.itemsize])


def assert_bits_equal(want, got, what):
    want, got = np.asarray(want), np.asarray(got)
    assert want.dtype == got.dtype and want.shape == got.shape, what
    np.testing.assert_array_equal(bits(want), bits(got), err_msg=what)


#: P = 1 and 8; n = 1000 is not a multiple of the 64-coordinate bucket;
#: levels 16 takes the float32 dequantize, levels 3 the float64 one.
QSGD_CELLS = [dict(P=P, levels=levels, bucket_size=bucket, error_feedback=ef)
              for P in (1, 8) for levels in (16, 3) for bucket in (64, None)
              for ef in (True, False)]


@pytest.mark.parametrize("cell", QSGD_CELLS, ids=lambda c: "-".join(
    f"{k}={v}" for k, v in c.items()))
def test_qsgd_kernels_match_the_per_rank_oracle_bit_for_bit(cell):
    """Encode, the one-payload decode (the parameter codec's) and the
    multi-payload mean (the gradient phase's) against the per-rank bodies,
    over an all-zero bucket and signed zeros, with error feedback carried
    across iterations."""
    P, kwargs = cell["P"], {k: v for k, v in cell.items() if k != "P"}
    expected = [get_compressor("qsgd", rng=np.random.default_rng(50 + p), **kwargs)
                for p in range(P)]
    bank = [get_compressor("qsgd", rng=np.random.default_rng(50 + p), **kwargs)
            for p in range(P)]
    rng = np.random.default_rng(8)
    for iteration in range(3):
        G = (rng.standard_normal((P, N)) * 0.01).astype(np.float32)
        G[:, :64] = 0.0
        G[:, 64:70] = -0.0
        where = f"{cell} iter {iteration}"
        want = [oracle.qsgd_compress(c, row.copy()) for c, row in zip(expected, G)]
        payloads, contexts = type(bank[0]).compress_batch(bank, G.copy())
        for p in range(P):
            assert_bits_equal(want[p][0], payloads[p], f"{where}: payload {p}")
            assert {k: contexts[p][k] for k in public(contexts[p])} == want[p][1]
            if cell["error_feedback"]:
                assert_bits_equal(expected[p]._residual, bank[p]._residual,
                                  f"{where}: residual {p}")
            assert expected[p].rng.bit_generator.state == bank[p].rng.bit_generator.state
        own = np.stack([oracle.qsgd_decompress_gathered(c, [payload], ctx)
                        for c, (payload, ctx) in zip(expected, want)])
        assert_bits_equal(own, type(bank[0]).decompress_each(bank, payloads, contexts),
                          f"{where}: one-payload decode")
        mean = oracle.qsgd_decompress_gathered(expected[0], [w[0] for w in want], want[0][1])
        gathered = [[np.asarray(p).copy() for p in payloads]] * P
        decoded = type(bank[0]).decompress_batch(bank, gathered, contexts)
        for p in range(P):
            assert_bits_equal(mean, decoded[p], f"{where}: mean row {p}")


def test_qsgd_one_payload_decode_with_an_underflowing_scale_matches_the_oracle():
    """A bucket norm whose ``norm / levels`` underflows (no norm the kernel
    computes is that small, but a payload can carry one) still decodes to
    the float64 product's float32 rounding."""
    compressor = get_compressor("qsgd", levels=16, bucket_size=64)
    levels = np.random.default_rng(3).integers(-16, 17, 70).astype(np.float64)
    payload = np.concatenate([[2.0], [np.float32(1.5e-37), np.float32(0.5)], levels])
    want = oracle.qsgd_decompress_gathered(compressor, [payload], {"n": 70})
    got = type(compressor).decompress_each([compressor], [payload], [{"n": 70}])
    assert_bits_equal(want, got[0], "underflowing scale")


def test_qsgd_one_payload_decode_keeps_the_sign_of_zero_of_the_mean():
    """The mean of one payload starts from ``0.0``: a level times a zero norm
    decodes to ``+0.0``, whatever the level's sign."""
    compressor = get_compressor("qsgd", levels=16, bucket_size=4)
    payload = np.array([2.0, 0.0, 0.5, -1.0, -0.0, 0.0, 2.0, -3.0, 0.0, 1.0, -2.0])
    want = oracle.qsgd_decompress_gathered(compressor, [payload], {"n": 8})
    got = type(compressor).decompress_each([compressor], [payload], [{"n": 8}])
    assert_bits_equal(want, got[0], "signed zeros")
    assert not np.signbit(got[0][:4]).any()
