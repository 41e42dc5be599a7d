"""Tests for the four evaluation models and the model registry."""

import numpy as np
import pytest

from repro.models import (
    FNN3,
    LSTMLanguageModel,
    MODEL_REGISTRY,
    PAPER_PARAMETER_COUNTS,
    ResNet,
    ResNet20,
    VGG16,
    build_model,
    get_model_spec,
    list_models,
)
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import no_grad
from tests.reference_forward import cross_entropy as reference_cross_entropy
from tests.reference_forward import reference_forward


class TestFNN3:
    def test_paper_size_parameter_count_close_to_table1(self):
        model = FNN3(input_dim=784, hidden_dims=(174, 174, 174), num_classes=10)
        count = model.num_parameters()
        paper = PAPER_PARAMETER_COUNTS["fnn3"]
        assert abs(count - paper) / paper < 0.005

    def test_forward_shape(self, rng):
        model = FNN3(input_dim=64, hidden_dims=(16, 16, 16))
        out = model(Tensor(rng.standard_normal((5, 64)).astype(np.float32)))
        assert out.shape == (5, 10)

    def test_accepts_image_shaped_input(self, rng):
        model = FNN3(input_dim=64, hidden_dims=(8, 8, 8))
        out = model(Tensor(rng.standard_normal((3, 1, 8, 8)).astype(np.float32)))
        assert out.shape == (3, 10)

    def test_requires_three_hidden_layers(self):
        with pytest.raises(ValueError):
            FNN3(hidden_dims=(10, 10))

    def test_same_seed_same_weights(self):
        a = FNN3(input_dim=16, hidden_dims=(4, 4, 4), seed=3)
        b = FNN3(input_dim=16, hidden_dims=(4, 4, 4), seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = FNN3(input_dim=16, hidden_dims=(4, 4, 4), seed=1)
        b = FNN3(input_dim=16, hidden_dims=(4, 4, 4), seed=2)
        assert not np.allclose(a.parameters()[0].data, b.parameters()[0].data)


class TestResNet:
    def test_resnet20_depth_and_param_count(self):
        model = ResNet20()
        assert model.depth == 20
        paper = PAPER_PARAMETER_COUNTS["resnet20"]
        # The CIFAR ResNet-20 has ~0.27 M parameters; allow a few percent for
        # shortcut/BatchNorm accounting differences.
        assert abs(model.num_parameters() - paper) / paper < 0.05

    def test_tiny_forward_backward(self, rng):
        model = ResNet(blocks_per_stage=1, base_channels=(4, 8, 16))
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        out = model(x)
        assert out.shape == (2, 10)
        loss = F.cross_entropy(out, np.array([1, 2]))
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_stage_downsampling_halves_resolution(self, rng):
        model = ResNet(blocks_per_stage=1, base_channels=(4, 8, 16))
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        out = model.bn1(model.conv1(x)).relu()
        out = model.stage1(out)
        assert out.shape[2:] == (16, 16)
        out = model.stage2(out)
        assert out.shape[2:] == (8, 8)
        out = model.stage3(out)
        assert out.shape[2:] == (4, 4)

    def test_requires_three_stage_widths(self):
        with pytest.raises(ValueError):
            ResNet(base_channels=(16, 32))


class TestVGG16:
    def test_paper_size_parameter_count(self):
        model = VGG16(width_multiplier=1.0)
        paper = PAPER_PARAMETER_COUNTS["vgg16"]
        assert abs(model.num_parameters() - paper) / paper < 0.02

    def test_tiny_forward_shape(self, rng):
        model = VGG16(width_multiplier=0.0625)
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        assert model(x).shape == (2, 10)

    def test_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            VGG16(image_size=20)

    def test_width_multiplier_scales_parameters(self):
        small = VGG16(width_multiplier=0.0625).num_parameters()
        smaller = VGG16(width_multiplier=0.03125).num_parameters()
        assert smaller < small


class TestLSTMLanguageModel:
    def test_paper_size_parameter_count(self):
        # Constructing the 66M-parameter model allocates ~260 MB; verify the
        # analytic count instead of instantiating it.
        vocab, d, h = 10000, 1500, 1500
        embedding = vocab * d
        lstm_layer1 = 4 * h * (d + h) + 8 * h
        lstm_layer2 = 4 * h * (h + h) + 8 * h
        decoder = h * vocab + vocab
        total = embedding + lstm_layer1 + lstm_layer2 + decoder
        paper = PAPER_PARAMETER_COUNTS["lstm_ptb"]
        assert abs(total - paper) / paper < 0.01

    def test_tiny_forward_and_state(self, rng):
        model = LSTMLanguageModel(vocab_size=50, embedding_dim=8, hidden_size=8, num_layers=1)
        tokens = rng.integers(0, 50, size=(5, 3))
        logits, state = model(tokens)
        assert logits.shape == (15, 50)
        assert len(state) == 1
        logits2, _ = model(tokens, state)
        assert logits2.shape == (15, 50)

    def test_rejects_one_dimensional_tokens(self, rng):
        model = LSTMLanguageModel(vocab_size=20, embedding_dim=4, hidden_size=4)
        with pytest.raises(ValueError):
            model(rng.integers(0, 20, size=10))

    def test_detach_state(self, rng):
        model = LSTMLanguageModel(vocab_size=20, embedding_dim=4, hidden_size=4)
        _, state = model(rng.integers(0, 20, size=(3, 2)))
        detached = model.detach_state(state)
        assert all(not h.requires_grad for h, _ in detached)

    def test_perplexity_conversion(self):
        assert LSTMLanguageModel.perplexity(0.0) == pytest.approx(1.0)
        assert LSTMLanguageModel.perplexity(np.log(100.0)) == pytest.approx(100.0, rel=1e-5)
        # Clamped to avoid overflow for divergent losses.
        assert np.isfinite(LSTMLanguageModel.perplexity(1000.0))


class TestRegistry:
    def test_list_models(self):
        assert set(list_models()) == {"fnn3", "vgg16", "resnet20", "lstm_ptb"}

    def test_every_registry_entry_is_buildable_tiny(self):
        for (name, preset), spec in MODEL_REGISTRY.items():
            if preset != "tiny":
                continue
            model = spec.build(seed=0)
            assert model.num_parameters() > 0

    def test_get_model_spec_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model_spec("alexnet")
        with pytest.raises(KeyError):
            get_model_spec("fnn3", "huge")

    def test_paper_specs_metadata_matches_table1(self):
        spec = get_model_spec("lstm_ptb", "paper")
        assert spec.batch_size == 128
        assert spec.base_lr == pytest.approx(22.0)
        assert spec.metric == "perplexity"
        assert spec.epochs == 100
        spec_vgg = get_model_spec("vgg16", "paper")
        assert "LARS" in spec_vgg.lr_policy
        assert spec_vgg.epochs == 150

    def test_build_model_helper(self):
        model = build_model("fnn3", "tiny", seed=1)
        assert model.num_parameters() > 0

    def test_tiny_presets_are_small(self):
        for name in list_models():
            tiny = get_model_spec(name, "tiny")
            assert tiny.build(seed=0).num_parameters() < 100_000


class TestForwardIsStackOfOne:
    """``model(...)`` is ``forward_batched`` over a stack of one: on every
    registered tiny model it equals the former per-replica bodies of
    ``tests/reference_forward.py`` bit for bit — logits, loss, every gradient
    and BatchNorm buffer over two training passes (two carried windows for
    the language model), then the eval logits under ``no_grad``."""

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)

    def assert_same(self, a, b):
        np.testing.assert_array_equal(self.bits(a), self.bits(b))

    @pytest.mark.parametrize("name", ["fnn3", "resnet20", "vgg16", "lstm_ptb"])
    def test_matches_reference_forward(self, name):
        spec = get_model_spec(name, "tiny")
        model, reference = spec.build(seed=0), spec.build(seed=0)
        rng = np.random.default_rng(7)
        language_model = spec.task == "language_model"

        def draw():
            if language_model:
                shape = (spec.input_shape[0], 3)
                return (rng.integers(0, spec.num_classes, size=shape),
                        rng.integers(0, spec.num_classes, size=shape).reshape(-1))
            return (Tensor(rng.standard_normal((4, *spec.input_shape)).astype(np.float32)),
                    rng.integers(0, spec.num_classes, size=4))

        states = [None, None]
        for _window in range(2):
            inputs, targets = draw()
            results = []
            for index, (net, forward, loss_fn) in enumerate((
                    (model, lambda m, *a: m(*a), F.cross_entropy),
                    (reference, reference_forward, reference_cross_entropy))):
                net.zero_grad()
                if language_model:
                    logits, state = forward(net, inputs, states[index])
                    states[index] = net.detach_state(state)
                else:
                    logits = forward(net, inputs)
                loss = loss_fn(logits, targets)
                loss.backward()
                results.append((logits.data, loss.data,
                                [p.grad for p in net.parameters()],
                                [b for _, b in net.named_buffers()]))
            (logits, loss, grads, buffers), (ref_logits, ref_loss, ref_grads, ref_buffers) = results
            self.assert_same(logits, ref_logits)
            self.assert_same(loss, ref_loss)
            for grad, ref_grad in zip(grads, ref_grads, strict=True):
                self.assert_same(grad, ref_grad)
            for buf, ref_buf in zip(buffers, ref_buffers, strict=True):
                self.assert_same(buf, ref_buf)
            if language_model:
                for (h, c), (ref_h, ref_c) in zip(*states, strict=True):
                    self.assert_same(h.data, ref_h.data)
                    self.assert_same(c.data, ref_c.data)

        model.eval()
        reference.eval()
        inputs, _ = draw()
        with no_grad():
            if language_model:
                (logits, state), (ref_logits, ref_state) = (
                    model(inputs, states[0]), reference_forward(reference, inputs, states[1]))
                for (h, c), (ref_h, ref_c) in zip(state, ref_state, strict=True):
                    self.assert_same(h.data, ref_h.data)
                    self.assert_same(c.data, ref_c.data)
            else:
                logits, ref_logits = model(inputs), reference_forward(reference, inputs)
        self.assert_same(logits.data, ref_logits.data)
