"""Tests for the Module/Parameter infrastructure."""

import importlib
import pkgutil

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, functional as F


def build_small_mlp() -> nn.Module:
    return nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))


class TestParameterRegistration:
    def test_parameters_registered_in_order(self):
        layer = nn.Linear(3, 2)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_module_names(self):
        model = build_small_mlp()
        names = [name for name, _ in model.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_num_parameters(self):
        model = build_small_mlp()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_parameters_are_parameter_instances(self):
        for p in build_small_mlp().parameters():
            assert isinstance(p, nn.Parameter)
            assert p.requires_grad

    def test_buffers_not_in_parameters(self):
        bn = nn.BatchNorm1d(4)
        param_names = {name for name, _ in bn.named_parameters()}
        assert param_names == {"weight", "bias"}
        buffer_names = {name for name, _ in bn.named_buffers()}
        assert buffer_names == {"running_mean", "running_var"}

    def test_modules_iteration(self):
        model = build_small_mlp()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds[0] == "Sequential"
        assert "Linear" in kinds and "ReLU" in kinds


class TestModuleState:
    def test_zero_grad_clears_all(self):
        model = build_small_mlp()
        out = model(Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_recursive(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self):
        model_a = build_small_mlp()
        model_b = build_small_mlp()
        # Perturb B so the load is observable.
        for p in model_b.parameters():
            p.data += 1.0
        model_b.load_state_dict(model_a.state_dict())
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_returns_copies(self):
        model = build_small_mlp()
        state = model.state_dict()
        state["0.weight"][...] = 99.0
        assert not np.allclose(model.parameters()[0].data, 99.0)

    def test_load_state_dict_shape_mismatch(self):
        model = build_small_mlp()
        state = model.state_dict()
        state["0.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_unknown_key(self):
        model = build_small_mlp()
        with pytest.raises(KeyError):
            model.load_state_dict({"nonexistent": np.zeros(1)})

    def test_batchnorm_buffer_roundtrip(self):
        bn_a = nn.BatchNorm1d(3)
        bn_a(Tensor(np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32)))
        state = bn_a.state_dict()
        bn_b = nn.BatchNorm1d(3)
        bn_b.load_state_dict(state)
        np.testing.assert_allclose(bn_b._buffers["running_mean"], bn_a._buffers["running_mean"])


class TestSequential:
    def test_forward_chains_layers(self):
        model = build_small_mlp()
        out = model(Tensor(np.ones((3, 4), dtype=np.float32)))
        assert out.shape == (3, 2)

    def test_len_getitem_iter(self):
        model = build_small_mlp()
        assert len(model) == 3
        assert isinstance(model[0], nn.Linear)
        assert [type(m).__name__ for m in model] == ["Linear", "ReLU", "Linear"]

    def test_append(self):
        model = nn.Sequential(nn.Linear(2, 2))
        model.append(nn.ReLU())
        assert len(model) == 2
        assert len(model.parameters()) == 2


class TestOneForwardPerModule:
    """A layer or model implements ``forward_batched``; ``forward`` is the
    base class's stack of one."""

    def test_no_class_defines_both_bodies(self):
        import repro.models
        both = set()
        for package in (nn, repro.models):
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
                for cls in vars(importlib.import_module(info.name)).values():
                    if (isinstance(cls, type) and issubclass(cls, nn.Module)
                            and "forward" in vars(cls) and hasattr(cls, "forward_batched")):
                        both.add(cls.__name__)
        assert both == {"Sequential"}

    def test_forward_only_layer_runs_inside_sequential(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.Dropout(0.5, rng=np.random.default_rng(0)),
                              nn.ReLU(), nn.Linear(8, 2))
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        dropped = F.dropout(model[0](x), 0.5, np.random.default_rng(0))
        expected = model[3](model[2](dropped))
        np.testing.assert_array_equal(model(x).data, expected.data)

    def test_a_module_without_either_body_raises(self):
        with pytest.raises(NotImplementedError, match="neither forward nor forward_batched"):
            nn.Module()(Tensor(np.ones(2, dtype=np.float32)))
