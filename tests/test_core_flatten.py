"""Tests for gradient/parameter flattening."""

import numpy as np
import pytest

from repro import nn
from repro.core.flatten import (
    flatten_gradients,
    flatten_parameters,
    unflatten_into_gradients,
    unflatten_into_parameters,
)
from repro.tensor import Tensor


def small_model() -> nn.Module:
    return nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))


class TestFlattening:
    def test_flatten_parameters_length(self):
        model = small_model()
        flat = flatten_parameters(model)
        assert flat.shape == (model.num_parameters(),)
        assert flat.dtype == np.float32

    def test_flatten_gradients_requires_backward(self):
        model = small_model()
        with pytest.raises(ValueError):
            flatten_gradients(model, missing_as_zero=False)

    def test_missing_gradients_become_zeros(self):
        model = small_model()
        flat = flatten_gradients(model, missing_as_zero=True)
        np.testing.assert_array_equal(flat, np.zeros(model.num_parameters()))

    def test_flatten_gradients_after_backward(self, rng):
        model = small_model()
        out = model(Tensor(rng.standard_normal((5, 3)).astype(np.float32)))
        out.sum().backward()
        flat = flatten_gradients(model)
        assert flat.shape == (model.num_parameters(),)
        assert np.abs(flat).sum() > 0

    def test_order_matches_named_parameters(self, rng):
        model = small_model()
        out = model(Tensor(rng.standard_normal((2, 3)).astype(np.float32)))
        out.sum().backward()
        flat = flatten_gradients(model)
        first = model.parameters()[0]
        np.testing.assert_array_equal(flat[:first.size], first.grad.reshape(-1))

    def test_unflatten_into_gradients_roundtrip(self, rng):
        model = small_model()
        vector = rng.standard_normal(model.num_parameters()).astype(np.float32)
        unflatten_into_gradients(model, vector)
        np.testing.assert_allclose(flatten_gradients(model), vector)

    def test_unflatten_parameters_roundtrip(self, rng):
        model = small_model()
        vector = rng.standard_normal(model.num_parameters()).astype(np.float32)
        unflatten_into_parameters(model, vector)
        np.testing.assert_allclose(flatten_parameters(model), vector)

    def test_unflatten_wrong_length_raises(self):
        model = small_model()
        with pytest.raises(ValueError):
            unflatten_into_gradients(model, np.zeros(3))
        with pytest.raises(ValueError):
            unflatten_into_parameters(model, np.zeros(model.num_parameters() + 1))
