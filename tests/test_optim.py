import numpy as np
import pytest

from deepuzawa.optim import AdamState, adam_step


def test_adam_first_step_is_signed_unit_step():
    state = AdamState.fresh(4, lr=1e-3)
    params = np.zeros(4)
    grad = np.array([0.5, -2.0, 1e-3, -1e-6])
    new_state, new_params = adam_step(state, params, grad)
    expected = -state.lr * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(new_params, expected, rtol=1e-12)
    assert new_state.t == 1


def test_adam_zero_gradient_keeps_params():
    state = AdamState.fresh(3)
    params = np.array([1.0, -2.0, 3.0])
    _, new_params = adam_step(state, params, np.zeros(3))
    assert np.array_equal(new_params, params)


def test_adam_deterministic():
    state = AdamState.fresh(5)
    params = np.linspace(-1, 1, 5)
    grad = np.linspace(1, 2, 5)
    out1 = adam_step(state, params, grad)
    out2 = adam_step(state, params, grad)
    assert np.array_equal(out1[1], out2[1])
    assert np.array_equal(out1[0].m, out2[0].m)


def test_adam_step_magnitude_bounded():
    # steady gradient scales keep each component's step within lr (plus a
    # little slack); the universal worst case is lr * (1 - b1) / sqrt(1 - b2)
    rng = np.random.default_rng(0)
    state = AdamState.fresh(50, lr=1e-3)
    params = rng.normal(size=50)
    base = rng.normal(size=50)
    for k in range(30):
        grad = base * rng.uniform(0.9, 1.1)
        new_state, new_params = adam_step(state, params, grad)
        step = np.abs(new_params - params)
        assert np.all(step <= state.lr * 1.1)
        state, params = new_state, new_params


def test_adam_constant_gradient_step_is_lr():
    state = AdamState.fresh(3, lr=1e-3)
    params = np.zeros(3)
    grad = np.array([4.0, -0.5, 9.0])
    for _ in range(10):
        state, new_params = adam_step(state, params, grad)
        # constant gradient: m_hat = g and v_hat = g^2 exactly
        assert np.allclose(np.abs(new_params - params),
                           state.lr * np.abs(grad) / (np.abs(grad) + 1e-8), rtol=1e-12)
        params = new_params


def test_adam_shape_mismatch():
    state = AdamState.fresh(3)
    with pytest.raises(ValueError,
                       match=r"mismatched shapes: params \(4,\), grad \(4,\), state \(3,\)"):
        adam_step(state, np.zeros(4), np.zeros(4))
