import numpy as np
import pytest

from deepuzawa.optim import AdamState, adam_step

# every test compares the vector adam_step wrote in place with a copy taken before the step


def test_adam_first_step_is_signed_unit_step():
    state = AdamState.fresh(4, lr=1e-3)
    params = np.zeros(4)
    grad = np.array([0.5, -2.0, 1e-3, -1e-6])
    assert adam_step(state, params, grad) is None
    expected = -state.lr * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(params, expected, rtol=1e-12)
    assert state.t == 1


def test_adam_state_needs_its_rate_and_scratch():
    # a state without scratch vectors could not take a step
    with pytest.raises(TypeError):
        AdamState(np.zeros(3), np.zeros(3), 0)


def test_adam_zero_gradient_keeps_params():
    state = AdamState.fresh(3)
    params = np.array([1.0, -2.0, 3.0])
    before = params.copy()
    adam_step(state, params, np.zeros(3))
    assert np.array_equal(params, before)


def test_adam_deterministic():
    params = np.linspace(-1, 1, 5)
    grad = np.linspace(1, 2, 5)
    runs = []
    for _ in range(2):
        p = params.copy()
        state = AdamState.fresh(5)
        adam_step(state, p, grad.copy())
        runs.append((state, p))
    (s1, p1), (s2, p2) = runs
    assert not np.array_equal(p1, params)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)


def test_adam_step_magnitude_bounded():
    # steady gradient scales keep each component's step within lr (plus a
    # little slack); the universal worst case is lr * (1 - b1) / sqrt(1 - b2)
    rng = np.random.default_rng(0)
    state = AdamState.fresh(50, lr=1e-3)
    params = rng.normal(size=50)
    base = rng.normal(size=50)
    for k in range(30):
        grad = base * rng.uniform(0.9, 1.1)
        before = params.copy()
        adam_step(state, params, grad)
        step = np.abs(params - before)
        assert np.all(step > 0)
        assert np.all(step <= state.lr * 1.1)


def test_adam_constant_gradient_step_is_lr():
    state = AdamState.fresh(3, lr=1e-3)
    params = np.zeros(3)
    grad = np.array([4.0, -0.5, 9.0])
    for _ in range(10):
        before = params.copy()
        adam_step(state, params, grad)
        # constant gradient: m_hat = g and v_hat = g^2 exactly
        assert np.allclose(np.abs(params - before),
                           state.lr * np.abs(grad) / (np.abs(grad) + 1e-8), rtol=1e-12)


def test_adam_in_place_steps_are_bitwise_the_textbook_update():
    # the textbook expression, evaluated left to right, with new arrays each
    # step; the one state object holds the moments and the step count
    rng = np.random.default_rng(3)
    n, lr = 40, 2e-3
    state = AdamState.fresh(n, lr=lr)
    params = rng.normal(size=n)
    m, v, ref = np.zeros(n), np.zeros(n), params.copy()
    m_id, v_id = id(state.m), id(state.v)
    for t in range(1, 51):
        grad = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        adam_step(state, params, grad)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state.t == t
        assert np.array_equal(params, ref)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert (id(state.m), id(state.v)) == (m_id, v_id)


def test_adam_shape_mismatch():
    state = AdamState.fresh(3)
    with pytest.raises(ValueError,
                       match=r"mismatched shapes: params \(4,\), grad \(4,\), state \(3,\)"):
        adam_step(state, np.zeros(4), np.zeros(4))
