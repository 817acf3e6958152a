import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepuzawa.geometry import Domain, build_grid, cutoff_jet, l2_norm


def test_unit_interval_grid_201():
    g = build_grid(Domain.unit_interval(), 201)
    assert g.n_points == 201
    assert np.isclose(g.points[1, 0] - g.points[0, 0], 1 / 200)
    assert abs(g.weights.sum() - 1.0) <= 1e-12


def test_three_point_grid_weights():
    g = build_grid(Domain.unit_interval(), 3)
    assert np.allclose(g.points[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(g.weights, [0.25, 0.5, 0.25])


def test_2d_grid_900_points():
    g = build_grid(Domain.unit_square(), 30)
    assert g.n_points == 900
    assert abs(g.weights.sum() - 1.0) <= 1e-12
    assert g.n_interior == 28 * 28


def test_grid_too_small():
    with pytest.raises(ValueError, match="need at least 3 points per axis, got 2"):
        build_grid(Domain.unit_interval(), 2)


def test_interior_mask_exactly_boundary():
    g = build_grid(Domain.unit_square(), 7)
    on_boundary = ((g.points[:, 0] == 0) | (g.points[:, 0] == 1)
                   | (g.points[:, 1] == 0) | (g.points[:, 1] == 1))
    assert np.array_equal(~g.interior_mask, on_boundary)


def test_quadrature_constant_and_linear():
    g = build_grid(Domain.unit_interval(), 201)
    assert np.dot(g.weights, np.ones(201)) == pytest.approx(1.0, abs=1e-14)
    # trapezoid is exact for linears
    assert np.dot(g.weights, g.points[:, 0]) == pytest.approx(0.5, abs=1e-14)


def test_quadrature_sin_squared():
    g = build_grid(Domain.unit_interval(), 201)
    val = np.dot(g.weights, np.sin(np.pi * g.points[:, 0]) ** 2)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_quadrature_shape_mismatch():
    g = build_grid(Domain.unit_interval(), 11)
    with pytest.raises(ValueError, match=r"field has shape \(10,\), expected \(11,\)"):
        l2_norm(g, np.ones(10))


@settings(max_examples=30, deadline=None)
@given(st.floats(-4, 4), st.integers(0, 1000))
def test_quadrature_linearity(scale, seed):
    g = build_grid(Domain.unit_interval(), 33)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=33)
    b = rng.normal(size=33)
    lhs = np.dot(g.weights, scale * a + b)
    rhs = scale * np.dot(g.weights, a) + np.dot(g.weights, b)
    assert lhs == pytest.approx(rhs, abs=1e-13, rel=1e-13)


def test_trapezoid_second_order_convergence():
    # sin^2(pi x) happens to be integrated exactly on [0, 1] (its cosine
    # component aliases to zero on uniform grids), so probe the O(h^2) rate
    # with a non-periodic integrand instead
    dom = Domain.unit_interval()
    exact = np.e - 1.0
    errs = []
    for n in (51, 101, 201):
        g = build_grid(dom, n)
        errs.append(abs(np.dot(g.weights, np.exp(g.points[:, 0])) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_l2_norm_examples():
    g = build_grid(Domain.unit_interval(), 201)
    assert l2_norm(g, np.zeros(201)) == 0.0
    assert l2_norm(g, np.sin(np.pi * g.points[:, 0])) == pytest.approx(np.sqrt(0.5), abs=1e-4)
    assert l2_norm(g, np.full(201, 2.0)) == pytest.approx(2.0, abs=1e-12)


def cutoff_value(domain, point):
    return cutoff_jet(domain, point).b[0]


def test_boundary_cutoff_values():
    dom = Domain.unit_interval()
    assert cutoff_value(dom, [0.0]) == 0.0
    assert cutoff_value(dom, [1.0]) == 0.0
    assert cutoff_value(dom, [0.5]) == pytest.approx(1.0, abs=1e-15)
    dom2 = Domain.unit_square()
    assert cutoff_value(dom2, [0.5, 0.0]) == 0.0
    assert cutoff_value(dom2, [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)


def test_cutoff_zero_on_every_boundary_point():
    g = build_grid(Domain.unit_square(), 9)
    jet = g.cutoff
    assert np.all(jet.b[~g.interior_mask] == 0.0)
    assert np.all(jet.b[g.interior_mask] > 0.0)


@pytest.mark.parametrize("dim, n", [(1, 9), (2, 5)])
def test_grid_cutoff_is_computed_once_and_is_the_cutoff_jet(dim, n):
    g = build_grid(Domain(dim), n)
    assert g.cutoff is g.cutoff
    jet = cutoff_jet(g.domain, g.points)
    for name in ("b", "grad", "lap"):
        assert getattr(g.cutoff, name).tobytes() == getattr(jet, name).tobytes()


def test_cutoff_jet_derivatives_match_fd():
    dom = Domain.unit_square()
    pts = np.array([[0.3, 0.7], [0.55, 0.95], [0.0, 0.5]])
    jet = cutoff_jet(dom, pts)
    h = 1e-6
    for i, p in enumerate(pts):
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fd = (cutoff_value(dom, p + e) - cutoff_value(dom, p - e)) / (2 * h)
            assert jet.grad[i, ax] == pytest.approx(fd, abs=1e-8)
        lap_fd = 0.0
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            lap_fd += (cutoff_value(dom, p + e) - 2 * cutoff_value(dom, p)
                       + cutoff_value(dom, p - e)) / h**2
        assert jet.lap[i] == pytest.approx(lap_fd, rel=1e-4, abs=1e-4)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(0)
    with pytest.raises(ValueError):
        Domain(3)
    with pytest.raises(ValueError, match="points have dimension 2, domain has 1"):
        cutoff_jet(Domain.unit_interval(), [[0.5, 0.5]])
