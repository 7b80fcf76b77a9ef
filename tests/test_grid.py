import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polaron as pl


class TestBuildGrid:
    def test_uniform_partition(self):
        g = pl.build_grid(4, 1.0)
        assert np.allclose(g.nodes, [0.25, 0.5, 0.75, 1.0])
        assert g.h == 0.25

    @given(n=st.integers(min_value=2, max_value=5000),
           rmax=st.floats(min_value=1e-3, max_value=1e3))
    def test_weights_sum_to_rmax(self, n, rmax):
        # the trapezoid rule from the origin: h at nodes 1..n−1, h/2 at the last, and
        # the origin's h/2, which goes with the integrand's limit there
        g = pl.build_grid(n, rmax)
        assert abs(g.weights.sum() + g.h / 2 - rmax) <= 1e-12 * rmax
        assert np.all(g.weights[:-1] == g.h) and g.weights[-1] == g.h / 2

    @pytest.mark.parametrize("n,rmax", [(0, 1.0), (1, 1.0), (3, 0.0), (3, -2.0)])
    def test_invalid_arguments(self, n, rmax):
        with pytest.raises(ValueError):
            pl.build_grid(n, rmax)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError):
            pl.build_grid(3.5, 1.0)

    def test_nodes_strictly_increasing_positive(self):
        g = pl.build_grid(100, 7.0)
        assert np.all(g.nodes > 0)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.allclose(np.diff(g.nodes), g.h, rtol=0, atol=1e-15)


class TestRadialFunction:
    def test_rejects_nan(self):
        g = pl.build_grid(8, 1.0)
        vals = np.ones(8)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            pl.RadialFunction(g, vals)

    def test_rejects_length_mismatch(self):
        g = pl.build_grid(8, 1.0)
        with pytest.raises(ValueError):
            pl.RadialFunction(g, np.ones(9))


class TestIntegrate3d:
    def test_unit_ball_volume(self):
        g = pl.build_grid(4000, 1.0)
        f = pl.RadialFunction(g, np.ones(g.n))
        assert abs(pl.integrate_3d(f) - 4 * np.pi / 3) < 1e-6

    def test_normalized_gaussian(self):
        g = pl.build_grid(6000, 10.0)
        f = pl.RadialFunction(g, np.pi**-1.5 * np.exp(-g.nodes**2))
        assert abs(pl.integrate_3d(f) - 1.0) < 1e-8

    def test_gamma_integral(self):
        # 4π ∫ r⁴ e^{-r} dr = 4π · Γ(5) = 96π
        g = pl.build_grid(4000, 40.0)
        f = pl.RadialFunction(g, g.nodes**2 * np.exp(-g.nodes))
        assert abs(pl.integrate_3d(f) - 96 * np.pi) < 1e-6 * 96 * np.pi

    def test_second_order_refinement(self):
        # error drops at least quadratically when the grid is refined 2x
        exact = 96 * np.pi
        errs = []
        for n in (250, 500, 1000):
            g = pl.build_grid(n, 40.0)
            f = pl.RadialFunction(g, g.nodes**2 * np.exp(-g.nodes))
            errs.append(abs(pl.integrate_3d(f) - exact))
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5


class TestRadialDerivative:
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3))
    @settings(max_examples=30)
    def test_exact_on_quadratics(self, a, b, c):
        g = pl.build_grid(64, 2.0)
        r = g.nodes
        f = pl.RadialFunction(g, a * r**2 + b * r + c)
        d = pl.radial_derivative(f)
        assert np.allclose(d.values, 2 * a * r + b, rtol=0, atol=1e-10)

    @given(coef=st.lists(st.floats(-3, 3), min_size=5, max_size=5))
    @settings(max_examples=30)
    def test_exact_on_quartics(self, coef):
        # every node, the two first and the two last with their one-sided stencils
        # included, on the fewest nodes the stencils need
        for n in (5, 6, 64):
            g = pl.build_grid(n, 2.0)
            poly = np.polynomial.Polynomial(coef)
            d = pl.radial_derivative(pl.RadialFunction(g, poly(g.nodes)))
            assert np.allclose(d.values, poly.deriv()(g.nodes), rtol=0, atol=1e-9)

    def test_constant_gives_zero(self):
        g = pl.build_grid(50, 3.0)
        d = pl.radial_derivative(pl.RadialFunction(g, np.full(50, 2.5)))
        assert np.all(d.values == 0.0)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (250, 500, 1000):
            g = pl.build_grid(n, 10.0)
            d = pl.radial_derivative(pl.RadialFunction(g, np.exp(-g.nodes)))
            errs.append(np.abs(d.values + np.exp(-g.nodes)).max())
        assert 14.0 < errs[0] / errs[1] < 18.0
        assert 14.0 < errs[1] / errs[2] < 18.0

    def test_too_few_nodes(self):
        g = pl.build_grid(4, 1.0)
        with pytest.raises(ValueError):
            pl.radial_derivative(pl.RadialFunction(g, np.ones(4)))
