"""Shared fixtures: the expensive solves run once per session."""

import numpy as np
import pytest

import polaron as pl

# default and refinement resolutions used throughout the suite
DEFAULT_GRID = (3000, 30.0)
FINE_GRID = (6000, 40.0)
MOMENTUM_GRID = (4000, 10.0)


def gregory(y):
    """ỹ_l = (−y_{l−1} + 14 y_l − y_{l+1})/12 on nodes 1..n, y_0 = y_{n+1} = 0: the
    trapezoid rule on ỹ subtracts Euler–Maclaurin's (h²/12)[F′] at both limits."""
    return np.convolve(y, [-1.0, 14.0, -1.0])[1:-1] / 12.0


def trapezoid_weights(grid):
    """The trapezoid rule from p = 0 at nodes 1..n: h, ..., h, h/2 (the origin's h/2
    goes with the integrand's p = 0 limit)."""
    w = np.full(grid.n, grid.h)
    w[-1] = grid.h / 2
    return w


def trapezoid_primitive(grid, y):
    """A[m] = ∫_0^{mh} on m = 0..n by the trapezoid rule through y_0 = 0, A[0] = 0."""
    return np.concatenate(([0.0], grid.h * (np.cumsum(y) - y / 2)))


def psi_distance(a, b):
    """3d L² distance of the profiles of two states on one grid."""
    diff = a.psi.values - b.psi.values
    return np.sqrt(pl.integrate_3d(a.psi.with_values(diff**2)))


@pytest.fixture(scope="session")
def state_default():
    return pl.solve_pekar(pl.SolverOptions(grid=DEFAULT_GRID))


@pytest.fixture(scope="session")
def state_fine():
    return pl.solve_pekar(pl.SolverOptions(grid=FINE_GRID))


@pytest.fixture(scope="session")
def mp_default(state_default):
    return pl.momentum_profile(state_default, pl.build_grid(*MOMENTUM_GRID))


@pytest.fixture(scope="session")
def mp_fine(state_fine):
    return pl.momentum_profile(state_fine, pl.build_grid(*MOMENTUM_GRID))


@pytest.fixture(scope="session")
def flow_pairs(state_default, state_fine):
    """(flow oracle state, SCF state) on the default and on the fine grid."""
    return [(pl.imaginary_time_oracle(pl.SolverOptions(grid=grid)), scf)
            for grid, scf in ((DEFAULT_GRID, state_default), (FINE_GRID, state_fine))]


@pytest.fixture(scope="session")
def gaussian_impostor_state():
    """Normalized Gaussian packaged as a PekarState; not a minimizer."""
    grid = pl.build_grid(*DEFAULT_GRID)
    r = grid.nodes
    psi_vals = np.pi**-0.75 * np.exp(-(r**2) / 2.0)
    psi = pl.RadialFunction(grid, psi_vals)
    nrm = np.sqrt(pl.integrate_3d(psi.with_values(psi_vals**2)))
    psi = psi.with_values(psi_vals / nrm)
    rho = psi.with_values(psi.values**2)
    dpsi = pl.radial_derivative(psi)
    T = pl.integrate_3d(dpsi.with_values(dpsi.values**2))
    D = pl.coulomb_bilinear(rho, rho)
    return pl.PekarState(psi=psi, rho=rho, T=T, D=D, eP=T - D, mu=2 * D - T,
                         iterations=0, residual=np.inf)
