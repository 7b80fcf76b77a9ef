import ctypes
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import polaron as pl
from conftest import DEFAULT_GRID, psi_distance
from polaron import solver

# four-digit ground-state energy, locked against the imaginary-time flow on
# an independent grid plus refinement (see test_acceptance)
EP_REFERENCE = -0.1085


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol_psi": 0.0}, {"tol_psi": -1e-8}, {"tol_psi": -np.inf}, {"tol_psi": np.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            pl.SolverOptions(**kwargs)


class TestSolvePekar:
    def test_virial_identities(self, state_default):
        st = state_default
        assert abs(st.D - 2 * st.T) <= 1e-4 * abs(2 * st.T)
        assert abs(st.eP + st.T) <= 1e-4 * abs(st.T)
        assert abs(st.mu - 3 * st.T) <= 1e-4 * abs(3 * st.T)

    def test_energy_reference(self, state_default):
        assert abs(state_default.eP - EP_REFERENCE) < 5e-5

    def test_bookkeeping_exact(self, state_default):
        st = state_default
        assert st.eP == st.T - st.D
        assert st.mu == 2 * st.D - st.T
        # Lagrange multiplier λ = T − 2D is exactly −μ
        assert st.T - 2 * st.D == -st.mu
        assert st.D == pl.coulomb_bilinear(st.rho, st.rho)

    def test_state_invariants(self, state_default):
        st = state_default
        assert abs(pl.integrate_3d(st.rho) - 1.0) < 1e-8
        assert np.all(st.psi.values >= -1e-12)
        assert st.eP < 0

    def test_grid_stability(self, state_default, state_fine):
        rel = abs(state_fine.eP - state_default.eP) / abs(state_default.eP)
        assert rel < 1e-4

    def test_deterministic(self):
        opts = pl.SolverOptions(grid=(800, 20.0))
        a = pl.solve_pekar(opts)
        b = pl.solve_pekar(opts)
        assert a.eP == b.eP and a.T == b.T and a.D == b.D
        assert np.array_equal(a.psi.values, b.psi.values)
        assert a.iterations == b.iterations

    def test_gaussian_init_same_minimum(self, monkeypatch):
        # the minimum does not depend on the start: r e^{−r²/(9π)}, the
        # least-energy Gaussian, reaches the same eP
        def gaussian(grid):
            u = grid.nodes * np.exp(-grid.nodes**2 / (9.0 * np.pi))
            u[-1] = 0.0
            return u

        a = pl.solve_pekar(pl.SolverOptions(grid=(800, 20.0)))
        monkeypatch.setattr(solver, "_initial_u", gaussian)
        b = pl.solve_pekar(pl.SolverOptions(grid=(800, 20.0)))
        assert abs(a.eP - b.eP) < 1e-8

    def test_few_iterations(self, state_default, state_fine):
        small = pl.solve_pekar(pl.SolverOptions(grid=(800, 20.0)))
        assert max(st.iterations for st in (state_default, state_fine, small)) <= 6

    @staticmethod
    def _lapack_calls(monkeypatch, opts):
        """Factorizations (one per shift tried) and triangular solves made by
        the eigensteps of one solve."""
        calls = {"dpttrf": 0, "dpttrs": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(solver, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(solver, name, counted)
        pl.solve_pekar(opts)
        return calls["dpttrf"], calls["dpttrs"]

    def test_lapack_call_budget(self, monkeypatch):
        factors, solves = self._lapack_calls(monkeypatch, pl.SolverOptions(grid=DEFAULT_GRID))
        assert factors <= 2 and solves <= 2

    @pytest.mark.parametrize("grid, budget", [((3000, 30.0), 11), ((6000, 40.0), 13)],
                             ids=["3000/30", "6000/40"])
    def test_one_factorization_per_solve(self, monkeypatch, grid, budget):
        # at tol_psi 1e-12 the SCF takes 6 and 7 steps from a warm iterate,
        # whose shifts all pass at their first δ: each eigenstep pass factors
        # H − σI once and solves with it once, and no factorization goes unused
        factors, solves = self._lapack_calls(monkeypatch,
                                             pl.SolverOptions(grid=grid, tol_psi=1e-12))
        assert factors == solves <= budget

    def test_lapack_loader_has_no_fallback(self, monkeypatch):
        # a numpy whose LAPACK exports neither spelling fails, naming that LAPACK
        # and both symbols it looked for
        monkeypatch.setattr(solver, "_LAPACK_SPELLINGS", ("missing_{}_64_", "{}$MISSING"))
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        with pytest.raises(ImportError, match=re.escape(
                f"numpy's LAPACK ({lapack}) exports neither missing_dpttrf_64_ "
                "nor dpttrf$MISSING")):
            solver._lapack_routine(solver._numpy_lapack, "dpttrf")

    @pytest.mark.parametrize("d, e, b, error", [
        (np.full(3, 2, dtype=np.float32), np.full(2, -1.0), np.ones(3), ctypes.ArgumentError),
        (np.full((3, 1), 2.0), np.full(2, -1.0), np.ones(3), ctypes.ArgumentError),
        (np.full(3, 2.0), np.full(1, -1.0), np.ones(3), ValueError),
        (np.full(3, 2.0), np.full(2, -1.0), np.ones(4), ValueError),
        (np.empty(0), np.empty(0), np.empty(0), ValueError),
    ], ids=["float32", "2-d", "short e", "long b", "no node"])
    def test_lapack_wrappers_check_their_arrays(self, d, e, b, error):
        # no pointer reaches LAPACK for an array it would misread or overrun
        with pytest.raises(error):
            solver.dpttrs(*solver.dpttrf(d, e)[:2], b)

    def test_lapack_wrappers_copy_strided_input(self):
        # dpttrf copies its input, so a strided view factors as its contiguous copy
        d, e = np.full(6, 3.0), np.full(4, -1.0)
        strided = solver.dpttrf(d[::2], e[::2])
        contiguous = solver.dpttrf(d[::2].copy(), e[::2].copy())
        assert all(np.array_equal(a, b) for a, b in zip(strided, contiguous))

    def test_two_coulomb_solves_per_iteration(self, monkeypatch):
        # each step solves for the potential of the mixed input density and
        # for the energy of the output density
        calls = []
        original = pl.coulomb._newton_potential   # the array core every solve goes through

        def counted(grid, rho):
            calls.append(1)
            return original(grid, rho)

        for module in (solver, pl.coulomb):
            monkeypatch.setattr(module, "_newton_potential", counted)
        st = pl.solve_pekar(pl.SolverOptions(grid=(800, 20.0)))
        assert len(calls) == 2 * st.iterations

    def test_traced_memory_stays_in_the_density_history(self):
        # the mixer holds ρ_in, the residual, their previous values and two
        # histories of _DEPTH rows, all of ρ's length: about 32 n-doubles.  At
        # the default tol_psi the stored start converges in 1 step, so the
        # solve runs to 1e-12 to fill both histories
        n = 20000
        tracemalloc.start()
        try:
            st = pl.solve_pekar(pl.SolverOptions(grid=(n, 30.0), tol_psi=1e-12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.iterations > solver._DEPTH
        assert peak <= 36 * 8 * n

    def test_damping_does_not_move_the_fixed_point(self, monkeypatch):
        # the damping β sets the path to the fixed point, not the point,
        # which is why it is a constant and not an option
        eps = []
        for beta in (1e-3, 0.05, 0.5, 1.0):
            monkeypatch.setattr(solver, "_BETA", beta)
            eps.append(pl.solve_pekar(pl.SolverOptions(grid=(800, 20.0))).eP)
        assert max(eps) - min(eps) <= 1e-12

    def test_unmoved_density_is_not_converged(self, monkeypatch):
        # at β = 1e-300 the input density never moves and ψ stops changing;
        # only the self-consistency residual tells that apart from convergence
        monkeypatch.setattr(solver, "_BETA", 1e-300)
        with pytest.raises(pl.ConvergenceError, match="rho_out-rho_in"):
            pl.solve_pekar(pl.SolverOptions(grid=(800, 20.0)))

    def test_convergence_failure_carries_history(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 3)
        with pytest.raises(pl.ConvergenceError) as exc_info:
            pl.solve_pekar(pl.SolverOptions(grid=(400, 15.0)))
        assert len(exc_info.value.history) == 3


class TestAndersonGamma:
    def test_independent_rows_match_lstsq(self):
        rng = np.random.default_rng(7)
        dfw, fw = rng.standard_normal((3, 50)), rng.standard_normal(50)
        gamma = solver._anderson_gamma(list(dfw), fw)
        assert np.abs(gamma - np.linalg.lstsq(dfw.T, fw, rcond=None)[0]).max() <= 1e-12

    @staticmethod
    def _fit_residual(rows, fw, gamma):
        return np.linalg.norm(fw - np.asarray(rows).T @ gamma)

    def test_dependent_row_keeps_the_two_row_fit(self):
        # the third row lies in the span of the first two: the DIIS matrix is
        # singular, and γ still fits fw as well as the first two rows alone
        rng = np.random.default_rng(8)
        a, b, fw = rng.standard_normal((3, 50))
        gamma = solver._anderson_gamma([a, b, a + b], fw)
        assert np.isfinite(gamma).all()
        two = np.linalg.lstsq(np.stack([a, b]).T, fw, rcond=None)[0]
        best = self._fit_residual([a, b], fw, two)
        assert abs(self._fit_residual([a, b, a + b], fw, gamma) - best) <= 1e-12 * best

    def test_zero_row_and_empty_history(self):
        # a residual that did not change gives a zero row (as at β = 1e-300),
        # whose scale is set to 1 so that 0/0 never forms
        rng = np.random.default_rng(9)
        a, b, fw = rng.standard_normal((3, 50))
        with np.errstate(all="raise"):
            gamma = solver._anderson_gamma([a, np.zeros(50), b], fw)
            assert gamma[1] == 0.0
            assert solver._anderson_gamma([np.zeros(50)], fw).tolist() == [0.0]
            assert solver._anderson_gamma([], fw).shape == (0,)
        ab = np.linalg.lstsq(np.stack([a, b]).T, fw, rcond=None)[0]
        assert np.abs(gamma[[0, 2]] - ab).max() <= 1e-12

    def test_graded_rows_fit_as_well_as_unit_scaled_lstsq(self):
        # rows with norms from 1 to 1e-8 whose unit-scaled condition number is
        # 3e6: forming the normal equations squares it, and the unit scaling
        # keeps the fit within 1e-6 of least squares on the rows themselves
        # (worst seen 2.7e-8 over 1000 draws)
        m, n = 5, 200
        for seed in range(20):
            rng = np.random.default_rng(seed)
            unit = rng.standard_normal((m, n))
            for _ in range(4):   # rows of unit norm with singular values 1 … 1/3e6
                u, _, vt = np.linalg.svd(unit, full_matrices=False)
                unit = u @ np.diag(np.geomspace(1.0, 1 / 3e6, m)) @ vt
                unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            assert 2e6 <= np.linalg.cond(unit) <= 4e6
            fw = unit.T @ rng.standard_normal(m) + 1e-3 * rng.standard_normal(n)
            rows = unit * np.geomspace(1.0, 1e-8, m)[:, None]
            gamma = solver._anderson_gamma(list(rows), fw)
            best = self._fit_residual(unit, fw, np.linalg.lstsq(unit.T, fw, rcond=None)[0])
            assert self._fit_residual(rows, fw, gamma) <= best * (1 + 1e-6)


def _hydrogenic_u(grid):
    """r e^{−5r/16} with u = 0 at the wall, the flow oracle's start."""
    u = grid.nodes * np.exp(-5.0 * grid.nodes / 16.0)
    u[-1] = 0.0
    return u


def _continuum_u(grid):
    """r U(r), the start's continuum part alone, with u = 0 at the wall."""
    u = grid.nodes * sum(c * np.exp(solver._START_ALPHA[0] * grid.h**2 - a * grid.nodes**2)
                         for a, c in zip(solver._START_ALPHA, solver._START_C))
    u[-1] = 0.0
    return u


class TestInitialProfiles:
    """The SCF starts from stored fits of the grid's fixed point and its wall
    layer; the flow oracle from the least-energy hydrogenic profile."""

    @staticmethod
    def _energy(grid, u):
        T, D, _, _ = solver._energies(grid, solver._normalize_u(grid, u))
        return T - D

    def test_hydrogenic_start_near_its_family_minimum(self, monkeypatch):
        # E(β) = β² − 5β/8 for e^{−βr}: −25/256 at β = 5/16.  The flow's first
        # energy is that of its normalized start.
        energies = []
        original = solver._energies

        def recorded(grid, u):
            out = original(grid, u)
            energies.append(out[0] - out[1])
            return out

        monkeypatch.setattr(solver, "_energies", recorded)
        monkeypatch.setattr(solver, "_MAX_ITER", 1)
        with pytest.raises(pl.ConvergenceError):
            pl.imaginary_time_oracle(pl.SolverOptions(grid=DEFAULT_GRID))
        grid = pl.build_grid(*DEFAULT_GRID)
        assert energies[0] == self._energy(grid, _hydrogenic_u(grid))
        assert abs(energies[0] + 25 / 256) <= 1e-4

    def test_start_vanishes_at_the_wall(self):
        # a box that ends at r = 20, where the stored start is still 0.004
        assert solver._initial_u(pl.build_grid(500, 20.0))[-1] == 0.0

    def test_start_is_near_the_minimizer(self, state_default, state_fine):
        # measured: 7.1e-9 on 3000/30 and 4.3e-10 on 6000/40
        for st in (state_default, state_fine):
            grid = st.psi.grid
            u = solver._normalize_u(grid, solver._initial_u(grid))
            diff = u / grid.nodes - st.psi.values
            assert np.sqrt(pl.integrate_3d(st.psi.with_values(diff**2))) <= 2e-8

    def test_start_energy_just_above_the_minimum(self, state_default):
        # Variational check on the start's continuum part r U, 9e-6 from the
        # fixed point: no profile lies below eP, and its gap is quadratic in
        # that error (measured 5.2e-9).
        grid = state_default.psi.grid
        gap = self._energy(grid, _continuum_u(grid)) - state_default.eP
        assert 0.0 <= gap <= 1e-7
        # The full start is within 1e-8 of the fixed point, so its gap is no
        # longer its quadratic error (~1e-17) but the slope of T − D at the
        # fixed point: with the first node's weight 1.5h the SCF's fixed point
        # is not the stationary point of the discrete T − D, and the start's
        # energy lies 1.5e-13 below eP (with weight h there the slope falls
        # 20-fold).  So this gap is bounded on both sides.
        gap = self._energy(grid, solver._initial_u(grid)) - state_default.eP
        assert abs(gap) <= 1e-12

    def test_stored_coefficients_are_the_fit(self):
        # the recipe above the constants: Richardson's U, E and F from solves
        # on 9600, 19200 and 38400 nodes over rmax 48, then least squares in
        # the 3d L² weights √w·r at the stored α_k, scaled so that Σc = 1.
        # The refit sums match the stored ones (relative 3d L²) to 1.4e-11,
        # 1.4e-5 and 1.5e-2: E and F carry the solves' rounding times h⁻² and h⁻³
        states = [pl.solve_pekar(pl.SolverOptions(grid=(n, 48.0), tol_psi=1e-12))
                  for n in (9600, 19200, 38400)]
        grid = states[0].psi.grid
        psi = np.stack([st.psi.values[k - 1::k] for st, k in zip(states, (1, 2, 4))])
        h = grid.h / np.array([1.0, 2.0, 4.0])
        uef = np.linalg.solve(np.stack([h**0, h**2, h**3], axis=1), psi)
        sw = np.sqrt(grid.weights) * grid.nodes
        basis = np.exp(-np.outer(grid.nodes**2, solver._START_ALPHA)) * sw[:, None]
        fit = np.linalg.lstsq(basis, (sw * uef).T, rcond=None)[0].T
        fit /= fit[0].sum()
        for coef, stored, tol in ((fit[0], solver._START_C, 1e-9),
                                  (fit[1], solver._START_D, 1e-4),
                                  (fit[2], solver._START_E, 5e-2)):
            stored = basis @ np.array(stored)
            assert np.linalg.norm(basis @ coef - stored) <= tol * np.linalg.norm(stored)

    def test_start_is_positive_on_the_coarsest_grid(self):
        # on the coarsest grid the config accepts (h = 300) e^{−α r²} underflows
        # at every node; the offset exponent keeps the first node positive
        u = solver._initial_u(pl.build_grid(2, 600.0))
        assert np.isfinite(u).all() and u[0] > 0.0 and u[1] == 0.0

    def test_h_terms_and_wall_layer_only_in_their_range(self):
        # r U(r) alone above h = 2.5, where the terms cost steps, and on boxes
        # too small for the wall layer (R/2 not past 2/μ_P, R ≤ 12.29); inside,
        # up to h = 2.5 (12 nodes on 30), the terms apply, and on grids as fine
        # as h = 0.1 the subtracted layer takes u to 0 at the wall and leaves it
        # positive before it
        for n, rmax in ((1000, 12.28), (800, 1e-3), (3000, 1e-7), (11, 30.0), (2, 600.0)):
            grid = pl.build_grid(n, rmax)
            assert np.allclose(solver._initial_u(grid), _continuum_u(grid), rtol=1e-14, atol=0.0)
        grid = pl.build_grid(12, 30.0)
        assert not np.allclose(solver._initial_u(grid), _continuum_u(grid), rtol=1e-3, atol=0.0)
        for n, rmax in (DEFAULT_GRID, (300, 30.0)):
            grid = pl.build_grid(n, rmax)
            u = solver._initial_u(grid)
            assert u[-1] == 0.0 and 0.0 < u[-2] < _continuum_u(grid)[-2]

    def test_scf_does_not_need_the_stored_start(self, monkeypatch, state_default):
        monkeypatch.setattr(solver, "_initial_u", _hydrogenic_u)
        st = pl.solve_pekar(pl.SolverOptions(grid=DEFAULT_GRID))
        assert abs(st.eP - state_default.eP) <= 1e-12 * abs(state_default.eP)
        assert st.iterations <= 11


class TestImaginaryTimeOracle:
    # the Sobolev-gradient flow against the SCF on the SCF's own grids; measured
    # 4.9e-14 and 3.6e-14 in eP, 1.4e-9 and 1.0e-9 in ψ (3d L²)
    def test_agrees_with_scf(self, flow_pairs):
        for flow, scf in flow_pairs:
            assert abs(flow.eP - scf.eP) <= 1e-11 * abs(scf.eP)

    def test_profiles_agree(self, flow_pairs):
        for flow, scf in flow_pairs:
            assert psi_distance(flow, scf) <= 1e-8

    def test_normalization_preserved(self, flow_pairs):
        for flow, _ in flow_pairs:
            assert abs(pl.integrate_3d(flow.rho) - 1.0) < 1e-10

    def test_monotone_flow_completes(self, flow_pairs):
        # the flow raises NumericalError on any energy increase beyond
        # 1e-12/step, so a returned state certifies monotonicity
        for flow, _ in flow_pairs:
            assert flow.eP < 0
            assert flow.residual <= solver._FLOW_TOL

    def test_step_count_is_pinned(self, flow_pairs):
        # the flow starts from r e^{−5r/16}, not the SCF's stored start, from
        # which it would stop after 21 and 3 gradients, near that start
        assert [flow.iterations for flow, _ in flow_pairs] == [236, 236]

    def test_energy_rise_raises(self):
        # with the first node's weight 1.5h, g is not the gradient of the
        # discrete T − D: on this coarse grid the energy rises at step 27
        with pytest.raises(pl.NumericalError, match="increased by .* at step 27 "):
            pl.imaginary_time_oracle(pl.SolverOptions(grid=(100, 6.0)))


class TestPositionResidual:
    def test_converged_state_small(self, state_default):
        assert pl.el_residual_position(state_default) <= 1e-6

    def test_impostor_large(self, gaussian_impostor_state):
        assert pl.el_residual_position(gaussian_impostor_state) > 1e-2

    def test_linear_scaling_in_perturbation(self, state_default):
        grid = state_default.psi.grid
        r = grid.nodes
        bump = np.exp(-((r - 5.0) ** 2))
        bump /= np.sqrt(pl.integrate_3d(pl.RadialFunction(grid, bump**2)))

        def residual_with(delta):
            psi_vals = state_default.psi.values + delta * bump
            psi_vals /= np.sqrt(pl.integrate_3d(pl.RadialFunction(grid, psi_vals**2)))
            psi = pl.RadialFunction(grid, psi_vals)
            rho = psi.with_values(psi.values**2)
            T = 4 * np.pi * grid.integrate(
                (r * psi_vals) * pl.solver._apply_kinetic(r * psi_vals, grid.h))
            D = pl.coulomb_bilinear(rho, rho)
            return pl.el_residual_position(pl.PekarState(
                psi=psi, rho=rho, T=T, D=D, eP=T - D, mu=2 * D - T,
                iterations=0, residual=0.0))

        r1 = residual_with(1e-3)
        r2 = residual_with(5e-4)
        assert 1.5 < r1 / r2 < 2.5


def _oracle_pairs(grid, w_pot, count):
    """The `count` lowest eigenpairs of H = −d²/dr² + W on the interior nodes,
    by LAPACK bisection and inverse iteration (stebz + stein).

    Each λ is the Rayleigh quotient of its vector with −d²/dr² summed as
    squared differences: stebz's own value carries an error of eps·‖H‖
    (≈ 1e-11 relative on the state grids), the quotient one of ~1e-15.
    """
    h = grid.h
    diag = 2.0 / h**2 + w_pot[:-1]
    off = np.full(grid.n - 2, -1.0 / h**2)
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    pairs = []
    for x in vecs.T:
        kinetic = np.sum(np.diff(np.concatenate(([0.0], x, [0.0])))**2) / h**2
        pairs.append((kinetic + w_pot[:-1] @ x**2, x))
    return pairs


def _state_potential(state):
    return state.psi.grid, -2.0 * pl.coulomb_potential(state.rho).values


def _random_potential(n, seed=5):
    grid = pl.build_grid(n, 5.0)
    return grid, -np.random.default_rng(seed).uniform(0.0, 20.0, n)


@pytest.fixture(scope="module")
def eigen_cases(state_default, state_fine):
    """(label, grid, W, warm guess) on the two state grids and seeded random
    potentials, including one and two interior nodes (grid.n 2 and 3)."""
    cases = [(f"state{s.psi.grid.n}", *_state_potential(s), s.psi.grid.nodes * s.psi.values)
             for s in (state_default, state_fine)]
    for n in (2, 3, 7, 400):
        grid, w = _random_potential(n)
        cases.append((f"random{n}", grid, w, None))
    return cases


@pytest.mark.parametrize("guess", ["warm", "initial", "excited"])
def test_ground_pair_matches_eigh_oracle(eigen_cases, guess):
    """From a warm iterate, the SCF's starting profile or the oracle's first
    excited vector, the eigenstep returns the lowest pair."""
    checked = 0
    for label, grid, w, warm in eigen_cases:
        pairs = _oracle_pairs(grid, w, min(2, grid.n - 1))
        if guess == "warm":
            if warm is None:
                continue
            u0 = warm
        elif guess == "initial":
            u0 = solver._initial_u(grid)
        else:
            if len(pairs) < 2:
                continue
            u0 = np.append(pairs[1][1], 0.0)
        lam, u = solver._ground_pair(grid, w, u0)
        lam0, x0 = pairs[0]
        assert abs(lam - lam0) <= 1e-12 * abs(lam0), label
        assert u[-1] == 0.0 and abs(np.linalg.norm(u) - 1.0) <= 1e-14, label
        x = np.sign(u[:-1] @ x0) * u[:-1]
        assert np.max(np.abs(x - x0)) <= 1e-9, label
        checked += 1
    assert checked >= 2


def test_ground_pair_keeps_a_settled_iterate(state_default):
    # once its unit normalization has settled (one call), the returned vector
    # comes back bit for bit, so the SCF can reach an exact fixed point where
    # its energy change is below rounding; a solve would move it in the last
    # digits on every call
    grid, w = _state_potential(state_default)
    u = grid.nodes * state_default.psi.values
    for _ in range(2):
        _, u = solver._ground_pair(grid, w, u)
    assert np.array_equal(solver._ground_pair(grid, w, u)[1], u)


def test_ground_pair_on_a_density_with_a_negative_tail(state_default):
    # a mixed density can dip below zero where ρ is tiny; its potential still
    # gives a finite W, whose lowest pair the eigenstep must find
    grid = state_default.psi.grid
    rho = state_default.rho.values.copy()
    tail = grid.nodes > 12.0
    rho[tail] = -1e-4 * np.abs(np.sin(7.0 * grid.nodes[tail])) * rho[tail].max()
    assert rho.min() < 0.0
    w = -2.0 * pl.coulomb_potential(pl.RadialFunction(grid, rho)).values
    lam0, x0 = _oracle_pairs(grid, w, 1)[0]
    for u0 in (grid.nodes * state_default.psi.values, solver._initial_u(grid)):
        lam, u = solver._ground_pair(grid, w, u0)
        assert abs(lam - lam0) <= 1e-12 * abs(lam0)
        x = np.sign(u[:-1] @ x0) * u[:-1]
        assert np.max(np.abs(x - x0)) <= 1e-9


def test_ground_pair_rejects_non_finite_input():
    grid, w = _random_potential(50)
    u = solver._initial_u(grid)
    for bad_w, bad_u in ((np.where(grid.nodes > 2.0, np.nan, w), u),
                         (w, np.where(grid.nodes > 2.0, np.inf, u))):
        with pytest.raises(pl.NumericalError, match="non-finite"):
            solver._ground_pair(grid, bad_w, bad_u)


# (800, 1e-3) is a box so small that a converged vector's residual
# (~eps‖H‖/4) falls below the rounding of the LDLᵀ pivots
@pytest.mark.parametrize("grid", [(800, 20.0), (800, 1e-3), (3000, 1e-7)])
def test_scf_matches_eigh_driven_scf(monkeypatch, grid):
    """The warm-started eigenstep leaves the SCF trajectory where an SCF that
    solves each step's pair with the dense-spectrum oracle puts it."""
    opts = pl.SolverOptions(grid=grid)
    fast = pl.solve_pekar(opts)

    def oracle_step(grid, w_pot, u):
        lam, x = _oracle_pairs(grid, w_pot, 1)[0]
        return lam, np.append(x, 0.0)

    monkeypatch.setattr(solver, "_ground_pair", oracle_step)
    ref = pl.solve_pekar(opts)
    assert fast.iterations == ref.iterations
    scale = np.max(np.abs(ref.psi.values))
    assert np.max(np.abs(fast.psi.values - ref.psi.values)) <= 1e-10 * scale
    assert abs(fast.eP - ref.eP) <= 1e-13 * abs(ref.eP)


def test_scf_stops_on_tol_psi_alone(state_default, state_fine):
    # the stop rule reads the change of ψ and the self-consistency residual
    # alone, so the tiny boxes (|E| ~ 1e7 and 1e15) stop once those settle,
    # not at an exact fixed point, and the default and fine solves, which
    # start within tol_psi of their fixed points, stop after one step
    assert pl.solve_pekar(pl.SolverOptions(grid=(800, 1e-3))).iterations <= 4
    assert pl.solve_pekar(pl.SolverOptions(grid=(3000, 1e-7))).iterations <= 3
    assert state_default.iterations == 1 and state_fine.iterations == 1


def test_scf_steps_below_the_eigenstep_resolution():
    # Below _STEP_TOL (1e-12) the eigenstep keeps a settled iterate, so ρ_out
    # stops following ρ_in and Anderson's secant model from earlier steps
    # overshoots: the residual hovers between 1e-13 and 4e-12 until one step
    # lands under tol_psi.  Measured 15 steps on the default grid at tol_psi
    # 1e-13 (10 from r U alone); the bound shows a further rise.
    assert pl.solve_pekar(pl.SolverOptions(grid=DEFAULT_GRID, tol_psi=1e-13)).iterations <= 15
