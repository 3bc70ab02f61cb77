import numpy as np
import pytest

from stefanlab.coeffmodel import CoefficientField, constant_field
from stefanlab.errors import (DomainNotLargeEnough, SolverSingular,
                              StepSizeTooLarge)
from stefanlab.radialcore import (DiffusionSolver, FactoredTridiag, RadialGrid,
                                  entire_space_periodic, periodic_attractor,
                                  radial_laplacian, solve_tridiag,
                                  step_reaction_diffusion, thomas_reference)


class TestTridiag:
    def test_identity(self):
        n = 12
        x = solve_tridiag(np.zeros(n), np.ones(n), np.zeros(n), np.arange(n, dtype=float))
        assert np.allclose(x, np.arange(n))

    def test_matches_thomas_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 40
            lower = rng.uniform(-1, 0, n)
            upper = rng.uniform(-1, 0, n)
            diag = 2.5 + rng.uniform(0, 1, n)  # diagonally dominant
            rhs = rng.standard_normal(n)
            a = solve_tridiag(lower, diag, upper, rhs)
            b = thomas_reference(lower, diag, upper, rhs)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(3)
        n = 50
        lower = rng.uniform(-1, 0, n)
        upper = rng.uniform(-1, 0, n)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.standard_normal(n)
        x = solve_tridiag(lower, diag, upper, rhs)
        recon = diag * x
        recon[1:] += lower[1:] * x[:-1]
        recon[:-1] += upper[:-1] * x[1:]
        assert np.allclose(recon, rhs, atol=1e-12)

    def test_singular_pivot(self):
        n = 5
        diag = np.ones(n)
        diag[2] = 0.0
        with pytest.raises(SolverSingular):
            solve_tridiag(np.zeros(n), diag, np.zeros(n), np.ones(n))
        with pytest.raises(SolverSingular):
            thomas_reference(np.zeros(n), diag, np.zeros(n), np.ones(n))


    def test_singular_elimination(self):
        # rows 0 and 1 coincide: every diagonal entry is 1 but the
        # elimination produces an exactly zero pivot
        lower = np.array([0.0, 1.0, 0.0])
        upper = np.array([1.0, 0.0, 0.0])
        with pytest.raises(SolverSingular):
            solve_tridiag(lower, np.ones(3), upper, np.ones(3))

    def test_one_by_one(self):
        x = solve_tridiag(np.zeros(1), np.array([4.0]), np.zeros(1),
                          np.array([2.0]))
        assert np.array_equal(x, [0.5])


class TestFactoredTridiag:
    @pytest.mark.parametrize("m", [1, 2, 3, 40])
    def test_matches_thomas_reference(self, m):
        rng = np.random.default_rng(m)
        lower = rng.uniform(-1, 0, m)
        upper = rng.uniform(-1, 0, m)
        diag = 2.5 + rng.uniform(0, 1, m)  # diagonally dominant
        op = FactoredTridiag(lower, diag, upper)
        assert op.size == m
        # one factorization serves every right-hand side
        for _ in range(3):
            rhs = rng.standard_normal(m)
            assert np.allclose(op.solve(rhs),
                               thomas_reference(lower, diag, upper, rhs),
                               rtol=1e-12, atol=1e-12)

    def test_bit_equal_to_fresh_elimination(self):
        m = 1023
        s = 0.37
        bands = (np.full(m, -s), np.full(m, 1.0 + 2.0 * s), np.full(m, -s))
        op = FactoredTridiag(*bands)
        rng = np.random.default_rng(9)
        for _ in range(3):
            rhs = rng.standard_normal(m)
            assert np.array_equal(op.solve(rhs), solve_tridiag(*bands, rhs))

    def test_small_pivot_at_construction(self):
        diag = np.ones(5)
        diag[2] = 1e-15
        with pytest.raises(SolverSingular):
            FactoredTridiag(np.zeros(5), diag, np.zeros(5))

    def test_singular_elimination_at_construction(self):
        # the matrix of TestTridiag.test_singular_elimination
        lower = np.array([0.0, 1.0, 0.0])
        upper = np.array([1.0, 0.0, 0.0])
        with pytest.raises(SolverSingular):
            FactoredTridiag(lower, np.ones(3), upper)


def diffusion_bands(grid, d, dt, boundary):
    """Bands of (I - dt*d*L) written out row by row, independently of
    DiffusionSolver's vectorized assembly."""
    n, N = grid.n, grid.N
    s = dt * d / grid.dr ** 2
    m = n if boundary == "dirichlet" else n + 1
    lower, diag, upper = np.zeros(m), np.zeros(m), np.zeros(m)
    diag[0], upper[0] = 1.0 + 2.0 * N * s, -2.0 * N * s
    for j in range(1, n):
        w = (N - 1) / (2.0 * j)
        diag[j] = 1.0 + 2.0 * s
        lower[j] = -s * (1.0 - w)
        upper[j] = -s * (1.0 + w)
    if boundary == "neumann":
        diag[n] = 1.0 + 2.0 * s
        lower[n] = -2.0 * s
    return lower, diag, upper


class TestPrefactoredSolver:
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_thomas_reference(self, boundary, N):
        grid = RadialGrid(n=60, R=3.0, N=N)
        d, dt = 0.8, 1e-2
        solver = DiffusionSolver(grid, d, dt, boundary)
        bands = diffusion_bands(grid, d, dt, boundary)
        m = bands[1].size
        rng = np.random.default_rng(11)
        # the factorization is reused: every solve must match a fresh one
        for _ in range(3):
            rhs = rng.standard_normal(grid.n + 1)
            out = solver.solve(rhs)
            ref = thomas_reference(*bands, rhs[:m])
            assert np.allclose(out[:m], ref, rtol=1e-12, atol=1e-12)
            assert np.all(out[m:] == 0.0)

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_bit_equal_to_fresh_elimination(self, boundary):
        # gttrf/gttrs perform the same operations as one gtsv call on a
        # diagonally dominant system, so prefactoring changes no output
        grid = RadialGrid(n=128, R=5.0, N=2)
        solver = DiffusionSolver(grid, 1.3, 2e-3, boundary)
        bands = diffusion_bands(grid, 1.3, 2e-3, boundary)
        m = bands[1].size
        rhs = np.random.default_rng(5).standard_normal(grid.n + 1)
        assert np.array_equal(solver.solve(rhs)[:m],
                              solve_tridiag(*bands, rhs[:m]))

    @pytest.mark.parametrize("n,boundary", [(1, "dirichlet"), (2, "dirichlet"),
                                            (1, "neumann")])
    def test_tiny_grids(self, n, boundary):
        grid = RadialGrid(n=n, R=1.0, N=2)
        bands = diffusion_bands(grid, 1.0, 0.1, boundary)
        m = bands[1].size
        rhs = np.arange(1.0, n + 2.0)
        out = DiffusionSolver(grid, 1.0, 0.1, boundary).solve(rhs)
        assert np.allclose(out[:m], thomas_reference(*bands, rhs[:m]),
                           rtol=1e-12)

    def test_singular_at_construction(self):
        # s = dt*d/dr^2 = -1/(2N) zeroes the first diagonal entry
        grid = RadialGrid(n=8, R=8.0, N=2)
        with pytest.raises(SolverSingular):
            DiffusionSolver(grid, -0.25, 1.0)


class TestLaplacian:
    def test_constant_is_zero(self):
        grid = RadialGrid(n=64, R=2.0, N=2)
        out = radial_laplacian(grid, np.full(65, 3.7))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_r_squared_n2(self):
        grid = RadialGrid(n=128, R=2.0, N=2)
        out = radial_laplacian(grid, grid.r ** 2)
        assert np.allclose(out[:-1], 4.0, atol=1e-9)

    def test_r_squared_n3(self):
        grid = RadialGrid(n=128, R=2.0, N=3)
        out = radial_laplacian(grid, grid.r ** 2)
        assert np.allclose(out[:-1], 6.0, atol=1e-9)

    def test_second_order_interior(self):
        # u = cos(r): Laplacian = -cos - sin/r for N=2
        errs = []
        for n in (64, 128):
            grid = RadialGrid(n=n, R=3.0, N=2)
            r = grid.r[1:-1]
            exact = -np.cos(r) - np.sin(r) / r
            got = radial_laplacian(grid, np.cos(grid.r))[1:-1]
            errs.append(np.max(np.abs(got - exact)))
        assert errs[0] / errs[1] > 3.5


class TestStepping:
    def test_zero_stays_zero(self):
        grid = RadialGrid(n=64, R=5.0, N=2)
        fld = constant_field(1.0)
        u = np.zeros(65)
        for k in range(10):
            u = step_reaction_diffusion(grid, u, fld, 1.0, 1e-2, k * 1e-2)
        assert np.all(u == 0.0)

    def test_nonnegativity(self):
        grid = RadialGrid(n=64, R=5.0, N=2)
        fld = constant_field(1.0)
        u = 0.5 * (1 - (grid.r / 5.0) ** 2)
        for k in range(200):
            u = step_reaction_diffusion(grid, u, fld, 1.0, 5e-3, k * 5e-3)
            assert np.all(u >= 0.0)

    def test_step_size_guard(self):
        grid = RadialGrid(n=32, R=5.0, N=2)
        fld = constant_field(2.0)
        with pytest.raises(StepSizeTooLarge):
            step_reaction_diffusion(grid, np.ones(33), fld, 1.0, 0.6, 0.0)

    def test_flat_matches_scalar_ode(self):
        # Neumann at both ends keeps a flat profile flat; compare each step
        # against the same explicit-reaction update of the scalar ODE
        grid = RadialGrid(n=32, R=5.0, N=2)
        fld = constant_field(1.0, gamma=0.25)
        dt = 1e-3
        solver = DiffusionSolver(grid, 1.0, dt, boundary="neumann")
        u = np.full(33, 0.2)
        v = 0.2
        for k in range(500):
            u = step_reaction_diffusion(grid, u, fld, 1.0, dt, k * dt,
                                        boundary="neumann", solver=solver)
            v = v + dt * v * (1.0 - v)
            assert np.max(np.abs(u - v)) < 1e-10

    def test_long_run_approaches_carrying_capacity(self):
        grid = RadialGrid(n=200, R=10.0, N=2)
        fld = constant_field(1.0)
        u = 0.5 * np.exp(-grid.r ** 2)
        dt = 5e-3
        solver = DiffusionSolver(grid, 1.0, dt, boundary="dirichlet")
        for k in range(int(50.0 / dt)):
            u = step_reaction_diffusion(grid, u, fld, 1.0, dt, k * dt,
                                        solver=solver)
        mid = u[100]
        assert abs(mid - 1.0) < 0.02

    def test_comparison_principle(self):
        grid = RadialGrid(n=64, R=5.0, N=2)
        fld = constant_field(1.0, gamma=0.3)
        dt = 2e-3
        lo = 0.3 * (1 - (grid.r / 5.0) ** 2)
        hi = lo + 0.2 * np.cos(np.pi * grid.r / 10.0) ** 2
        hi[-1] = lo[-1] = 0.0
        solver = DiffusionSolver(grid, 1.0, dt)
        for k in range(1000):
            lo = step_reaction_diffusion(grid, lo, fld, 1.0, dt, k * dt, solver=solver)
            hi = step_reaction_diffusion(grid, hi, fld, 1.0, dt, k * dt, solver=solver)
            assert np.all(lo <= hi + 1e-9)

    def test_uniform_bound(self):
        grid = RadialGrid(n=64, R=5.0, N=2)
        fld = constant_field(1.0, gamma=0.5)
        M = max(fld.alpha2_max() / fld.beta1_min(), 2.0)
        u = 2.0 * (1 - (grid.r / 5.0) ** 2)
        dt = 2e-3
        solver = DiffusionSolver(grid, 1.0, dt)
        for k in range(2000):
            u = step_reaction_diffusion(grid, u, fld, 1.0, dt, k * dt, solver=solver)
            assert np.max(u) <= M + 5e-6


class TestPeriodicAttractor:
    def test_small_ball_vanishes(self):
        grid = RadialGrid(n=64, R=1.0, N=2)
        orbit = periodic_attractor(grid, constant_field(1.0), 1.0, 1.0)
        assert orbit is None

    def test_large_ball_positive_orbit(self):
        grid = RadialGrid(n=128, R=6.0, N=2)
        orbit = periodic_attractor(grid, constant_field(1.0), 1.0, 1.0)
        assert orbit is not None
        assert orbit.residual < 1e-6 * (1 + np.max(orbit.values))
        assert np.max(orbit.values) > 0.5

    def test_uniqueness_across_initial_data(self):
        grid = RadialGrid(n=96, R=6.0, N=2)
        fld = constant_field(1.0)
        a = periodic_attractor(grid, fld, 1.0, 1.0,
                               u_init=0.05 * (1 - (grid.r / 6.0) ** 2))
        b = periodic_attractor(grid, fld, 1.0, 1.0,
                               u_init=3.0 * (1 - (grid.r / 6.0) ** 2))
        assert np.max(np.abs(a.values - b.values)) < 1e-5

    def test_periodic_forcing_tracks_phase(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*t)", gamma="0", beta="1", T=1.0)
        grid = RadialGrid(n=128, R=8.0, N=2)
        orbit = periodic_attractor(grid, fld, 1.0, 1.0)
        core = orbit.values[:, :16]
        # the attractor must actually oscillate over the period
        assert np.max(core) - np.min(core) > 0.05


class TestEntireSpace:
    def test_constant_limit(self):
        orbit = entire_space_periodic(constant_field(1.0), 1.0, 1.0,
                                      R_list=(10.0, 20.0, 40.0), tol=1e-2)
        rc = np.linspace(0.0, 5.0, 64)
        vals = orbit.interp(rc)
        assert np.all(np.abs(vals - 1.0) < 0.01)

    def test_unfavorable_far_field_fails(self):
        fld = CoefficientField.from_expressions(
            alpha="0.2", gamma="1.2", beta="1", T=1.0)
        out = None
        try:
            out = entire_space_periodic(fld, 1.0, 1.0, R_list=(10.0, 20.0),
                                        tol=1e-2)
        except DomainNotLargeEnough:
            return
        assert out is None
