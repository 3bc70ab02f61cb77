import importlib.machinery
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stefanlab
from stefanlab import radialcore
from stefanlab.coeffmodel import CoefficientField, constant_field
from stefanlab.errors import (DomainNotLargeEnough, SolverSingular,
                              StepSizeTooLarge)
from stefanlab.radialcore import (PIVOT_EPS, DiffusionSolver,
                                  FactoredSPDTridiag, FactoredTridiag,
                                  RadialGrid, entire_space_periodic,
                                  periodic_attractor, solve_tridiag,
                                  step_reaction_diffusion)


def thomas_reference(lower, diag, upper, rhs):
    """Plain Thomas recurrence: the independent oracle for the LAPACK
    tridiagonal solvers."""
    m = diag.size
    c = np.array(upper, dtype=float)
    d = np.array(diag, dtype=float)
    b = np.array(rhs, dtype=float)
    for i in range(1, m):
        if abs(d[i - 1]) < PIVOT_EPS:
            raise SolverSingular("pivot %d below %g" % (i - 1, PIVOT_EPS))
        w = lower[i] / d[i - 1]
        d[i] -= w * c[i - 1]
        b[i] -= w * b[i - 1]
    x = np.empty(m)
    if abs(d[-1]) < PIVOT_EPS:
        raise SolverSingular("last pivot below %g" % PIVOT_EPS)
    x[-1] = b[-1] / d[-1]
    for i in range(m - 2, -1, -1):
        x[i] = (b[i] - c[i] * x[i + 1]) / d[i]
    return x


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


def spd_bands(rng, m):
    """Random symmetric diagonally dominant bands with a positive
    diagonal (so positive definite): diag and the m-1 off-diagonal."""
    return 2.5 + rng.uniform(0, 1, m), rng.uniform(-1, 1, m - 1)


def spd_solve(diag, off, rhs):
    """FactoredSPDTridiag's solution, written into a copy of rhs."""
    x = np.array(rhs, dtype=float)
    FactoredSPDTridiag(diag, off).solve_in_place(x)
    return x


class TestFactoredSPDTridiag:
    @pytest.mark.parametrize("m", [2, 3, 40])
    def test_matches_thomas_reference(self, m):
        rng = np.random.default_rng(m)
        diag, off = spd_bands(rng, m)
        op = FactoredSPDTridiag(diag, off)
        assert op.size == m
        lower, upper = np.append(0.0, off), np.append(off, 0.0)
        # one factorization serves every right-hand side
        for _ in range(3):
            rhs = rng.standard_normal(m)
            x = rhs.copy()
            op.solve_in_place(x)
            assert np.allclose(x, thomas_reference(lower, diag, upper, rhs),
                               rtol=1e-12, atol=1e-12)

    def test_bit_equal_to_fresh_elimination(self):
        from scipy.linalg import lapack as scipy_lapack
        rng = np.random.default_rng(5)
        m, s = 1023, 0.37
        for diag, off in [(np.full(m, 1.0 + 2.0 * s), np.full(m - 1, -s)),
                          spd_bands(rng, m)]:
            for _ in range(3):
                rhs = rng.standard_normal(m)
                assert np.array_equal(spd_solve(diag, off, rhs),
                                      scipy_lapack.dptsv(diag, off, rhs)[2])

    def test_solves_into_a_view(self):
        rng = np.random.default_rng(11)
        diag, off = spd_bands(rng, 40)
        rhs = rng.standard_normal(40)
        op = FactoredSPDTridiag(diag, off)
        for step in (1, 2):
            # a contiguous view is solved in place, a strided one via a copy
            u = np.zeros(42 * step)
            view = u[step:step * 41:step]
            view[...] = rhs
            op.solve_in_place(view)
            assert np.array_equal(view, spd_solve(diag, off, rhs))
            assert not u[:step].any() and not u[step * 41:].any()

    def test_not_positive_definite_at_construction(self):
        # symmetric and nonsingular, but the second leading minor is -3
        with pytest.raises(SolverSingular):
            FactoredSPDTridiag(np.ones(3), np.full(2, 2.0))


def row_bands(grid, d, dt):
    """Bands of (I - dt*d*L) on the Dirichlet unknowns written out row by
    row, independently of the vectorized diffusion_bands."""
    n, N = grid.n, grid.N
    s = dt * d / grid.dr ** 2
    lower, diag, upper = np.zeros(n), np.zeros(n), np.zeros(n)
    diag[0], upper[0] = 1.0 + 2.0 * N * s, -2.0 * N * s
    for j in range(1, n):
        w = (N - 1) / (2.0 * j)
        diag[j] = 1.0 + 2.0 * s
        lower[j] = -s * (1.0 - w)
        upper[j] = -s * (1.0 + w)
    return lower, diag, upper


class TestPrefactoredSolver:
    # the test ids name the boundary condition at r = R: u(R) = 0

    @pytest.mark.parametrize("N", [2, 3], ids=lambda N: "%d-dirichlet" % N)
    def test_matches_thomas_reference(self, N):
        grid = RadialGrid(n=60, R=3.0, N=N)
        d, dt = 0.8, 1e-2
        solver = DiffusionSolver(grid, d, dt)
        bands = row_bands(grid, d, dt)
        m = bands[1].size
        rng = np.random.default_rng(11)
        # the factorization is reused: every solve must match a fresh one
        for _ in range(3):
            rhs = rng.standard_normal(grid.n + 1)
            out = solver.solve(rhs)
            ref = thomas_reference(*bands, rhs[:m])
            assert np.allclose(out[:m], ref, rtol=1e-12, atol=1e-12)
            assert np.all(out[m:] == 0.0)

    @pytest.mark.parametrize("N", [2], ids=["dirichlet"])
    def test_bit_equal_to_fresh_elimination(self, N):
        # gttrf/gttrs perform the same operations as one gtsv call on a
        # diagonally dominant system, so prefactoring changes no output
        grid = RadialGrid(n=128, R=5.0, N=N)
        solver = DiffusionSolver(grid, 1.3, 2e-3)
        bands = row_bands(grid, 1.3, 2e-3)
        m = bands[1].size
        rhs = np.random.default_rng(5).standard_normal(grid.n + 1)
        assert np.array_equal(solver.solve(rhs)[:m],
                              solve_tridiag(*bands, rhs[:m]))

    @pytest.mark.parametrize("n", [1, 2], ids=lambda n: "%d-dirichlet" % n)
    def test_tiny_grids(self, n):
        grid = RadialGrid(n=n, R=1.0, N=2)
        bands = row_bands(grid, 1.0, 0.1)
        m = bands[1].size
        rhs = np.arange(1.0, n + 2.0)
        out = DiffusionSolver(grid, 1.0, 0.1).solve(rhs)
        assert np.allclose(out[:m], thomas_reference(*bands, rhs[:m]),
                           rtol=1e-12)

    def test_singular_at_construction(self):
        # s = dt*d/dr^2 = -1/(2N) zeroes the first diagonal entry
        grid = RadialGrid(n=8, R=8.0, N=2)
        with pytest.raises(SolverSingular):
            DiffusionSolver(grid, -0.25, 1.0)


def is_symmetric(lower, diag, upper):
    return np.array_equal(lower[1:], upper[:-1])


def run_routines(lp, lower, diag, upper, rhs):
    """Every output of gttrf, gttrs and gtsv from the namespace ``lp``,
    and of pttrf and pttrs on a symmetric matrix."""
    *lu, info = lp.dgttrf(lower[1:], diag, upper[:-1])
    x = lp.dgttrs(*lu, rhs)[0]
    *_, y, gtsv_info = lp.dgtsv(lower[1:], diag, upper[:-1], rhs)
    out = [*lu, info, x, y, gtsv_info]
    if is_symmetric(lower, diag, upper):
        *ldl, pttrf_info = lp.dpttrf(diag, upper[:-1])
        out += [*ldl, pttrf_info, lp.dpttrs(*ldl, rhs)[0]]
    return out


def lapack_test_systems():
    """Diffusion bands in two and three dimensions and the 1023-unknown
    semi-wave matrix, each with a right-hand side."""
    rng = np.random.default_rng(17)
    out = []
    for N in (2, 3):
        bands = row_bands(RadialGrid(n=128, R=5.0, N=N), 1.3, 2e-3)
        out.append((bands, rng.standard_normal(bands[1].size)))
    m, s = 1023, 0.37
    bands = (np.full(m, -s), np.full(m, 1.0 + 2.0 * s), np.full(m, -s))
    out.append((bands, rng.standard_normal(m)))
    return out


def run_solvers(bands, rhs):
    """The package's solutions of one system through radialcore.lapack:
    LU-factored, fresh, and LDL^T-factored when the matrix is symmetric."""
    out = [FactoredTridiag(*bands).solve(rhs), solve_tridiag(*bands, rhs)]
    if is_symmetric(*bands):
        out.append(spd_solve(bands[1], bands[2][:-1], rhs))
    return out


class TestLapackBinding:
    def test_import_leaves_scipy_linalg_out(self):
        code = ("import json, sys\n"
                "heavy = ('scipy.linalg', 'numpy.f2py')\n"
                "import stefanlab\n"
                "seen = [[m for m in heavy if m in sys.modules]]\n"
                "import stefanlab.cli\n"
                "seen.append([m for m in heavy if m in sys.modules])\n"
                "print(json.dumps(seen))\n")
        src = os.path.dirname(os.path.dirname(stefanlab.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == [[], []]

    def test_direct_routines_bit_identical(self):
        from scipy.linalg import lapack as scipy_lapack
        assert radialcore.lapack is not scipy_lapack
        for bands, rhs in lapack_test_systems():
            direct = run_routines(radialcore.lapack, *bands, rhs)
            ref = run_routines(scipy_lapack, *bands, rhs)
            assert len(direct) == len(ref)
            for a, b in zip(direct, ref):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("failure", ["missing", "unloadable", "incomplete"])
    def test_fallback_to_scipy_linalg(self, failure, monkeypatch, tmp_path):
        from scipy.linalg import lapack as scipy_lapack
        systems = lapack_test_systems()
        expected = [run_solvers(bands, rhs) for bands, rhs in systems]
        routines = radialcore._ROUTINES
        assert {"dpttrf", "dpttrs"} <= set(routines)
        if failure == "missing":
            def lookup():
                raise ImportError("no _flapack extension")
            monkeypatch.setattr(radialcore, "_flapack_path", lookup)
        elif failure == "unloadable":
            junk = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
            junk.write_bytes(b"not a shared object")
            monkeypatch.setattr(radialcore, "_flapack_path", lambda: str(junk))
        else:
            monkeypatch.setattr(radialcore, "_ROUTINES",
                                radialcore._ROUTINES + ("dno_such_routine",))
        fallback = radialcore._load_lapack()
        assert fallback is scipy_lapack
        monkeypatch.setattr(radialcore, "lapack", fallback)
        assert all(hasattr(fallback, name) for name in routines)
        for (bands, rhs), want in zip(systems, expected):
            got = run_solvers(bands, rhs)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


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
        # a flat profile stays flat in the core until the edge u(R) = 0
        # reaches it; compare the core nodes at each step against the same
        # explicit-reaction update of the scalar ODE
        grid = RadialGrid(n=32, R=5.0, N=2)
        fld = constant_field(1.0, gamma=0.25)
        dt = 1e-3
        solver = DiffusionSolver(grid, 1.0, dt)
        core = grid.r <= grid.R / 4
        u = np.full(33, 0.2)
        u[-1] = 0.0
        v = 0.2
        for k in range(50):
            u = step_reaction_diffusion(grid, u, fld, 1.0, dt, k * dt,
                                        solver=solver)
            v = v + dt * v * (1.0 - v)
            assert np.max(np.abs(u[core] - v)) < 1e-10

    def test_long_run_approaches_carrying_capacity(self):
        grid = RadialGrid(n=200, R=10.0, N=2)
        fld = constant_field(1.0)
        u = 0.5 * np.exp(-grid.r ** 2)
        dt = 5e-3
        solver = DiffusionSolver(grid, 1.0, dt)
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
