import numpy as np
import pytest

from stefanlab import freeboundary
from stefanlab.coeffmodel import (CoefficientField, ProblemSpec,
                                  constant_field)
from stefanlab.freeboundary import (FreeBoundaryState, classify_outcome,
                                    front_gradient, initial_state, simulate,
                                    step_free)
from stefanlab.radialcore import solve_tridiag

J01 = 2.4048255576957724


def favorable_spec(**kw):
    defaults = dict(N=2, d=1.0, mu=1.0, h0=3.0, n=128, t_max=30.0)
    defaults.update(kw)
    return ProblemSpec.build(constant_field(1.0), **defaults)


class TestStepFree:
    def test_zero_stays_zero(self):
        spec = favorable_spec()
        state = FreeBoundaryState(u=np.zeros(129), h=3.0, t=0.0, n=128)
        new, h_prime = step_free(state, spec, 1e-3)
        assert h_prime == 0.0
        assert new.h == 3.0
        assert np.all(new.u == 0.0)

    def test_front_advances(self):
        spec = favorable_spec()
        state = initial_state(spec)
        for _ in range(200):
            state, h_prime = step_free(state, spec, 1e-3)
            assert h_prime >= 0.0
        assert state.h > 3.0

    def test_front_gradient_linear_profile(self):
        # u = 1 - xi has du/dr = -1/h exactly under the 3-point stencil
        n = 64
        xi = np.linspace(0, 1, n + 1)
        state = FreeBoundaryState(u=1.0 - xi, h=2.0, t=0.0, n=n)
        assert front_gradient(state) == pytest.approx(-0.5, abs=1e-12)

    def test_positivity(self):
        spec = favorable_spec(h0=1.5)
        state = initial_state(spec)
        for _ in range(500):
            state, _ = step_free(state, spec, 1e-3)
            assert np.all(state.u >= 0.0)


class FreshSolver:
    """Dirichlet diffusion step assembled row by row and eliminated from
    scratch (gtsv) on every solve: no cached band pattern, no factors."""

    def __init__(self, grid, d, dt, boundary):
        n, N = grid.n, grid.N
        s = dt * d / grid.dr ** 2
        self.n = n
        self.bands = np.zeros((3, n))
        lower, diag, upper = self.bands
        diag[0], upper[0] = 1.0 + 2.0 * N * s, -2.0 * N * s
        for j in range(1, n):
            w = (N - 1) / (2.0 * j)
            diag[j] = 1.0 + 2.0 * s
            lower[j] = -s * (1.0 - w)
            upper[j] = -s * (1.0 + w)

    def solve(self, rhs):
        out = np.zeros(self.n + 1)
        out[:self.n] = solve_tridiag(*self.bands, rhs[:self.n])
        return out


class TestCachedOperator:
    def test_bit_equal_to_fresh_solver(self, monkeypatch):
        # h changes every step, so every step rescales the cached pattern;
        # two dimensions on one grid size check the cache key
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*t)", gamma="0.2*exp(-r)", beta="1", T=1.0)
        specs = [ProblemSpec.build(fld, N=N, d=1.0, mu=4.0, h0=2.0, n=96,
                                   t_max=1.5) for N in (2, 3, 2)]
        cached = [simulate(spec) for spec in specs]
        monkeypatch.setattr(freeboundary, "DiffusionSolver", FreshSolver)
        for spec, traj in zip(specs, cached):
            fresh = simulate(spec)
            assert traj.h[-1] > spec.h0
            assert np.array_equal(traj.h, fresh.h)
            assert np.array_equal(traj.final.u, fresh.final.u)


class TestSimulate:
    def test_t_max_zero(self):
        traj = simulate(favorable_spec(), t_max=0.0)
        assert traj.t.size == 1
        assert traj.h[0] == 3.0

    def test_monotone_front(self):
        traj = simulate(favorable_spec(n=96), t_max=10.0)
        assert np.all(np.diff(traj.h) >= 0.0)

    def test_mu_doubling_ordering(self):
        a = simulate(favorable_spec(n=96, mu=1.0), t_max=8.0)
        b = simulate(favorable_spec(n=96, mu=2.0), t_max=8.0)
        t_common = a.t[a.t <= min(a.t[-1], b.t[-1])]
        ha = np.interp(t_common, a.t, a.h)
        hb = np.interp(t_common, b.t, b.h)
        assert np.all(hb >= ha - 1e-9)

    def test_vanishing_supnorm_tail(self):
        fld = CoefficientField.from_expressions(alpha="0.5", gamma="1",
                                                beta="1", T=1.0)
        spec = ProblemSpec.build(fld, d=1.0, mu=0.1, h0=1.0, n=96,
                                 u0="0.1*cos(pi*r/2)")
        traj = simulate(spec, t_max=20.0)
        tail = traj.u_sup[traj.u_sup.size // 2:]
        assert np.all(np.diff(tail) <= 1e-12)
        assert traj.h[-1] < 2.0

    def test_period_snapshots_recorded(self):
        traj = simulate(favorable_spec(n=96), t_max=5.0)
        times = [s.t for s in traj.snapshots]
        assert times[0] == 0.0
        assert any(abs(t - 3.0) < 1e-9 for t in times)

    def test_front_speed_stabilizes(self):
        traj = simulate(favorable_spec(n=256, mu=2.0, t_max=60.0))
        q = traj.t.size // 4
        ratios = traj.h[-q:] / traj.t[-q:]
        assert (ratios.max() - ratios.min()) / ratios.mean() < 0.05


class TestClassify:
    def test_spreading_favorable(self):
        spec = favorable_spec(n=96)
        traj = simulate(spec, t_max=15.0)
        out = classify_outcome(traj, spec)
        assert out.verdict == "Spreading"
        assert out.evidence.h_star == pytest.approx(J01, abs=5e-3)

    def test_vanishing_small_mu(self):
        spec = favorable_spec(h0=1.0, mu=0.01, n=96,
                              u0="0.05*(1 - r^2)")
        traj = simulate(spec, t_max=30.0)
        out = classify_outcome(traj, spec)
        assert out.verdict == "Vanishing"
        # Lemma-style consistency: final radius under the threshold
        assert out.evidence.h_final <= out.evidence.h_star * 1.05

    def test_undecided_midway(self):
        # barely-started run: density still large, front below threshold
        spec = favorable_spec(h0=1.0, mu=0.2, n=96, u0="0.5*cos(pi*r/2)")
        traj = simulate(spec, t_max=1.0)
        out = classify_outcome(traj, spec, h_star_value=J01)
        assert out.verdict == "Undecided"

    def test_mutually_exclusive(self):
        spec = favorable_spec(n=96)
        traj = simulate(spec, t_max=15.0)
        out = classify_outcome(traj, spec, h_star_value=J01)
        assert out.verdict in ("Spreading", "Vanishing", "Undecided")

    def test_precomputed_threshold_respected(self):
        spec = favorable_spec(n=96)
        traj = simulate(spec, t_max=15.0)
        out = classify_outcome(traj, spec, h_star_value=100.0)
        assert out.verdict != "Spreading"


class TestComparison:
    def test_ordered_pair_stays_ordered(self):
        # cos-profile family: amplitude and radius ordered => profiles ordered
        fld = constant_field(1.0, gamma=0.5)
        lo = ProblemSpec.build(fld, d=1.0, mu=0.5, h0=1.0, n=64,
                               u0="0.3*cos(pi*r/2)")
        hi = ProblemSpec.build(fld, d=1.0, mu=0.5, h0=1.4, n=64,
                               u0="0.6*cos(pi*r/2.8)")
        a = simulate(lo, t_max=5.0)
        b = simulate(hi, t_max=5.0)
        t_common = np.linspace(0.0, 5.0, 21)
        ha = np.interp(t_common, a.t, a.h)
        hb = np.interp(t_common, b.t, b.h)
        assert np.all(ha <= hb + 1e-6)
