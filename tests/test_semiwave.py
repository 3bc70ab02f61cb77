import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack

from stefanlab import semiwave
from stefanlab.coeffexpr import ExprFunction
from stefanlab.coeffmodel import CoefficientField, constant_field
from stefanlab.errors import HypothesisHFailed, NonPositive
from stefanlab.semiwave import (PeriodicLogisticSolution, SemiWaveProfile,
                                envelope_speeds, k0_fixed_point,
                                measure_front_speed, periodic_logistic,
                                semiwave_profile)


def reference_periodic_logistic(a, b, T, steps_per_period=2048, phases=256):
    """periodic_logistic written as a per-step sweep: every RK4 stage calls
    a(t) and b(t) at one time, and each step advances the lanes H (from 1,
    without b) and G (from 0) of dW/dt = b - a W, W = 1/V."""
    a = semiwave._periodic_fn(a, T)
    b = semiwave._periodic_fn(b, T)
    steps = int(np.ceil(max(steps_per_period, 2 * phases) / phases)) * phases
    dt = T / steps
    H, G = [1.0], [0.0]
    for k in range(steps):
        t = k * dt
        a0, a1, a2 = float(a(t)), float(a(t + dt / 2)), float(a(t + dt))
        b0, b1, b2 = float(b(t)), float(b(t + dt / 2)), float(b(t + dt))
        k1 = -a0
        k2 = -a1 * (1.0 + dt / 2 * k1)
        k3 = -a1 * (1.0 + dt / 2 * k2)
        k4 = -a2 * (1.0 + dt * k3)
        dh = dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        k1 = b0
        k2 = b1 - a1 * (dt / 2 * k1)
        k3 = b1 - a1 * (dt / 2 * k2)
        k4 = b2 - a2 * (dt * k3)
        dg = dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        H.append(H[-1] + dh * H[-1])
        G.append(G[-1] + (dh * G[-1] + dg))
    if not H[-1] < 1.0:
        raise NonPositive("reference: no positive periodic orbit")
    keep = slice(0, steps + 1, steps // phases)
    W = G[-1] / (1.0 - H[-1]) * np.array(H[keep]) + np.array(G[keep])
    return PeriodicLogisticSolution(T, (np.arange(steps + 1) * dt)[keep], 1.0 / W)


def reference_semiwave_profile(k, a, b, d, T, L=None, n=1024, tol=1e-7,
                               phases=64, dt=None, max_periods=5000,
                               u_init=None, V=None):
    """semiwave_profile written as a per-step loop: scalar k(t), a(t), b(t)
    and V(t + dt) per step, and a fresh LDL^T elimination (ptsv) of the
    matrix."""
    a = semiwave._periodic_fn(a, T)
    b = semiwave._periodic_fn(b, T)
    k = semiwave._periodic_fn(k, T)
    tgrid = np.linspace(0.0, T, 1025)
    abar = float(np.trapezoid(a(tgrid), tgrid) / T)
    kbar = float(np.trapezoid(k(tgrid), tgrid) / T)
    if abar <= kbar ** 2 / (4.0 * d) + 1e-14:
        return None
    L = 50.0 * math.sqrt(d) if L is None else L
    n = int(n)
    if V is None:
        V = reference_periodic_logistic(a, b, T)
    if dt is None:
        dt = min(0.45 / max(abar, 1.0), T / 256)
    steps = max(int(np.ceil(T / dt / phases)) * phases, phases)
    dt = T / steps
    per_phase = steps // phases
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    if u_init is None:
        u = V(0.0) * (1.0 - np.exp(-x / max(math.sqrt(d), dx)))
    else:
        u = np.array(u_init, dtype=float)
    u[0] = 0.0
    s = dt * d / dx ** 2
    diag, off = np.full(n - 1, 1.0 + 2.0 * s), np.full(n - 2, -s)
    prev = u.copy()
    for period in range(1, max_periods + 1):
        shots = [u.copy()]
        for step in range(steps):
            t = step * dt
            kt, at, bt = float(k(t)), float(a(t)), float(b(t))
            # u + dt*(-k*(u - u-)/dx + u*(a - b*u)) regrouped
            p = 1.0 + dt * (at - kt / dx)
            q = dt * (kt / dx)
            m = dt * bt
            ui = u[1:-1]
            rhs = ui * (p - m * ui) + q * u[:-2]
            vb = float(V(t + dt))
            rhs[-1] += s * vb
            u_new = np.empty_like(u)
            u_new[0] = 0.0
            u_new[-1] = vb
            u_new[1:-1] = lapack.dptsv(diag, off, rhs)[2]
            u = np.clip(u_new, 0.0, None)
            if (step + 1) % per_phase == 0 and (step + 1) < steps:
                shots.append(u.copy())
        sup = float(np.max(u))
        if sup < 1e-8:
            return None
        residual = float(np.max(np.abs(u - prev)))
        if residual < tol * (1.0 + sup):
            return SemiWaveProfile(T, L, x, np.arange(phases) * (T / phases),
                                   np.array(shots), V, residual, period)
        prev = u.copy()
    raise AssertionError("reference semiwave_profile did not converge")


# a period whose step sizes are not binary fractions, so that times
# formed in different ways round differently
PERIOD = 1.3
PHASES = np.arange(256) * (PERIOD / 256)

# (a, b) pairs in every input form the semi-wave functions accept
COEFFICIENTS = {
    "constant": (1.2, 0.9),
    "phase-samples": (1.0 + 0.5 * np.sin(2 * np.pi * PHASES / PERIOD),
                      1.0 + 0.2 * np.cos(2 * np.pi * PHASES / PERIOD)),
    "lambda": (lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t / PERIOD),
               lambda t: 1.0 + 0.2 * np.cos(2 * np.pi * t / PERIOD)),
    "expression": (ExprFunction("1 + 0.5*sin(2*pi*t/%r)" % PERIOD),
                   ExprFunction("1 + 0.2*cos(2*pi*t/%r)" % PERIOD)),
}
DRIFT = lambda t: 0.4 + 0.1 * np.cos(2 * np.pi * t / PERIOD)


def assert_same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes()


class Counting:
    """Callable coefficient that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


class TestTabulatedCoefficients:
    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    def test_periodic_logistic_bit_equal(self, kind):
        a, b = COEFFICIENTS[kind]
        sol = periodic_logistic(a, b, PERIOD)
        ref = reference_periodic_logistic(a, b, PERIOD)
        assert_same_bits(sol.times, ref.times)
        assert_same_bits(sol.values, ref.values)

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    def test_semiwave_profile_bit_equal(self, kind):
        a, b = COEFFICIENTS[kind]
        prof = semiwave_profile(DRIFT, a, b, 1.0, PERIOD, tol=1e-4)
        ref = reference_semiwave_profile(DRIFT, a, b, 1.0, PERIOD, tol=1e-4)
        assert prof.periods == ref.periods
        assert prof.residual == ref.residual
        assert_same_bits(prof.values, ref.values)
        assert_same_bits(prof.V.values, ref.V.values)

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    def test_semiwave_profile_bit_equal_coarse_grid(self, kind):
        a, b = COEFFICIENTS[kind]
        prof = semiwave_profile(DRIFT, a, b, 1.0, PERIOD, n=256, tol=1e-4)
        ref = reference_semiwave_profile(DRIFT, a, b, 1.0, PERIOD, n=256,
                                         tol=1e-4)
        assert prof.x.size == 257
        assert prof.periods == ref.periods
        assert prof.residual == ref.residual
        assert_same_bits(prof.x, ref.x)
        assert_same_bits(prof.values, ref.values)

    @pytest.mark.parametrize("kind", ["phase-samples", "expression"])
    def test_k0_fixed_point_bit_equal(self, kind, monkeypatch):
        a, b = COEFFICIENTS[kind]
        kwargs = dict(tol=1e-2, profile_kwargs={"tol": 1e-4})
        res = k0_fixed_point(2.0, a, b, 1.0, PERIOD, **kwargs)
        monkeypatch.setattr(semiwave, "periodic_logistic",
                            reference_periodic_logistic)
        monkeypatch.setattr(semiwave, "semiwave_profile",
                            reference_semiwave_profile)
        ref = k0_fixed_point(2.0, a, b, 1.0, PERIOD, **kwargs)
        assert res.iterations == ref.iterations
        assert res.c == ref.c
        assert_same_bits(res.k0, ref.k0)
        assert_same_bits(res.profile.values, ref.profile.values)

    def test_scalar_return_is_broadcast(self):
        prof = semiwave_profile(lambda t: 0.3, lambda t: 1.0, 1.0, 1.0, 1.0,
                                tol=1e-4)
        ref = semiwave_profile(0.3, 1.0, 1.0, 1.0, 1.0, tol=1e-4)
        assert_same_bits(prof.values, ref.values)

    def test_logistic_calls_independent_of_periods(self):
        a = Counting(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t))
        b = Counting(lambda t: 1.0 + 0.2 * np.cos(2 * np.pi * t))
        periodic_logistic(a, b, 1.0)
        # every RK4 stage time of one period, in one call each
        assert (a.calls, b.calls) == (1, 1)

    def test_profile_calls_independent_of_periods(self):
        V = periodic_logistic(1.0, 1.0, 1.0)
        counts, periods = [], []
        for tol in (1e-3, 1e-6):
            k = Counting(lambda t: 0.4 + 0.1 * np.cos(2 * np.pi * t))
            prof = semiwave_profile(k, 1.0, 1.0, 1.0, 1.0, tol=tol, V=V)
            counts.append(k.calls)
            periods.append(prof.periods)
        assert periods[0] < periods[1]
        # the period mean, then every step time of one period
        assert counts == [2, 2]


@dataclass
class FakeTraj:
    t: np.ndarray
    h: np.ndarray


class TestPeriodicLogistic:
    def test_constant_equilibrium(self):
        sol = periodic_logistic(1.0, 1.0, 1.0)
        assert np.allclose(sol.values, 1.0, atol=1e-9)

    def test_half_equilibrium(self):
        sol = periodic_logistic(2.0, 4.0, 1.0)
        assert np.allclose(sol.values, 0.5, atol=1e-9)

    def test_periodic_closure(self):
        sol = periodic_logistic(lambda t: 1 + 0.5 * np.sin(2 * np.pi * t),
                                1.0, 1.0)
        assert abs(sol.values[0] - sol.values[-1]) < 1e-8
        assert np.all(sol.values > 0)

    def test_fine_step_reference(self):
        # self-refinement oracle: the same sweep at a much finer step
        # agrees at t = 0
        a = lambda t: 1 + 0.5 * np.sin(2 * np.pi * t)
        coarse = periodic_logistic(a, 1.0, 1.0)
        fine = periodic_logistic(a, 1.0, 1.0, steps_per_period=65536)
        assert coarse.values[0] == pytest.approx(fine.values[0], abs=1e-8)

    def test_ode_residual_at_midpoints(self):
        a = lambda t: 1 + 0.5 * np.sin(2 * np.pi * t)
        sol = periodic_logistic(a, 1.0, 1.0)
        tm = 0.5 * (sol.times[:-1] + sol.times[1:])
        vm = 0.5 * (sol.values[:-1] + sol.values[1:])
        dvdt = np.diff(sol.values) / np.diff(sol.times)
        residual = dvdt - vm * (a(tm) - vm)
        assert np.max(np.abs(residual)) < 1e-3   # central-difference limited

    @pytest.mark.parametrize("a0, a1", [(1.0, 0.5), (0.05, 0.9)])
    def test_closed_form(self, a0, a1):
        # b = 1: W = 1/V solves W' = 1 - a W, so with A(t) = int_0^t a,
        # W(t) = e^{-A(t)} (W0 + int_0^t e^A), W0 = int_0^T e^A / (e^{A(T)} - 1)
        def A(t):
            return a0 * t + a1 * (1.0 - math.cos(2 * math.pi * t)) / (2 * math.pi)

        def int_exp_A(t):
            return quad(lambda s: math.exp(A(s)), 0.0, t, epsabs=0.0,
                        epsrel=1e-13, limit=200)[0]

        sol = periodic_logistic(lambda t: a0 + a1 * np.sin(2 * np.pi * t),
                                1.0, 1.0)
        W0 = int_exp_A(1.0) / (math.exp(A(1.0)) - 1.0)
        exact = [math.exp(A(t)) / (W0 + int_exp_A(t)) for t in sol.times]
        assert np.allclose(sol.values, exact, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("a, b", [
        (-0.3, 1.0),                                      # mean growth < 0
        (0.0, 1.0),                                       # mean growth = 0
        (1.0, lambda t: 0.1 + 2.0 * np.cos(2 * np.pi * t)),  # W crosses 0
    ])
    def test_no_positive_orbit(self, a, b):
        with pytest.raises(NonPositive):
            periodic_logistic(a, b, 1.0)

    def test_nonpositive_mean_b(self):
        with pytest.raises(ValueError):
            periodic_logistic(1.0, -1.0, 1.0)


class TestSemiWaveProfile:
    def test_no_drift_monotone_to_one(self):
        prof = semiwave_profile(0.0, 1.0, 1.0, 1.0, 1.0)
        assert prof is not None
        u = prof.values[0]
        assert np.all(np.diff(u) >= -1e-10)
        far = np.interp(0.9 * prof.L, prof.x, u)
        assert far == pytest.approx(1.0, abs=0.01)

    def test_critical_drift_zero_branch(self):
        assert semiwave_profile(2.0, 1.0, 1.0, 1.0, 1.0) is None

    def test_supercritical_drift_zero_branch(self):
        assert semiwave_profile(3.0, 1.0, 1.0, 1.0, 1.0) is None

    def test_drift_monotonicity(self):
        a = semiwave_profile(0.0, 1.0, 1.0, 1.0, 1.0)
        b = semiwave_profile(0.5, 1.0, 1.0, 1.0, 1.0)
        assert np.all(b.values <= a.values + 1e-8)
        assert np.all(b.slope_at_origin() <= a.slope_at_origin() + 1e-8)

    def test_dirichlet_origin(self):
        prof = semiwave_profile(0.0, 1.0, 1.0, 1.0, 1.0)
        assert np.allclose(prof.values[:, 0], 0.0)

    def test_periodic_coefficients_track_V(self):
        a = lambda t: 1 + 0.5 * np.sin(2 * np.pi * t)
        prof = semiwave_profile(0.0, a, 1.0, 1.0, 1.0)
        for idx, tp in enumerate(prof.phases):
            far = np.interp(0.9 * prof.L, prof.x, prof.values[idx])
            assert far == pytest.approx(float(prof.V(tp)), rel=0.02)


    def test_honours_n(self):
        prof = semiwave_profile(0.0, 1.0, 1.0, 1.0, 1.0, n=256, tol=1e-5)
        assert prof.x.size == 257
        assert prof.values.shape[1] == 257
        far = np.interp(0.9 * prof.L, prof.x, prof.values[0])
        assert far == pytest.approx(1.0, abs=0.01)

    def test_u_init_unchanged_and_values_not_shared(self):
        first = semiwave_profile(DRIFT, 1.2, 0.9, 1.0, PERIOD, n=256, tol=1e-4)
        before = first.values.copy()
        # a view into the first profile's table, as k0_fixed_point passes
        second = semiwave_profile(DRIFT, 1.2, 0.9, 1.0, PERIOD, n=256,
                                  tol=1e-5, u_init=first.values[0])
        assert second.periods > 0
        assert_same_bits(first.values, before)
        assert not np.shares_memory(first.values, second.values)


class TestK0FixedPoint:
    def test_front_speed_far_field(self):
        # the front-speed benchmark's far field (r = 50, 256 phase samples)
        # at its tols; c moved from 0.8192679024779417 at rounding level
        # when the step's right-hand side was regrouped (the tolerance is
        # for hosts whose np.sin rounds differently).  The iteration holds
        # one (PHASES, n+1) profile table at a time: the next solve starts
        # from a copy of one row.  Keeping the previous table alive read
        # 2.4 tables.
        phases = np.arange(256) / 256
        a = 1 + 0.5 * np.sin(2 * np.pi * phases)
        n = 1024
        tracemalloc.start()
        try:
            res = k0_fixed_point(5.0, a, np.ones(256), 1.0, 1.0, tol=1e-4,
                                 profile_kwargs={"tol": 1e-5, "n": n})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.c == pytest.approx(0.8192679024779425, rel=1e-13, abs=0)
        assert res.iterations == 9
        assert res.profile_periods == 40
        assert peak < 1.5 * semiwave.PHASES * (n + 1) * 8

    def test_constants_inside_bound(self):
        res = k0_fixed_point(1.0, 1.0, 1.0, 1.0, 1.0)
        assert 0.0 < res.c < 2.0
        assert res.bound == pytest.approx(2.0)
        assert np.all(res.k0 >= 0.0)

    def test_mu_monotonicity(self):
        c1 = k0_fixed_point(0.5, 1.0, 1.0, 1.0, 1.0).c
        c2 = k0_fixed_point(2.0, 1.0, 1.0, 1.0, 1.0).c
        assert c1 < c2

    def test_small_mu_limit(self):
        res = k0_fixed_point(1e-3, 1.0, 1.0, 1.0, 1.0)
        assert res.c < 0.1

    def test_constant_expression_coefficients(self):
        # constant expressions evaluate to arrays like numeric constants do
        res = k0_fixed_point(1.0, ExprFunction("1"), ExprFunction("1"), 1.0, 1.0,
                             tol=1e-4)
        ref = k0_fixed_point(1.0, 1.0, 1.0, 1.0, 1.0, tol=1e-4)
        assert res.c == pytest.approx(ref.c, rel=1e-12)
        assert np.allclose(res.k0, ref.k0, rtol=1e-12)

    def test_nonpositive_mean_growth(self):
        with pytest.raises(HypothesisHFailed):
            k0_fixed_point(1.0, -0.3, 1.0, 1.0, 1.0)

    def test_profile_consistency(self):
        # at the fixed point, mu*U_r(t,0) reproduces k0
        res = k0_fixed_point(1.0, 1.0, 1.0, 1.0, 1.0, tol=1e-7)
        back = 1.0 * res.profile.slope_at_origin()
        assert np.max(np.abs(back - res.k0)) < 1e-4 * (1 + np.max(res.k0))


def reference_k0_fixed_point(mu, a, b, d, T, tol, profile_kwargs):
    """k0_fixed_point with every drift iterate's profile solved at the
    final profile tol: returns c and the summed profile periods."""
    a = semiwave._periodic_fn(a, T)
    b = semiwave._periodic_fn(b, T)
    V = periodic_logistic(a, b, T)
    kvals = np.zeros(semiwave.PHASES)
    u_prev, periods = None, 0
    for _ in range(semiwave.MAX_K0_ITERATIONS):
        prof = semiwave_profile(semiwave._periodic_fn(kvals, T), a, b, d, T,
                                u_init=u_prev, V=V, **profile_kwargs)
        periods += prof.periods
        u_prev = prof.values[0]
        target = mu * prof.slope_at_origin()
        new = np.clip((1.0 - semiwave.K0_RELAX) * kvals
                      + semiwave.K0_RELAX * target, 0.0, None)
        change = float(np.max(np.abs(new - kvals)))
        kvals = new
        if change <= tol * (1.0 + float(np.max(kvals))):
            return float(np.mean(kvals)), periods
    raise AssertionError("reference k0_fixed_point did not converge")


@pytest.fixture
def profile_calls(monkeypatch):
    """(tol, periods) of every profile that k0_fixed_point solves."""
    calls = []
    real = semiwave.semiwave_profile

    def recorded(*args, **kwargs):
        prof = real(*args, **kwargs)
        calls.append((kwargs["tol"], prof.periods))
        return prof

    monkeypatch.setattr(semiwave, "semiwave_profile", recorded)
    return calls


class TestInexactProfiles:
    """Early drift iterates solve their profiles loosely; the answer keeps
    the contract of the loop that solves every profile at the final tol."""

    MU, TOL = 5.0, 1e-6
    PROFILE = {"n": 256}          # the default profile tol, on a coarse grid

    @pytest.mark.parametrize("kind", ["constant", "phase-samples",
                                      "expression"])
    def test_matches_full_tol_loop(self, kind, profile_calls):
        a, b = COEFFICIENTS[kind]
        c_ref, periods_ref = reference_k0_fixed_point(
            self.MU, a, b, 1.0, PERIOD, self.TOL, self.PROFILE)
        res = k0_fixed_point(self.MU, a, b, 1.0, PERIOD, tol=self.TOL,
                             profile_kwargs=self.PROFILE)
        tols, periods = zip(*profile_calls)
        scale = 1.0 + float(np.max(res.k0))
        assert abs(res.c - c_ref) <= self.TOL * scale
        # the returned profile is a solve at the final profile tol
        ptol = semiwave.PROFILE_TOL
        assert tols[0] == semiwave.PROFILE_TOL_CAP and tols[-1] == ptol
        sup = max(float(np.max(res.profile.values)),
                  float(np.max(res.profile.V.values)))
        assert res.profile.residual < ptol * (1.0 + sup)
        back = self.MU * res.profile.slope_at_origin()
        assert np.max(np.abs(back - res.k0)) <= self.TOL * scale
        assert res.profile_periods == sum(periods)
        assert 2 * res.profile_periods <= periods_ref

    def test_caller_tol_is_final_tol(self, profile_calls):
        res = k0_fixed_point(1.0, 1.0, 1.0, 1.0, 1.0, tol=1e-2,
                             profile_kwargs={"n": 256, "tol": 1e-4})
        tols = [tol for tol, _ in profile_calls]
        # loosest first and never below the caller's tol; the loose
        # iterate that met the stop test is followed by one at that tol
        assert tols[0] == semiwave.PROFILE_TOL_CAP
        assert min(tols) == tols[-1] == 1e-4 < tols[-2]
        assert res.iterations == len(tols)


class TestEnvelopeSpeeds:
    def test_space_constant_coincide(self):
        fld = constant_field(1.0, gamma=0.5)
        env = envelope_speeds(fld, 1.0, 1.0, eps=1e-4)
        assert env.c_lower <= env.c_upper
        assert env.c_upper == pytest.approx(env.c_lower, rel=0.01)

    def test_decaying_transient_coincides(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + exp(-r)*sin(2*pi*t)", gamma="0.1", beta="1", T=1.0,
            r_max=100.0)
        env = envelope_speeds(fld, 1.0, 1.0, eps=1e-4, r_star=10.0)
        assert env.c_upper == pytest.approx(env.c_lower, rel=0.01)

    def test_beta_spread_strict(self):
        fld = replace(CoefficientField.from_expressions(
            alpha="1.2", gamma="0.2", beta="0.5 + 1.5*r/(1+r)", T=1.0,
            r_max=200.0), beta1=ExprFunction("0.5"), beta2=ExprFunction("2.0"))
        env = envelope_speeds(fld, 1.0, 1.0, eps=1e-4)
        assert env.c_lower <= env.c_upper

    def test_hypothesis_h_failure(self):
        fld = CoefficientField.from_expressions(
            alpha="0.3", gamma="1.0", beta="1", T=1.0)
        with pytest.raises(HypothesisHFailed):
            envelope_speeds(fld, 1.0, 1.0)


class TestMeasureFrontSpeed:
    def test_affine(self):
        t = np.linspace(0.0, 100.0, 401)
        slope, ratio = measure_front_speed(FakeTraj(t, 2.0 * t + 5.0))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_affine_plus_sine(self):
        t = np.linspace(100.0, 200.0, 1001)
        traj = FakeTraj(np.concatenate([[0.0], t]),
                        np.concatenate([[5.0], 2.0 * t + np.sin(t)]))
        slope, _ = measure_front_speed(traj, window_fraction=0.5)
        assert slope == pytest.approx(2.0, abs=1e-2)

    def test_bad_window(self):
        t = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError):
            measure_front_speed(FakeTraj(t, t), window_fraction=0.9)
