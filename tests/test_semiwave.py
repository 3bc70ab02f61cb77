import math
from dataclasses import dataclass

import numpy as np
import pytest

from stefanlab import semiwave
from stefanlab.coeffexpr import ExprFunction
from stefanlab.coeffmodel import CoefficientField, constant_field
from stefanlab.errors import HypothesisHFailed, NonPositive, NotSpreading
from stefanlab.radialcore import solve_tridiag
from stefanlab.semiwave import (PeriodicLogisticSolution, SemiWaveProfile,
                                envelope_speeds, k0_fixed_point,
                                measure_front_speed, periodic_logistic,
                                semiwave_profile)


def reference_periodic_logistic(a, b, T, tol=1e-10, steps_per_period=2048,
                                max_periods=20000, phases=256):
    """periodic_logistic written as a per-step loop: every RK4 stage calls
    a(t) and b(t) at one time."""
    a = semiwave._periodic_fn(a, T)
    b = semiwave._periodic_fn(b, T)
    tgrid = np.linspace(0.0, T, 1025)
    abar = float(np.trapezoid(a(tgrid), tgrid) / T)
    bbar = float(np.trapezoid(b(tgrid), tgrid) / T)
    v = max(abar, 1e-3) / bbar
    steps = int(np.ceil(max(steps_per_period, 2 * phases) / phases)) * phases
    dt = T / steps

    def f(t, v):
        return v * (a(t) - b(t) * v)

    for _ in range(max_periods):
        v0 = v
        trace_t, trace_v = [0.0], [v]
        for k in range(steps):
            t = k * dt
            k1 = f(t, v)
            k2 = f(t + dt / 2, v + dt / 2 * k1)
            k3 = f(t + dt / 2, v + dt / 2 * k2)
            k4 = f(t + dt, v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(v) or v <= 0:
                raise NonPositive("reference orbit left the positive cone")
            trace_t.append((k + 1) * dt)
            trace_v.append(v)
        if abs(v - v0) <= tol * (1.0 + abs(v)):
            keep = slice(0, steps + 1, steps // phases)
            return PeriodicLogisticSolution(T, np.array(trace_t)[keep],
                                            np.array(trace_v)[keep])
    raise AssertionError("reference periodic_logistic did not converge")


def reference_semiwave_profile(k, a, b, d, T, L=None, n=1024, tol=1e-7,
                               phases=64, dt=None, max_periods=5000,
                               u_init=None, V=None):
    """semiwave_profile written as a per-step loop: scalar k(t), a(t), b(t)
    and V(t + dt) per step, and a fresh elimination of the matrix."""
    a = semiwave._periodic_fn(a, T)
    b = semiwave._periodic_fn(b, T)
    k = semiwave._periodic_fn(k, T)
    tgrid = np.linspace(0.0, T, 1025)
    abar = float(np.trapezoid(a(tgrid), tgrid) / T)
    kbar = float(np.trapezoid(k(tgrid), tgrid) / T)
    if abar <= kbar ** 2 / (4.0 * d) + 1e-14:
        return None
    L = 50.0 * math.sqrt(d) if L is None else L
    n = max(int(n), 1024)
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
    bands = (np.full(n - 1, -s), np.full(n - 1, 1.0 + 2.0 * s),
             np.full(n - 1, -s))
    prev = u.copy()
    for period in range(1, max_periods + 1):
        shots = [u.copy()]
        for step in range(steps):
            t = step * dt
            kt, at, bt = float(k(t)), float(a(t)), float(b(t))
            adv = np.zeros_like(u)
            adv[1:] = -kt * (u[1:] - u[:-1]) / dx
            rhs = (u + dt * (adv + u * (at - bt * u)))[1:-1].copy()
            vb = float(V(t + dt))
            rhs[-1] += s * vb
            u_new = np.empty_like(u)
            u_new[0] = 0.0
            u_new[-1] = vb
            u_new[1:-1] = solve_tridiag(*bands, rhs)
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
        counts = []
        for tol in (1e-3, 1e-12):
            a = Counting(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t))
            periodic_logistic(a, 1.0, 1.0, tol=tol)
            counts.append(a.calls)
        # the period means, then every RK4 stage time of one period
        assert counts == [2, 2]

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


@dataclass
class FakeOutcome:
    verdict: str


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
        # self-refinement oracle: the same period-map iteration at a much
        # finer step agrees at t = 0
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


class TestSemiWaveProfile:
    def test_no_drift_monotone_to_one(self):
        prof = semiwave_profile(0.0, 1.0, 1.0, 1.0, 1.0)
        assert prof is not None
        u = prof.at_phase(0)
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


class TestK0FixedPoint:
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
        fld = CoefficientField.from_expressions(
            alpha="1.2", gamma="0.2", beta="0.5 + 1.5*r/(1+r)", T=1.0,
            r_max=200.0, envelopes={"beta1": "0.5", "beta2": "2"})
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

    def test_not_spreading_guard(self):
        t = np.linspace(0.0, 10.0, 11)
        with pytest.raises(NotSpreading):
            measure_front_speed(FakeTraj(t, np.full(11, 1.0)),
                                require_spreading=FakeOutcome("Vanishing"))

    def test_bad_window(self):
        t = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError):
            measure_front_speed(FakeTraj(t, t), window_fraction=0.9)
