import math
from dataclasses import dataclass

import numpy as np
import pytest

from stefanlab.coeffexpr import ExprFunction
from stefanlab.coeffmodel import CoefficientField, constant_field
from stefanlab.errors import HypothesisHFailed, NotSpreading
from stefanlab.semiwave import (envelope_speeds, k0_fixed_point,
                                measure_front_speed, periodic_logistic,
                                semiwave_profile)


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
