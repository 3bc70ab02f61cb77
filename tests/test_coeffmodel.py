import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from stefanlab.coeffexpr import ExprFunction
from stefanlab.coeffmodel import (MAX_GRID_N, MAX_SAMPLES, MAX_TIME_STEPS,
                                  CoefficientField, Numerics,
                                  ProblemSpec, classify_habitat,
                                  constant_field, r_independent, validate)


def make_spec(**kw):
    field = kw.pop("field", constant_field(1.0, gamma=0.5))
    defaults = dict(N=2, d=1.0, mu=1.0, h0=1.0)
    defaults.update(kw)
    return ProblemSpec.build(field, **defaults)


class TestField:
    def test_growth(self):
        fld = constant_field(1.0, gamma=0.5)
        assert fld.growth(0.3, 2.0) == pytest.approx(1.0)
        assert fld.alpha(0.3, 2.0) == pytest.approx(1.5)

    def test_envelopes_sampled(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*t)", gamma="0.1", beta="1", T=1.0)
        t = np.linspace(0, 1, 33)
        a = np.asarray(fld.alpha(t, 0.0))
        lo = np.asarray(fld.alpha1(t)) + np.zeros_like(t)
        hi = np.asarray(fld.alpha2(t)) + np.zeros_like(t)
        assert np.all(lo <= a) and np.all(a <= hi)

    def test_alpha2_max_beta1_min(self):
        fld = CoefficientField.from_expressions(
            alpha="2 + sin(2*pi*t)", gamma="0", beta="0.5 + r/(1+r)", T=1.0,
            r_max=100.0)
        assert fld.alpha2_max() == pytest.approx(3.0, abs=1e-6)
        assert fld.beta1_min() == pytest.approx(0.5, abs=1e-6)

    def test_alpha2_max_sampled_once(self):
        calls = []

        def alpha2(t, r=0.0):
            calls.append(1)
            return 2.0 + np.sin(2 * np.pi * np.asarray(t))

        fld = CoefficientField(alpha=ExprFunction("2.0"),
                               gamma=ExprFunction("0.0"),
                               beta=ExprFunction("1.0"), T=1.0, alpha2=alpha2)
        assert fld.alpha2_max() == pytest.approx(3.0, abs=1e-6)
        assert fld.alpha2_max() == fld.alpha2_max()
        assert len(calls) == 1
        # the cache is not part of the field's value
        assert fld == CoefficientField(alpha=fld.alpha, gamma=fld.gamma,
                                       beta=fld.beta, T=1.0, alpha2=alpha2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ValueError, match="coefficient %r is not a finite"
                           % value):
            constant_field(value)

    def test_field_pickles(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*t)", gamma="0.2", beta="1", T=1.0)
        clone = pickle.loads(pickle.dumps(fld))
        t = np.linspace(0, 1, 9)
        assert np.allclose(np.asarray(clone.growth(t, 1.0)),
                           np.asarray(fld.growth(t, 1.0)))


class TestValidate:
    def test_constant_instance_valid(self):
        spec = make_spec()
        report = validate(spec)
        assert report.ok, report.violations

    @pytest.mark.parametrize("name", ["d", "mu", "h0", "N"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_parameter(self, name, value):
        report = validate(make_spec().with_(**{name: value}))
        assert report.kinds() == {"NonPositiveParameter"}
        assert name in report.violations[0].detail

    @pytest.mark.parametrize("T", [0.0, -1.0, float("inf"), float("nan")])
    def test_period_not_positive(self, T):
        report = validate(make_spec(field=constant_field(1.0, T=T)))
        assert report.kinds() == {"NonPositiveParameter"}
        assert "T" in report.violations[0].detail

    def test_u0_boundary_mismatch(self):
        spec = make_spec(u0="1")
        report = validate(spec)
        assert "BoundaryMismatch" in report.kinds()

    def test_u0_slope_at_origin(self):
        # u0(r) = h0 - r has slope -1 at the origin
        spec = make_spec(u0="1 - r")
        report = validate(spec)
        assert "ProfileSlopeAtOrigin" in report.kinds()

    def test_u0_not_positive(self):
        spec = make_spec(u0="cos(pi*r/2) - 0.5")
        report = validate(spec)
        assert "ProfileNotPositive" in report.kinds()

    def test_periodicity_violation(self):
        # declared period 1 but actual period 1/0.7
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*0.7*t)", gamma="0.1", beta="1", T=1.0)
        report = validate(make_spec(field=fld))
        assert "PeriodicityViolation" in report.kinds()

    def test_envelope_violation(self):
        fld = replace(CoefficientField.from_expressions(
            alpha="1 + r/(1+r)", gamma="0.1", beta="1", T=1.0),
            alpha1=ExprFunction("0.9"), alpha2=ExprFunction("1.1"))
        report = validate(make_spec(field=fld))
        assert "EnvelopeViolation" in report.kinds()

    def test_beta_positivity(self):
        fld = CoefficientField.from_expressions(
            alpha="1", gamma="0.1", beta="0", T=1.0)
        report = validate(make_spec(field=fld))
        assert "EnvelopePositivity" in report.kinds()

    def test_zero_death_rate_allowed(self):
        report = validate(make_spec(field=constant_field(1.0)))
        assert report.ok, report.violations

    def test_bad_numerics(self):
        spec = make_spec(dt=-1.0, n=8)
        report = validate(spec)
        assert {"BadTimeStep", "GridTooCoarse"} <= report.kinds()

    def test_grid_cap(self):
        # validate never builds the grid, so a huge n costs nothing here
        assert validate(make_spec(n=MAX_GRID_N)).ok
        for n in (MAX_GRID_N + 1, 10 ** 9):
            report = validate(make_spec(n=n))
            assert report.kinds() == {"GridTooFine"}
            assert str(MAX_GRID_N) in report.violations[0].detail

    @pytest.mark.parametrize("name,kind,cap", [
        ("dt", "TooManySteps", MAX_TIME_STEPS),
        ("sample_every", "TooManySamples", MAX_SAMPLES)])
    def test_work_caps(self, name, kind, cap):
        # validate never steps, so the uncapped runs cost nothing here
        t_max = 50.0
        assert validate(make_spec(t_max=t_max, **{name: t_max / cap})).ok
        for value in (t_max / (2 * cap), 1e-9, 1e-12):
            report = validate(make_spec(t_max=t_max, **{name: value}))
            assert report.kinds() == {kind}
            assert str(cap) in report.violations[0].detail

    def test_work_caps_skip_bad_time_steps(self):
        report = validate(make_spec(t_max=float("inf"), dt=1e-9))
        assert report.kinds() == {"BadTimeStep"}

    # dt <= 0 is covered by test_bad_numerics
    @pytest.mark.parametrize("name,value", [
        ("dt", float("nan")), ("dt", float("inf")), ("t_max", 0.0),
        ("t_max", -1.0), ("t_max", float("nan")), ("t_max", float("inf"))])
    def test_bad_time_step(self, name, value):
        report = validate(make_spec().with_(**{name: value}))
        assert report.kinds() == {"BadTimeStep"}
        assert report.violations[0].detail.startswith(name + " must be")

    def test_r_check_reported(self):
        report = validate(make_spec())
        assert report.r_check >= 4.0 * 1.0

    def test_lattice_phase_offset_invariance(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*0.7*t)", gamma="0.1", beta="1", T=1.0)
        spec = make_spec(field=fld)
        kinds_a = validate(spec).kinds()
        kinds_b = validate(spec, lattice=(71, 64)).kinds()
        assert ("PeriodicityViolation" in kinds_a) == ("PeriodicityViolation" in kinds_b)


class TestSpec:
    def test_default_u0(self):
        spec = make_spec(h0=2.0)
        assert spec.u0_values(2.0) == pytest.approx(0.0, abs=1e-12)
        assert spec.u0_values(0.0) == pytest.approx(1.0)

    def test_with_override(self):
        spec = make_spec()
        spec2 = spec.with_(mu=7.0, n=64)
        assert spec2.mu == 7.0 and spec2.numerics.n == 64
        assert spec.mu == 1.0 and spec.numerics.n == Numerics().n

    def test_spec_pickles(self):
        spec = make_spec(u0="cos(pi*r/2)")
        clone = pickle.loads(pickle.dumps(spec))
        r = np.linspace(0, 1, 17)
        assert np.allclose(clone.u0_values(r), spec.u0_values(r))


class TestHabitat:
    def test_uniformly_favorable(self):
        rep = classify_habitat(constant_field(1.0), R=5.0)
        assert rep.favorable_fraction == 1.0
        assert rep.classification == "Favorable"

    def test_uniformly_unfavorable(self):
        fld = CoefficientField.from_expressions(alpha="0.5", gamma="1.5",
                                                beta="1", T=1.0)
        rep = classify_habitat(fld, R=5.0)
        assert rep.unfavorable_fraction == 1.0
        assert rep.classification == "Unfavorable"

    def test_zero_mean_neutral(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + sin(2*pi*t)", gamma="1", beta="1", T=1.0)
        rep = classify_habitat(fld, R=5.0)
        assert rep.favorable_fraction == 0.0
        assert rep.unfavorable_fraction == 0.0
        assert rep.classification == "Neutral"

    def test_shift_invariance(self):
        base = CoefficientField.from_expressions(
            alpha="1 + max(0, 2-r)", gamma="0.5", beta="1", T=1.0)
        shifted = CoefficientField.from_expressions(
            alpha="1 + max(0, 2-r) + 0.7", gamma="0.5 + 0.7", beta="1", T=1.0)
        a = classify_habitat(base, R=5.0)
        b = classify_habitat(shifted, R=5.0)
        assert a.favorable_fraction == b.favorable_fraction
        assert a.classification == b.classification

    def test_constant_mean_weighting(self):
        # volume-weighted mean of a constant equals that constant
        rep = classify_habitat(constant_field(1.0, gamma=0.25), R=3.0, N=3)
        assert rep.mean_birth == pytest.approx(1.25, abs=1e-10)
        assert rep.mean_death == pytest.approx(0.25, abs=1e-10)


class TestRIndependent:
    @pytest.mark.parametrize("fn,free", [
        (CoefficientField.from_expressions(0.5, 0.0, 1.0, T=1.0).alpha, True),
        (ExprFunction("1"), True),
        (ExprFunction("1 + 0.5*sin(2*pi*t)"), True),
        (ExprFunction("0.2 + 1.3*exp(-(r^2))"), False),
        (ExprFunction("max(t, 0*r)"), False),
        # a plain callable is not known to be r-free
        (lambda t, r: 1.0, False)])
    def test_known_r_free(self, fn, free):
        assert r_independent(fn) is free


def scalar_callable(t, r):
    return 0.7


def t_shaped_callable(t, r):
    return 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(t))


class TestCoefficientContract:
    """Every coefficient from_expressions builds, and growth, returns a
    float array of the broadcast shape of (t, r)."""

    T_COL = np.linspace(0.0, 1.0, 5)[:, None]
    R_ROW = np.linspace(0.0, 3.0, 7)

    @pytest.mark.parametrize("spec", [
        1.5, "1 + 0.5*sin(2*pi*t)", scalar_callable, t_shaped_callable],
        ids=["number", "string", "scalar-callable", "t-shaped-callable"])
    @pytest.mark.parametrize("t, r, shape", [
        (T_COL, R_ROW, (5, 7)), (0.3, R_ROW, (7,)), (T_COL, 2.0, (5, 1))],
        ids=["column-t-row-r", "scalar-t-row-r", "column-t-scalar-r"])
    def test_broadcast_shape(self, spec, t, r, shape):
        fld = CoefficientField.from_expressions(alpha=spec, gamma=spec,
                                                beta=spec, T=1.0)
        for fn in (fld.alpha, fld.gamma, fld.beta, fld.growth):
            out = fn(t, r)
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.float64 and out.shape == shape

    def test_entry_wraps_once(self):
        fld = CoefficientField.from_expressions(
            alpha=scalar_callable, gamma="0.1", beta=1.0, T=1.0)
        again = CoefficientField.from_expressions(
            alpha=fld.alpha, gamma=fld.gamma, beta=fld.beta, T=1.0)
        assert (again.alpha, again.gamma, again.beta) == (
            fld.alpha, fld.gamma, fld.beta)
        clone = pickle.loads(pickle.dumps(fld.alpha))
        assert np.array_equal(clone(self.T_COL, self.R_ROW),
                              fld.alpha(self.T_COL, self.R_ROW))
