import math
import pickle

import numpy as np
import pytest

from stefanlab import eigen, thresholds
from stefanlab.coeffmodel import (CoefficientField, ProblemSpec,
                                  constant_field)
from stefanlab.errors import BracketInvalid, NoSignChange
from stefanlab.thresholds import (ScaledProfile, ThresholdResult,
                                  criteria_experiment, ladder_is_sorted,
                                  mu_star, sigma0, verdict_ladder)

J01 = 2.4048255576957724


def favorable_spec(**kw):
    defaults = dict(N=2, d=1.0, mu=1.0, h0=1.5, n=64, dt=5e-3)
    defaults.update(kw)
    return ProblemSpec.build(constant_field(1.0), **defaults)


def unfavorable_core_field():
    # negative growth near the origin, favorable far field
    return CoefficientField.from_expressions(
        alpha="1", gamma="0.2 + 1.3*exp(-(r^2))", beta="1", T=1.0,
        r_max=60.0)


class TestScaledProfile:
    def test_scaling(self):
        base = lambda t, r: np.cos(np.pi * np.asarray(r) / 2)
        prof = ScaledProfile(base, 3.0)
        assert prof(0.0, 0.0) == pytest.approx(3.0)

    def test_pickles(self):
        spec = favorable_spec()
        prof = ScaledProfile(spec.u0, 0.25)
        clone = pickle.loads(pickle.dumps(prof))
        r = np.linspace(0, 1.5, 9)
        assert np.allclose(np.asarray(clone(0.0, r)), np.asarray(prof(0.0, r)))


class TestLadder:
    def test_sorted_patterns(self):
        assert ladder_is_sorted(["Vanishing", "Vanishing", "Spreading"])
        assert ladder_is_sorted(["Spreading", "Spreading"])
        assert ladder_is_sorted(["Vanishing"])
        assert not ladder_is_sorted(["Spreading", "Vanishing"])


class TestMuStar:
    def test_zero_when_h0_above_threshold(self):
        res = mu_star(favorable_spec(h0=3.0), 0.1, 5.0)
        assert res.value == 0.0
        assert res.evaluations == 0
        assert "lambda1" in res.evidence

    def test_bisection_bracket_invariant(self):
        res = mu_star(favorable_spec(), 0.02, 8.0, tol=0.1)
        lo, hi = res.bracket
        assert 0.02 <= lo < res.value < hi <= 8.0
        assert hi - lo <= 0.1 * (1.0 + res.value)
        assert res.verdict_lo == "Vanishing"
        assert res.verdict_hi == "Spreading"
        assert res.evaluations >= 4

    def test_bad_bracket(self):
        # both endpoints spread for a large initial radius close to h*
        with pytest.raises(BracketInvalid):
            mu_star(favorable_spec(h0=2.3), 5.0, 10.0, tol=0.1)


class TestSigma0:
    def test_zero_when_lambda1_nonpositive(self):
        spec = favorable_spec(h0=3.0)
        res = sigma0(spec, spec.u0, 0.1, 5.0)
        assert res.value == 0.0

    def test_positive_for_unfavorable_core(self):
        fld = unfavorable_core_field()
        spec = ProblemSpec.build(fld, N=2, d=1.0, mu=2.0, h0=1.5, n=64,
                                 dt=5e-3)
        res = sigma0(spec, spec.u0, 0.05, 30.0, tol=0.2)
        assert res.value > 0.0
        assert res.verdict_lo == "Vanishing"
        assert res.verdict_hi == "Spreading"

    def test_ladder_sorted(self):
        fld = unfavorable_core_field()
        spec = ProblemSpec.build(fld, N=2, d=1.0, mu=2.0, h0=1.5, n=64,
                                 dt=5e-3)
        verdicts = verdict_ladder(spec, "sigma", [0.05, 30.0])
        assert verdicts == ["Vanishing", "Spreading"]
        assert ladder_is_sorted(verdicts)


class TestCriteriaExperiment:
    def test_large_habitat_all_spreading(self):
        rep = criteria_experiment("LargeHabitat", favorable_spec())
        assert rep.kind == "LargeHabitat"
        assert rep.chosen["h0"] == pytest.approx(1.2 * J01, rel=0.01)
        assert rep.verdicts == ("Spreading", "Spreading", "Spreading")
        assert rep.matches

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            criteria_experiment("Bogus", favorable_spec())

    @staticmethod
    def _stub_probes(monkeypatch, d_thresholds):
        monkeypatch.setattr(eigen, "d_thresholds", d_thresholds)
        monkeypatch.setattr(thresholds, "_hstar_for", lambda spec: J01)
        monkeypatch.setattr(thresholds._Prober, "verdict",
                            lambda self, **kw: "Spreading")

    def test_no_sign_change_gives_nan_thresholds(self, monkeypatch):
        def one_signed(*args, **kwargs):
            raise NoSignChange(+1)

        self._stub_probes(monkeypatch, one_signed)
        rep = criteria_experiment("LargeHabitat", favorable_spec())
        assert math.isnan(rep.d_star) and math.isnan(rep.d_upper)
        assert rep.matches

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        self._stub_probes(monkeypatch, broken)
        with pytest.raises(TypeError):
            criteria_experiment("LargeHabitat", favorable_spec())
