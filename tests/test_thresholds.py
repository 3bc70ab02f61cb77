import logging
import math
import pickle
import re

import numpy as np
import pytest

from stefanlab import eigen, freeboundary, thresholds
from stefanlab.coeffmodel import (CoefficientField, ProblemSpec,
                                  constant_field)
from stefanlab.errors import BracketInvalid, NoSignChange, TooManyUndecided
from stefanlab.freeboundary import classify_outcome
from stefanlab.thresholds import (ScaledProfile, ThresholdResult,
                                  criteria_experiment, ladder_is_sorted,
                                  mu_star, sigma0, verdict_ladder)
from stefanlab.thresholds import StretchedProfile, spec_at
from stefanlab.eigen import BALL_ZERO

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
    def test_zero_when_h0_above_threshold(self, monkeypatch):
        # no prober, so no upper solution, is built for an answer
        # that needs no probe
        monkeypatch.setattr(thresholds, "_Prober", None)
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
    def test_large_habitat_all_spreading(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="stefanlab"):
            rep = criteria_experiment("LargeHabitat", favorable_spec())
        # each amplitude's run logs one probe line
        probes = [r.getMessage().split(":")[0] for r in caplog.records
                  if r.getMessage().startswith("probe ")]
        assert probes == ["probe sigma=0.05", "probe sigma=0.5",
                          "probe sigma=5"]
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
        monkeypatch.setattr(freeboundary, "spec_h_star", lambda spec: J01)
        monkeypatch.setattr(thresholds._Prober, "run",
                            lambda self, spec, horizon, probe:
                            ("Spreading", "eigenvalue", 0.0))

    def test_no_sign_change_gives_nan_thresholds(self, monkeypatch):
        def one_signed(*args, **kwargs):
            raise NoSignChange(+1)

        self._stub_probes(monkeypatch, one_signed)
        rep = criteria_experiment("LargeHabitat", favorable_spec())
        assert math.isnan(rep.d_star) and math.isnan(rep.d_upper)
        assert rep.matches

    @pytest.mark.parametrize("kind", ["SlowDiffusion", "FastDiffusion"])
    def test_diffusion_regime_needs_a_d_threshold(self, monkeypatch, kind):
        def one_signed(*args, **kwargs):
            raise NoSignChange(+1)

        def no_probe(self, spec, horizon, probe):
            raise AssertionError("probe at d=%r" % spec.d)

        self._stub_probes(monkeypatch, one_signed)
        monkeypatch.setattr(thresholds._Prober, "run", no_probe)
        with pytest.raises(NoSignChange):
            criteria_experiment(kind, favorable_spec())

    def test_unknown_kind_before_the_scan(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("d scan")

        monkeypatch.setattr(eigen, "d_thresholds", no_scan)
        with pytest.raises(ValueError):
            criteria_experiment("Bogus", favorable_spec())

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        self._stub_probes(monkeypatch, broken)
        with pytest.raises(TypeError):
            criteria_experiment("LargeHabitat", favorable_spec())


class TestUndecidedUpperEndpoint:
    @staticmethod
    def _stub_verdicts(monkeypatch):
        # the lower endpoint vanishes; the upper one stays Undecided to the cap
        def verdict(self, **overrides):
            self.evaluations += 1
            if self.evaluations == 1:
                return "Vanishing"
            self.undecided += 1
            raise TooManyUndecided("stub: Undecided up to the cap")

        monkeypatch.setattr(thresholds._Prober, "verdict", verdict)

    def test_sigma0_reports_lower_bound_only(self, monkeypatch):
        self._stub_verdicts(monkeypatch)
        spec = favorable_spec()
        res = sigma0(spec, spec.u0, 0.05, 30.0, h_star_value=J01)
        assert res.value == 30.0
        assert res.bracket == (0.05, 30.0)
        assert res.verdict_lo == "Vanishing"
        assert res.verdict_hi == "Undecided"
        assert res.evidence == "lower bound only"
        assert (res.evaluations, res.undecided_encounters) == (2, 1)

    def test_mu_star_raises(self, monkeypatch):
        self._stub_verdicts(monkeypatch)
        with pytest.raises(TooManyUndecided):
            mu_star(favorable_spec(), 0.05, 8.0, h_star_value=J01)


class TestUndecidedInteriorProbe:
    def test_sigma0_keeps_verified_bracket(self):
        # demos/sigma0_critical.cfg: the probe sigma=2.8484375 creeps toward
        # h* and stays Undecided up to the cap; the search used to end with
        # TooManyUndecided and drop the bracket it had verified
        spec = ProblemSpec.build(constant_field(0.5, gamma=0.5), d=1.0,
                                 mu=1.0, h0=1.993796, n=64, dt=0.02)
        res = sigma0(spec, spec.u0, 0.05, 10.0, tol=0.1)
        assert res.bracket == pytest.approx((2.5375, 3.159375), abs=1e-12)
        assert res.value == pytest.approx(2.8484375, abs=1e-12)
        assert (res.verdict_lo, res.verdict_hi) == ("Vanishing", "Spreading")
        assert (res.evaluations, res.undecided_encounters) == (7, 1)
        assert "sigma=2.8484375 stayed Undecided" in res.evidence

    def test_mu_star_keeps_verified_bracket(self, monkeypatch):
        # Vanishing below 1, Spreading above 1.5, Undecided in between
        def verdict(self, mu):
            self.evaluations += 1
            if mu < 1.0:
                return "Vanishing"
            if mu > 1.5:
                return "Spreading"
            self.undecided += 1
            raise TooManyUndecided("probe mu=%.10g stayed Undecided" % mu)

        monkeypatch.setattr(thresholds._Prober, "verdict", verdict)
        res = mu_star(favorable_spec(), 0.0, 4.0, tol=0.01, h_star_value=J01)
        # probes 0, 4, 2, 1 (Undecided): the verified bracket is [0, 2]
        assert (res.value, res.bracket) == (1.0, (0.0, 2.0))
        assert (res.evaluations, res.undecided_encounters) == (4, 1)
        assert res.evidence == "bisection stopped: probe mu=1 stayed Undecided"


class TestSpecAt:
    def test_sigma_scales_the_profile(self):
        spec = favorable_spec()
        probe = spec_at(spec, "sigma", 0.25)
        assert isinstance(probe.u0, ScaledProfile)
        assert probe.u0.zeta is spec.u0 and probe.u0.sigma == 0.25
        assert probe.with_(u0=spec.u0) == spec

    def test_h0_respans_the_profile(self):
        spec = favorable_spec()
        probe = spec_at(spec, "h0", 3.0)
        assert probe.h0 == 3.0
        assert isinstance(probe.u0, StretchedProfile)
        assert probe.u0.base is spec.u0 and probe.u0.scale == 0.5

    def test_other_names_are_spec_fields(self):
        spec = favorable_spec()
        assert spec_at(spec, "mu", 2.5) == spec.with_(mu=2.5)
        assert spec_at(spec, "dt", 1e-3).numerics.dt == 1e-3


class TestBisectionLogging:
    def test_one_debug_line_per_probe(self, monkeypatch, caplog):
        probes = []

        def verdict(self, **overrides):
            self.evaluations += 1
            probes.append(overrides["mu"])
            return "Spreading" if overrides["mu"] >= 1.8 else "Vanishing"

        monkeypatch.setattr(thresholds._Prober, "verdict", verdict)
        with caplog.at_level(logging.DEBUG, logger="stefanlab"):
            res = mu_star(favorable_spec(), 0.4, 4.0, tol=0.4,
                          h_star_value=J01)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "stefanlab" and r.levelno == logging.DEBUG]
        assert probes[:2] == [0.4, 4.0]
        assert len(lines) == len(probes) - 2 == res.evaluations - 2 > 0
        assert lines[0] == "bisect [0.4, 4]: probe 2.2"
        assert res.bracket[0] < 1.8 <= res.bracket[1]


def mu_star_spec():
    """The constant-field mu* benchmark (seed 0); mu* is 1.75 in [1.3, 2.2]."""
    return ProblemSpec.build(constant_field(0.5, gamma=0.5), d=1.0, mu=1.0,
                             h0=2.0, n=64, dt=0.02)


def ladder_spec(ladder):
    """A mu ladder and a sigma ladder, each with probes that the decay
    test leaves Undecided at 50 periods."""
    if ladder == "mu":
        # mu=1.3 is Undecided at 50T; the upper solution certifies it
        return mu_star_spec(), (0.4, 1.3, 2.2, 4.0)
    spec = ProblemSpec.build(unfavorable_core_field(), d=1.0, mu=2.0, h0=1.5,
                             n=64, dt=0.02)
    # sigma=3.0 is Undecided at 50 periods, sigma=3.3 also at 100
    return spec, (0.5, 3.0, 3.3, 4.0)


def full_horizon_verdict(spec, h_star_value):
    """A probe decided by fresh runs over the whole horizon, from 50
    periods and doubled while Undecided up to the cap: the verdicts that
    one early-stopping run must reproduce."""
    start = 50.0     # in periods
    T = spec.field.T
    horizon, doublings = start * T, 0
    while True:
        traj = freeboundary.simulate(spec, t_max=horizon)
        verdict = classify_outcome(traj, spec, h_star_value=h_star_value).verdict
        if verdict != "Undecided" or horizon >= thresholds.HORIZON_CAP * T:
            return verdict, doublings
        doublings += 1
        horizon = min(2.0 * horizon, thresholds.HORIZON_CAP * T)


class TestEarlyStopping:
    @pytest.mark.parametrize("ladder", ["mu", "sigma"])
    def test_ladder_matches_full_horizon(self, ladder, monkeypatch):
        spec, values = ladder_spec(ladder)
        hs = freeboundary.spec_h_star(spec)
        ref = [full_horizon_verdict(spec_at(spec, ladder, v), hs)
               for v in values]
        assert sum(doublings for _, doublings in ref) > 0
        calls = []
        real = freeboundary.simulate

        def counted(spec, t_max=None, **kwargs):
            traj = real(spec, t_max=t_max, **kwargs)
            calls.append((t_max, traj))
            return traj

        monkeypatch.setattr(freeboundary, "simulate", counted)
        verdicts = verdict_ladder(spec, ladder, values, h_star_value=hs)
        assert verdicts == [v for v, _ in ref]
        # one simulate call per probe, whether or not the full horizon
        # runs needed more than 50 periods
        assert len(calls) == len(values)
        # decided probes stop before their horizon, a Vanishing one only
        # at a period boundary
        early = [traj for t_max, traj in calls if traj.t[-1] < t_max]
        assert early
        for traj in early:
            if traj.h[-1] < hs:
                assert traj.t[-1] == pytest.approx(round(traj.t[-1]))

    def test_undecided_probe_runs_once_to_the_cap(self, monkeypatch):
        spec = mu_star_spec()
        calls = []

        def undecided(spec, t_max=None, **kwargs):
            # a front that never moves and a density that never decays
            calls.append((t_max, sorted(kwargs)))
            return freeboundary.Trajectory(
                t=np.array([0.0, t_max]), h=np.full(2, spec.h0),
                h_prime=np.zeros(2), u_sup=np.ones(2))

        monkeypatch.setattr(freeboundary, "simulate", undecided)
        prober = thresholds._Prober(spec, J01 * math.sqrt(2.0))
        with pytest.raises(TooManyUndecided):
            prober.verdict(mu=1.3)
        assert calls == [(thresholds.HORIZON_CAP * spec.field.T, ["stop"])]
        assert prober.evaluations == prober.undecided == 1

    def test_one_simulation_per_evaluation(self, monkeypatch):
        spec = mu_star_spec()
        real = freeboundary.simulate
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def reclassified(*args, **kwargs):
            raise AssertionError("a probe's verdict is its stop test's")

        monkeypatch.setattr(freeboundary, "simulate", counted)
        monkeypatch.setattr(freeboundary, "classify_outcome", reclassified)
        res = mu_star(spec, 0.4, 4.0, tol=0.4)
        assert (res.value, res.bracket) == (1.75, (1.3, 2.2))
        # mu=1.3 is certified Vanishing at t=6, where the decay test was
        # Undecided at 50 periods
        assert (res.evaluations, res.undecided_encounters) == (4, 0)
        assert len(calls) == res.evaluations

    def test_run_reports_its_stop(self):
        # run returns what stopped the run, Undecided when nothing did
        # before the horizon; it counts no evaluation and raises nothing
        spec = mu_star_spec()
        prober = thresholds._Prober(spec, J01 * math.sqrt(2.0))
        probe = spec_at(spec, "mu", 1.3)
        assert prober.run(probe, 5.0, "mu=1.3") == (
            "Undecided", "nearest-miss", 5.0)
        assert prober.run(probe, 10.0, "mu=1.3") == (
            "Vanishing", "certified", 6.0)
        assert prober.run(spec_at(spec, "mu", 4.0), 400.0, "mu=4") == (
            "Spreading", "eigenvalue", 3.25)
        assert prober.evaluations == prober.undecided == 0

    def test_run_past_h_star_is_spreading_at_zero(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("unexpected run")

        monkeypatch.setattr(freeboundary, "simulate", no_run)
        spec = mu_star_spec()
        prober = thresholds._Prober(spec, 2.0)     # h* + tol_h = 2.03
        assert prober.run(spec_at(spec, "h0", 2.1), 400.0, "h0=2.1") == (
            "Spreading", "eigenvalue", 0.0)

    def test_h_star_solved_once_when_not_given(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec.d)
            return J01

        monkeypatch.setattr(freeboundary, "spec_h_star", counted)
        prober = thresholds._Prober(favorable_spec())
        assert prober.h_star_value == J01 and calls == [1.0]
        assert thresholds._Prober(favorable_spec(), 3.0).h_star_value == 3.0
        assert calls == [1.0]

    def test_one_debug_line_per_evaluation(self, caplog):
        spec = mu_star_spec()
        prober = thresholds._Prober(spec, J01 * math.sqrt(2.0))
        with caplog.at_level(logging.DEBUG, logger="stefanlab"):
            assert prober.verdict(mu=1.3) == "Vanishing"
            assert prober.verdict(mu=4.0) == "Spreading"
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "stefanlab" and r.levelno == logging.DEBUG]
        assert len(lines) == prober.evaluations == 2
        pattern = r"probe mu=%s: horizon %s, stopped at t=([0-9.]+): %s$"
        m = [re.match(pattern % args, line) for args, line in zip(
            [("1.3", "400", r"Vanishing \(certified\)"),
             ("4", "400", r"Spreading \(eigenvalue\)")], lines)]
        assert all(m), lines
        assert float(m[0].group(1)) < 50.0
        assert float(m[1].group(1)) < 50.0

    def test_demo_thresholds_unchanged(self):
        # demos/sharp_thresholds.py: the same answers as full horizon
        # probes gave.  mu* (constant growth) takes 9 evaluations and no
        # Undecided, 13 and 4 before the upper-solution certificate.
        # sigma0's growth depends on r, so its probes use the decay test
        # alone: 9 evaluations, one per probe, and no Undecided
        spec = favorable_spec(h0=1.5)
        assert mu_star(spec, 0.05, 8.0, tol=0.05, h_star_value=J01) == \
            ThresholdResult(value=1.2611328124999999,
                            bracket=(1.230078125, 1.2921874999999998),
                            verdict_lo="Vanishing", verdict_hi="Spreading",
                            evaluations=9, undecided_encounters=0)
        core = ProblemSpec.build(unfavorable_core_field(), d=1.0, mu=2.0,
                                 h0=1.5, n=64, dt=5e-3)
        assert sigma0(core, core.u0, 0.05, 30.0, tol=0.1) == \
            ThresholdResult(value=3.4427734375000005,
                            bracket=(3.3257812500000004, 3.5597656250000003),
                            verdict_lo="Vanishing", verdict_hi="Spreading",
                            evaluations=9, undecided_encounters=0)


class TestUpperSolution:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_ball_eigenpair(self, N):
        errors = []
        for n in (64, 128, 256):
            kappa, phi = thresholds._ball_eigenpair(n, N)
            assert phi.shape == (n + 1,)
            assert phi[0] == 1.0 and phi[-1] == 0.0
            assert np.all(phi[:-1] > 0) and np.all(np.diff(phi) < 0)
            errors.append(kappa - BALL_ZERO[N] ** 2)
        # second order: the error is O(n**-2) and quarters as n doubles
        assert all(abs(e) * n ** 2 < 10.0 for e, n in zip(errors, (64, 128, 256)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=1e-2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=1e-2)

    def test_r_free_growth_only(self):
        def prober(alpha, gamma):
            fld = CoefficientField.from_expressions(alpha=alpha, gamma=gamma,
                                                    beta="1", T=1.0)
            return thresholds._Prober(ProblemSpec.build(fld, n=64), J01)

        assert prober("1", "0.5").upper is not None
        assert prober(1.0, 0.0).upper is not None
        assert prober("1 + 0.5*sin(2*pi*t)", "0").upper is not None
        # growth that reads r, or that a plain callable hides, keeps the
        # decay test alone
        assert prober("1", "0.2 + 1.3*exp(-(r^2))").upper is None
        assert prober(lambda t, r: 1.0 + 0 * np.asarray(r), "0").upper is None
        core = ProblemSpec.build(unfavorable_core_field(), n=64)
        assert thresholds._Prober(core, 3.0).upper is None
        # no finite threshold, no radius H to certify below
        assert thresholds._Prober(favorable_spec(), math.inf).upper is None

    def test_period_mean_and_max_p(self):
        fld = CoefficientField.from_expressions(
            alpha="1.5 + 0.5*sin(2*pi*t)", gamma="0.5", beta="1", T=1.0)
        upper = thresholds._UpperSolution(fld, 2)
        assert upper.mean == pytest.approx(1.0, abs=1e-12)
        # p(t) = exp((1 - cos(2*pi*t))/(4*pi)), largest at t = 1/2
        assert upper.p_max == pytest.approx(math.exp(0.5 / math.pi), rel=1e-5)
        assert upper.slope == pytest.approx(BALL_ZERO[2] * 0.5191474972894669,
                                            rel=1e-4)

    def test_mu_ladder_certifies_only_vanishing_probes(self, monkeypatch):
        spec = mu_star_spec()
        values = (0.4, 1.3, 1.6, 1.75, 1.9, 2.2, 4.0)
        hs = freeboundary.spec_h_star(spec)
        ref = [full_horizon_verdict(spec_at(spec, "mu", v), hs)[0]
               for v in values]
        assert ref == ["Vanishing"] * 4 + ["Spreading"] * 3
        checks = []
        real = thresholds._UpperSolution.certifies

        def recorded(self, state, d, mu, H):
            held = real(self, state, d, mu, H)
            checks.append((mu, state.t, held))
            return held

        monkeypatch.setattr(thresholds._UpperSolution, "certifies", recorded)
        assert verdict_ladder(spec, "mu", values, h_star_value=hs) == ref
        certified = {mu for mu, _, held in checks if held}
        assert certified == set(values[:4])
        # the Spreading probes were checked and never certified
        assert {mu for mu, _, _ in checks} >= set(values[4:-1])
