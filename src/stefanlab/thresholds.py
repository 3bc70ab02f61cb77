"""Simulation-driven sharp-criteria finders.

Bisection on the expansion coefficient mu and on the initial amplitude
sigma, with verdicts from the free-boundary classifier.  Monotonicity of
the verdict in mu and sigma comes from the comparison principle; ladder
audits detect violations instead of silently bisecting a non-monotone
function.  Undecided probes escalate the horizon before the bracket
shrinks.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import eigen, freeboundary
from .errors import (BracketInvalid, NoConvergence, NonPositiveIterate,
                     NoSignChange, SolverSingular, TooManyUndecided)

HORIZON_START = 50.0     # in periods
HORIZON_CAP = 400.0
MAX_ESCALATIONS = 5


@dataclass(frozen=True)
class ThresholdResult:
    value: float
    bracket: tuple
    verdict_lo: str
    verdict_hi: str
    evaluations: int
    undecided_encounters: int
    evidence: str = ""


class ScaledProfile:
    """Picklable initial profile sigma * zeta(r)."""

    def __init__(self, zeta, sigma):
        self.zeta = zeta
        self.sigma = float(sigma)

    def __call__(self, t, r=0.0):
        return self.sigma * np.asarray(self.zeta(t, r), dtype=float)


class StretchedProfile:
    """Picklable profile u0(r * scale); maps a profile built for one
    initial radius onto another."""

    def __init__(self, base, scale):
        self.base = base
        self.scale = float(scale)

    def __call__(self, t, r=0.0):
        return np.asarray(self.base(t, self.scale * np.asarray(r)), dtype=float)


def respan_initial_profile(spec, h0_new):
    """Spec copy with the new initial radius and the profile stretched to
    cover it (keeping u0(h0) = 0 and the origin slope)."""
    return spec.with_(h0=float(h0_new),
                      u0=StretchedProfile(spec.u0, spec.h0 / float(h0_new)))


class _Prober:
    def __init__(self, spec, h_star_value):
        self.spec = spec
        self.h_star_value = h_star_value
        self.evaluations = 0
        self.undecided = 0

    def verdict(self, **overrides):
        spec = self.spec
        if "h0" in overrides:
            spec = respan_initial_profile(spec, overrides.pop("h0"))
        if overrides:
            spec = spec.with_(**overrides)
        T = spec.field.T
        horizon = HORIZON_START * T
        escalations = 0
        while True:
            self.evaluations += 1
            traj = freeboundary.simulate(spec, t_max=horizon)
            out = freeboundary.classify_outcome(traj, spec,
                                                h_star_value=self.h_star_value)
            if out.verdict != "Undecided":
                return out.verdict
            self.undecided += 1
            escalations += 1
            if horizon >= HORIZON_CAP * T or escalations > MAX_ESCALATIONS:
                raise TooManyUndecided(
                    "probe stayed Undecided up to t=%.3g (%d escalations)"
                    % (horizon, escalations))
            horizon = min(2.0 * horizon, HORIZON_CAP * T)


def _hstar_for(spec, n=256):
    try:
        return eigen.h_star(spec.d, spec.field, spec.field.T,
                            r_lo=0.05 * spec.h0, r_hi=8.0 * spec.h0,
                            N=spec.N, n=n)
    except BracketInvalid:
        # lambda1 already nonpositive at the probe radius
        return 0.05 * spec.h0


def _bisect(prober, lo, hi, tol, param):
    v_lo = prober.verdict(**{param: lo})
    v_hi = prober.verdict(**{param: hi})
    if v_lo != "Vanishing" or v_hi != "Spreading":
        raise BracketInvalid(
            "%s bracket endpoints gave (%s, %s); need (Vanishing, Spreading)"
            % (param, v_lo, v_hi))
    while hi - lo > tol * (1.0 + 0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        if prober.verdict(**{param: mid}) == "Spreading":
            hi = mid
        else:
            lo = mid
    value = 0.5 * (lo + hi)
    return ThresholdResult(value=value, bracket=(lo, hi),
                           verdict_lo="Vanishing", verdict_hi="Spreading",
                           evaluations=prober.evaluations,
                           undecided_encounters=prober.undecided)


def mu_star(spec, mu_lo, mu_hi, tol=0.01, h_star_value=None):
    """Sharp expansion-coefficient threshold by bisection.

    Returns value 0 immediately when lambda1 at the initial radius is
    already nonpositive (h0 >= h*), where spreading holds for every mu.
    """
    if h_star_value is None:
        h_star_value = _hstar_for(spec)
    if math.isfinite(h_star_value) and spec.h0 >= h_star_value:
        return ThresholdResult(value=0.0, bracket=(0.0, 0.0),
                               verdict_lo="Spreading", verdict_hi="Spreading",
                               evaluations=0, undecided_encounters=0,
                               evidence="lambda1(h0) <= 0 => spreading for all mu")
    prober = _Prober(spec, h_star_value)
    return _bisect(prober, float(mu_lo), float(mu_hi), tol, "mu")


def sigma0(spec, zeta, sigma_lo, sigma_hi, tol=0.01, h_star_value=None):
    """Sharp initial-amplitude threshold for u0 = sigma * zeta."""
    if h_star_value is None:
        h_star_value = _hstar_for(spec)
    if math.isfinite(h_star_value) and spec.h0 >= h_star_value:
        return ThresholdResult(value=0.0, bracket=(0.0, 0.0),
                               verdict_lo="Spreading", verdict_hi="Spreading",
                               evaluations=0, undecided_encounters=0,
                               evidence="lambda1(h0) <= 0 => spreading for all sigma")

    class _SigmaProber(_Prober):
        def verdict(self, sigma):
            return _Prober.verdict(self, u0=ScaledProfile(zeta, sigma))

    prober = _SigmaProber(spec, h_star_value)
    v_lo = prober.verdict(sigma=float(sigma_lo))
    try:
        v_hi = prober.verdict(sigma=float(sigma_hi))
    except TooManyUndecided:
        # spreading endpoint not certified within the escalation cap;
        # report the bracket as a lower bound instead of asserting finiteness
        return ThresholdResult(value=float(sigma_hi),
                               bracket=(float(sigma_lo), float(sigma_hi)),
                               verdict_lo=v_lo, verdict_hi="Undecided",
                               evaluations=prober.evaluations,
                               undecided_encounters=prober.undecided,
                               evidence="lower bound only")
    if v_lo != "Vanishing" or v_hi != "Spreading":
        raise BracketInvalid(
            "sigma bracket endpoints gave (%s, %s); need (Vanishing, Spreading)"
            % (v_lo, v_hi))
    lo, hi = float(sigma_lo), float(sigma_hi)
    while hi - lo > tol * (1.0 + 0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        if prober.verdict(sigma=mid) == "Spreading":
            hi = mid
        else:
            lo = mid
    return ThresholdResult(value=0.5 * (lo + hi), bracket=(lo, hi),
                           verdict_lo="Vanishing", verdict_hi="Spreading",
                           evaluations=prober.evaluations,
                           undecided_encounters=prober.undecided)


def verdict_ladder(spec, param, values, zeta=None, h_star_value=None):
    """Audit verdict monotonicity along a parameter ladder.

    Returns the list of verdicts; a sorted ladder is all-Vanishing then
    all-Spreading.
    """
    if h_star_value is None:
        h_star_value = _hstar_for(spec)
    prober = _Prober(spec, h_star_value)
    out = []
    for v in values:
        if param == "sigma":
            out.append(prober.verdict(u0=ScaledProfile(zeta or spec.u0, v)))
        else:
            out.append(prober.verdict(**{param: v}))
    return out


def ladder_is_sorted(verdicts):
    seen_spreading = False
    for v in verdicts:
        if v == "Spreading":
            seen_spreading = True
        elif seen_spreading:
            return False
    return True


@dataclass(frozen=True)
class CriteriaReport:
    kind: str
    h_star_value: float
    d_star: float
    d_upper: float
    chosen: dict
    verdicts: tuple          # per (small, medium, large) amplitude profile
    prediction: str
    matches: bool


def criteria_experiment(kind, spec, amplitudes=(0.05, 0.5, 5.0)):
    """Qualitative regime check: slow/fast diffusion, large/small habitat.

    Computes the thresholds, moves the spec into the requested regime,
    runs three initial amplitudes and reports whether the verdict pattern
    matches the regime's prediction.  Mismatches are reported, not thrown.
    """
    fld = spec.field
    h_star_value = _hstar_for(spec)
    try:
        dth = eigen.d_thresholds(fld, spec.h0, fld.T, d_lo=1e-2 * spec.d,
                                 d_hi=1e2 * spec.d, N=spec.N, n=96)
        d_star, d_upper = dth.d_star, dth.d_upper
    except (NoSignChange, NoConvergence, NonPositiveIterate, SolverSingular):
        # no d-threshold to report: the diffusion regimes get NaN
        d_star = d_upper = math.nan
    chosen = {}
    if kind == "SlowDiffusion":
        chosen["d"] = 0.5 * d_star
        prediction = "all Spreading"
    elif kind == "FastDiffusion":
        chosen["d"] = 2.0 * d_upper
        prediction = "Vanishing for small, Spreading for large"
    elif kind == "LargeHabitat":
        chosen["h0"] = 1.2 * h_star_value
        prediction = "all Spreading"
    elif kind == "SmallHabitat":
        chosen["h0"] = 0.6 * h_star_value
        prediction = "Vanishing for small, Spreading for large"
    else:
        raise ValueError("unknown experiment kind %r" % kind)

    if "h0" in chosen:
        probe_spec = respan_initial_profile(spec, chosen["h0"])
    else:
        probe_spec = spec.with_(**chosen)
    hs = _hstar_for(probe_spec) if ("d" in chosen or "h0" in chosen) else h_star_value
    prober = _Prober(probe_spec, hs)
    verdicts = []
    for amp in amplitudes:
        try:
            verdicts.append(prober.verdict(u0=ScaledProfile(probe_spec.u0, amp)))
        except TooManyUndecided:
            verdicts.append("Undecided")
    verdicts = tuple(verdicts)
    if prediction == "all Spreading":
        matches = all(v == "Spreading" for v in verdicts)
    else:
        matches = verdicts[0] == "Vanishing" and verdicts[-1] == "Spreading"
    return CriteriaReport(kind=kind, h_star_value=hs, d_star=d_star,
                          d_upper=d_upper, chosen=chosen, verdicts=verdicts,
                          prediction=prediction, matches=matches)
