"""Simulation-driven sharp-criteria finders.

Bisection on the expansion coefficient mu and on the initial amplitude
sigma, with verdicts from the free-boundary classifier.  Monotonicity of
the verdict in mu and sigma comes from the comparison principle; ladder
audits detect violations instead of silently bisecting a non-monotone
function.  A probe stops once its verdict is certain, and an Undecided
probe is resumed to a longer horizon before the bracket shrinks.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import eigen, freeboundary
from .errors import BracketInvalid, NumericalError, TooManyUndecided

log = logging.getLogger("stefanlab")

HORIZON_START = 50.0     # in periods
HORIZON_CAP = 400.0
MAX_ESCALATIONS = 5
CRITERIA_AMPLITUDES = (0.05, 0.5, 5.0)   # small, medium and large sigma


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


def spec_at(spec, param, value):
    """Spec copy with one probe parameter set to ``value``.

    ``sigma`` scales the initial profile (u0 = sigma * spec.u0), ``h0``
    stretches it onto the new radius (keeping u0(h0) = 0 and the origin
    slope), and any other name is a ProblemSpec field or numerics key.
    """
    if param == "sigma":
        return spec.with_(u0=ScaledProfile(spec.u0, value))
    if param == "h0":
        return spec.with_(h0=float(value),
                          u0=StretchedProfile(spec.u0, spec.h0 / float(value)))
    return spec.with_(**{param: value})


class _Prober:
    """Verdicts of probe simulations, one ``simulate`` call per evaluation.

    A run stops at the first sample whose verdict is certain (see
    ``_decided``), and an Undecided run is resumed to the escalated
    horizon instead of restarted.
    """

    def __init__(self, spec, h_star_value):
        self.spec = spec
        self.h_star_value = h_star_value
        self.evaluations = 0
        self.undecided = 0

    def _decided(self, t, h, h_prime, u_sup, period_end):
        # h is nondecreasing, so a Spreading sample keeps its verdict and
        # crossing time up to any horizon; the Vanishing test is the
        # horizon's test, applied only at the horizon's phase
        verdict = freeboundary.decide(h, h_prime, u_sup, self.h_star_value)
        return verdict == "Spreading" or (verdict == "Vanishing" and period_end)

    def verdict(self, **overrides):
        spec = self.spec
        for param, value in overrides.items():
            spec = spec_at(spec, param, value)
        probe = ", ".join("%s=%.10g" % kv for kv in overrides.items())
        T = spec.field.T
        horizon = HORIZON_START * T
        escalations = 0
        traj = None
        while True:
            self.evaluations += 1
            traj = freeboundary.simulate(spec, t_max=horizon,
                                         stop=self._decided, resume=traj)
            out = freeboundary.classify_outcome(traj, spec,
                                                h_star_value=self.h_star_value)
            log.debug("probe %s: horizon %.6g, stopped at t=%.6g: %s",
                      probe, horizon, traj.t[-1], out.verdict)
            if out.verdict != "Undecided":
                return out.verdict
            self.undecided += 1
            escalations += 1
            if horizon >= HORIZON_CAP * T or escalations > MAX_ESCALATIONS:
                raise TooManyUndecided(
                    "probe stayed Undecided up to t=%.3g (%d escalations)"
                    % (horizon, escalations))
            horizon = min(2.0 * horizon, HORIZON_CAP * T)


def _sharp_threshold(spec, param, lo, hi, tol, h_star_value,
                     bound_if_undecided):
    """Bisect the Vanishing -> Spreading flip of the verdict in ``param``.

    Value 0 when lambda1 at the initial radius is already nonpositive
    (h0 >= h*), where spreading holds for every value.  When the upper
    endpoint stays Undecided up to the escalation cap, the result is
    [lo, hi] as a lower bound only if ``bound_if_undecided``; otherwise
    TooManyUndecided propagates.
    """
    if h_star_value is None:
        h_star_value = freeboundary.spec_h_star(spec)
    if math.isfinite(h_star_value) and spec.h0 >= h_star_value:
        return ThresholdResult(value=0.0, bracket=(0.0, 0.0),
                               verdict_lo="Spreading", verdict_hi="Spreading",
                               evaluations=0, undecided_encounters=0,
                               evidence="lambda1(h0) <= 0 => spreading for all %s"
                               % param)
    prober = _Prober(spec, h_star_value)

    def verdict(value):
        return prober.verdict(**{param: value})

    lo, hi = float(lo), float(hi)
    v_lo = verdict(lo)
    try:
        v_hi = verdict(hi)
    except TooManyUndecided:
        if not bound_if_undecided:
            raise
        # spreading endpoint not certified within the escalation cap;
        # report the bracket as a lower bound instead of asserting finiteness
        return ThresholdResult(value=hi, bracket=(lo, hi),
                               verdict_lo=v_lo, verdict_hi="Undecided",
                               evaluations=prober.evaluations,
                               undecided_encounters=prober.undecided,
                               evidence="lower bound only")
    if v_lo != "Vanishing" or v_hi != "Spreading":
        raise BracketInvalid(
            "%s bracket endpoints gave (%s, %s); need (Vanishing, Spreading)"
            % (param, v_lo, v_hi))
    lo, hi = eigen._bisect(lambda x: verdict(x) != "Spreading", lo, hi,
                           lambda lo, hi: hi - lo > tol * (1.0 + 0.5 * (lo + hi)))
    return ThresholdResult(value=0.5 * (lo + hi), bracket=(lo, hi),
                           verdict_lo="Vanishing", verdict_hi="Spreading",
                           evaluations=prober.evaluations,
                           undecided_encounters=prober.undecided)


def mu_star(spec, mu_lo, mu_hi, tol=0.01, h_star_value=None):
    """Sharp expansion-coefficient threshold by bisection.

    Returns value 0 immediately when lambda1 at the initial radius is
    already nonpositive (h0 >= h*), where spreading holds for every mu.
    Raises TooManyUndecided when the mu_hi probe stays Undecided.
    """
    return _sharp_threshold(spec, "mu", mu_lo, mu_hi, tol, h_star_value,
                            bound_if_undecided=False)


def sigma0(spec, zeta, sigma_lo, sigma_hi, tol=0.01, h_star_value=None):
    """Sharp initial-amplitude threshold for u0 = sigma * zeta.

    When the sigma_hi probe stays Undecided the result is the bracket as a
    lower bound only (value sigma_hi, verdict_hi "Undecided").
    """
    return _sharp_threshold(spec.with_(u0=zeta), "sigma", sigma_lo, sigma_hi,
                            tol, h_star_value, bound_if_undecided=True)


def verdict_ladder(spec, param, values, zeta=None, h_star_value=None):
    """Audit verdict monotonicity along a parameter ladder.

    ``zeta``, when given, replaces the initial profile (the base of a
    ``sigma`` ladder).  Returns the list of verdicts; a sorted ladder is
    all-Vanishing then all-Spreading.
    """
    if zeta is not None:
        spec = spec.with_(u0=zeta)
    if h_star_value is None:
        h_star_value = freeboundary.spec_h_star(spec)
    prober = _Prober(spec, h_star_value)
    return [prober.verdict(**{param: v}) for v in values]


def ladder_is_sorted(verdicts):
    seen_spreading = False
    for v in verdicts:
        if v == "Spreading":
            seen_spreading = True
        elif seen_spreading:
            return False
    return True


CRITERIA_KINDS = ("SlowDiffusion", "FastDiffusion", "LargeHabitat",
                  "SmallHabitat")


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


def criteria_experiment(kind, spec):
    """Qualitative regime check: slow/fast diffusion, large/small habitat.

    Computes the thresholds, moves the spec into the requested regime,
    runs the CRITERIA_AMPLITUDES and reports whether the verdict pattern
    matches the regime's prediction.  Mismatches are reported, not thrown.
    When the d scan fails numerically, a diffusion regime raises the
    scan's error and the habitat regimes report NaN d thresholds.
    """
    if kind not in CRITERIA_KINDS:
        raise ValueError("unknown experiment kind %r" % kind)
    try:
        dth = freeboundary.spec_d_thresholds(spec)
        d_star, d_upper = dth.d_star, dth.d_upper
    except NumericalError:
        if kind.endswith("Diffusion"):
            raise
        d_star = d_upper = math.nan
    if kind == "SlowDiffusion":
        param, value = "d", 0.5 * d_star
        prediction = "all Spreading"
    elif kind == "FastDiffusion":
        param, value = "d", 2.0 * d_upper
        prediction = "Vanishing for small, Spreading for large"
    elif kind == "LargeHabitat":
        param, value = "h0", 1.2 * freeboundary.spec_h_star(spec)
        prediction = "all Spreading"
    else:  # SmallHabitat
        param, value = "h0", 0.6 * freeboundary.spec_h_star(spec)
        prediction = "Vanishing for small, Spreading for large"

    probe_spec = spec_at(spec, param, value)
    hs = freeboundary.spec_h_star(probe_spec)
    prober = _Prober(probe_spec, hs)
    verdicts = []
    for amp in CRITERIA_AMPLITUDES:
        try:
            verdicts.append(prober.verdict(sigma=amp))
        except TooManyUndecided:
            verdicts.append("Undecided")
    verdicts = tuple(verdicts)
    if prediction == "all Spreading":
        matches = all(v == "Spreading" for v in verdicts)
    else:
        matches = verdicts[0] == "Vanishing" and verdicts[-1] == "Spreading"
    return CriteriaReport(kind=kind, h_star_value=hs, d_star=d_star,
                          d_upper=d_upper, chosen={param: value},
                          verdicts=verdicts,
                          prediction=prediction, matches=matches)
