"""Simulation-driven sharp-criteria finders.

Bisection on the expansion coefficient mu and on the initial amplitude
sigma, with verdicts from the free-boundary decision rule.  Monotonicity
of the verdict in mu and sigma comes from the comparison principle;
ladder audits detect violations instead of silently bisecting a
non-monotone function.  A probe is one run of up to HORIZON_CAP periods
(a sweep cell: up to the sweep's horizon) that its stop test ends once
the verdict is certain, with the stop test's verdict; a probe still
Undecided at the cap raises TooManyUndecided.  When the growth rate does
not depend on r, a run is also certified Vanishing at a period end where
an upper solution lies above it.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import eigen, freeboundary, radialcore
from .coeffmodel import r_independent
from .errors import BracketInvalid, NumericalError, TooManyUndecided

log = logging.getLogger("stefanlab")

HORIZON_CAP = 400.0      # in periods
CRITERIA_AMPLITUDES = (0.05, 0.5, 5.0)   # small, medium and large sigma
BALL_N = 256              # grid intervals of the unit-ball eigenfunction
BALL_ITERATIONS = 100     # inverse iterations of the unit-ball eigenpair
GROWTH_PHASES = 1024      # phases of the growth rate's period mean
UPPER_SPLITS = (0.25, 0.5, 0.75)   # h1 tried at these fractions of (g, H)


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


def _ball_eigenpair(n, N):
    """Principal Dirichlet eigenpair of the radial Laplacian on the unit ball.

    Inverse iteration on the diffusion band pattern of an n-interval grid
    (off-diagonals negated, as diffusion_bands does), factored once.
    Returns (kappa, phi): kappa approximates BALL_ZERO[N]**2 to O(n**-2),
    and phi on the n + 1 nodes is positive inside, decreasing, with
    phi(0) = 1 and the Dirichlet zero phi(1) = 0.
    """
    lower, diag, upper = radialcore._band_pattern(n, N)
    op = radialcore.FactoredTridiag(-lower, diag, -upper)
    phi = np.ones(n)
    for _ in range(BALL_ITERATIONS):
        nxt = op.solve(phi)
        top = float(np.max(nxt))     # 1/kappa once phi has converged
        nxt /= top
        converged = float(np.max(np.abs(nxt - phi))) <= 1e-13
        phi = nxt
        if converged:
            break
    return n ** 2 / top, np.append(phi, 0.0)


class _UpperSolution:
    """Vanishing certificate from an upper solution, for a growth rate
    a(t) = alpha - gamma that does not depend on r.

    The principal periodic eigenfunction on the ball of radius h1 is then
    phi(t, r) = p(t)*Phi(r/h1), with p(t) = exp(int_0^t (a - mean a)) and
    lambda1(h1) = d*kappa/h1**2 - mean a, where (kappa, Phi) is the
    unit-ball Dirichlet eigenpair.  At a period end (p = 1) with front
    g < h1 and delta = h1/g - 1, w = M*exp(-delta*s)*phi(t, r*h1/eta(s)),
    with eta(s) = g*(1 + delta - delta/2*exp(-delta*s)), is an upper
    solution of the free-boundary problem when lambda1(h1) >= delta,
    M <= g**2*delta**2*(1 + delta/2) / (2*mu*|Phi'(1)|*max p), and
    u <= M*Phi(r/eta(0)) on [0, g].  Then the front stays below h1 and
    u -> 0 (Du & Lin, SIAM J. Math. Anal. 42, 2010; Du, Guo & Peng,
    J. Funct. Anal. 265, 2013).  The pair is computed once on BALL_N
    intervals; the mean and max p from GROWTH_PHASES phases of a.
    """

    def __init__(self, field, N):
        self.kappa, self.phi = _ball_eigenpair(BALL_N, N)
        self.slope = -freeboundary.front_gradient(self.phi, 1.0)
        t = np.arange(GROWTH_PHASES + 1) * (field.T / GROWTH_PHASES)
        a = field.growth(t, 0.0)
        self.mean = float(np.mean(a[:-1]))
        # int_0^t (a - mean) by the trapezoid rule; it is 0 at t = 0 and T
        integral = np.cumsum(0.5 * (a[1:] + a[:-1]) - self.mean) * (
            field.T / GROWTH_PHASES)
        self.p_max = math.exp(max(0.0, float(np.max(integral))))

    def certifies(self, state, d, mu, H):
        """True when the state, a period end with front g = state.h < H,
        is certified Vanishing by some h1 at UPPER_SPLITS of (g, H)."""
        g = state.h
        if not g < H:
            return False
        for split in UPPER_SPLITS:
            h1 = g + split * (H - g)
            delta = h1 / g - 1.0
            if d * self.kappa / h1 ** 2 - self.mean < delta:
                continue
            M = (g * g * delta * delta * (1.0 + 0.5 * delta)
                 / (2.0 * mu * self.slope * self.p_max))
            bound = M * np.interp(state.xi / (1.0 + 0.5 * delta),
                                  freeboundary._xi_grid(BALL_N), self.phi)
            if np.all(state.u <= bound):
                return True
        return False


class _Prober:
    """Verdicts of runs against one h* (spec_h_star unless given).

    ``run`` is one ``simulate`` call that stops at the first sample whose
    verdict is certain: past h* for Spreading, and at a period end for
    Vanishing, by the decay test or, for a growth rate that does not
    depend on r, by the upper-solution certificate (_UpperSolution).  A
    run that reaches its horizon without stopping is Undecided, unless h*
    lay beyond its bracket (infinite) and the front passed the h* searched
    out to 4 times the final radius.  ``verdict`` runs a probe to
    HORIZON_CAP periods and raises TooManyUndecided for an Undecided one.
    """

    def __init__(self, spec, h_star_value=None):
        if h_star_value is None:
            h_star_value = freeboundary.spec_h_star(spec)
        self.spec = spec
        self.h_star_value = h_star_value
        self.evaluations = 0
        self.undecided = 0
        fld = spec.field
        self.upper = None
        if (math.isfinite(h_star_value) and r_independent(fld.alpha)
                and r_independent(fld.gamma)):
            self.upper = _UpperSolution(fld, spec.N)

    def run(self, spec, horizon, probe):
        """(verdict, criterion, stop time) of ``spec`` run up to ``horizon``,
        logged under the label ``probe``; one that starts past h* is
        Spreading at t = 0 without a run."""
        hs = self.h_star_value
        H = hs - freeboundary._tol_h(hs)
        stopped = None          # (verdict, criterion) of the deciding sample

        def decided(state, h_prime, u_sup, period_end):
            # h is nondecreasing, so a Spreading sample keeps its verdict
            # and crossing time up to any horizon; the Vanishing tests
            # hold at the horizon's phase
            nonlocal stopped
            verdict = freeboundary.decide(state.h, h_prime, u_sup, hs)
            if verdict == "Spreading" or (verdict == "Vanishing"
                                          and period_end):
                stopped = verdict, freeboundary._CRITERION[verdict]
            elif (period_end and self.upper is not None
                    and self.upper.certifies(state, spec.d, spec.mu, H)):
                stopped = "Vanishing", "certified"
            return stopped is not None

        if spec.h0 > hs + freeboundary._tol_h(hs):
            verdict, criterion, t = "Spreading", "eigenvalue", 0.0
        else:
            traj = freeboundary.simulate(spec, t_max=horizon, stop=decided)
            verdict, criterion = stopped or ("Undecided", "nearest-miss")
            t = traj.t[-1]
            if stopped is None and not math.isfinite(hs):
                # lambda1 > 0 at 4*r_hi: search h* out to the final radius
                far = freeboundary.spec_h_star(spec, r_hi=4.0 * traj.h[-1])
                crossed = traj.t[traj.h > far + freeboundary._tol_h(far)]
                if crossed.size:
                    verdict, criterion, t = "Spreading", "eigenvalue", crossed[0]
        log.debug("probe %s: horizon %.6g, stopped at t=%.6g: %s (%s)",
                  probe, horizon, t, verdict, criterion)
        return verdict, criterion, float(t)

    def verdict(self, **overrides):
        spec = self.spec
        for param, value in overrides.items():
            spec = spec_at(spec, param, value)
        probe = ", ".join("%s=%.10g" % kv for kv in overrides.items())
        horizon = HORIZON_CAP * spec.field.T
        self.evaluations += 1
        verdict, _, _ = self.run(spec, horizon, probe)
        if verdict == "Undecided":
            self.undecided += 1
            raise TooManyUndecided("probe %s stayed Undecided up to t=%.3g"
                                   % (probe, horizon))
        return verdict


def _sharp_threshold(spec, param, lo, hi, tol, h_star_value,
                     bound_if_undecided):
    """Bisect the Vanishing -> Spreading flip of the verdict in ``param``.

    Value 0 when lambda1 at the initial radius is already nonpositive
    (h0 >= h*), where spreading holds for every value.  When the upper
    endpoint stays Undecided up to HORIZON_CAP periods, the result is
    [lo, hi] as a lower bound only if ``bound_if_undecided``; otherwise
    TooManyUndecided propagates.  When a bisection probe stays Undecided,
    the search stops: the verdict is monotone in ``param``, so the last
    verified bracket still holds the threshold, and it is returned with
    the Undecided probe named in the evidence.
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
        # spreading endpoint not certified within HORIZON_CAP periods;
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
    verified = [lo, hi]       # the last Vanishing and Spreading probes

    def vanishing(x):
        spreading = verdict(x) == "Spreading"
        verified[spreading] = x
        return not spreading

    try:
        eigen._bisect(vanishing, lo, hi,
                      lambda lo, hi: hi - lo > tol * (1.0 + 0.5 * (lo + hi)))
        evidence = ""
    except TooManyUndecided as exc:
        evidence = "bisection stopped: %s" % exc
    lo, hi = verified
    return ThresholdResult(value=0.5 * (lo + hi), bracket=(lo, hi),
                           verdict_lo="Vanishing", verdict_hi="Spreading",
                           evaluations=prober.evaluations,
                           undecided_encounters=prober.undecided,
                           evidence=evidence)


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
    scan's error and the habitat regimes report NaN d thresholds.  A
    habitat regime raises BracketInvalid when h* is infinite.
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
    else:
        hs = freeboundary.spec_h_star(spec)
        if not math.isfinite(hs):
            raise BracketInvalid("%s needs a finite h*, got h* = %r: "
                                 "lambda1 > 0 at every radius" % (kind, hs))
        if kind == "LargeHabitat":
            param, value = "h0", 1.2 * hs
            prediction = "all Spreading"
        else:  # SmallHabitat
            param, value = "h0", 0.6 * hs
            prediction = "Vanishing for small, Spreading for large"

    probe_spec = spec_at(spec, param, value)
    prober = _Prober(probe_spec)
    horizon = HORIZON_CAP * spec.field.T
    verdicts = tuple(prober.run(spec_at(probe_spec, "sigma", amp), horizon,
                                "sigma=%.10g" % amp)[0]
                     for amp in CRITERIA_AMPLITUDES)
    if prediction == "all Spreading":
        matches = all(v == "Spreading" for v in verdicts)
    else:
        matches = verdicts[0] == "Vanishing" and verdicts[-1] == "Spreading"
    return CriteriaReport(kind=kind, h_star_value=prober.h_star_value,
                          d_star=d_star, d_upper=d_upper, chosen={param: value},
                          verdicts=verdicts,
                          prediction=prediction, matches=matches)
