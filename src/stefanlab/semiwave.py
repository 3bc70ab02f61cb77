"""Spreading-speed machinery: periodic logistic ODE, half-line semi-wave
profiles with drift, the self-consistent drift fixed point, and
front-speed measurement.

The asymptotic front speed is the period mean of the drift k0(t) that
satisfies mu * U_r(t, 0) = k0(t), where U is the T-periodic half-line
profile with drift k0, Dirichlet zero at the origin and the periodic
logistic orbit V(t) as its far-field limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundViolated, HypothesisHFailed, NoConvergence, NonPositive,
                     NotSpreading, TruncationTooSmall)
from .radialcore import FactoredTridiag
# no semi-wave step calls solve_tridiag any more; the name stays bound here
# because perfbench/test_tracer.py checks that the tracer wraps this binding
from .radialcore import solve_tridiag  # noqa: F401


def _periodic_fn(fn_or_values, T, phases=None):
    """Normalize a(t) given as callable, scalar, or phase samples into a
    callable of t (periodic)."""
    if callable(fn_or_values):
        return fn_or_values
    arr = np.asarray(fn_or_values, dtype=float)
    if arr.ndim == 0:
        c = float(arr)
        return lambda t: c + 0.0 * np.asarray(t)
    tp = phases if phases is not None else np.arange(arr.size) * (T / arr.size)
    tp = np.concatenate([tp, [T]])
    vals = np.concatenate([arr, arr[:1]])
    return lambda t: np.interp(np.mod(t, T), tp, vals)


@dataclass(frozen=True)
class PeriodicLogisticSolution:
    T: float
    times: np.ndarray      # >= 256 phases spanning [0, T]
    values: np.ndarray

    def __call__(self, t):
        return np.interp(np.mod(t, self.T), self.times, self.values)

    @property
    def mean(self):
        return float(np.trapezoid(self.values, self.times) / self.T)


def _on_times(fn, times):
    """fn evaluated on the 1-D array ``times``; a scalar return is broadcast."""
    return np.broadcast_to(np.asarray(fn(times), dtype=float), times.shape)


def _mean(fn, T, nodes=1025):
    t = np.linspace(0.0, T, nodes)
    return float(np.trapezoid(_on_times(fn, t), t) / T)


def periodic_logistic(a, b, T, tol=1e-10, steps_per_period=2048,
                      max_periods=20000, phases=256):
    """Positive T-periodic orbit of dV/dt = V(a(t) - b(t) V).

    Integrates with classical RK4 from the mean equilibrium and iterates
    the period map to a fixed point.  A callable a or b is evaluated on
    1-D arrays of times (a scalar return is broadcast): once for the
    period means and once on the RK4 stage times of one period, however
    many periods the iteration takes.  Raises NonPositive when the orbit
    collapses (mean growth rate <= 0).
    """
    a = _periodic_fn(a, T)
    b = _periodic_fn(b, T)
    abar = _mean(a, T)
    bbar = _mean(b, T)
    if bbar <= 0:
        raise ValueError("b must be positive on average")
    v = max(abar, 1e-3) / bbar
    steps = max(int(steps_per_period), 2 * phases)
    steps = int(np.ceil(steps / phases)) * phases
    dt = T / steps
    half = dt / 2
    sixth = dt / 6
    t = np.arange(steps) * dt
    stage_t = np.concatenate([t, t + half, t + dt])
    sa = _on_times(a, stage_t).reshape(3, steps).tolist()
    sb = _on_times(b, stage_t).reshape(3, steps).tolist()
    # per step: a and b at t, t + dt/2 and t + dt
    stages = (sa[0], sb[0], sa[1], sb[1], sa[2], sb[2])
    for period in range(1, max_periods + 1):
        v0 = v
        trace = [v]
        for a0, b0, a1, b1, a2, b2 in zip(*stages):
            k1 = v * (a0 - b0 * v)
            w = v + half * k1
            k2 = w * (a1 - b1 * w)
            w = v + half * k2
            k3 = w * (a1 - b1 * w)
            w = v + dt * k3
            k4 = w * (a2 - b2 * w)
            v = v + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            if not 0.0 < v < math.inf:      # also catches NaN
                raise NonPositive("orbit left the positive cone (mean growth <= 0?)")
            trace.append(v)
        if abs(v - v0) <= tol * (1.0 + abs(v)):
            keep = slice(0, steps + 1, steps // phases)
            return PeriodicLogisticSolution(T, (np.arange(steps + 1) * dt)[keep],
                                            np.array(trace)[keep])
    raise NoConvergence(max_periods, abs(v - v0))


@dataclass(frozen=True)
class SemiWaveProfile:
    T: float
    L: float
    x: np.ndarray
    phases: np.ndarray     # phase times within [0, T)
    values: np.ndarray     # (phases, nx)
    V: PeriodicLogisticSolution
    residual: float
    periods: int

    def slope_at_origin(self):
        """U_r(t, 0) per phase, one-sided second-order stencil (U(t,0)=0)."""
        dx = self.x[1] - self.x[0]
        return (4.0 * self.values[:, 1] - self.values[:, 2]) / (2.0 * dx)

    def at_phase(self, k=0):
        return self.values[k]


def semiwave_profile(k, a, b, d, T, L=None, n=1024, tol=1e-7, phases=64,
                     dt=None, max_periods=5000, u_init=None, V=None):
    """T-periodic half-line profile with drift k(t), or None (zero branch).

    Dirichlet 0 at x = 0; the right boundary is clamped to the periodic
    logistic orbit V(t), which is the profile's uniform far-field limit.
    Diffusion implicit; the -k(t)U_x advection uses first-order upwinding
    (k >= 0 fixes the wind direction).  Returns None when the period-mean
    condition mean(a) > (mean k)^2 / (4d) fails.

    A callable k, a or b is evaluated on 1-D arrays of times (a scalar
    return is broadcast): once for the period means and once on the step
    times of one period, however many periods the iteration takes.  The
    diffusion matrix is LU-factored once per profile.
    """
    a = _periodic_fn(a, T)
    b = _periodic_fn(b, T)
    k = _periodic_fn(k, T)
    abar = _mean(a, T)
    kbar = _mean(k, T)
    if abar <= kbar ** 2 / (4.0 * d) + 1e-14:
        return None
    if L is None:
        L = 50.0 * math.sqrt(d)
    n = max(int(n), 1024)
    if V is None:
        V = periodic_logistic(a, b, T)
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

    # implicit tridiagonal for 1-D diffusion, interior unknowns 1..n-1;
    # the matrix is the same at every step, so it is factored once
    s = dt * d / dx ** 2
    op = FactoredTridiag(np.full(n - 1, -s), np.full(n - 1, 1.0 + 2.0 * s),
                         np.full(n - 1, -s))
    # drift, coefficients and the far-field value of every step of a period
    t = np.arange(steps) * dt
    coeffs = list(zip(*(_on_times(fn, t).tolist() for fn in (k, a, b)),
                      _on_times(V, t + dt).tolist()))

    prev = u
    for period in range(1, max_periods + 1):
        shots = [u]
        for step, (kt, at, bt, vb) in enumerate(coeffs, start=1):
            # upwind: u_t = -k u_x with k >= 0 -> backward difference
            ui = u[1:-1]
            rhs = ui + dt * (-kt * (ui - u[:-2]) / dx + ui * (at - bt * ui))
            rhs[-1] += s * vb
            u = np.empty(n + 1)     # a new array per step: shots keep theirs
            u[0] = 0.0
            u[1:-1] = op.solve(rhs)
            u[-1] = vb
            np.clip(u, 0.0, None, out=u)
            if step % per_phase == 0 and step < steps:
                shots.append(u)
        sup = float(np.max(u))
        if sup < 1e-8:
            return None
        residual = float(np.max(np.abs(u - prev)))
        if residual < tol * (1.0 + sup):
            values = np.array(shots)
            mid = np.interp(L / 2, x, u)
            if abs(mid - float(V(T))) > 0.01 * max(float(V(T)), 1e-12):
                raise TruncationTooSmall(
                    "profile at L/2 differs from V by %.3g" % abs(mid - float(V(T))))
            phase_times = np.arange(phases) * (T / phases)
            return SemiWaveProfile(T, L, x, phase_times, values, V, residual, period)
        prev = u
    raise NoConvergence(max_periods, residual)


@dataclass(frozen=True)
class SpeedResult:
    k0_phases: np.ndarray
    k0: np.ndarray
    c: float
    profile: SemiWaveProfile
    iterations: int
    residual: float
    bound: float              # 2*sqrt(d*mean(a)); c must stay inside (0, bound)


def k0_fixed_point(mu, a, b, d, T, tol=1e-6, relax=0.5, phases=64,
                   max_iters=200, profile_kwargs=None):
    """Self-consistent drift: damped iteration of k <- mu * U_r(t, 0).

    Starts from k = 0, bootstraps each profile solve from the previous
    profile, and stops when the sup change in k is below tol*(1 + sup k).
    The converged period mean must lie strictly inside (0, 2*sqrt(d*abar)).
    a and b are callables of t, scalars or phase samples; a callable is
    evaluated on 1-D arrays of times (a scalar return is broadcast), a
    fixed number of times per profile.  Raises HypothesisHFailed when the
    period mean of a is not positive: no semi-wave exists.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    a_fn = _periodic_fn(a, T)
    b_fn = _periodic_fn(b, T)
    abar = _mean(a_fn, T)
    if abar <= 0:
        raise HypothesisHFailed("mean growth rate %.6g is not positive" % abar)
    bound = 2.0 * math.sqrt(d * abar)
    kwargs = dict(profile_kwargs or {})
    kwargs.setdefault("phases", phases)
    V = periodic_logistic(a_fn, b_fn, T)

    phase_times = np.arange(phases) * (T / phases)
    kvals = np.zeros(phases)
    u_prev = None
    for it in range(1, max_iters + 1):
        prof = semiwave_profile(_periodic_fn(kvals, T), a_fn, b_fn, d, T,
                                u_init=u_prev, V=V, **kwargs)
        if prof is None:
            raise NoConvergence(it, math.inf,
                                "drift iterate killed the semi-wave profile")
        u_prev = prof.values[0]
        target = mu * prof.slope_at_origin()
        new = (1.0 - relax) * kvals + relax * target
        new = np.clip(new, 0.0, None)
        change = float(np.max(np.abs(new - kvals)))
        kvals = new
        if change <= tol * (1.0 + float(np.max(kvals))):
            c = float(np.mean(kvals))
            if not (0.0 < c < bound):
                raise BoundViolated(
                    "mean drift %.6g outside (0, %.6g); refine the discretization"
                    % (c, bound))
            return SpeedResult(k0_phases=phase_times, k0=kvals, c=c,
                               profile=prof, iterations=it, residual=change,
                               bound=bound)
    raise NoConvergence(max_iters, change)


@dataclass(frozen=True)
class EnvelopeSpeeds:
    c_upper: float
    c_lower: float
    eta_hi: np.ndarray      # far-field upper envelope of alpha-gamma, per phase
    eta_lo: np.ndarray
    phases: np.ndarray
    eps: float
    upper: SpeedResult
    lower: SpeedResult


def envelope_speeds(field, mu, d, T=None, eps=1e-3, r_star=10.0, r_samples=64,
                    phases=64, k0_kwargs=None):
    """Upper/lower asymptotic speed bounds from the far-field envelopes.

    eta_hi/eta_lo are phase-wise max/min of alpha-gamma over radii in
    [r_star, 10*r_star]; the eps-perturbed pairs (eta_hi+eps, beta1-eps)
    and (eta_lo-eps, beta2+eps) feed the drift fixed point.  Raises
    HypothesisHFailed when the lower envelope has nonpositive time mean.
    """
    if T is None:
        T = field.T
    phase_times = np.arange(phases) * (T / phases)
    rr = np.linspace(r_star, 10.0 * r_star, r_samples)
    g = np.broadcast_to(
        np.asarray(field.growth(phase_times[:, None], rr[None, :]), dtype=float),
        (phases, r_samples))
    eta_hi = np.max(g, axis=1)
    eta_lo = np.min(g, axis=1)
    if np.trapezoid(np.concatenate([eta_lo, eta_lo[:1]]),
                np.concatenate([phase_times, [T]])) / T <= 0:
        raise HypothesisHFailed("far-field lower envelope has nonpositive mean")

    beta1 = np.asarray(field.beta1(phase_times, 0.0), dtype=float) + 0 * phase_times
    beta2 = np.asarray(field.beta2(phase_times, 0.0), dtype=float) + 0 * phase_times
    b_hi_pair = np.clip(beta1 - eps, 1e-6, None)
    b_lo_pair = beta2 + eps
    kwargs = dict(k0_kwargs or {})
    upper = k0_fixed_point(mu, eta_hi + eps, b_hi_pair, d, T,
                           phases=phases, **kwargs)
    lower = k0_fixed_point(mu, eta_lo - eps, b_lo_pair, d, T,
                           phases=phases, **kwargs)
    return EnvelopeSpeeds(c_upper=upper.c, c_lower=lower.c, eta_hi=eta_hi,
                          eta_lo=eta_lo, phases=phase_times, eps=eps,
                          upper=upper, lower=lower)


def measure_front_speed(traj, window_fraction=0.25, require_spreading=None):
    """Trailing-window least-squares slope of h(t).

    ``require_spreading`` may carry the Outcome of classify_outcome; a
    non-Spreading verdict raises NotSpreading.  Also returns the crude
    h(t_final)/t_final estimate for comparison.
    """
    if require_spreading is not None and require_spreading.verdict != "Spreading":
        raise NotSpreading("trajectory verdict is %s" % require_spreading.verdict)
    if not (0.0 < window_fraction <= 0.5):
        raise ValueError("window_fraction must be in (0, 0.5]")
    t, h = np.asarray(traj.t), np.asarray(traj.h)
    t0 = t[-1] - window_fraction * (t[-1] - t[0])
    mask = t >= t0
    if np.count_nonzero(mask) < 2:
        raise ValueError("window too small: fewer than 2 samples")
    slope, _ = np.polyfit(t[mask], h[mask], 1)
    return float(slope), float(h[-1] / t[-1]) if t[-1] > 0 else math.nan
