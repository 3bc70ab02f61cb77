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
                     TruncationTooSmall)
from .radialcore import FactoredSPDTridiag, diffusion_bands
# no semi-wave step calls solve_tridiag any more; the name stays bound here
# because perfbench/test_tracer.py checks that the tracer wraps this binding
from .radialcore import solve_tridiag  # noqa: F401

PHASES = 64               # phases of a semi-wave profile and of the drift k0
MEAN_NODES = 1025         # trapezoid nodes of a period mean
LOGISTIC_PHASES = 256     # phases kept of the periodic logistic orbit
MAX_PROFILE_PERIODS = 5000
K0_RELAX = 0.5            # damping of the drift iteration
PROFILE_TOL = 1e-7        # default profile tol, also k0_fixed_point's last
PROFILE_TOL_RATIO = 0.03  # drift iterate's profile tol per relative k change
PROFILE_TOL_CAP = 1e-2    # loosest profile tol: the first drift iterate's
MAX_K0_ITERATIONS = 200
ENVELOPE_RADII = 64       # far-field radii sampled by envelope_speeds


def _periodic_fn(fn_or_values, T):
    """Normalize a(t) given as callable, scalar, or samples at evenly
    spaced phases of [0, T) into a callable of t (periodic)."""
    if callable(fn_or_values):
        return fn_or_values
    arr = np.asarray(fn_or_values, dtype=float)
    if arr.ndim == 0:
        c = float(arr)
        return lambda t: c + 0.0 * np.asarray(t)
    tp = np.concatenate([np.arange(arr.size) * (T / arr.size), [T]])
    vals = np.concatenate([arr, arr[:1]])
    return lambda t: np.interp(np.mod(t, T), tp, vals)


@dataclass(frozen=True)
class PeriodicLogisticSolution:
    T: float
    times: np.ndarray      # LOGISTIC_PHASES + 1 times spanning [0, T]
    values: np.ndarray

    def __call__(self, t):
        return np.interp(np.mod(t, self.T), self.times, self.values)

    @property
    def mean(self):
        return float(np.trapezoid(self.values, self.times) / self.T)


def _on_times(fn, times):
    """fn evaluated on the 1-D array ``times``; a scalar return is broadcast."""
    return np.broadcast_to(np.asarray(fn(times), dtype=float), times.shape)


def _mean(fn, T):
    t = np.linspace(0.0, T, MEAN_NODES)
    return float(np.trapezoid(_on_times(fn, t), t) / T)


def periodic_logistic(a, b, T, steps_per_period=2048):
    """Positive T-periodic orbit of dV/dt = V(a(t) - b(t) V), with no iteration.

    W = 1/V solves the linear dW/dt = b - a W, on which an RK4 step is affine:
    W -> W + dh W + dg.  One RK4 sweep over a period carries the lane H from 1
    (without b) and the lane G from 0, so the period map is W(T) = H(T) W(0) +
    G(T); its fixed point W0 = G(T) / (1 - H(T)) gives V = 1/(W0 H + G) at the
    LOGISTIC_PHASES + 1 kept times.  A callable a or b is evaluated once, on
    the RK4 stage times of one period (a scalar return is broadcast).  Raises
    ValueError when mean b <= 0, and NonPositive when H(T) >= 1 (mean growth
    <= 0: no positive orbit) or a kept W is not positive and finite.
    """
    a = _periodic_fn(a, T)
    b = _periodic_fn(b, T)
    steps = max(int(steps_per_period), 2 * LOGISTIC_PHASES)
    steps = int(np.ceil(steps / LOGISTIC_PHASES)) * LOGISTIC_PHASES
    dt = T / steps
    half = dt / 2
    sixth = dt / 6
    t = np.arange(steps) * dt
    stage_t = np.concatenate([t, t + half, t + dt])
    # per step: a and b at t, t + dt/2 and t + dt
    a0, a1, a2 = _on_times(a, stage_t).reshape(3, steps)
    b0, b1, b2 = _on_times(b, stage_t).reshape(3, steps)
    if np.mean(b0) <= 0:
        raise ValueError("b must be positive on average")
    # the RK4 stages of every step at once, from 1 without b and from 0
    k1 = -a0
    k2 = -a1 * (1.0 + half * k1)
    k3 = -a1 * (1.0 + half * k2)
    k4 = -a2 * (1.0 + dt * k3)
    dh = sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    k1 = b0
    k2 = b1 - a1 * (half * k1)
    k3 = b1 - a1 * (half * k2)
    k4 = b2 - a2 * (dt * k3)
    dg = sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    H, G = [1.0], [0.0]
    for dhk, dgk in zip(dh.tolist(), dg.tolist()):
        H.append(H[-1] + dhk * H[-1])
        G.append(G[-1] + (dhk * G[-1] + dgk))
    if not H[-1] < 1.0:                     # also catches NaN
        raise NonPositive("no positive periodic orbit (mean growth <= 0?)")
    keep = slice(0, steps + 1, steps // LOGISTIC_PHASES)
    W = G[-1] / (1.0 - H[-1]) * np.array(H[keep]) + np.array(G[keep])
    if not np.all((W > 0.0) & (W < math.inf)):
        raise NonPositive("orbit left the positive cone")
    return PeriodicLogisticSolution(T, (np.arange(steps + 1) * dt)[keep], 1.0 / W)


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


def semiwave_profile(k, a, b, d, T, n=1024, tol=PROFILE_TOL, u_init=None,
                     V=None):
    """T-periodic half-line profile with drift k(t), or None (zero branch).

    On [0, L], L = 50*sqrt(d), at PHASES phases, within MAX_PROFILE_PERIODS
    periods.  Dirichlet 0 at x = 0; the right boundary is clamped to the
    periodic logistic orbit V(t), which is the profile's uniform far-field
    limit.  Diffusion implicit; the -k(t)U_x advection uses first-order
    upwinding (k >= 0 fixes the wind direction).  Returns None when the
    period-mean condition mean(a) > (mean k)^2 / (4d) fails.

    A callable k, a or b is evaluated on 1-D arrays of times (a scalar
    return is broadcast): once for the period means and once on the step
    times of one period, however many periods the iteration takes.  The
    diffusion matrix is LDL^T-factored once per profile and n must be at
    least 3.  u_init is not modified.
    """
    a = _periodic_fn(a, T)
    b = _periodic_fn(b, T)
    k = _periodic_fn(k, T)
    abar = _mean(a, T)
    kbar = _mean(k, T)
    if abar <= kbar ** 2 / (4.0 * d) + 1e-14:
        return None
    L = 50.0 * math.sqrt(d)
    n = int(n)
    if V is None:
        V = periodic_logistic(a, b, T)
    dt = min(0.45 / max(abar, 1.0), T / 256)
    steps = max(int(np.ceil(T / dt / PHASES)) * PHASES, PHASES)
    dt = T / steps
    per_phase = steps // PHASES

    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    if u_init is None:
        u = V(0.0) * (1.0 - np.exp(-x / max(math.sqrt(d), dx)))
    else:
        u = np.array(u_init, dtype=float)
    u[0] = 0.0

    # implicit 1-D diffusion on the interior unknowns 1..n-1: rows 1..n-1
    # of the N=1 radial operator, whose row 0 is the reflecting origin; the
    # matrix is symmetric positive definite and the same at every step, so
    # it is LDL^T-factored once
    s = dt * d / dx ** 2
    _, diag, upper = diffusion_bands(n, 1, s)
    op = FactoredSPDTridiag(diag[1:], upper[1:-1])
    # rhs = ui + dt*(-k*(ui - u-)/dx + ui*(a - b*ui)), regrouped as
    # ui*(p - m*ui) + q*u- with the coefficients of every step of a period
    # tabulated once, together with s*V(t + dt) and V(t + dt)
    t = np.arange(steps) * dt
    kt, at, bt = (_on_times(fn, t) for fn in (k, a, b))
    vt = _on_times(V, t + dt)
    kdx = kt / dx
    coeffs = list(zip((1.0 + dt * (at - kdx)).tolist(), (dt * kdx).tolist(),
                      (dt * bt).tolist(), (s * vt).tolist(), vt.tolist()))
    phases = [coeffs[i:i + per_phase] for i in range(0, steps, per_phase)]

    # u is stepped in place; values holds its state at each phase start
    values = np.empty((PHASES, n + 1))
    ui, left = u[1:-1], u[:-2]
    work, adv = np.empty(n - 1), np.empty(n - 1)
    for period in range(1, MAX_PROFILE_PERIODS + 1):
        for row, phase in zip(values, phases):
            row[...] = u
            for pt, qt, mt, svt, vbt in phase:
                # upwind: u_t = -k u_x with k >= 0 -> backward difference
                np.multiply(mt, ui, out=work)
                np.subtract(pt, work, out=work)
                np.multiply(ui, work, out=work)
                np.multiply(qt, left, out=adv)
                np.add(work, adv, out=ui)
                ui[-1] += svt
                op.solve_in_place(ui)
                u[-1] = vbt
                np.maximum(u, 0.0, out=u)
        sup = float(np.max(u))
        if sup < 1e-8:
            return None
        # values[0] is the state at the start of this period
        residual = float(np.max(np.abs(u - values[0])))
        if residual < tol * (1.0 + sup):
            mid = np.interp(L / 2, x, u)
            if abs(mid - float(V(T))) > 0.01 * max(float(V(T)), 1e-12):
                raise TruncationTooSmall(
                    "profile at L/2 differs from V by %.3g" % abs(mid - float(V(T))))
            phase_times = np.arange(PHASES) * (T / PHASES)
            return SemiWaveProfile(T, L, x, phase_times, values, V, residual, period)
    raise NoConvergence(MAX_PROFILE_PERIODS, residual)


@dataclass(frozen=True)
class SpeedResult:
    k0_phases: np.ndarray
    k0: np.ndarray
    c: float
    profile: SemiWaveProfile
    iterations: int
    residual: float
    bound: float              # 2*sqrt(d*mean(a)); c must stay inside (0, bound)
    profile_periods: int      # summed over the profiles of every iterate


def k0_fixed_point(mu, a, b, d, T, tol=1e-6, profile_kwargs=None):
    """Self-consistent drift: damped iteration of k <- mu * U_r(t, 0).

    Starts from k = 0 at PHASES phases, bootstraps each profile solve from
    the previous profile (``profile_kwargs``: its n and tol), damps by
    K0_RELAX, and stops when the sup change in k is below tol*(1 + sup k),
    within MAX_K0_ITERATIONS profiles.  The profile tol ptol
    (``profile_kwargs["tol"]``, default PROFILE_TOL) is the tol of the last
    profile only: iterate j solves its profile at
    max(ptol, min(PROFILE_TOL_CAP, PROFILE_TOL_RATIO * change / (1 + sup k)))
    with the change and k of iterate j - 1 (the first at PROFILE_TOL_CAP),
    and at ptol once that change met the stop test.  The iteration stops
    only on an iterate whose profile was solved at ptol, so the returned
    profile and drift are those of a ptol solve.  The converged period mean
    must lie strictly inside (0, 2*sqrt(d*abar)).  a and b are callables of
    t, scalars or phase samples; a callable is evaluated on 1-D arrays of
    times (a scalar return is broadcast), a fixed number of times per
    profile.  Raises HypothesisHFailed when the period mean of a is not
    positive: no semi-wave exists.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    a_fn = _periodic_fn(a, T)
    b_fn = _periodic_fn(b, T)
    abar = _mean(a_fn, T)
    if abar <= 0:
        raise HypothesisHFailed("mean growth rate %.6g is not positive" % abar)
    bound = 2.0 * math.sqrt(d * abar)
    V = periodic_logistic(a_fn, b_fn, T)

    phase_times = np.arange(PHASES) * (T / PHASES)
    kvals = np.zeros(PHASES)
    u_prev = None
    kwargs = dict(profile_kwargs or {})
    ptol = kwargs.pop("tol", PROFILE_TOL)
    rel_change = math.inf     # last change in k per unit of 1 + sup k
    periods = 0
    for it in range(1, MAX_K0_ITERATIONS + 1):
        prof_tol = max(ptol, min(PROFILE_TOL_CAP,
                                 PROFILE_TOL_RATIO * rel_change))
        prof = semiwave_profile(_periodic_fn(kvals, T), a_fn, b_fn, d, T,
                                tol=prof_tol, u_init=u_prev, V=V, **kwargs)
        if prof is None:
            raise NoConvergence(it, math.inf,
                                "drift iterate killed the semi-wave profile")
        periods += prof.periods
        # a copy of the one row, so the table can go before the next solve
        u_prev = prof.values[0].copy()
        target = mu * prof.slope_at_origin()
        new = (1.0 - K0_RELAX) * kvals + K0_RELAX * target
        new = np.clip(new, 0.0, None)
        change = float(np.max(np.abs(new - kvals)))
        kvals = new
        scale = 1.0 + float(np.max(kvals))
        converged = change <= tol * scale
        if converged and prof_tol == ptol:
            c = float(np.mean(kvals))
            if not (0.0 < c < bound):
                raise BoundViolated(
                    "mean drift %.6g outside (0, %.6g); refine the discretization"
                    % (c, bound))
            return SpeedResult(k0_phases=phase_times, k0=kvals, c=c,
                               profile=prof, iterations=it, residual=change,
                               bound=bound, profile_periods=periods)
        # a drift that met the stop test gets its next profile at ptol
        rel_change = 0.0 if converged else change / scale
        del prof
    raise NoConvergence(MAX_K0_ITERATIONS, change)


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


def envelope_speeds(field, mu, d, eps=1e-3, r_star=10.0):
    """Upper/lower asymptotic speed bounds from the far-field envelopes.

    eta_hi/eta_lo are max/min of alpha-gamma over ENVELOPE_RADII radii in
    [r_star, 10*r_star] at PHASES phases of the field's period; the
    eps-perturbed pairs (eta_hi+eps, beta1-eps) and (eta_lo-eps,
    beta2+eps) feed the drift fixed point.  Raises HypothesisHFailed when
    the lower envelope has nonpositive time mean.
    """
    T = field.T
    phase_times = np.arange(PHASES) * (T / PHASES)
    rr = np.linspace(r_star, 10.0 * r_star, ENVELOPE_RADII)
    g = field.growth(phase_times[:, None], rr[None, :])
    eta_hi = np.max(g, axis=1)
    eta_lo = np.min(g, axis=1)
    if np.trapezoid(np.concatenate([eta_lo, eta_lo[:1]]),
                np.concatenate([phase_times, [T]])) / T <= 0:
        raise HypothesisHFailed("far-field lower envelope has nonpositive mean")

    beta1 = field.beta1(phase_times, 0.0)
    beta2 = field.beta2(phase_times, 0.0)
    b_hi_pair = np.clip(beta1 - eps, 1e-6, None)
    b_lo_pair = beta2 + eps
    upper = k0_fixed_point(mu, eta_hi + eps, b_hi_pair, d, T)
    lower = k0_fixed_point(mu, eta_lo - eps, b_lo_pair, d, T)
    return EnvelopeSpeeds(c_upper=upper.c, c_lower=lower.c, eta_hi=eta_hi,
                          eta_lo=eta_lo, phases=phase_times, eps=eps,
                          upper=upper, lower=lower)


def measure_front_speed(traj, window_fraction=0.25):
    """Trailing-window least-squares slope of h(t).

    The slope is the closed-form fit from the window's centred moments
    (no LAPACK call: numpy's would load its linear-algebra library).  Also
    returns the crude h(t_final)/t_final estimate for comparison.
    """
    if not (0.0 < window_fraction <= 0.5):
        raise ValueError("window_fraction must be in (0, 0.5]")
    t, h = np.asarray(traj.t), np.asarray(traj.h)
    t0 = t[-1] - window_fraction * (t[-1] - t[0])
    mask = t >= t0
    if np.count_nonzero(mask) < 2:
        raise ValueError("window too small: fewer than 2 samples")
    tw, hw = t[mask], h[mask]
    tc = tw - np.sum(tw) / tw.size
    slope = np.sum(tc * (hw - np.sum(hw) / hw.size)) / np.sum(tc * tc)
    return float(slope), float(h[-1] / t[-1]) if t[-1] > 0 else math.nan
