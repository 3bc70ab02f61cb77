"""Front-fixing Stefan solver for the free-boundary invasion problem.

The moving domain [0, h(t)] is mapped to the fixed unit interval
xi = r/h(t).  In the transformed variables

    u_t = (d/h^2) (u_xixi + (N-1)/xi u_xi) + xi (h'/h) u_xi
          + u (alpha - gamma - beta u)   at r = xi h,

diffusion is implicit, advection and reaction explicit, and the front
moves by the Stefan law h' = -mu u_r(t, h) with the gradient taken from a
one-sided second-order stencil.  The simulate() driver records the
trajectory and period-boundary snapshots, can stop at a sample and can
resume a trajectory; decide() is the Spreading / Vanishing / Undecided
rule for one sample, and classify_outcome() applies it to a trajectory.
"""

from dataclasses import dataclass, field as dc_field

import functools
import math

import numpy as np

from . import eigen
from .errors import BracketInvalid, FrontRetreat, StepSizeTooLarge
from .radialcore import diffusion_bands, solve_tridiag

DECAY_SUP = 1e-8          # vanishing-evidence density threshold
FRONT_STALL = 1e-8        # vanishing-evidence front-speed threshold
NEG_CLIP = -1e-12
REL_TOL = 0.01            # margin around h* of a verdict, relative to 1 + h*
EIGEN_N = 256             # eigen grid intervals of a spec's h*
D_SCAN_N = 96             # eigen grid intervals of a spec's d thresholds


@functools.lru_cache(maxsize=16)
def _xi_grid(n):
    """The fixed xi-grid linspace(0, 1, n + 1).  Read-only; shared by
    every state, snapshot and step on an n-interval grid."""
    xi = np.linspace(0.0, 1.0, n + 1)
    xi.flags.writeable = False
    return xi


@dataclass
class FreeBoundaryState:
    u: np.ndarray        # values on the fixed xi-grid, u[n] = 0
    h: float
    t: float
    n: int

    @property
    def xi(self):
        return _xi_grid(self.n)

    def sup(self):
        return float(np.max(self.u))


def front_gradient(state):
    """u_r at the front from the one-sided 3-point stencil (u_n = 0)."""
    dxi = 1.0 / state.n
    u = state.u
    du_dxi = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dxi)
    return du_dxi / state.h


def initial_state(spec):
    n = spec.numerics.n
    u = spec.u0_values(spec.h0 * _xi_grid(n))
    u[-1] = 0.0
    return FreeBoundaryState(u=u, h=spec.h0, t=0.0, n=n)


def _unknowns(values, n):
    """A coefficient on the n+1 nodes cut to the n unknowns; a scalar as is."""
    values = np.asarray(values, dtype=float)
    return values[:n] if values.ndim else values


def step_free(state, spec, dt):
    """Advance the front-fixed system by one step of size dt.

    The front speed is evaluated from the pre-step gradient, h is updated
    first, and the density step then runs on the fixed xi-grid.  Raises
    FrontRetreat if the computed front speed is negative beyond rounding
    and StepSizeTooLarge if dt violates the positivity or front-CFL bound.
    """
    fld = spec.field
    n = state.n
    dxi = 1.0 / n
    if dt * fld.alpha2_max() >= 1.0:
        raise StepSizeTooLarge("dt*max(alpha2) >= 1")

    grad = front_gradient(state)
    h_prime = -spec.mu * grad
    if h_prime < -1e-10:
        raise FrontRetreat("front speed %.3e < 0 at t=%.6g" % (h_prime, state.t))
    h_prime = max(h_prime, 0.0)
    if dt * h_prime / state.h > 0.5 * dxi * (1.0 + 1e-12):
        raise StepSizeTooLarge("front CFL violated: dt*h'/h = %.3e > 0.5*dxi"
                               % (dt * h_prime / state.h))

    h_new = state.h + dt * h_prime
    xi = state.xi
    r = state.h * xi
    u = state.u

    growth = _unknowns(fld.growth(state.t, r), n)
    crowd = _unknowns(fld.beta(state.t, r), n)
    # rhs = u + dt*(adv + u*(growth - crowd*u)) on the n unknowns (u[n] = 0),
    # built in place in two buffers.  Upwind advection: u_t = + xi (h'/h)
    # u_xi, wind >= 0 -> forward difference, adv = xi*(h'/h)*(u+ - u)/dxi
    un = u[:n]
    rhs = np.multiply(xi[:n], h_prime / state.h)
    work = np.subtract(u[1:], un)
    np.multiply(rhs, work, out=rhs)
    np.divide(rhs, dxi, out=rhs)            # adv
    np.multiply(crowd, un, out=work)
    np.subtract(growth, work, out=work)
    np.multiply(un, work, out=work)         # u*(growth - crowd*u)
    np.add(rhs, work, out=rhs)
    np.multiply(dt, rhs, out=rhs)
    np.add(un, rhs, out=rhs)

    # implicit diffusion with u(1) = 0: one elimination, since s changes
    # with h at every step
    s = dt * (spec.d / state.h ** 2) / dxi ** 2
    u_new = np.empty(n + 1)
    u_new[:n] = solve_tridiag(*diffusion_bands(n, spec.N, s), rhs)
    u_new[n] = 0.0
    u_new[(u_new > NEG_CLIP) & (u_new < 0.0)] = 0.0
    return FreeBoundaryState(u=u_new, h=h_new, t=state.t + dt, n=n), h_prime


@dataclass
class Snapshot:
    t: float
    h: float
    u: np.ndarray      # on the xi-grid

    def r(self):
        return self.h * _xi_grid(self.u.size - 1)

    def interp(self, r):
        return np.interp(r, self.r(), self.u, right=0.0)


@dataclass
class Trajectory:
    t: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    u_sup: np.ndarray
    snapshots: list = dc_field(default_factory=list)
    final: FreeBoundaryState = None
    # the loop before its last step: (state, next sample time, next
    # period time, samples, snapshots); simulate(resume=...) re-takes
    # that step and goes on from there
    cursor: tuple = None

    def max_sup(self):
        return float(np.max(self.u_sup))


class _StepSizer:
    """Adaptive dt: the spec step shrunk to the positivity and front-CFL
    bounds (the CFL bound relaxes as h grows).  Both stay inside
    step_free's limits dt < 1/max(alpha2) and dt <= 0.5*dxi*h/h', with h'
    from the same gradient, so step_free never rejects the step."""

    def __init__(self, spec):
        self.dt_spec = spec.numerics.dt
        self.dt_react = 0.45 / max(spec.field.alpha2_max(), 1e-12)
        self.mu = spec.mu
        self.dxi = 1.0 / spec.numerics.n

    def __call__(self, state, grad):
        h_prime = max(-self.mu * grad, 0.0)
        dt = min(self.dt_spec, self.dt_react)
        bound = 0.45 * self.dxi * state.h
        # with dt*h' at most half the bound, bound/h' > dt cannot bind;
        # skipping it keeps a subnormal h' from overflowing the quotient
        if dt * h_prime > 0.5 * bound:
            dt = min(dt, bound / h_prime)
        return dt


def simulate(spec, t_max=None, stop=None, resume=None):
    """Run the free-boundary problem from (u0, h0) to t_max.

    Samples (t, h, h', sup u) every ``spec.numerics.sample_every`` time
    units and stores full snapshots at period boundaries t = k*T.  The
    step size adapts to the front-CFL bound so fast fronts early in a run
    do not force a tiny global dt.

    ``stop(t, h, h_prime, u_sup, period_end)``, when given, is called at
    each recorded sample (``period_end``: the sample falls on a period
    boundary); the run ends at the first sample where it returns true.

    ``resume`` continues a Trajectory of the same spec to a later t_max.
    It re-takes the trajectory's last step under the new t_max, so the
    result is bit-identical to one run from t=0, unless an earlier step
    ended less than 1e-12*t_max (new) but not less than 1e-12*t_max (old)
    short of a sample time or period boundary.
    """
    num = spec.numerics
    if t_max is None:
        t_max = num.t_max
    T = spec.field.T
    eps = 1e-12 * max(t_max, 1.0)

    if resume is None:
        state = initial_state(spec)
        ts, hs, hps, sups = [0.0], [state.h], [0.0], [state.sup()]
        snapshots = [Snapshot(0.0, state.h, state.u.copy())]
        next_sample = num.sample_every if num.sample_every > 0 else math.inf
        next_period = T
    elif resume.final.t >= t_max - eps:
        return resume
    else:
        state, next_sample, next_period, n_samples, n_snaps = resume.cursor
        ts, hs, hps, sups = (list(a[:n_samples]) for a in (
            resume.t, resume.h, resume.h_prime, resume.u_sup))
        snapshots = resume.snapshots[:n_snaps]
    sizer = _StepSizer(spec)
    cursor = (state, next_sample, next_period, len(ts), len(snapshots))

    while state.t < t_max - eps:
        cursor = (state, next_sample, next_period, len(ts), len(snapshots))
        grad = front_gradient(state)
        dt = sizer(state, grad)
        target = min(t_max, next_sample, next_period)
        dt = min(dt, target - state.t)
        if dt <= 0:
            dt = eps
        state, h_prime = step_free(state, spec, dt)
        hit_sample = state.t >= next_sample - eps
        hit_period = state.t >= next_period - eps
        recorded = hit_sample or state.t >= t_max - eps
        if recorded:
            ts.append(state.t)
            hs.append(state.h)
            hps.append(h_prime)
            sups.append(state.sup())
            while next_sample <= state.t + eps:
                next_sample += num.sample_every
        if hit_period:
            snapshots.append(Snapshot(state.t, state.h, state.u.copy()))
            next_period += T
        if (recorded and stop is not None
                and stop(state.t, state.h, h_prime, sups[-1], hit_period)):
            break

    return Trajectory(t=np.array(ts), h=np.array(hs), h_prime=np.array(hps),
                      u_sup=np.array(sups), snapshots=snapshots, final=state,
                      cursor=cursor)


@dataclass(frozen=True)
class Evidence:
    criterion: str            # "eigenvalue" | "decay" | "nearest-miss"
    h_star: float
    h_final: float
    u_sup_final: float


@dataclass(frozen=True)
class Outcome:
    verdict: str              # "Spreading" | "Vanishing" | "Undecided"
    evidence: Evidence
    t_decided: float


def _tol_h(h_star_value):
    return REL_TOL * (1.0 + (h_star_value if math.isfinite(h_star_value) else 0.0))


def decide(h, h_prime, u_sup, h_star_value):
    """Verdict of one sample: "Spreading", "Vanishing" or "Undecided".

    Spreading once the front is past the habitat-radius threshold by more
    than REL_TOL*(1 + h*) (h > h* certifies lambda1(d, alpha-gamma, h, T)
    <= 0 by monotonicity).  Vanishing needs the density below DECAY_SUP, a
    stalled front, and a radius that much under the threshold.
    """
    tol_h = _tol_h(h_star_value)
    if math.isfinite(h_star_value) and h > h_star_value + tol_h:
        return "Spreading"
    if (u_sup < DECAY_SUP and h_prime < FRONT_STALL
            and h < h_star_value - tol_h):
        return "Vanishing"
    return "Undecided"


_CRITERION = {"Spreading": "eigenvalue", "Vanishing": "decay",
              "Undecided": "nearest-miss"}


def spec_h_star(spec, h_final=0.0):
    """h* of a spec's field, d and N at eigen resolution EIGEN_N.

    The caller bracket is [0.05*h0, max(8*h0, 4*h_final)], so a run's
    classification and the threshold finders that pass no h_final search
    the same bracket unless the run ended beyond 2*h0.  A threshold below
    0.05*h0 (lambda1 already nonpositive there) is reported as 0.05*h0.
    """
    try:
        return eigen.h_star(spec.d, spec.field, spec.field.T,
                            r_lo=0.05 * spec.h0,
                            r_hi=max(8.0 * spec.h0, 4.0 * h_final),
                            N=spec.N, n=EIGEN_N)
    except BracketInvalid:
        return 0.05 * spec.h0


def spec_d_thresholds(spec):
    """d thresholds of a spec at radius h0 on [1e-2*d, 1e2*d], n = D_SCAN_N."""
    return eigen.d_thresholds(spec.field, spec.h0, spec.field.T,
                              d_lo=1e-2 * spec.d, d_hi=1e2 * spec.d,
                              N=spec.N, n=D_SCAN_N)


def classify_outcome(traj, spec, h_star_value=None):
    """Classify a trajectory per the spreading-vanishing dichotomy.

    The verdict is decide() at the final sample; Undecided is a valid
    return for borderline runs.  A Spreading run is decided at the first
    sample past the threshold, the others at the final sample.
    """
    h_final = float(traj.h[-1])
    if h_star_value is None:
        h_star_value = spec_h_star(spec, h_final)
    sup_final = float(traj.u_sup[-1])
    verdict = decide(h_final, float(traj.h_prime[-1]), sup_final,
                     h_star_value)
    t_decided = float(traj.t[-1])
    if verdict == "Spreading":
        crossed = traj.t[traj.h > h_star_value + _tol_h(h_star_value)]
        t_decided = float(crossed[0])
    ev = Evidence(_CRITERION[verdict], h_star_value, h_final, sup_final)
    return Outcome(verdict, ev, t_decided)
