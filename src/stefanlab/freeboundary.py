"""Front-fixing Stefan solver for the free-boundary invasion problem.

The moving domain [0, h(t)] is mapped to the fixed unit interval
xi = r/h(t).  In the transformed variables

    u_t = (d/h^2) (u_xixi + (N-1)/xi u_xi) + xi (h'/h) u_xi
          + u (alpha - gamma - beta u)   at r = xi h,

diffusion is implicit, advection and reaction explicit, and the front
moves by the Stefan law h' = -mu u_r(t, h) with the gradient taken from a
one-sided second-order stencil.  step_free() steps the arrays (u, h, t);
simulate() loops it, keeps a state at each sample and period boundary
and can stop at a sample; decide() is the Spreading / Vanishing /
Undecided rule for one sample.  classify_outcome() applies it to a
trajectory's last sample; a threshold probe or a sweep cell takes its
verdict from the stop test that ended its run (thresholds._Prober).
"""

from dataclasses import dataclass, field as dc_field

import functools
import math

import numpy as np

from . import eigen
from .errors import BracketInvalid, FrontRetreat
from .radialcore import diffusion_bands, solve_tridiag

DECAY_SUP = 1e-8          # vanishing-evidence density threshold
FRONT_STALL = 1e-8        # vanishing-evidence front-speed threshold
NEG_CLIP = -1e-12
REL_TOL = 0.01            # margin around h* of a verdict, relative to 1 + h*
EIGEN_N = 64              # eigen grid intervals of a spec's h*
D_SCAN_N = 96             # eigen grid intervals of a spec's d thresholds


@functools.lru_cache(maxsize=16)
def _xi_grid(n):
    """The fixed xi-grid linspace(0, 1, n + 1).  Read-only; shared by
    every state and step on an n-interval grid."""
    xi = np.linspace(0.0, 1.0, n + 1)
    xi.flags.writeable = False
    return xi


@dataclass
class FreeBoundaryState:
    u: np.ndarray        # values on the fixed xi-grid, u[-1] = 0
    h: float
    t: float

    @property
    def xi(self):
        return _xi_grid(self.u.size - 1)

    def r(self):
        return self.h * self.xi

    def interp(self, r):
        return np.interp(r, self.r(), self.u, right=0.0)


def front_gradient(u, h):
    """u_r at the front from the one-sided 3-point stencil (u[-1] = 0)."""
    dxi = 1.0 / (u.size - 1)
    du_dxi = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dxi)
    return du_dxi / h


def initial_state(spec):
    n = spec.numerics.n
    u = spec.u0_values(spec.h0 * _xi_grid(n))
    u[-1] = 0.0
    return FreeBoundaryState(u=u, h=spec.h0, t=0.0)


def step_free(u, h, t, spec, dt_max):
    """One step of at most dt_max from (u, h, t): (u_new, h_new, t_new, h').

    The front speed h' is evaluated from the pre-step gradient; a speed
    negative beyond rounding raises FrontRetreat.  The step is the spec's
    dt, shrunk to dt_max, to the positivity bound 0.45/max(alpha2) and to
    the front-CFL bound 0.45*dxi*h/h' (which relaxes as h grows, so a fast
    front early in a run does not force a tiny global dt).  h is updated
    first; the density step then writes a new u on the fixed xi-grid.
    """
    fld = spec.field
    n = u.size - 1
    dxi = 1.0 / n
    h_prime = -spec.mu * front_gradient(u, h)
    if h_prime < -1e-10:
        raise FrontRetreat("front speed %.3e < 0 at t=%.6g" % (h_prime, t))
    h_prime = max(h_prime, 0.0)
    dt = min(spec.numerics.dt, 0.45 / max(fld.alpha2_max(), 1e-12), dt_max)
    bound = 0.45 * dxi * h
    # with dt*h' at most half the bound, bound/h' > dt cannot bind;
    # skipping it keeps a subnormal h' from overflowing the quotient
    if dt * h_prime > 0.5 * bound:
        dt = min(dt, bound / h_prime)

    xi = _xi_grid(n)
    r = h * xi

    growth = fld.growth(t, r)[:n]
    crowd = fld.beta(t, r)[:n]
    # rhs = u + dt*(adv + u*(growth - crowd*u)) on the n unknowns (u[n] = 0),
    # built in place in two buffers.  Upwind advection: u_t = + xi (h'/h)
    # u_xi, wind >= 0 -> forward difference, adv = xi*(h'/h)*(u+ - u)/dxi
    un = u[:n]
    rhs = np.multiply(xi[:n], h_prime / h)
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
    s = dt * (spec.d / h ** 2) / dxi ** 2
    u_new = np.empty(n + 1)
    u_new[:n] = solve_tridiag(*diffusion_bands(n, spec.N, s), rhs)
    u_new[n] = 0.0
    u_new[(u_new > NEG_CLIP) & (u_new < 0.0)] = 0.0
    return u_new, h + dt * h_prime, t + dt, h_prime


@dataclass
class Trajectory:
    t: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    u_sup: np.ndarray
    snapshots: list = dc_field(default_factory=list)   # states at t = k*T
    final: FreeBoundaryState = None

    def max_sup(self):
        return float(np.max(self.u_sup))


def simulate(spec, t_max=None, stop=None):
    """Run the free-boundary problem from (u0, h0) to t_max.

    Samples (t, h, h', sup u) every ``spec.numerics.sample_every`` time
    units; each step_free step on (u, h, t) is cut to land on the next
    sample, period end or t_max.  A FreeBoundaryState is built only at
    t = 0, at a sample (``final`` is the last) and at each period boundary
    t = k*T (``snapshots``); no step writes into a state's u.

    ``stop(state, h_prime, u_sup, period_end)``, when given, is called at
    each recorded sample with the FreeBoundaryState there (``period_end``:
    the sample falls on a period boundary); the run ends at the first
    sample where it returns true.
    """
    num = spec.numerics
    if t_max is None:
        t_max = num.t_max
    T = spec.field.T
    eps = 1e-12 * max(t_max, 1.0)

    state = initial_state(spec)
    u, h, t = state.u, state.h, state.t
    ts, hs, hps, sups = [0.0], [h], [0.0], [float(np.max(u))]
    snapshots = [state]
    next_sample = num.sample_every if num.sample_every > 0 else math.inf
    next_period = T

    while t < t_max - eps:
        dt_max = min(t_max, next_sample, next_period) - t
        u, h, t, h_prime = step_free(u, h, t, spec,
                                     dt_max if dt_max > 0 else eps)
        hit_sample = t >= next_sample - eps
        hit_period = t >= next_period - eps
        recorded = hit_sample or t >= t_max - eps
        if recorded or hit_period:
            state = FreeBoundaryState(u=u, h=h, t=t)
        if recorded:
            ts.append(t)
            hs.append(h)
            hps.append(h_prime)
            sups.append(float(np.max(u)))
            while next_sample <= t + eps:
                next_sample += num.sample_every
        if hit_period:
            snapshots.append(state)
            next_period += T
        if (recorded and stop is not None
                and stop(state, h_prime, sups[-1], hit_period)):
            break

    return Trajectory(t=np.array(ts), h=np.array(hs), h_prime=np.array(hps),
                      u_sup=np.array(sups), snapshots=snapshots, final=state)


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


def spec_h_star(spec, r_lo=None, r_hi=None):
    """h* of a spec's field, d and N at eigen resolution EIGEN_N.

    The caller bracket is [r_lo, r_hi], by default [0.05*h0, 8*h0] (the
    search starts between the envelope radii when they apply, see
    eigen.h_star).  A threshold below r_lo (lambda1 already nonpositive
    there) is reported as r_lo.
    """
    r_lo = r_lo or 0.05 * spec.h0
    try:
        return eigen.h_star(spec.d, spec.field, spec.field.T, r_lo=r_lo,
                            r_hi=r_hi or 8.0 * spec.h0, N=spec.N, n=EIGEN_N)
    except BracketInvalid:
        return r_lo


def spec_d_thresholds(spec):
    """d thresholds of a spec at radius h0 on [1e-2*d, 1e2*d], n = D_SCAN_N."""
    return eigen.d_thresholds(spec.field, spec.h0, spec.field.T,
                              d_lo=1e-2 * spec.d, d_hi=1e2 * spec.d,
                              N=spec.N, n=D_SCAN_N)


def classify_outcome(traj, spec, h_star_value=None):
    """Classify a trajectory per the spreading-vanishing dichotomy.

    The verdict is decide() at the final sample, against an h* searched
    out to 4 times the final radius; Undecided is a valid return for
    borderline runs.  A Spreading run is decided at the first sample past
    the threshold, the others at the final sample.
    """
    h_final = float(traj.h[-1])
    if h_star_value is None:
        h_star_value = spec_h_star(spec,
                                   r_hi=max(8.0 * spec.h0, 4.0 * h_final))
    sup_final = float(traj.u_sup[-1])
    verdict = decide(h_final, float(traj.h_prime[-1]), sup_final,
                     h_star_value)
    t_decided = float(traj.t[-1])
    if verdict == "Spreading":
        crossed = traj.t[traj.h > h_star_value + _tol_h(h_star_value)]
        t_decided = float(crossed[0])
    ev = Evidence(_CRITERION[verdict], h_star_value, h_final, sup_final)
    return Outcome(verdict, ev, t_decided)
