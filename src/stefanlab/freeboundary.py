"""Front-fixing Stefan solver for the free-boundary invasion problem.

The moving domain [0, h(t)] is mapped to the fixed unit interval
xi = r/h(t).  In the transformed variables

    u_t = (d/h^2) (u_xixi + (N-1)/xi u_xi) + xi (h'/h) u_xi
          + u (alpha - gamma - beta u)   at r = xi h,

diffusion is implicit, advection and reaction explicit, and the front
moves by the Stefan law h' = -mu u_r(t, h) with the gradient taken from a
one-sided second-order stencil.  The simulate() driver records the
trajectory and period-boundary snapshots; classify_outcome() turns a
trajectory into a Spreading / Vanishing / Undecided verdict.
"""

from dataclasses import dataclass, field as dc_field

import functools
import math

import numpy as np

from . import eigen
from .errors import BracketInvalid, FrontRetreat, StepSizeTooLarge
from .radialcore import DiffusionSolver, RadialGrid

DECAY_SUP = 1e-8          # vanishing-evidence density threshold
FRONT_STALL = 1e-8        # vanishing-evidence front-speed threshold
NEG_CLIP = -1e-12


@dataclass
class FreeBoundaryState:
    u: np.ndarray        # values on the fixed xi-grid, u[n] = 0
    h: float
    t: float
    n: int

    @property
    def xi(self):
        return np.linspace(0.0, 1.0, self.n + 1)

    def r(self):
        return self.h * self.xi

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
    xi = np.linspace(0.0, 1.0, n + 1)
    u = spec.u0_values(spec.h0 * xi)
    u[-1] = 0.0
    return FreeBoundaryState(u=u, h=spec.h0, t=0.0, n=n)


@functools.lru_cache(maxsize=16)
def _unit_grid(n, N):
    """The fixed xi-grid on [0, 1]; shared by every step of a run."""
    return RadialGrid(n=n, R=1.0, N=N)


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

    growth = np.asarray(fld.growth(state.t, r), dtype=float)
    crowd = np.asarray(fld.beta(state.t, r), dtype=float)
    # upwind advection: u_t = + xi (h'/h) u_xi, wind >= 0 -> forward difference
    adv = np.zeros_like(u)
    adv[:-1] = xi[:-1] * (h_prime / state.h) * (u[1:] - u[:-1]) / dxi
    rhs = u + dt * (adv + u * (growth - crowd * u))

    solver = DiffusionSolver(_unit_grid(n, spec.N), spec.d / state.h ** 2, dt,
                             "dirichlet")
    u_new = solver.solve(rhs)
    u_new[-1] = 0.0
    u_new[(u_new > NEG_CLIP) & (u_new < 0.0)] = 0.0
    return FreeBoundaryState(u=u_new, h=h_new, t=state.t + dt, n=n), h_prime


@dataclass
class Snapshot:
    t: float
    h: float
    u: np.ndarray      # on the xi-grid

    def r(self):
        return self.h * np.linspace(0.0, 1.0, self.u.size)

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

    def max_sup(self):
        return float(np.max(self.u_sup))


class _StepSizer:
    """Adaptive dt: the spec step shrunk to the positivity and front-CFL
    bounds (the CFL bound relaxes as h grows)."""

    def __init__(self, spec):
        self.dt_spec = spec.numerics.dt
        self.dt_react = 0.45 / max(spec.field.alpha2_max(), 1e-12)
        self.mu = spec.mu
        self.dxi = 1.0 / spec.numerics.n

    def __call__(self, state, grad):
        h_prime = max(-self.mu * grad, 0.0)
        dt = min(self.dt_spec, self.dt_react)
        if h_prime > 0:
            dt = min(dt, 0.45 * self.dxi * state.h / h_prime)
        return dt


def simulate(spec, t_max=None, sample_every=None):
    """Run the free-boundary problem from (u0, h0) to t_max.

    Samples (t, h, h', sup u) every ``sample_every`` time units and stores
    full snapshots at period boundaries t = k*T.  The step size adapts to
    the front-CFL bound so fast fronts early in a run do not force a tiny
    global dt.
    """
    num = spec.numerics
    if t_max is None:
        t_max = num.t_max
    if sample_every is None:
        sample_every = num.sample_every
    T = spec.field.T

    state = initial_state(spec)
    sizer = _StepSizer(spec)
    ts, hs, hps, sups = [0.0], [state.h], [0.0], [state.sup()]
    snapshots = [Snapshot(0.0, state.h, state.u.copy())]
    next_sample = sample_every if sample_every > 0 else math.inf
    next_period = T
    eps = 1e-12 * max(t_max, 1.0)

    while state.t < t_max - eps:
        grad = front_gradient(state)
        dt = sizer(state, grad)
        stop = min(t_max, next_sample, next_period)
        dt = min(dt, stop - state.t)
        if dt <= 0:
            dt = eps
        try:
            state, h_prime = step_free(state, spec, dt)
        except StepSizeTooLarge:
            # front accelerated within the step; retry at half size
            state, h_prime = step_free(state, spec, dt / 2.0)
        hit_sample = state.t >= next_sample - eps
        hit_period = state.t >= next_period - eps
        if hit_sample or state.t >= t_max - eps:
            ts.append(state.t)
            hs.append(state.h)
            hps.append(h_prime)
            sups.append(state.sup())
            while next_sample <= state.t + eps:
                next_sample += sample_every
        if hit_period:
            snapshots.append(Snapshot(state.t, state.h, state.u.copy()))
            next_period += T

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


def classify_outcome(traj, spec, h_star_value=None, rel_tol=0.01, eig_n=256):
    """Classify a trajectory per the spreading-vanishing dichotomy.

    Spreading is certified once the front passes the habitat-radius
    threshold (equivalently, the principal eigenvalue at the current
    radius is nonpositive).  Vanishing needs the density below DECAY_SUP,
    a stalled front, and a final radius strictly under the threshold.
    Undecided is a valid return for borderline runs.
    """
    fld = spec.field
    T = fld.T
    if h_star_value is None:
        hi = max(4.0 * float(traj.h[-1]), 4.0 * spec.h0)
        try:
            h_star_value = eigen.h_star(spec.d, fld, T, r_lo=0.05 * spec.h0,
                                        r_hi=hi, N=spec.N, n=eig_n)
        except BracketInvalid:
            # threshold below the probe radius: lambda1(r_lo) <= 0 already
            h_star_value = 0.05 * spec.h0

    h_final = float(traj.h[-1])
    sup_final = float(traj.u_sup[-1])
    hp_final = float(traj.h_prime[-1])
    tol_h = rel_tol * (1.0 + (h_star_value if math.isfinite(h_star_value) else 0.0))

    if math.isfinite(h_star_value) and h_final > h_star_value + tol_h:
        crossed = traj.t[traj.h > h_star_value + tol_h]
        # h > h* certifies lambda1(d, alpha-gamma, h, T) <= 0 by monotonicity
        ev = Evidence("eigenvalue", h_star_value, h_final, sup_final)
        return Outcome("Spreading", ev, float(crossed[0]))
    if (sup_final < DECAY_SUP and hp_final < FRONT_STALL
            and h_final < h_star_value - tol_h):
        ev = Evidence("decay", h_star_value, h_final, sup_final)
        return Outcome("Vanishing", ev, float(traj.t[-1]))
    ev = Evidence("nearest-miss", h_star_value, h_final, sup_final)
    return Outcome("Undecided", ev, float(traj.t[-1]))
