"""Radial finite-difference core shared by the fixed- and moving-domain solvers.

Uniform grids on [0, R], the N-dimensional radial Laplacian with the
symmetry regularization at r = 0, semi-implicit (implicit diffusion,
explicit reaction) time stepping with a tridiagonal solve, and the
period-map iteration that locates T-periodic attractors of the logistic
reaction-diffusion problem on a ball.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (DomainNotLargeEnough, NoConvergence, SolverSingular,
                     StepSizeTooLarge)

VANISH_SUP = 1e-8          # sup-norm threshold separating the zero branch
PIVOT_EPS = 1e-14


@dataclass(frozen=True)
class RadialGrid:
    n: int          # interior intervals; nodes j = 0..n
    R: float
    N: int          # spatial dimension >= 2

    @property
    def dr(self):
        return self.R / self.n

    @property
    def r(self):
        return np.linspace(0.0, self.R, self.n + 1)


def solve_tridiag(lower, diag, upper, rhs):
    """Solve a tridiagonal system by Gaussian elimination with partial pivoting.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] unused), ``upper[i]``
    multiplies x[i+1] (upper[-1] unused).  LAPACK's gtsv is called
    directly: it is the routine scipy's solve_banded runs for one sub- and
    one superdiagonal, without the band assembly and input validation
    around it.  A diagonal entry below PIVOT_EPS or an exactly singular
    elimination is reported as SolverSingular.
    """
    diag = np.asarray(diag, dtype=float)
    if np.min(np.abs(diag)) < PIVOT_EPS:
        raise SolverSingular("tridiagonal pivot below %g" % PIVOT_EPS)
    if diag.size == 1:
        # the LAPACK wrapper rejects a 1x1 system
        return np.asarray(rhs, dtype=float) / diag
    _, _, _, x, info = lapack.dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info != 0:
        raise SolverSingular("gtsv: zero pivot at row %d" % info)
    return x


def thomas_reference(lower, diag, upper, rhs):
    """Plain Thomas recurrence; independent reference for solve_tridiag."""
    m = diag.size
    c = np.array(upper, dtype=float)
    d = np.array(diag, dtype=float)
    b = np.array(rhs, dtype=float)
    for i in range(1, m):
        if abs(d[i - 1]) < PIVOT_EPS:
            raise SolverSingular("pivot %d below %g" % (i - 1, PIVOT_EPS))
        w = lower[i] / d[i - 1]
        d[i] -= w * c[i - 1]
        b[i] -= w * b[i - 1]
    x = np.empty(m)
    if abs(d[-1]) < PIVOT_EPS:
        raise SolverSingular("last pivot below %g" % PIVOT_EPS)
    x[-1] = b[-1] / d[-1]
    for i in range(m - 2, -1, -1):
        x[i] = (b[i] - c[i] * x[i + 1]) / d[i]
    return x


def radial_laplacian(grid, u):
    """Apply u_rr + (N-1)/r u_r on the grid nodes.

    At r = 0 the symmetry limit N*u_rr(0) is discretized with a reflected
    ghost node as 2N(u_1 - u_0)/dr^2.  The outer node uses a one-sided
    copy of the interior stencil value at n-1 (its value is irrelevant
    under Dirichlet conditions and excluded from Neumann solves).
    """
    dr = grid.dr
    out = np.zeros_like(u, dtype=float)
    out[0] = 2.0 * grid.N * (u[1] - u[0]) / dr ** 2
    j = np.arange(1, grid.n)
    out[1:-1] = ((u[2:] - 2 * u[1:-1] + u[:-2]) / dr ** 2
                 + (grid.N - 1) / (j * dr) * (u[2:] - u[:-2]) / (2 * dr))
    out[-1] = out[-2]
    return out


class FactoredTridiag:
    """A tridiagonal matrix LU-factored once for many right-hand sides.

    Bands follow solve_tridiag's convention.  The matrix is factored with
    LAPACK gttrf at construction and each solve() is one gttrs
    forward/back substitution.  On a diagonally dominant matrix no rows
    are interchanged, so a solve does the same arithmetic as a fresh gtsv
    elimination (solve_tridiag).  Raises SolverSingular at construction
    for a diagonal entry below PIVOT_EPS or an exactly singular
    factorization.  Systems under 3 unknowns, which the LAPACK wrapper
    does not factor, are solved by solve_tridiag.
    """

    def __init__(self, lower, diag, upper):
        diag = np.asarray(diag, dtype=float)
        if np.min(np.abs(diag)) < PIVOT_EPS:
            raise SolverSingular("tridiagonal pivot below %g" % PIVOT_EPS)
        self.size = diag.size
        self._bands = (lower, diag, upper)
        self._lu = None
        if self.size >= 3:
            *lu, info = lapack.dgttrf(lower[1:], diag, upper[:-1])
            if info != 0:
                raise SolverSingular("gttrf: zero pivot at row %d" % info)
            self._lu = lu

    def solve(self, rhs):
        if self._lu is None:
            return solve_tridiag(*self._bands, rhs)
        return lapack.dgttrs(*self._lu, rhs)[0]


@functools.lru_cache(maxsize=16)
def _band_pattern(n, N, boundary):
    """Bands of (I - dt*d*L) divided by s = dt*d/dr^2, without the identity:
    the operator is (-s*lower, 1 + s*diag, -s*upper).  Each scaled entry is
    the same product as in a row-by-row assembly (-s*(1 - w), 1 + 2*s,
    -2*N*s), so the operator is bit-identical.  Read-only; shared by every
    solver on an (n, N, boundary) grid."""
    m = n if boundary == "dirichlet" else n + 1
    lower = np.zeros(m)
    diag = np.full(m, 2.0)
    upper = np.zeros(m)
    diag[0] = 2.0 * N
    upper[0] = 2.0 * N
    w = (N - 1) / (2.0 * np.arange(1, n))
    lower[1:n] = 1.0 - w
    upper[1:n] = 1.0 + w
    if boundary == "neumann":
        # reflection at r = R keeps only u_rr (u_r = 0 kills the 1/r term)
        lower[n] = 2.0
    for band in (lower, diag, upper):
        band.flags.writeable = False
    return lower, diag, upper


class DiffusionSolver:
    """Implicit-Euler diffusion step (I - dt*d*L) u+ = rhs on a RadialGrid.

    boundary "dirichlet": u(R) = 0, unknowns are nodes 0..n-1.
    boundary "neumann": reflected ghost at r = R, unknowns 0..n.
    The operator is the cached band pattern of the grid scaled by
    s = dt*d/dr^2, factored once per (grid, d, dt) as a FactoredTridiag.
    Raises SolverSingular at construction.
    """

    def __init__(self, grid, d, dt, boundary="dirichlet"):
        self.grid = grid
        self.d = d
        self.dt = dt
        self.boundary = boundary
        s = dt * d / grid.dr ** 2
        lower, diag, upper = _band_pattern(grid.n, grid.N, boundary)
        self._op = FactoredTridiag(-s * lower, 1.0 + s * diag, -s * upper)

    def solve(self, rhs):
        m = self._op.size
        out = np.zeros(self.grid.n + 1)
        out[:m] = self._op.solve(rhs[:m])
        return out


def step_reaction_diffusion(grid, u, field, d, dt, t, boundary="dirichlet",
                            solver=None):
    """One semi-implicit step of the logistic reaction-diffusion problem.

    Reaction u*(alpha - gamma - beta*u) is explicit at time t; diffusion is
    implicit.  Dirichlet zero at r = R (or reflecting Neumann for the flat
    test harness), reflection at r = 0.
    """
    if dt * field.alpha2_max() >= 1.0:
        raise StepSizeTooLarge("dt*max(alpha2) = %.3g >= 1"
                               % (dt * field.alpha2_max()))
    r = grid.r
    growth = np.asarray(field.growth(t, r), dtype=float)
    crowd = np.asarray(field.beta(t, r), dtype=float)
    rhs = u + dt * u * (growth - crowd * u)
    if solver is None:
        solver = DiffusionSolver(grid, d, dt, boundary)
    out = solver.solve(rhs)
    if boundary == "dirichlet":
        out[-1] = 0.0
    return out


@dataclass(frozen=True)
class PeriodicOrbit:
    """T-periodic attractor sampled at evenly spaced phases of one period."""
    grid: RadialGrid
    phases: np.ndarray      # times in [0, T)
    values: np.ndarray      # shape (len(phases), n+1)
    residual: float         # sup distance between successive period maps
    periods: int

    def at_phase(self, k=0):
        return self.values[k]

    def interp(self, r, k=0):
        return np.interp(r, self.grid.r, self.values[k])


def _substeps_for(T, dt, phases):
    per_phase = max(1, int(np.ceil(T / (phases * dt))))
    return per_phase * phases, per_phase


def periodic_attractor(grid, field, d, T, tol=1e-6, max_periods=2000,
                       u_init=None, dt=2e-3, phases=32, boundary="dirichlet"):
    """Iterate the period map of the fixed-ball logistic problem.

    Returns the positive periodic orbit once the period map is
    tol-contracted, or None when the solution decays below the vanishing
    threshold (the zero branch).
    """
    if u_init is None:
        u_init = 0.5 * (1.0 - (grid.r / grid.R) ** 2)
    u = np.array(u_init, dtype=float)
    if np.max(u) <= 0:
        raise ValueError("u_init must be nonnegative and not identically zero")
    substeps, per_phase = _substeps_for(T, dt, phases)
    dt = T / substeps
    solver = DiffusionSolver(grid, d, dt, boundary)
    prev = u.copy()
    for period in range(1, max_periods + 1):
        snapshots = [u.copy()]
        for k in range(substeps):
            t = (k * dt)
            u = step_reaction_diffusion(grid, u, field, d, dt, t,
                                        boundary=boundary, solver=solver)
            if (k + 1) % per_phase == 0 and (k + 1) < substeps:
                snapshots.append(u.copy())
        sup = float(np.max(np.abs(u)))
        if sup < VANISH_SUP:
            return None
        residual = float(np.max(np.abs(u - prev)))
        # relative to sup: a decaying (zero-branch) solution keeps a fixed
        # relative change per period and never passes this test
        if residual < tol * sup:
            phase_times = np.arange(phases) * (T / phases)
            return PeriodicOrbit(grid, phase_times, np.array(snapshots),
                                 residual, period)
        prev = u.copy()
    raise NoConvergence(max_periods, residual)


def entire_space_periodic(field, d, T, R_list=(10.0, 20.0, 40.0, 80.0),
                          tol=1e-2, dt=2e-3, N=2, nodes_per_unit=12,
                          max_periods=2000):
    """Approximate the positive periodic solution on the whole space by
    escalating Dirichlet balls until the core region stops changing.

    The core region is [0, R_list[0]].  Raises DomainNotLargeEnough when
    the successive difference is still above tol at the final radius.
    """
    core = R_list[0]
    prev_orbit = None
    diff = np.inf
    for R in R_list:
        n = max(128, int(np.ceil(nodes_per_unit * R)))
        grid = RadialGrid(n=n, R=float(R), N=N)
        if prev_orbit is None:
            u_init = None
        else:
            u_init = prev_orbit.interp(grid.r)
            u_init[-1] = 0.0
        orbit = periodic_attractor(grid, field, d, T, tol=min(1e-6, tol * 1e-2),
                                   max_periods=max_periods, u_init=u_init, dt=dt)
        if orbit is None:
            return None
        if prev_orbit is not None:
            rc = np.linspace(0.0, core, 256)
            diff = max(float(np.max(np.abs(orbit.interp(rc, k) - prev_orbit.interp(rc, k))))
                       for k in range(len(orbit.phases)))
            if diff < tol:
                return orbit
        prev_orbit = orbit
    raise DomainNotLargeEnough(
        "core difference %.3e still above tol %.3e at R = %g" % (diff, tol, R_list[-1]))
