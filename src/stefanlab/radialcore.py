"""Radial finite-difference core shared by the fixed- and moving-domain solvers.

Uniform grids on [0, R], the N-dimensional radial Laplacian with the
symmetry regularization at r = 0, semi-implicit (implicit diffusion,
explicit reaction) time stepping with a tridiagonal solve, and the
period-map iteration that locates T-periodic attractors of the logistic
reaction-diffusion problem on a ball.
"""

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import (DomainNotLargeEnough, NoConvergence, SolverSingular,
                     StepSizeTooLarge)

VANISH_SUP = 1e-8          # sup-norm threshold separating the zero branch
PIVOT_EPS = 1e-14
ATTRACTOR_PHASES = 32      # orbit phases sampled over one period
ATTRACTOR_DT = 2e-3        # largest time step of periodic_attractor
MAX_ATTRACTOR_PERIODS = 2000
NODES_PER_UNIT = 12        # grid intervals per unit radius of a ball
_ROUTINES = ("dgtsv", "dgttrf", "dgttrs")


def _flapack_path():
    """Path of scipy's f2py LAPACK extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    bases = spec.submodule_search_locations if spec else None
    for base in bases or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError("scipy/linalg/_flapack extension not found")


def _load_lapack():
    """A namespace holding LAPACK dgtsv, dgttrf and dgttrs.

    Importing scipy.linalg takes more than half the import time of the
    whole package, mostly in modules these routines never use, so scipy's
    _flapack extension is loaded on its own under a plain module name (it
    is not entered in sys.modules).  Its routines are the same compiled
    code scipy.linalg.lapack exposes, which remains the fallback when the
    file is missing, fails to load or lacks a routine.
    """
    try:
        spec = importlib.util.spec_from_file_location("_flapack",
                                                      _flapack_path())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        pass
    else:
        if all(hasattr(module, name) for name in _ROUTINES):
            return module
    from scipy.linalg import lapack
    return lapack


lapack = _load_lapack()


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
    if np.abs(diag).min() < PIVOT_EPS:
        raise SolverSingular("tridiagonal pivot below %g" % PIVOT_EPS)
    if diag.size == 1:
        # the LAPACK wrapper rejects a 1x1 system
        return np.asarray(rhs, dtype=float) / diag
    _, _, _, x, info = lapack.dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info != 0:
        raise SolverSingular("gtsv: zero pivot at row %d" % info)
    return x


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
        if np.abs(diag).min() < PIVOT_EPS:
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

    def solve_in_place(self, rhs):
        """solve() written into rhs, a float array of self.size entries."""
        if self._lu is None:
            rhs[...] = solve_tridiag(*self._bands, rhs)
            return
        # trans and overwrite_b by position: keyword parsing costs ~0.7 us
        x = lapack.dgttrs(*self._lu, rhs, "N", 1)[0]
        if x is not rhs:
            # the wrapper substituted into a copy (rhs not contiguous)
            rhs[...] = x


@functools.lru_cache(maxsize=16)
def _band_pattern(n, N):
    """Bands of (I - dt*d*L) divided by s = dt*d/dr^2, without the identity,
    on the n Dirichlet unknowns (nodes 0..n-1; u(R) = 0).  Read-only;
    shared by every operator on an (n, N) grid."""
    lower = np.zeros(n)
    diag = np.full(n, 2.0)
    upper = np.zeros(n)
    diag[0] = 2.0 * N
    upper[0] = 2.0 * N
    w = (N - 1) / (2.0 * np.arange(1, n))
    lower[1:n] = 1.0 - w
    upper[1:n] = 1.0 + w
    for band in (lower, diag, upper):
        band.flags.writeable = False
    return lower, diag, upper


def diffusion_bands(n, N, s):
    """Bands (-s*lower, 1 + s*diag, -s*upper) of the implicit diffusion
    operator, with s = dt*d/dr^2.  Each entry is the same product as in a
    row-by-row assembly (-s*(1 - w), 1 + 2*s, -2*N*s), so the operator is
    bit-identical to it."""
    lower, diag, upper = _band_pattern(n, N)
    return -s * lower, 1.0 + s * diag, -s * upper


class DiffusionSolver:
    """Implicit-Euler diffusion step (I - dt*d*L) u+ = rhs on a RadialGrid
    with u(R) = 0.

    The operator ``op`` is diffusion_bands at s = dt*d/dr^2, factored
    once per (grid, d, dt) as a FactoredTridiag on the n unknowns; solve()
    returns all n+1 nodes, node n being zero.  Raises SolverSingular at
    construction.
    """

    def __init__(self, grid, d, dt):
        s = dt * d / grid.dr ** 2
        self.op = FactoredTridiag(*diffusion_bands(grid.n, grid.N, s))

    def solve(self, rhs):
        n = self.op.size
        out = np.zeros(n + 1)
        out[:n] = self.op.solve(rhs[:n])
        return out


def step_reaction_diffusion(grid, u, field, d, dt, t, solver=None):
    """One semi-implicit step of the logistic reaction-diffusion problem.

    Reaction u*(alpha - gamma - beta*u) is explicit at time t; diffusion is
    implicit.  Dirichlet zero at r = R, reflection at r = 0.
    """
    if dt * field.alpha2_max() >= 1.0:
        raise StepSizeTooLarge("dt*max(alpha2) = %.3g >= 1"
                               % (dt * field.alpha2_max()))
    r = grid.r
    growth = np.asarray(field.growth(t, r), dtype=float)
    crowd = np.asarray(field.beta(t, r), dtype=float)
    rhs = u + dt * u * (growth - crowd * u)
    if solver is None:
        solver = DiffusionSolver(grid, d, dt)
    return solver.solve(rhs)


@dataclass(frozen=True)
class PeriodicOrbit:
    """T-periodic attractor sampled at evenly spaced phases of one period."""
    grid: RadialGrid
    phases: np.ndarray      # times in [0, T)
    values: np.ndarray      # shape (len(phases), n+1)
    residual: float         # sup distance between successive period maps
    periods: int

    def interp(self, r, k=0):
        return np.interp(r, self.grid.r, self.values[k])


def periodic_attractor(grid, field, d, T, tol=1e-6, u_init=None):
    """Iterate the period map of the fixed-ball logistic problem.

    Returns the positive periodic orbit, sampled at ATTRACTOR_PHASES
    phases, once the period map is tol-contracted within
    MAX_ATTRACTOR_PERIODS periods, or None when the solution decays below
    the vanishing threshold (the zero branch).  The step is ATTRACTOR_DT
    shrunk to a whole number of steps per phase.
    """
    if u_init is None:
        u_init = 0.5 * (1.0 - (grid.r / grid.R) ** 2)
    u = np.array(u_init, dtype=float)
    if np.max(u) <= 0:
        raise ValueError("u_init must be nonnegative and not identically zero")
    per_phase = max(1, int(np.ceil(T / (ATTRACTOR_PHASES * ATTRACTOR_DT))))
    substeps = per_phase * ATTRACTOR_PHASES
    dt = T / substeps
    solver = DiffusionSolver(grid, d, dt)
    prev = u.copy()
    for period in range(1, MAX_ATTRACTOR_PERIODS + 1):
        snapshots = [u.copy()]
        for k in range(substeps):
            t = (k * dt)
            u = step_reaction_diffusion(grid, u, field, d, dt, t, solver=solver)
            if (k + 1) % per_phase == 0 and (k + 1) < substeps:
                snapshots.append(u.copy())
        sup = float(np.max(np.abs(u)))
        if sup < VANISH_SUP:
            return None
        residual = float(np.max(np.abs(u - prev)))
        # relative to sup: a decaying (zero-branch) solution keeps a fixed
        # relative change per period and never passes this test
        if residual < tol * sup:
            phase_times = np.arange(ATTRACTOR_PHASES) * (T / ATTRACTOR_PHASES)
            return PeriodicOrbit(grid, phase_times, np.array(snapshots),
                                 residual, period)
        prev = u.copy()
    raise NoConvergence(MAX_ATTRACTOR_PERIODS, residual)


def entire_space_periodic(field, d, T, R_list=(10.0, 20.0, 40.0, 80.0),
                          tol=1e-2):
    """Approximate the positive periodic solution on the plane (N = 2) by
    escalating Dirichlet balls until the core region stops changing.

    Each ball has max(128, NODES_PER_UNIT*R) grid intervals.  The core
    region is [0, R_list[0]].  Raises DomainNotLargeEnough when the
    successive difference is still above tol at the final radius.
    """
    core = R_list[0]
    prev_orbit = None
    diff = np.inf
    for R in R_list:
        n = max(128, int(np.ceil(NODES_PER_UNIT * R)))
        grid = RadialGrid(n=n, R=float(R), N=2)
        if prev_orbit is None:
            u_init = None
        else:
            u_init = prev_orbit.interp(grid.r)
            u_init[-1] = 0.0
        orbit = periodic_attractor(grid, field, d, T, tol=min(1e-6, tol * 1e-2),
                                   u_init=u_init)
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
