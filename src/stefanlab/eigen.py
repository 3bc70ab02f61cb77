"""Principal eigenvalue of the time-periodic linearized problem on a ball.

The eigenvalue is obtained from the Floquet multiplier of the one-period
solution operator of psi_t - d*Lap(psi) = (alpha-gamma)*psi with Dirichlet
conditions: positive power iteration with sup-norm (Collatz-Wielandt)
multiplier estimates, and lambda1 = -ln(rho)/T.  The per-step potential
factor is applied exactly as exp(dt*k), which makes the shift identity
lambda1(k + c) = lambda1(k) - c hold to rounding, and the step-size bias
of the implicit diffusion sweep is removed by one Richardson
extrapolation in dt.

Also provides the habitat-radius threshold where lambda1 crosses zero and
the slow/fast diffusion thresholds.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketInvalid, NoConvergence, NonPositiveIterate, NoSignChange
from .radialcore import DiffusionSolver, RadialGrid

log = logging.getLogger("stefanlab")

H_STAR_INFINITE = math.inf
POTENTIAL_BLOCK = 64      # substeps per coefficient evaluation in period_map
# first zero of the Bessel function J_{N/2-1}: the Dirichlet ball of radius
# R in dimension N has principal Laplace eigenvalue (j/R)^2
BALL_ZERO = {1: math.pi / 2, 2: 2.4048255576957724, 3: math.pi}
ENVELOPE_PHASES = 256     # phases of the period means in _envelope_radii
ENVELOPE_MARGIN = 0.01    # relative widening of the envelope radii that
                          # covers the discretization bias of lambda1
EIGEN_PHASES = 32         # eigenfunction phases sampled over one period
MAX_POWER_ITERATIONS = 20000


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    rho: float              # multiplier consistent with lambda1 = -ln(rho)/T
    phi: np.ndarray         # (phases, n+1) positive eigenfunction, global max 1
    phases: np.ndarray
    grid: RadialGrid
    iterations: int
    residual: float


def period_map(psi, grid, field, d, T, substeps, solver=None, record=None):
    """Evolve the linear problem over one period and return psi(T).

    Each substep multiplies by exp(dt*(alpha-gamma)) at the interval
    midpoint and then applies the implicit diffusion sweep with the
    solver's once-factored operator.  The potential factors are evaluated
    for POTENTIAL_BLOCK substeps per coefficient call (midpoint times as a
    column, radii as a row), so memory stays O(POTENTIAL_BLOCK * n) and
    every factor equals its one-substep evaluation.  If ``record`` is an
    integer P, snapshots at P evenly spaced phases are appended to the
    returned list.
    """
    dt = T / substeps
    if solver is None:
        solver = DiffusionSolver(grid, d, dt)
    r = grid.r
    u = np.array(psi, dtype=float)
    shots = [u.copy()] if record else None
    per_phase = substeps // record if record else 0
    for k0 in range(0, substeps, POTENTIAL_BLOCK):
        k1 = min(k0 + POTENTIAL_BLOCK, substeps)
        t_mid = ((np.arange(k0, k1) + 0.5) * dt)[:, None]
        pot = np.broadcast_to(np.asarray(field.growth(t_mid, r), dtype=float),
                              (k1 - k0, r.size))
        for k, factor in zip(range(k0, k1), np.exp(dt * pot)):
            u = solver.solve(u * factor)
            if record and (k + 1) % per_phase == 0 and (k + 1) < substeps:
                shots.append(u.copy())
    if record:
        return u, shots
    return u


def _power_iteration(grid, field, d, T, substeps, tol, psi0, solver):
    psi = psi0 / np.max(psi0)
    rho_prev = None
    drift = np.inf
    for it in range(1, MAX_POWER_ITERATIONS + 1):
        mapped = period_map(psi, grid, field, d, T, substeps, solver=solver)
        rho = float(np.max(mapped))
        if rho <= 0 or np.any(mapped[:-1] < -1e-13 * max(rho, 1.0)):
            raise NonPositiveIterate(
                "period map lost positivity at iteration %d" % it)
        new = np.clip(mapped, 0.0, None) / rho
        drift = float(np.max(np.abs(new - psi)))
        psi = new
        if rho_prev is not None and abs(rho - rho_prev) <= tol * rho and drift <= tol:
            return rho, psi, it, drift
        rho_prev = rho
    raise NoConvergence(MAX_POWER_ITERATIONS, drift)


def default_substeps(d, field, R, T):
    """Heuristic substep count: resolve the principal decay rate well."""
    kappa = d * (BALL_ZERO[2] / R) ** 2 + abs(field.alpha2_max()) + 1.0
    return max(256, int(np.ceil(8.0 * T * kappa)))


def principal_eigenvalue(d, field, R, T, N=2, tol=1e-7, n=512, psi0=None):
    """Principal eigenvalue and positive eigenfunction on the ball of radius R.

    Power iteration, within MAX_POWER_ITERATIONS periods, runs at
    default_substeps rounded up to a multiple of EIGEN_PHASES (the phases
    of phi) and at twice that; the two multiplier estimates are Richardson-
    extrapolated in the step size and the reported rho is exp(-lambda1*T).
    """
    if R <= 0 or d <= 0:
        raise ValueError("R and d must be positive")
    grid = RadialGrid(n=n, R=float(R), N=int(N))
    substeps = default_substeps(d, field, R, T)
    substeps = int(np.ceil(substeps / EIGEN_PHASES)) * EIGEN_PHASES
    if psi0 is None:
        psi0 = 1.0 - (grid.r / R) ** 2
    psi0 = np.asarray(psi0, dtype=float)

    coarse = DiffusionSolver(grid, d, T / substeps)
    rho_c, psi_c, it_c, _ = _power_iteration(grid, field, d, T, substeps,
                                             tol, psi0, coarse)
    # the fine-step operator also serves the residual and phase maps below
    fine = DiffusionSolver(grid, d, T / (2 * substeps))
    rho_f, psi_f, it_f, drift = _power_iteration(grid, field, d, T, 2 * substeps,
                                                 tol, psi_c, fine)
    lam_c = -math.log(rho_c) / T
    lam_f = -math.log(rho_f) / T
    lam = 2.0 * lam_f - lam_c
    # residual of the converged fine-step eigenpair
    mapped = period_map(psi_f, grid, field, d, T, 2 * substeps, solver=fine)
    residual = float(np.max(np.abs(mapped - rho_f * psi_f)))
    # eigenfunction phase samples from one extra period of the fine run
    _, shots = period_map(psi_f, grid, field, d, T, 2 * substeps, solver=fine,
                          record=EIGEN_PHASES)
    phi = np.array([s / max(float(np.max(np.abs(s))), 1e-300) for s in shots])
    phi /= np.max(np.abs(phi))
    phi = np.abs(phi) * np.sign(np.max(phi))
    phase_times = np.arange(EIGEN_PHASES) * (T / EIGEN_PHASES)
    return EigenResult(lambda1=float(lam), rho=float(math.exp(-lam * T)),
                       phi=phi, phases=phase_times, grid=grid,
                       iterations=it_c + it_f, residual=residual)


def _midpoint(lo, hi, f_lo, f_hi):
    return 0.5 * (lo + hi), "bisect"


def _bisect(f, lo, hi, wide, split=_midpoint, f_lo=None, f_hi=None):
    """Shrink the bracket [lo, hi] around the sign change of a monotone test.

    ``f(x) > 0`` puts x on lo's side and any other value on hi's side; a
    boolean test is such an f.  While ``wide(lo, hi)`` holds, probes the
    point that ``split(lo, hi, f_lo, f_hi)`` returns with the name of its
    step, and keeps the part where f changes sign.  ``f_lo`` and ``f_hi``
    are the values of f at the ends (None when unknown); the default
    midpoint split ignores them.  Returns the final (lo, hi).
    """
    while wide(lo, hi):
        x, kind = split(lo, hi, f_lo, f_hi)
        log.debug("%s [%.10g, %.10g]: probe %.10g", kind, lo, hi, x)
        fx = f(x)
        if fx > 0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return lo, hi


class _IllinoisSplit:
    """Illinois false-position steps for the root of lambda1 in x = 1/R**2.

    On an r-independent potential lambda1 = d*(j/R)**2 - mean(alpha-gamma)
    is linear in x, and otherwise smooth and decreasing in R, so the secant
    root in x lands close to h*.  An end kept by two probes in a row has
    its lambda1 weight halved (Illinois), which stops one end from going
    stale.  An estimate within tol/2 of an end means the root is that
    close: the probe then goes tol/2 beyond that end instead (a closing
    probe), which leaves a tol/2 bracket when the estimate was right.  A
    midpoint step is taken when an end's lambda1 is not finite (an
    underflowed period map), after a closing probe that did not end the
    search, and after three probes in a row that did not halve the
    bracket, so the bracket at least halves over every four probes.
    """

    def __init__(self, tol):
        self.tol = tol
        self.steps = []             # (lo, hi, kind) at each probe so far
        self.weight = [1.0, 1.0]    # Illinois factors of lambda1 at lo, hi
        self.moved = None           # end the last probe replaced: 0 lo, 1 hi

    def __call__(self, lo, hi, f_lo, f_hi):
        if self.steps:
            moved = 0 if lo != self.steps[-1][0] else 1
            self.weight[moved] = 1.0
            if moved == self.moved:
                self.weight[1 - moved] *= 0.5
            self.moved = moved
        x, kind = self._step(lo, hi, f_lo, f_hi)
        self.steps.append((lo, hi, kind))
        return x, kind

    def _step(self, lo, hi, f_lo, f_hi):
        half = 0.5 * self.tol
        last3 = self.steps[-3:]
        closing_failed = bool(last3) and last3[-1][2] == "closing"
        stalled = (len(last3) == 3 and all(k != "bisect" for *_, k in last3)
                   and hi - lo > 0.5 * (last3[0][1] - last3[0][0]))
        if (not (math.isfinite(f_lo) and math.isfinite(f_hi))
                or closing_failed or stalled):
            return 0.5 * (lo + hi), "bisect"
        w_lo, w_hi = self.weight[0] * f_lo, self.weight[1] * f_hi
        x_lo, x_hi = lo ** -2, hi ** -2
        x = (x_lo + (x_hi - x_lo) * w_lo / (w_lo - w_hi)) ** -0.5
        if x < lo + half:
            return lo + half, "closing"
        if x > hi - half:
            return hi - half, "closing"
        return x, "illinois"


def _envelope_radii(d, field, N):
    """Comparison radii R+ <= h* <= R- from the declared time-only envelopes.

    On a ball the time-only potentials alpha2 - gamma1 and alpha1 - gamma2
    bound alpha - gamma from above and below, so the comparison principle
    for periodic-parabolic eigenvalues puts h* between the radii where
    their closed-form lambda1 = d*(j/R)^2 - mean vanishes: R = j*sqrt(d/m)
    with m the period mean, taken on ENVELOPE_PHASES phases.  Returns None
    when N has no tabulated ball zero, an envelope is missing or a mean is
    not positive.
    """
    j = BALL_ZERO.get(N)
    envelopes = (field.alpha1, field.alpha2, field.gamma1, field.gamma2)
    if j is None or any(env is None for env in envelopes):
        return None
    t = np.arange(ENVELOPE_PHASES) * (field.T / ENVELOPE_PHASES)

    def mean(a, g):
        return float(np.mean(np.asarray(a(t, 0.0), dtype=float)
                             - np.asarray(g(t, 0.0), dtype=float)))

    m_plus = mean(field.alpha2, field.gamma1)
    m_minus = mean(field.alpha1, field.gamma2)
    if not min(m_plus, m_minus) > 0:
        return None
    return j * math.sqrt(d / m_plus), j * math.sqrt(d / m_minus)


def _h_star_bracket(d, field, T, r_lo, r_hi, tol=1e-3, N=2, n=512):
    """Final bracket (lo, hi) of h* and the number of eigen solves spent.

    The caller's bracket is first narrowed to the envelope radii widened by
    ENVELOPE_MARGIN, each end verified by a solve: a probe with lambda1 > 0
    becomes lo, any other becomes hi, so a wrong envelope costs a solve but
    never the answer.  A caller end is solved only when no probe verified
    that side.  An infinite threshold is the bracket (4*r_hi, inf).  The
    verified bracket then shrinks to at most tol by _bisect, fed the
    lambda1 values at the ends, with the _IllinoisSplit steps: secant
    estimates in 1/R**2, a closing probe tol/2 beyond an end once an
    estimate lands within tol/2 of it, and midpoint fallbacks.
    """
    if not (0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")

    psi_warm = [None]
    solves = [0]

    def lam(R):
        solves[0] += 1
        try:
            res = principal_eigenvalue(d, field, R, T, N=N, n=n,
                                       psi0=psi_warm[0])
        except NonPositiveIterate:
            # period map underflowed to zero: decay far too strong to
            # represent, so lambda1 is certainly positive at this radius
            return math.inf
        psi_warm[0] = res.phi[0]
        return res.lambda1

    lo, hi = float(r_lo), float(r_hi)
    f_lo = f_hi = None          # lambda1 at a verified end
    radii = _envelope_radii(d, field, N)
    if radii is None:
        log.debug("h* bracket from the caller: [%.10g, %.10g]", lo, hi)
    else:
        probes = (radii[0] * (1.0 - ENVELOPE_MARGIN),
                  radii[1] * (1.0 + ENVELOPE_MARGIN))
        log.debug("h* bracket from the envelope radii: [%.10g, %.10g]", *probes)
        for R in probes:
            if lo < R < hi:
                f_R = lam(R)
                if f_R > 0:
                    lo, f_lo = R, f_R
                else:
                    hi, f_hi = R, f_R
    if f_lo is None:
        f_lo = lam(lo)
        if f_lo <= 0:
            raise BracketInvalid("lambda1(r_lo=%g) <= 0; threshold below bracket"
                                 % lo)
    if f_hi is None:
        f_hi = lam(hi)
        if f_hi > 0:
            lo, f_lo, hi = hi, f_hi, 4.0 * hi
            f_hi = lam(hi)
            if f_hi > 0:
                return hi, H_STAR_INFINITE, solves[0]
    lo, hi = _bisect(lam, lo, hi, lambda lo, hi: hi - lo > tol,
                     split=_IllinoisSplit(tol), f_lo=f_lo, f_hi=f_hi)
    return lo, hi, solves[0]


def h_star(d, field, T, r_lo, r_hi, tol=1e-3, N=2, n=512):
    """Habitat-radius threshold: the root of lambda1(R) = 0.

    lambda1 is strictly decreasing in R.  The search starts from the
    envelope comparison radii when they apply and from [r_lo, r_hi]
    otherwise, and shrinks the bracket by Illinois false position in
    1/R**2 with closing probes and midpoint fallbacks (see
    _IllinoisSplit).  Returns the midpoint of the final bracket, at most
    ``tol`` wide.  If lambda1 is still positive at r_hi after one 4x
    bracket expansion the threshold is reported as infinite (math.inf).
    Raises BracketInvalid when lambda1(r_lo) <= 0.
    """
    lo, hi, _ = _h_star_bracket(d, field, T, r_lo, r_hi, tol=tol, N=N, n=n)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DThresholds:
    d_star: float
    d_upper: float
    scan_d: np.ndarray
    scan_lambda: np.ndarray
    crossings: int


def d_thresholds(field, R, T, d_lo, d_hi, tol=1e-3, N=2, points=32, n=256):
    """Scan lambda1 over a geometric d-grid and refine the outermost sign
    changes by bisection.

    d_star is the largest diffusion below the first crossing with
    lambda1 <= 0; d_upper the smallest above the last crossing with
    lambda1 > 0.  Monotonicity in d is not assumed; multiple crossings are
    reported via ``crossings``.  Raises NoSignChange for a one-signed scan.
    """
    if not (0 < d_lo < d_hi) or int(points) < 2:
        raise ValueError("need 0 < d_lo < d_hi and points >= 2")
    ds = np.geomspace(d_lo, d_hi, int(points))

    def lam(d):
        return principal_eigenvalue(d, field, R, T, N=N, n=n).lambda1

    lams = np.array([lam(d) for d in ds])
    signs = lams > 0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    if flips.size == 0:
        raise NoSignChange(+1 if signs[0] else -1)

    def refine(i):
        # bisect for the zero crossing inside [ds[i], ds[i+1]]; the left
        # end's sign is the scan's
        lo, hi = _bisect(lambda d: (lam(d) > 0) == signs[i], ds[i], ds[i + 1],
                         lambda lo, hi: hi / lo > 1.0 + tol,
                         split=lambda lo, hi, *_: (math.sqrt(lo * hi), "bisect"))
        return math.sqrt(lo * hi)

    first = flips[0]
    last = flips[-1]
    d_star = refine(first)
    d_upper = d_star if last == first else refine(last)
    return DThresholds(d_star=float(d_star), d_upper=float(d_upper),
                       scan_d=ds, scan_lambda=lams, crossings=int(flips.size))
