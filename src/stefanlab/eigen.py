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

from .errors import (BracketInvalid, NoConvergence, NonPositiveIterate,
                     NoSignChange, StepSizeTooLarge)
from .radialcore import DiffusionSolver, RadialGrid

log = logging.getLogger("stefanlab")

H_STAR_INFINITE = math.inf
POTENTIAL_BLOCK = 64      # substeps per coefficient evaluation of a _Period
SUBSTEP_FLOOR = 256       # fewest coarse substeps of a solve on n >= 256
FACTOR_TABLE_BYTES = 4 * 2 ** 20   # largest potential-factor table a _Period
                                   # keeps; substeps grow as d/R**2
MAX_SUBSTEPS = 2 ** 20    # most coarse substeps per period of a solve
# first zero of the Bessel function J_{N/2-1}: the Dirichlet ball of radius
# R in dimension N has principal Laplace eigenvalue (j/R)^2
BALL_ZERO = {1: math.pi / 2, 2: 2.4048255576957724, 3: math.pi}
ENVELOPE_PHASES = 256     # phases of the period means in _envelope_radii
ENVELOPE_MARGIN = 0.01    # relative widening of the envelope radii that
                          # covers the discretization bias of lambda1
EIGEN_PHASES = 32         # eigenfunction phases sampled over one period
MAX_POWER_ITERATIONS = 20000
STALL_WINDOW = 100        # trailing power iterations whose drift contraction
                          # projects the iterations still needed


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    rho: float              # multiplier consistent with lambda1 = -ln(rho)/T
    phi: np.ndarray         # (phases, n+1) positive eigenfunction, global max 1
    phases: np.ndarray
    grid: RadialGrid
    iterations: int
    residual: float
    coarse: np.ndarray      # (n+1,) coarse-step eigenvector, max 1


class _Period:
    """One period of the linear problem at a fixed substep count.

    Holds the implicit diffusion operator at dt = T/substeps, LU-factored
    once, and, when substeps*n*8 bytes fit in FACTOR_TABLE_BYTES, the
    (substeps, n) table of the potential factors exp(dt*(alpha-gamma)) at
    the substep midpoints on the n unknowns.  The factors are evaluated
    for POTENTIAL_BLOCK substeps per coefficient call (midpoint times as a
    column, radii as a row) and exponentiated a block at a time, so every
    factor equals its one-substep evaluation.  A period over the cap keeps
    no table and regenerates the same blocks on every map, so memory stays
    O(POTENTIAL_BLOCK * n) and the factors keep their bits.
    """

    def __init__(self, grid, field, d, T, substeps):
        self.grid, self.field, self.substeps = grid, field, substeps
        self.dt = T / substeps
        self.op = DiffusionSolver(grid, d, self.dt).op
        self.table = None
        if substeps * grid.n * 8 <= FACTOR_TABLE_BYTES:
            self.table = np.empty((substeps, grid.n))
            for k0, block in self._blocks():
                self.table[k0:k0 + len(block)] = block

    def _blocks(self):
        r, dt = self.grid.r, self.dt
        for k0 in range(0, self.substeps, POTENTIAL_BLOCK):
            k1 = min(k0 + POTENTIAL_BLOCK, self.substeps)
            t_mid = ((np.arange(k0, k1) + 0.5) * dt)[:, None]
            pot = self.field.growth(t_mid, r)
            yield k0, np.exp(dt * pot)[:, :self.grid.n]

    def factors(self):
        """The potential factors of the substeps in order, n per row."""
        if self.table is not None:
            return self.table
        return (row for _, block in self._blocks() for row in block)


def period_map(psi, period, record=None):
    """Evolve the linear problem over one _Period and return psi(T).

    Each substep multiplies the n unknowns in place by that substep's
    potential factor, taken from the period's table (or its regenerated
    block when the period is over FACTOR_TABLE_BYTES), and then solves
    the period's factored diffusion operator in place; node n is the
    Dirichlet zero.  No coefficient is evaluated in a tabulated period.
    If ``record`` is an integer P, snapshots at P evenly spaced phases are
    appended to the returned list.
    """
    u = np.array(psi, dtype=float)
    shots = [u.copy()] if record else None
    per_phase = period.substeps // record if record else 0
    u[-1] = 0.0
    unknowns = u[:-1]
    solve = period.op.solve_in_place
    for k, factor in enumerate(period.factors(), 1):
        unknowns *= factor
        solve(unknowns)
        if record and k % per_phase == 0 and k < period.substeps:
            shots.append(u.copy())
    if record:
        return u, shots
    return u


def _power_iteration(period, tol, psi0):
    """Power iteration of the period map from psi0 to a drift within tol.

    Raises NoConvergence once the geometric contraction of the drift over
    the last STALL_WINDOW iterations projects more than twice the
    iterations left in MAX_POWER_ITERATIONS, so a stalled run stops early
    and a converging one keeps a 2x margin for a misjudged contraction.
    """
    psi = psi0 / np.max(psi0)
    rho_prev = None
    drift = np.inf
    drifts = []
    for it in range(1, MAX_POWER_ITERATIONS + 1):
        mapped = period_map(psi, period)
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
        drifts.append(drift)
        if it > STALL_WINDOW and drift > tol:
            rate = math.log(drift / drifts[it - 1 - STALL_WINDOW]) / STALL_WINDOW
            if not rate < 0 or math.log(tol / drift) / rate > 2 * (
                    MAX_POWER_ITERATIONS - it):
                raise NoConvergence(
                    it, drift, "power iteration stalled after %d iterations "
                    "(drift %.3e, contracting %.6f per iteration)"
                    % (it, drift, math.exp(rate)))
    raise NoConvergence(MAX_POWER_ITERATIONS, drift)


def default_substeps(d, field, R, T, n):
    """Heuristic substep count: resolve the principal decay rate well.

    The floor is min(n, SUBSTEP_FLOOR): lambda1's time error (about
    -0.115/S**2 on the seasonal field) then stays near a quarter of its
    grid error (about -0.45/n**2) on every grid up to SUBSTEP_FLOOR.
    """
    kappa = d * (BALL_ZERO[2] / R) ** 2 + abs(field.alpha2_max()) + 1.0
    return max(min(n, SUBSTEP_FLOOR), int(np.ceil(8.0 * T * kappa)))


def principal_eigenvalue(d, field, R, T, N=2, tol=1e-7, n=512, warm=None):
    """Principal eigenvalue and positive eigenfunction on the ball of radius R.

    Power iteration, within MAX_POWER_ITERATIONS periods, runs at
    default_substeps rounded up to a multiple of EIGEN_PHASES (the phases
    of phi) and at twice that; the two multiplier estimates are Richardson-
    extrapolated in the step size and the reported rho is exp(-lambda1*T).
    Each step count is one _Period, built once per solve: its operator is
    factored once and its potential factors are evaluated once (one
    coefficient call per POTENTIAL_BLOCK substeps) into a table that every
    power iteration reuses.  A table is kept only while it fits in
    FACTOR_TABLE_BYTES, and the coarse period is released before the fine
    one is built, so a solve holds at most one table; a larger period
    evaluates its coefficients again on every map.  A solve that needs
    more than MAX_SUBSTEPS coarse substeps raises StepSizeTooLarge before
    it builds a period.

    The coarse run starts from 1 - (r/R)**2 and the fine run from the
    coarse eigenvector.  ``warm``, the EigenResult of a solve with the same
    n and N at a nearby R, warm-starts both: the coarse run from its coarse
    eigenvector, the fine run from its phase-0 fine eigenvector plus the
    change of the coarse eigenvector, clipped at 0.
    """
    if R <= 0 or d <= 0:
        raise ValueError("R and d must be positive")
    substeps = default_substeps(d, field, R, T, n)
    substeps = int(np.ceil(substeps / EIGEN_PHASES)) * EIGEN_PHASES
    if substeps > MAX_SUBSTEPS:
        raise StepSizeTooLarge(
            "R=%.6g needs %d coarse substeps per period, more than "
            "MAX_SUBSTEPS = %d" % (R, substeps, MAX_SUBSTEPS))
    grid = RadialGrid(n=n, R=float(R), N=int(N))
    psi0 = 1.0 - (grid.r / R) ** 2 if warm is None else warm.coarse

    # the coarse period is dropped before the fine one is built
    rho_c, psi_c, it_c, _ = _power_iteration(
        _Period(grid, field, d, T, substeps), tol, psi0)
    psi_f0 = psi_c
    if warm is not None:
        psi_f0 = np.clip(warm.phi[0] + (psi_c - warm.coarse), 0.0, None)
    # the fine period also serves the residual and phase maps below
    fine = _Period(grid, field, d, T, 2 * substeps)
    rho_f, psi_f, it_f, drift = _power_iteration(fine, tol, psi_f0)
    lam_c = -math.log(rho_c) / T
    lam_f = -math.log(rho_f) / T
    lam = 2.0 * lam_f - lam_c
    # residual of the converged fine-step eigenpair
    mapped = period_map(psi_f, fine)
    residual = float(np.max(np.abs(mapped - rho_f * psi_f)))
    # eigenfunction phase samples from one extra period of the fine run
    _, shots = period_map(psi_f, fine, record=EIGEN_PHASES)
    phi = np.array([s / max(float(np.max(np.abs(s))), 1e-300) for s in shots])
    phi /= np.max(np.abs(phi))
    phi = np.abs(phi) * np.sign(np.max(phi))
    phase_times = np.arange(EIGEN_PHASES) * (T / EIGEN_PHASES)
    return EigenResult(lambda1=float(lam), rho=float(math.exp(-lam * T)),
                       phi=phi, phases=phase_times, grid=grid,
                       iterations=it_c + it_f, residual=residual,
                       coarse=psi_c)


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
    """Steps for the root of lambda1 in x = 1/R**2: the ball model while an
    end is unsolved, then Illinois false position.

    On an r-independent potential lambda1 = d*(j/R)**2 - mean(alpha-gamma)
    is linear in x, and otherwise smooth and decreasing in R.  ``model`` is
    (x0, d*j**2), the root and slope of the ball model, or None when both
    ends come solved.  While an end's lambda1 is unknown (None) the probe
    is x0, then a Newton step with the model slope from the solved end, and
    the unsolved end itself when an estimate leaves the open bracket (as an
    infinite lambda1 sends it) or after a closing probe.  With both ends
    solved the probe is the secant root in x, and an end kept by two probes
    in a row has its lambda1 weight halved (Illinois), so that neither end
    goes stale.  An estimate within tol/2 of a solved end becomes a closing
    probe tol/2 beyond that end, which leaves a tol/2 bracket when the
    estimate was right.  A midpoint step is taken when an end's lambda1 is
    not finite (an underflowed period map), after a closing probe that did
    not end the search, and after three probes in a row that did not halve
    the bracket, so the bracket at least halves over every four probes.
    """

    def __init__(self, tol, model):
        self.tol, self.model = tol, model
        self.kind = None            # kind of the last model step
        self.steps = []             # (lo, hi, kind) at each two-ended probe
        self.weight = [1.0, 1.0]    # Illinois factors of lambda1 at lo, hi
        self.moved = None           # end the last probe replaced: 0 lo, 1 hi

    def __call__(self, lo, hi, f_lo, f_hi):
        if f_lo is None or f_hi is None:
            x, self.kind = self._model_step(lo, hi, f_lo, f_hi)
            return x, self.kind
        if self.steps:
            moved = 0 if lo != self.steps[-1][0] else 1
            self.weight[moved] = 1.0
            if moved == self.moved:
                self.weight[1 - moved] *= 0.5
            self.moved = moved
        x, kind = self._step(lo, hi, f_lo, f_hi)
        self.steps.append((lo, hi, kind))
        return x, kind

    def _model_step(self, lo, hi, f_lo, f_hi):
        x, slope = self.model
        R, kind = x ** -0.5, "model"
        if self.kind == "closing":
            # it did not end the search: the unsolved end is probed below
            R = lo if f_lo is None else hi
        elif f_lo is not None or f_hi is not None:
            end, f_end = (lo, f_lo) if f_hi is None else (hi, f_hi)
            x = end ** -2 - f_end / slope
            R, kind = (x ** -0.5 if x > 0 else math.inf), "newton"
            if abs(R - end) <= 0.5 * self.tol:
                R = end + (0.5 if f_hi is None else -0.5) * self.tol
                kind = "closing"
        if not lo < R < hi:
            return (lo if R <= lo else hi), "end"
        return R, kind

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
        return float(np.mean(a(t, 0.0) - g(t, 0.0)))

    m_plus = mean(field.alpha2, field.gamma1)
    m_minus = mean(field.alpha1, field.gamma2)
    if not min(m_plus, m_minus) > 0:
        return None
    return j * math.sqrt(d / m_plus), j * math.sqrt(d / m_minus)


def _h_star_bracket(d, field, T, r_lo, r_hi, tol=1e-3, N=2, n=512):
    """Final bracket (lo, hi) of h* and the number of eigen solves spent.

    Each probe is one eigen solve, warm-started from the last one: a probe
    with lambda1 > 0 becomes lo, any other becomes hi.  When the envelope
    radii apply, _bisect first searches between them, widened by
    ENVELOPE_MARGIN and clipped to [r_lo, r_hi], from the root x0 of the
    ball model, the mean of the radii's x = 1/R**2 (see _IllinoisSplit).
    A caller's end still unsolved is then solved (a ``check`` probe), so
    a wrong envelope costs solves but never the answer.  An infinite
    threshold is the bracket (4*r_hi, inf).  The verified bracket then
    shrinks to at most tol by _bisect, fed the lambda1 values at the ends.
    """
    if not (0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")

    lo, hi = float(r_lo), float(r_hi)
    f_lo = f_hi = None          # lambda1 at a solved end
    warm = None
    solves = 0

    def probe(R):
        nonlocal lo, hi, f_lo, f_hi, warm, solves
        solves += 1
        try:
            warm = principal_eigenvalue(d, field, R, T, N=N, n=n, warm=warm)
            f_R = warm.lambda1
        except NonPositiveIterate:
            # period map underflowed to zero: decay far too strong to
            # represent, so lambda1 is certainly positive at this radius
            f_R = math.inf
        except StepSizeTooLarge:
            # too small to solve: on the ball (its zero j grows with N),
            # lambda1 >= d*(j/R)**2 - max(alpha2 - gamma1) by comparison
            t = np.arange(ENVELOPE_PHASES) * (field.T / ENVELOPE_PHASES)
            if not d * (BALL_ZERO[min(N, 3)] / R) ** 2 > np.max(
                    field.alpha2(t, 0.0) - field.gamma1(t, 0.0)):
                raise
            f_R = math.inf
        if f_R > 0:
            lo, f_lo = R, f_R
        else:
            hi, f_hi = R, f_R
        return f_R

    def wide(lo, hi):
        return hi - lo > tol

    radii = _envelope_radii(d, field, N)
    model = None
    if radii is None:
        log.debug("h* bracket from the caller: [%.10g, %.10g]", lo, hi)
    else:
        model = (0.5 * (radii[0] ** -2 + radii[1] ** -2), d * BALL_ZERO[N] ** 2)
        env_lo = radii[0] * (1.0 - ENVELOPE_MARGIN)
        env_hi = radii[1] * (1.0 + ENVELOPE_MARGIN)
        log.debug("h* model root %.10g in the envelope radii [%.10g, %.10g]",
                  model[0] ** -0.5, env_lo, env_hi)
        _bisect(probe, max(lo, env_lo), min(hi, env_hi), wide,
                split=_IllinoisSplit(tol, model))

    def check(R):
        log.debug("check [%.10g, %.10g]: probe %.10g", lo, hi, R)
        return probe(R)

    # lo == hi: a probe at that caller's end already put it on the other side
    if f_lo is None and (lo == hi or check(lo) <= 0):
        raise BracketInvalid("lambda1(r_lo=%g) <= 0; threshold below bracket"
                             % lo)
    if f_hi is None and (lo == hi or check(hi) > 0):
        # lambda1(r_hi) > 0 made r_hi the lo end: try once 4x further out
        if check(4.0 * hi) > 0:
            return lo, H_STAR_INFINITE, solves
    lo, hi = _bisect(probe, lo, hi, wide, split=_IllinoisSplit(tol, model),
                     f_lo=f_lo, f_hi=f_hi)
    return lo, hi, solves


def h_star(d, field, T, r_lo, r_hi, tol=1e-3, N=2, n=512):
    """Habitat-radius threshold: the root of lambda1(R) = 0.

    lambda1 is strictly decreasing in R.  The search starts at the root
    of the ball model between the envelope comparison radii when they
    apply and from [r_lo, r_hi] otherwise (see _h_star_bracket), and
    shrinks the bracket by model Newton steps and then Illinois false
    position in 1/R**2 (see _IllinoisSplit).  Returns the midpoint of the
    final bracket, at most ``tol`` wide.  If lambda1 is still positive at
    r_hi after one 4x bracket expansion the threshold is reported as
    infinite (math.inf).  Raises BracketInvalid when lambda1(r_lo) <= 0.
    """
    lo, hi, _ = _h_star_bracket(d, field, T, r_lo, r_hi, tol=tol, N=N, n=n)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DThresholds:
    d_star: float
    d_upper: float
    scan_d: np.ndarray
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
                       scan_d=ds, crossings=int(flips.size))
