"""Problem data: T-periodic environment coefficients and problem instances.

A CoefficientField carries the birth rate ``alpha(t, r)``, death rate
``gamma(t, r)`` and crowding strength ``beta(t, r)`` together with their
declared time-only envelope bounds.  A ProblemSpec bundles a field with
the dimension, diffusion and free-boundary parameters plus numerics
settings.  Everything is immutable after construction and evaluation is
pure, so instances are safe to share across workers.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import coeffexpr


class _Broadcast:
    """Picklable adapter that makes a plain callable f(t, r) honour the
    coefficient contract: a float array of the broadcast shape of (t, r)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t, r=0.0):
        out = np.asarray(self.fn(t, r), dtype=float)
        shape = np.broadcast(t, r).shape
        # a fresh array, not a read-only view: initial_state writes into
        # the values of u0
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def _as_fn(spec):
    """The one entry of a coefficient, as an f(t, r) that honours the
    contract of CoefficientField: a string becomes an ExprFunction, a
    number the ExprFunction of its repr (ValueError when not finite) and a
    plain callable is wrapped once in _Broadcast."""
    if isinstance(spec, (coeffexpr.ExprFunction, _Broadcast)):
        return spec
    if callable(spec):
        return _Broadcast(spec)
    if isinstance(spec, str):
        return coeffexpr.ExprFunction(spec)
    value = float(spec)
    if not np.isfinite(value):
        raise ValueError("coefficient %r is not a finite number" % value)
    return coeffexpr.ExprFunction(repr(value))


def r_independent(fn):
    """True when f(t, r) is an expression that never reads r.  A plain
    callable is not known to be."""
    return (isinstance(fn, coeffexpr.ExprFunction)
            and "r" not in coeffexpr.variables(fn.ast))


PERIODICITY_RTOL = 1e-10
ENVELOPE_SAMPLES = 96     # radii sampled by an estimated envelope
HABITAT_SAMPLES = 64      # radii sampled in [0, R] by classify_habitat
HABITAT_TIME_NODES = 256  # time intervals per period in classify_habitat
HABITAT_TOL = 1e-8        # margin of a favorable or unfavorable sign
MAX_GRID_N = 2 ** 16      # largest [numerics] n that validate accepts


@dataclass(frozen=True)
class CoefficientField:
    """T-periodic coefficient triple with declared envelope bounds.

    The contract, which no solver re-checks: a coefficient returns a float
    array of the broadcast shape of (t, r), an envelope one of the shape
    of t.  from_expressions builds coefficients through _as_fn; a direct
    CoefficientField(...) must pass ones that honour it."""
    alpha: object          # f(t, r)
    gamma: object          # f(t, r)
    beta: object           # f(t, r)
    T: float
    alpha1: object = None  # f(t), lower envelope of alpha
    alpha2: object = None
    gamma1: object = None
    gamma2: object = None
    beta1: object = None
    beta2: object = None

    @staticmethod
    def from_expressions(alpha, gamma, beta, T, r_max=40.0):
        """Build a field from expression strings / numbers / callables.

        The envelope bounds are estimated by sampling ENVELOPE_SAMPLES
        radii in [0, r_max] with a small relative padding so the declared
        ordering holds.
        """
        fa, fg, fb = _as_fn(alpha), _as_fn(gamma), _as_fn(beta)
        alpha1, alpha2 = _sampled_envelopes(fa, T, r_max)
        gamma1, gamma2 = _sampled_envelopes(fg, T, r_max)
        beta1, beta2 = _sampled_envelopes(fb, T, r_max)
        return CoefficientField(alpha=fa, gamma=fg, beta=fb, T=float(T),
                                alpha1=alpha1, alpha2=alpha2, gamma1=gamma1,
                                gamma2=gamma2, beta1=beta1, beta2=beta2)

    def growth(self, t, r):
        """alpha - gamma at (t, r); vectorized."""
        return self.alpha(t, r) - self.gamma(t, r)

    def alpha2_max(self):
        """Max over one period of the birth upper envelope (257 samples).

        Sampled on the first call and cached on the instance: the field is
        immutable, and the steppers check it on every step.
        """
        cached = self.__dict__.get("_alpha2_max")
        if cached is None:
            t = np.linspace(0.0, self.T, 257)
            cached = float(np.max(self.alpha2(t, 0.0)))
            object.__setattr__(self, "_alpha2_max", cached)
        return cached

    def beta1_min(self):
        t = np.linspace(0.0, self.T, 257)
        return float(np.min(self.beta1(t, 0.0)))


class _SampledEnvelope:
    """Time-only envelope from a min/max over sampled radii (picklable)."""

    def __init__(self, fn, r_grid, which, pad):
        self.fn = fn
        self.r_grid = r_grid
        self.which = which
        self.pad = pad

    def __call__(self, t, r=0.0):
        t = np.asarray(t, dtype=float)
        vals = self.fn(t[..., None] if t.ndim else t, self.r_grid)
        red = np.min(vals, axis=-1) if self.which == "min" else np.max(vals, axis=-1)
        out = red - self.pad if self.which == "min" else red + self.pad
        return out if np.ndim(out) else float(out)


def _sampled_envelopes(fn, T, r_max):
    r_grid = np.linspace(0.0, r_max, ENVELOPE_SAMPLES)
    # a period that validate rejects (not finite and > 0) is not sampled:
    # linspace(0, inf) warns before validate can report it
    t = np.linspace(0.0, T, 33) if 0 < T < np.inf else np.zeros(1)
    vals = fn(t[:, None], r_grid[None, :])
    pad = 1e-12 * (1.0 + float(np.max(np.abs(vals))))
    return (_SampledEnvelope(fn, r_grid, "min", pad),
            _SampledEnvelope(fn, r_grid, "max", pad))


def constant_field(a, gamma=0.0, beta=1.0, T=1.0):
    """Convenience: spatially and temporally constant environment with
    growth rate ``a`` (alpha = a + gamma)."""
    return CoefficientField.from_expressions(alpha=float(a) + float(gamma),
                                             gamma=float(gamma), beta=float(beta), T=T)


@dataclass(frozen=True)
class Numerics:
    n: int = 256
    dt: float = 2e-3
    t_max: float = 50.0
    sample_every: float = 0.25


@dataclass(frozen=True)
class ProblemSpec:
    field: CoefficientField
    N: int
    d: float
    mu: float
    h0: float
    u0: object                       # profile f(r) on [0, h0]; called as f(t=0, r)
    numerics: Numerics = dc_field(default_factory=Numerics)

    @staticmethod
    def build(field, N=2, d=1.0, mu=1.0, h0=1.0, u0=None, **numerics):
        if u0 is None:
            u0 = "cos(pi*r/(2*%r))" % float(h0)
        return ProblemSpec(field=field, N=int(N), d=float(d), mu=float(mu),
                           h0=float(h0), u0=_as_fn(u0),
                           numerics=Numerics(**numerics) if numerics else Numerics())

    def u0_values(self, r):
        return np.asarray(self.u0(0.0, r), dtype=float)

    def with_(self, **kw):
        """Copy with top-level fields replaced (numerics keys allowed too)."""
        num_keys = {k: v for k, v in kw.items() if hasattr(Numerics, k) and k not in ("field",)}
        top = {k: v for k, v in kw.items() if k not in num_keys}
        spec = replace(self, **top) if top else self
        if num_keys:
            spec = replace(spec, numerics=replace(spec.numerics, **num_keys))
        return spec


# --- validation ---

@dataclass(frozen=True)
class Violation:
    kind: str       # e.g. "PeriodicityViolation", "EnvelopeViolation", ...
    where: tuple    # offending (t, r) or ()
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    r_check: float

    @property
    def ok(self):
        return not self.violations

    def kinds(self):
        return {v.kind for v in self.violations}


def check_radius(d, h0):
    """4*h0 + 50*sqrt(d), the initial radius plus the semi-wave truncation
    radius; 0 when d or h0 is not finite and > 0."""
    ok = 0 < d < np.inf and 0 < h0 < np.inf
    return 4.0 * h0 + 50.0 * np.sqrt(d) if ok else 0.0


def validate(spec, lattice=(64, 64)):
    """Check the spec invariants on a sampled (t, r) lattice.

    The lattice covers t in [0, T) and r in [0, check_radius(d, h0)].
    Returns a ValidationReport listing every violated invariant; sampled
    checks can only certify the region up to ``r_check``.  d, mu, h0, the
    dimension N and the period T must be finite and positive; when one is
    not, the report lists only those.  The time step dt, the horizon t_max
    and the sampling interval sample_every must be finite and positive too,
    and the grid needs 16 <= n <= MAX_GRID_N intervals.  The work of a run
    depends on the horizon its command runs; the CLI bounds it.
    """
    fld = spec.field
    params = (("d", spec.d), ("mu", spec.mu), ("h0", spec.h0), ("N", spec.N),
              ("T", fld.T))
    out = [Violation("NonPositiveParameter", (),
                     "%s must be finite and > 0, got %r" % (name, value))
           for name, value in params if not 0 < value < np.inf]
    if out:
        # the lattice and the profile checks need d > 0 and h0 > 0, and
        # the lattice and every time stepper a period T > 0
        return ValidationReport(tuple(out), 0.0)
    nt, nr = max(lattice[0], 64), max(lattice[1], 64)
    r_check = check_radius(spec.d, spec.h0)
    tg = np.linspace(0.0, fld.T, nt, endpoint=False)
    rg = np.linspace(0.0, r_check, nr)
    tt, rr = tg[:, None], rg[None, :]

    for name in ("alpha", "gamma", "beta"):
        fn = getattr(fld, name)
        vals = fn(tt, rr)
        if not np.all(np.isfinite(vals)):
            i, j = np.argwhere(~np.isfinite(vals))[0]
            out.append(Violation("NonFiniteCoefficient", (tg[i], rg[j]),
                                 "%s is not finite" % name))
            continue
        scale = 1.0 + np.abs(vals)
        shifted = fn(tt + fld.T, rr)
        dev = np.abs(shifted - vals) / scale
        if np.max(dev) > PERIODICITY_RTOL:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            out.append(Violation("PeriodicityViolation", (tg[i], rg[j]),
                                 "%s deviates by %.3e over one period" % (name, dev[i, j])))
        lo = getattr(fld, name + "1")(tg, 0.0)[:, None]
        hi = getattr(fld, name + "2")(tg, 0.0)[:, None]
        slack = 1e-9 * scale
        bad = (vals < lo - slack) | (vals > hi + slack)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            out.append(Violation("EnvelopeViolation", (tg[i], rg[j]),
                                 "%s(t,r)=%.6g outside [%.6g, %.6g]"
                                 % (name, vals[i, j], lo[i, 0], hi[i, 0])))
        # the death rate may vanish; birth and crowding must not
        floor = -1e-9 if name == "gamma" else 0.0
        if np.any(lo[:, 0] <= floor):
            i = int(np.flatnonzero(lo[:, 0] <= floor)[0])
            out.append(Violation("EnvelopePositivity", (tg[i], 0.0),
                                 "%s1(t) must be %s" % (
                                     name, "nonnegative" if name == "gamma"
                                     else "strictly positive")))

    # initial profile
    h0 = spec.h0
    scale0 = float(np.max(np.abs(spec.u0_values(np.linspace(0, h0, 65))))) or 1.0
    if abs(float(spec.u0_values(h0))) > 1e-8 * scale0:
        out.append(Violation("BoundaryMismatch", (0.0, h0), "u0(h0) != 0"))
    interior = np.linspace(0, h0, 65)[1:-1]
    if np.any(spec.u0_values(interior) <= 0):
        out.append(Violation("ProfileNotPositive", (0.0, h0), "u0 <= 0 inside (0, h0)"))
    # the dimensionless slope h0*u0'(0), so the bound holds at any h0
    eps = 1e-4 * h0
    u_0, u_1, u_2 = (float(spec.u0_values(x)) for x in (0.0, eps, 2 * eps))
    slope0 = (4 * u_1 - u_2 - 3 * u_0) / 2e-4  # one-sided 2nd order, times h0
    if abs(slope0) > 1e-6 * scale0:
        out.append(Violation("ProfileSlopeAtOrigin", (0.0, 0.0),
                             "h0*u0'(0)=%.3e is not ~0" % slope0))

    num = spec.numerics
    times = {"dt": num.dt, "t_max": num.t_max, "sample_every": num.sample_every}
    out += [Violation("BadTimeStep", (), "%s must be finite and > 0, got %r"
                      % (name, value))
            for name, value in times.items() if not 0 < value < np.inf]
    if num.n < 16:
        out.append(Violation("GridTooCoarse", (), "n must be >= 16"))
    elif num.n > MAX_GRID_N:
        # a larger grid's arrays would not fit in memory
        out.append(Violation("GridTooFine", (),
                             "n must be <= %d, got %d" % (MAX_GRID_N, num.n)))
    return ValidationReport(tuple(out), r_check)


# --- habitat classification ---

@dataclass(frozen=True)
class HabitatReport:
    favorable_fraction: float
    unfavorable_fraction: float
    mean_birth: float
    mean_death: float
    classification: str   # "Favorable" | "Unfavorable" | "Neutral"


def classify_habitat(field, R, N=2):
    """Classify the ball of radius R using period averages of birth/death.

    A radius belongs to the favorable set when the period integral of
    alpha - gamma is above HABITAT_TOL, to the unfavorable set when below
    -HABITAT_TOL.  Space-time means use the radial volume weight r^(N-1),
    on HABITAT_SAMPLES radii and HABITAT_TIME_NODES time intervals.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    tg = np.linspace(0.0, field.T, HABITAT_TIME_NODES + 1)
    rg = np.linspace(0.0, R, HABITAT_SAMPLES)
    growth = field.growth(tg[:, None], rg[None, :])
    integral = np.trapezoid(growth, tg, axis=0)   # per-radius period integral
    fav = float(np.mean(integral > HABITAT_TOL))
    unfav = float(np.mean(integral < -HABITAT_TOL))
    weight = rg ** (N - 1)
    wsum = np.trapezoid(weight, rg)
    birth = field.alpha(tg[:, None], rg[None, :])
    death = field.gamma(tg[:, None], rg[None, :])
    mean_birth = np.trapezoid(np.trapezoid(birth * weight, rg, axis=1), tg) / (field.T * wsum)
    mean_death = np.trapezoid(np.trapezoid(death * weight, rg, axis=1), tg) / (field.T * wsum)
    if mean_birth > mean_death + HABITAT_TOL:
        cls = "Favorable"
    elif mean_death > mean_birth + HABITAT_TOL:
        cls = "Unfavorable"
    else:
        cls = "Neutral"
    return HabitatReport(fav, unfav, float(mean_birth), float(mean_death), cls)
