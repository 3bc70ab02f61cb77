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


class ConstantFn:
    """Picklable constant coefficient f(t, r) = c."""

    def __init__(self, c):
        self.c = float(c)

    def __call__(self, t, r=0.0):
        return self.c + 0.0 * np.asarray(t) + 0.0 * np.asarray(r)

    def __repr__(self):
        return "ConstantFn(%r)" % self.c


class TabulatedFn:
    """Coefficient from samples: piecewise linear in t (periodic wrap) and
    r (clamped beyond the last node)."""

    def __init__(self, t_nodes, r_nodes, values, period):
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.r_nodes = np.asarray(r_nodes, dtype=float)
        self.values = np.asarray(values, dtype=float)  # shape (nt, nr)
        self.period = float(period)
        if self.values.shape != (self.t_nodes.size, self.r_nodes.size):
            raise ValueError("values shape %s does not match nodes" % (self.values.shape,))

    def __call__(self, t, r=0.0):
        t = np.mod(np.asarray(t, dtype=float), self.period)
        r = np.clip(np.asarray(r, dtype=float), self.r_nodes[0], self.r_nodes[-1])
        # interpolate in r for each t-node bracket, then in t
        it = np.clip(np.searchsorted(self.t_nodes, t, side="right") - 1, 0,
                     self.t_nodes.size - 2)
        tau = (t - self.t_nodes[it]) / (self.t_nodes[it + 1] - self.t_nodes[it])
        lo = np.array([np.interp(rv, self.r_nodes, self.values[i])
                       for i, rv in np.broadcast(it, r)]).reshape(np.broadcast(it, r).shape)
        hi = np.array([np.interp(rv, self.r_nodes, self.values[i + 1])
                       for i, rv in np.broadcast(it, r)]).reshape(np.broadcast(it, r).shape)
        out = (1 - tau) * lo + tau * hi
        return out if out.ndim else float(out)


def _as_fn(spec, params=None):
    """Coerce a number, expression string or callable into f(t, r)."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        return coeffexpr.ExprFunction(spec, params=params)
    return ConstantFn(spec)


PERIODICITY_RTOL = 1e-10


@dataclass(frozen=True)
class CoefficientField:
    """T-periodic coefficient triple with declared envelope bounds."""
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
    def from_expressions(alpha, gamma, beta, T, params=None, envelopes=None,
                         r_max=40.0, samples=96):
        """Build a field from expression strings / numbers / callables.

        Missing envelope bounds are estimated by sampling r in [0, r_max]
        with a small relative padding so the declared ordering holds.
        """
        env = dict(envelopes or {})
        fa, fg, fb = (_as_fn(alpha, params), _as_fn(gamma, params), _as_fn(beta, params))
        out = {}
        for name, fn in (("alpha", fa), ("gamma", fg), ("beta", fb)):
            lo_key, hi_key = name + "1", name + "2"
            if lo_key in env and hi_key in env:
                out[lo_key] = _as_fn(env[lo_key], params)
                out[hi_key] = _as_fn(env[hi_key], params)
            else:
                out[lo_key], out[hi_key] = _sampled_envelopes(fn, T, r_max, samples)
        return CoefficientField(alpha=fa, gamma=fg, beta=fb, T=float(T),
                                alpha1=out["alpha1"], alpha2=out["alpha2"],
                                gamma1=out["gamma1"], gamma2=out["gamma2"],
                                beta1=out["beta1"], beta2=out["beta2"])

    def growth(self, t, r):
        """alpha - gamma at (t, r); vectorized."""
        return np.asarray(self.alpha(t, r)) - np.asarray(self.gamma(t, r))

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

    def __init__(self, fn, r_max, samples, which, pad):
        self.fn = fn
        self.r_grid = np.linspace(0.0, r_max, samples)
        self.which = which
        self.pad = pad

    def __call__(self, t, r=0.0):
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.fn(t[..., None] if t.ndim else t, self.r_grid),
                          dtype=float)
        # a plain callable may return a bare scalar
        vals = np.broadcast_to(vals, t.shape + self.r_grid.shape)
        red = np.min(vals, axis=-1) if self.which == "min" else np.max(vals, axis=-1)
        out = red - self.pad if self.which == "min" else red + self.pad
        return out if np.ndim(out) else float(out)


def _sampled_envelopes(fn, T, r_max, samples):
    probe_t = np.linspace(0.0, T, 33)
    vals = np.asarray(fn(probe_t[:, None], np.linspace(0.0, r_max, samples)[None, :]))
    pad = 1e-12 * (1.0 + float(np.max(np.abs(vals))))
    lo = _SampledEnvelope(fn, r_max, samples, "min", pad)
    hi = _SampledEnvelope(fn, r_max, samples, "max", pad)
    return lo, hi


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
    tol: float = 1e-6
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
    def build(field, N=2, d=1.0, mu=1.0, h0=1.0, u0=None, params=None, **numerics):
        if u0 is None:
            u0 = "cos(pi*r/(2*%r))" % float(h0)
        return ProblemSpec(field=field, N=int(N), d=float(d), mu=float(mu),
                           h0=float(h0), u0=_as_fn(u0, params),
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


def validate(spec, lattice=(64, 64), r_extra=None):
    """Check the spec invariants on a sampled (t, r) lattice.

    The lattice covers t in [0, T) and r in [0, 4*h0 + r_extra], where
    r_extra defaults to the semi-wave truncation radius 50*sqrt(d).
    Returns a ValidationReport listing every violated invariant; sampled
    checks can only certify the region up to ``r_check``.
    """
    fld = spec.field
    out = []
    nt, nr = max(lattice[0], 64), max(lattice[1], 64)
    if r_extra is None:
        r_extra = 50.0 * np.sqrt(spec.d)
    r_check = 4.0 * spec.h0 + r_extra
    tg = np.linspace(0.0, fld.T, nt, endpoint=False)
    rg = np.linspace(0.0, r_check, nr)
    tt, rr = tg[:, None], rg[None, :]

    for name in ("alpha", "gamma", "beta"):
        fn = getattr(fld, name)
        vals = np.broadcast_to(np.asarray(fn(tt, rr), dtype=float), (nt, nr))
        if not np.all(np.isfinite(vals)):
            i, j = np.argwhere(~np.isfinite(np.atleast_2d(vals)))[0]
            out.append(Violation("NonFiniteCoefficient", (tg[i], rg[j]),
                                 "%s is not finite" % name))
            continue
        scale = 1.0 + np.abs(vals)
        shifted = np.asarray(fn(tt + fld.T, rr), dtype=float)
        dev = np.abs(shifted - vals) / scale
        if np.max(dev) > PERIODICITY_RTOL:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            out.append(Violation("PeriodicityViolation", (tg[i], rg[j]),
                                 "%s deviates by %.3e over one period" % (name, dev[i, j])))
        lo = np.broadcast_to(np.asarray(getattr(fld, name + "1")(tg, 0.0),
                                        dtype=float), tg.shape)[:, None] + 0 * rr
        hi = np.broadcast_to(np.asarray(getattr(fld, name + "2")(tg, 0.0),
                                        dtype=float), tg.shape)[:, None] + 0 * rr
        slack = 1e-9 * scale
        bad = (vals < lo - slack) | (vals > hi + slack)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            out.append(Violation("EnvelopeViolation", (tg[i], rg[j]),
                                 "%s(t,r)=%.6g outside [%.6g, %.6g]"
                                 % (name, vals[i, j], lo[i, j], hi[i, j])))
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
    eps = 1e-4 * h0
    u_0, u_1, u_2 = (float(spec.u0_values(x)) for x in (0.0, eps, 2 * eps))
    slope0 = (4 * u_1 - u_2 - 3 * u_0) / (2 * eps)  # one-sided 2nd order
    if abs(slope0) > 1e-6 * scale0:
        out.append(Violation("ProfileSlopeAtOrigin", (0.0, 0.0),
                             "u0'(0)=%.3e is not ~0" % slope0))

    num = spec.numerics
    if num.dt <= 0:
        out.append(Violation("BadTimeStep", (), "dt must be > 0"))
    if num.n < 16:
        out.append(Violation("GridTooCoarse", (), "n must be >= 16"))
    return ValidationReport(tuple(out), r_check)


def round_horizon(t_max, T):
    """Round t_max to the nearest positive integer multiple of T."""
    k = max(1, round(t_max / T))
    return k * T


# --- habitat classification ---

@dataclass(frozen=True)
class HabitatReport:
    favorable_fraction: float
    unfavorable_fraction: float
    mean_birth: float
    mean_death: float
    classification: str   # "Favorable" | "Unfavorable" | "Neutral"


def classify_habitat(field, R, samples=64, time_nodes=256, N=2, tol=1e-8):
    """Classify the ball of radius R using period averages of birth/death.

    A radius belongs to the favorable set when the period integral of
    alpha - gamma is positive, to the unfavorable set when negative.
    Space-time means use the radial volume weight r^(N-1).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    samples = max(int(samples), 16)
    time_nodes = max(int(time_nodes), 256)
    tg = np.linspace(0.0, field.T, time_nodes + 1)
    rg = np.linspace(0.0, R, samples)
    shape = (tg.size, rg.size)
    growth = np.broadcast_to(
        np.asarray(field.growth(tg[:, None], rg[None, :]), dtype=float), shape)
    integral = np.trapezoid(growth, tg, axis=0)   # per-radius period integral
    fav = float(np.mean(integral > tol))
    unfav = float(np.mean(integral < -tol))
    weight = rg ** (N - 1)
    wsum = np.trapezoid(weight, rg)
    birth = np.broadcast_to(
        np.asarray(field.alpha(tg[:, None], rg[None, :]), dtype=float), shape)
    death = np.broadcast_to(
        np.asarray(field.gamma(tg[:, None], rg[None, :]), dtype=float), shape)
    mean_birth = np.trapezoid(np.trapezoid(birth * weight, rg, axis=1), tg) / (field.T * wsum)
    mean_death = np.trapezoid(np.trapezoid(death * weight, rg, axis=1), tg) / (field.T * wsum)
    if mean_birth > mean_death + tol:
        cls = "Favorable"
    elif mean_death > mean_birth + tol:
        cls = "Unfavorable"
    else:
        cls = "Neutral"
    return HabitatReport(fav, unfav, float(mean_birth), float(mean_death), cls)
