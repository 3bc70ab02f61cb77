"""Seeded workload generator and output checks for the stefanlab benchmark.

Seed 0 gives the pinned configs.  Any other seed perturbs the seasonal
amplitude and phase, mu (or the mu bracket) and h0 inside the same regime,
so a claim can be re-checked on inputs that were not used to tune it.
Checks that compare against a pinned reference apply to seed 0 only;
closed-form and cross-method checks apply on every seed.
"""

import math
import random

J01 = 2.4048255576957724          # first zero of the Bessel function J0
DEFAULT_SEED = 0

WORKLOADS = ("simulate-seasonal", "mu-star", "front-speed")

# answers of the pinned configs (seed 0)
REFERENCE = {
    "simulate-seasonal": {"h_star": 2.553522724548417},
    "mu-star": {"value": 1.75},
}

HSTAR_TOL = 1e-3                  # eigen.h_star bisection tolerance
FRONT_SLOPE_RTOL = 0.05           # acceptance criterion 08


def _draw(workload, seed):
    """Perturbation draws; seed 0 draws nothing."""
    if seed == DEFAULT_SEED:
        return None
    return random.Random("%s:%d" % (workload, seed))


def _seasonal(base, amp, phase):
    if phase == 0.0:
        return "%s+%r*sin(2*pi*t)" % (base, amp)
    return "%s+%r*sin(2*pi*t+%r)" % (base, amp, phase)


def _config(command, field, problem, numerics, extra=()):
    lines = ["[run]", "command=%s" % command, "[field]"]
    lines += ["%s=%s" % kv for kv in field]
    lines.append("[problem]")
    lines += ["%s=%r" % kv for kv in problem]
    lines.append("[numerics]")
    lines += ["%s=%r" % kv for kv in numerics]
    for section, items in extra:
        lines.append("[%s]" % section)
        lines += ["%s=%r" % kv for kv in items]
    return "\n".join(lines) + "\n"


def make_workload(workload, seed=DEFAULT_SEED):
    """Return (config_text, params) for one workload and seed.

    ``params`` holds the drawn values that the output checks need.
    """
    rng = _draw(workload, seed)

    def pick(default, lo, hi):
        return default if rng is None else round(rng.uniform(lo, hi), 6)

    if workload == "simulate-seasonal":
        # the simulate command's time is h* recomputed inside
        # classify_outcome; a short horizon keeps h_final above h* while
        # fitting one run into seconds
        amp = pick(0.5, 0.4, 0.6)
        phase = pick(0.0, 0.0, 2.0 * math.pi)
        mu = pick(2.0, 1.9, 2.1)
        h0 = pick(2.0, 1.98, 2.02)
        field = (("alpha", _seasonal("1.2", amp, phase)),
                 ("gamma", "0.2+0.3*exp(-(r^2))"), ("beta", "1"))
        text = _config("simulate", field,
                       (("d", 1.0), ("mu", mu), ("h0", h0)),
                       (("n", 256), ("t_max", 3.0)))
        return text, {"d": 1.0, "mean_growth": (0.7, 1.0)}

    if workload == "mu-star":
        # the bracket and tolerance are chosen so every probe sits away
        # from mu* (~1.8 at dt=0.02): one probe lands in the band that is
        # Undecided at the 50-period horizon and escalates once, and none
        # lands where a probe stays Undecided up to the escalation cap
        mu_lo = pick(0.4, 0.38, 0.42)
        mu_hi = pick(4.0, 3.88, 4.12)
        h0 = pick(2.0, 1.99, 2.01)
        field = (("alpha", "1"), ("gamma", "0.5"), ("beta", "1"))
        tol = 0.4
        text = _config("mu-star", field,
                       (("d", 1.0), ("mu", 1.0), ("h0", h0)),
                       (("n", 64), ("dt", 0.02)),
                       (("mu_star", (("mu_lo", mu_lo), ("mu_hi", mu_hi),
                                     ("tol", tol))),))
        return text, {"d": 1.0, "growth": 0.5, "tol": tol}

    if workload == "front-speed":
        amp = pick(0.5, 0.4, 0.6)
        phase = pick(0.0, 0.0, 2.0 * math.pi)
        mu = pick(5.0, 4.8, 5.2)
        h0 = pick(3.0, 2.9, 3.1)
        field = (("alpha", _seasonal("1", amp, phase)), ("gamma", "0"),
                 ("beta", "1"))
        text = _config("simulate", field,
                       (("d", 1.0), ("mu", mu), ("h0", h0)),
                       (("n", 512), ("dt", 0.005), ("t_max", 40.0)))
        # the far-field growth alpha has period mean 1
        return text, {"d": 1.0, "mean_growth": 1.0}

    raise ValueError("unknown workload %r" % workload)


def check_answers(workload, seed, params, answers):
    """Return the list of failed output checks (empty when all pass)."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    if workload == "simulate-seasonal":
        hs, hf = answers["h_star"], answers["h_final"]
        need(answers["verdict"] == "Spreading", "verdict is not Spreading")
        need(hf > hs, "h_final %.6g <= h* %.6g" % (hf, hs))
        # comparison with the constant-growth balls: mean growth lies in
        # [0.7, 1.0], so J01*sqrt(d/1.0) <= h* <= J01*sqrt(d/0.7)
        g_lo, g_hi = params["mean_growth"]
        lo = J01 * math.sqrt(params["d"] / g_hi)
        hi = J01 * math.sqrt(params["d"] / g_lo)
        need(lo - HSTAR_TOL <= hs <= hi + HSTAR_TOL,
             "h* %.6g outside [%.4f, %.4f]" % (hs, lo, hi))
        if seed == DEFAULT_SEED:
            ref = REFERENCE[workload]["h_star"]
            need(abs(hs - ref) <= HSTAR_TOL,
                 "h* %.6g differs from reference %.6g" % (hs, ref))

    elif workload == "mu-star":
        lo, hi, value = answers["lo"], answers["hi"], answers["value"]
        mid = 0.5 * (lo + hi)
        need(lo < hi, "empty bracket [%g, %g]" % (lo, hi))
        need(hi - lo <= params["tol"] * (1.0 + mid),
             "bracket [%g, %g] wider than tol" % (lo, hi))
        need(lo <= value <= hi, "mu* %g outside its bracket" % value)
        if seed == DEFAULT_SEED:
            ref = REFERENCE[workload]["value"]
            need(abs(value - ref) <= hi - lo,
                 "mu* %.6g differs from reference %.6g" % (value, ref))
        if "h_star" in answers:
            # constant growth a on the disk: h* = J01*sqrt(d/a)
            exact = J01 * math.sqrt(params["d"] / params["growth"])
            need(abs(answers["h_star"] - exact) <= HSTAR_TOL,
                 "internal h* %.6g differs from J01*sqrt(2)" % answers["h_star"])

    elif workload == "front-speed":
        c, slope = answers["c"], answers["slope"]
        bound = 2.0 * math.sqrt(params["d"] * params["mean_growth"])
        need(0.0 < c < bound, "c %.6g outside (0, %.6g)" % (c, bound))
        need(abs(slope - c) <= FRONT_SLOPE_RTOL * c,
             "front slope %.6g not within 5%% of c %.6g" % (slope, c))
    return bad
