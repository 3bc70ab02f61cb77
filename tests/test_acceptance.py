"""End-to-end acceptance suite.

Each test prints one pass/fail line for its criterion; tolerances are
pinned in the assertions.  Heavy runs are shared through session
fixtures.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from stefanlab import cli
from stefanlab.coeffmodel import (CoefficientField, ProblemSpec,
                                  constant_field)
from stefanlab.eigen import h_star, principal_eigenvalue
from stefanlab.freeboundary import classify_outcome, simulate
from stefanlab.radialcore import (DiffusionSolver, RadialGrid,
                                  entire_space_periodic,
                                  step_reaction_diffusion)
from stefanlab.semiwave import (envelope_speeds, k0_fixed_point,
                                measure_front_speed)
from stefanlab.thresholds import ladder_is_sorted, mu_star, sigma0

J01 = 2.4048255576957724   # first zero of J0, frozen from the Bessel oracle


def check(num, desc, ok):
    print("[acceptance %02d] %s - %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "acceptance criterion %02d failed: %s" % (num, desc)


@pytest.fixture(scope="module")
def spreading_run():
    # favorable constants, h0 = 3 > h*, mu = 1; long enough for the
    # period-snapshot convergence check (k >= 100)
    spec = ProblemSpec.build(constant_field(1.0), N=2, d=1.0, mu=1.0, h0=3.0,
                             n=512, t_max=110.0)
    t0 = time.monotonic()
    traj = simulate(spec)
    return spec, traj, time.monotonic() - t0


@pytest.fixture(scope="module")
def speed_run():
    spec = ProblemSpec.build(constant_field(1.0), N=2, d=1.0, mu=5.0, h0=3.0,
                             n=1024, t_max=200.0)
    t0 = time.monotonic()
    traj = simulate(spec)
    return spec, traj, time.monotonic() - t0


@pytest.fixture(scope="module")
def comparison_suite():
    # 50 ordered pairs of cos-profile initial data; ordering of amplitude
    # and radius gives pointwise ordering of the profiles
    rng = np.random.default_rng(42)
    fld = constant_field(1.0, gamma=0.5)
    runs = []
    for _ in range(50):
        h0a = rng.uniform(0.8, 1.4)
        h0b = h0a + rng.uniform(0.1, 0.7)
        amp_a = rng.uniform(0.1, 0.4)
        amp_b = amp_a + rng.uniform(0.1, 0.4)
        mu = rng.uniform(0.5, 2.0)
        sa = ProblemSpec.build(fld, d=1.0, mu=mu, h0=h0a, n=64,
                               u0="%r*cos(pi*r/(2*%r))" % (amp_a, h0a))
        sb = ProblemSpec.build(fld, d=1.0, mu=mu, h0=h0b, n=64,
                               u0="%r*cos(pi*r/(2*%r))" % (amp_b, h0b))
        runs.append((sa, simulate(sa, t_max=2.0), sb, simulate(sb, t_max=2.0)))
    return runs


def test_criterion_01_eigen_closed_form():
    t0 = time.monotonic()
    r1 = principal_eigenvalue(1.0, constant_field(1.0), 1.0, 1.0, n=512)
    r2 = principal_eigenvalue(1.0, constant_field(1.0), 2.0, 1.0, n=512)
    wall = time.monotonic() - t0
    e1 = J01 ** 2 - 1.0
    e2 = J01 ** 2 / 4.0 - 1.0
    ok = (abs(r1.lambda1 - e1) / e1 < 1e-3
          and abs(r2.lambda1 - e2) / abs(e2) < 1e-3
          and wall < 10.0)
    check(1, "eigenvalue closed forms j01^2-1 and j01^2/4-1 (1e-3 rel, %.1fs)"
          % wall, ok)


def test_criterion_02_shift_identity():
    base_fld = CoefficientField.from_expressions(
        alpha="1 + 0.5*cos(2*pi*t) + max(0, 1-r)", gamma="0.2", beta="1",
        T=1.0)
    base = principal_eigenvalue(1.0, base_fld, 2.0, 1.0, n=256).lambda1
    worst = 0.0
    for c in (-1.0, 0.3, 2.0):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*cos(2*pi*t) + max(0, 1-r) + (%r)" % c,
            gamma="0.2", beta="1", T=1.0)
        lam = principal_eigenvalue(1.0, fld, 2.0, 1.0, n=256).lambda1
        worst = max(worst, abs(lam - (base - c)))
    check(2, "shift identity lambda1(k+c) = lambda1(k) - c (worst %.2e)" % worst,
          worst < 1e-8)


def test_criterion_03_time_mean_reduction():
    osc = CoefficientField.from_expressions(alpha="1 + sin(2*pi*t)",
                                            gamma="0", beta="1", T=1.0)
    lam_osc = principal_eigenvalue(1.0, osc, 1.0, 1.0, n=256).lambda1
    lam_const = principal_eigenvalue(1.0, constant_field(1.0), 1.0, 1.0,
                                     n=256).lambda1
    diff = abs(lam_osc - lam_const)
    check(3, "space-constant potential reduces to its time mean (%.2e)" % diff,
          diff < 1e-3)


def test_criterion_04_monotonicity():
    fld = constant_field(1.0)
    Rs = np.linspace(0.8, 5.0, 10)
    lams = [principal_eigenvalue(1.0, fld, R, 1.0, n=128).lambda1 for R in Rs]
    mono_R = all(a > b for a, b in zip(lams, lams[1:]))
    bumped = CoefficientField.from_expressions(
        alpha="1 + 0.02*max(0, 1-r)", gamma="0", beta="1", T=1.0)
    lam_base = principal_eigenvalue(1.0, fld, 2.0, 1.0, n=256).lambda1
    lam_bump = principal_eigenvalue(1.0, bumped, 2.0, 1.0, n=256).lambda1
    mono_pot = lam_bump < lam_base
    check(4, "lambda1 strictly decreasing in R (10-point ladder) and in the "
          "potential", mono_R and mono_pot)


def test_criterion_05_h_star_closed_form():
    h1 = h_star(1.0, constant_field(1.0), 1.0, r_lo=1.0, r_hi=4.0, tol=1e-3,
                n=256)
    h4 = h_star(4.0, constant_field(1.0), 1.0, r_lo=2.0, r_hi=8.0, tol=2e-3,
                n=256)
    ok = abs(h1 - J01) <= 1e-3 and abs(h4 - 2.0 * J01) <= 2e-3
    check(5, "h* = 2.4048 (d=1) and 4.8097 (d=4) from the Bessel closed form",
          ok)


def test_criterion_06_dichotomy(spreading_run):
    spec_a, traj_a, wall_a = spreading_run
    out_a = classify_outcome(traj_a, spec_a, h_star_value=J01)
    lam_h0 = principal_eigenvalue(1.0, spec_a.field, 3.0, 1.0, n=256).lambda1
    ok_a = (out_a.verdict == "Spreading"
            and out_a.evidence.criterion == "eigenvalue" and lam_h0 < 0)

    spec_b = ProblemSpec.build(constant_field(1.0), N=2, d=1.0, mu=0.01,
                               h0=1.0, n=128, u0="0.05*(1 - r^2)")
    t0 = time.monotonic()
    traj_b = simulate(spec_b, t_max=30.0)
    wall_b = time.monotonic() - t0
    out_b = classify_outcome(traj_b, spec_b, h_star_value=J01)
    ok_b = (out_b.verdict == "Vanishing"
            and out_b.evidence.h_final <= J01 * 1.05
            and wall_b < 60.0)
    check(6, "dichotomy: spreading with eigenvalue evidence / vanishing with "
          "h <= 1.05 h*", ok_a and ok_b)


def test_criterion_07_spreading_convergence(spreading_run):
    spec, traj, _ = spreading_run
    orbit = entire_space_periodic(constant_field(1.0), 1.0, 1.0,
                                  R_list=(10.0, 20.0, 40.0), tol=1e-2)
    rc = np.linspace(0.0, 5.0, 129)
    ref = orbit.interp(rc)
    scale = float(np.max(np.abs(ref)))
    worst = 0.0
    late = [s for s in traj.snapshots if s.t >= 100.0 - 1e-9]
    assert late, "no period snapshots at k >= 100"
    for snap in late:
        worst = max(worst, float(np.max(np.abs(snap.interp(rc) - ref))))
    check(7, "u(kT,.) on [0,5] within 2%% of the entire-space periodic "
          "solution for k >= 100 (worst %.3f%%)" % (100 * worst / scale),
          worst <= 0.02 * scale)


def test_criterion_08_speed_cross_check(speed_run):
    spec, traj, wall = speed_run
    res = k0_fixed_point(5.0, 1.0, 1.0, 1.0, 1.0)
    slope, _ = measure_front_speed(traj)
    rel = abs(slope - res.c) / res.c
    ok = rel < 0.05 and 0.0 < res.c < 2.0 and wall < 300.0
    check(8, "front slope %.4f vs semi-wave speed %.4f (%.1f%%, %.0fs)"
          % (slope, res.c, 100 * rel, wall), ok)


def test_criterion_09_envelope_sandwich():
    fld = CoefficientField.from_expressions(
        alpha="1 + exp(-r) - 0.2*exp(-(r^2))", gamma="0", beta="1", T=1.0,
        r_max=100.0)
    spec = ProblemSpec.build(fld, N=2, d=1.0, mu=5.0, h0=3.0, n=1024,
                             t_max=150.0)
    traj = simulate(spec)
    slope, _ = measure_front_speed(traj)
    env = envelope_speeds(fld, 5.0, 1.0, eps=1e-3, r_star=10.0)
    ok = env.c_lower * 0.95 <= slope <= env.c_upper * 1.05
    check(9, "measured slope %.4f inside envelope [%.4f, %.4f]"
          % (slope, env.c_lower, env.c_upper), ok)


def test_criterion_10_mu_star_sharpness():
    spec = ProblemSpec.build(constant_field(1.0), N=2, d=1.0, mu=1.0, h0=1.5,
                             n=64, dt=5e-3)
    res = mu_star(spec, 0.05, 8.0, tol=0.02, h_star_value=J01)
    v = res.value
    verdicts = []
    for factor in (0.95, 1.05):
        probe = spec.with_(mu=factor * v)
        for horizon in (100.0, 200.0, 400.0):   # starts at 2x the probe horizon
            traj = simulate(probe, t_max=horizon)
            verdict = classify_outcome(traj, probe, h_star_value=J01).verdict
            if verdict != "Undecided":
                break
        verdicts.append(verdict)
    sharp = v > 0 and verdicts == ["Vanishing", "Spreading"]

    zero_h0 = mu_star(spec.with_(h0=3.0), 0.05, 8.0)
    slow = spec.with_(d=0.1)   # h* = j01*sqrt(0.1) < h0: slow diffusion
    zero_d = mu_star(slow, 0.05, 8.0)
    check(10, "mu* = %.3f sharp at +/-5%% and mu* = 0 for h0 >= h* and slow "
          "diffusion" % v,
          sharp and zero_h0.value == 0.0 and zero_d.value == 0.0)


def test_criterion_11_sigma0_branches():
    fav = ProblemSpec.build(constant_field(1.0), N=2, d=1.0, mu=1.0, h0=3.0,
                            n=64, dt=5e-3)
    zero = sigma0(fav, fav.u0, 0.1, 5.0)

    fld = CoefficientField.from_expressions(
        alpha="1", gamma="0.2 + 1.3*exp(-(r^2))", beta="1", T=1.0, r_max=60.0)
    spec = ProblemSpec.build(fld, N=2, d=1.0, mu=2.0, h0=1.5, n=64, dt=5e-3)
    lam_h0 = principal_eigenvalue(1.0, fld, 1.5, 1.0, n=256).lambda1
    res = sigma0(spec, spec.u0, 0.05, 30.0, tol=0.1)

    from stefanlab.thresholds import verdict_ladder
    ladder = verdict_ladder(spec, "sigma",
                            np.geomspace(0.05, 30.0, 6), zeta=spec.u0)
    check(11, "sigma0 = 0 on the lambda1 <= 0 branch; sigma0 = %.3f > 0 with "
          "sorted 6-point ladder (lambda1(h0) = %.3f > 0)" % (res.value, lam_h0),
          zero.value == 0.0 and lam_h0 > 0 and res.value > 0
          and ladder_is_sorted(ladder))


def test_criterion_12_comparison_pairs(comparison_suite):
    worst_h = -np.inf
    worst_u = -np.inf
    for sa, ta, sb, tb in comparison_suite:
        t_common = np.linspace(0.0, 2.0, 9)
        ha = np.interp(t_common, ta.t, ta.h)
        hb = np.interp(t_common, tb.t, tb.h)
        worst_h = max(worst_h, float(np.max(ha - hb)))
        for snap_a, snap_b in zip(ta.snapshots, tb.snapshots):
            rg = np.linspace(0.0, snap_a.h, 65)
            worst_u = max(worst_u, float(np.max(snap_a.interp(rg)
                                                - snap_b.interp(rg))))
    ok = worst_h <= 1e-6 and worst_u <= 1e-6
    check(12, "50 ordered pairs stay ordered: max(hA-hB) = %.2e, "
          "max(uA-uB) = %.2e" % (worst_h, worst_u), ok)


def test_criterion_13_uniform_bound(comparison_suite, spreading_run, speed_run):
    tol = 1e-6
    ok = True
    for sa, ta, sb, tb in comparison_suite:
        for spec, traj in ((sa, ta), (sb, tb)):
            M = max(spec.field.alpha2_max() / spec.field.beta1_min(),
                    float(np.max(spec.u0_values(
                        np.linspace(0, spec.h0, 257)))))
            ok = ok and traj.max_sup() <= M + 5 * tol
    for spec, traj, _ in (spreading_run, speed_run):
        M = max(spec.field.alpha2_max() / spec.field.beta1_min(),
                float(np.max(spec.u0_values(np.linspace(0, spec.h0, 257)))))
        ok = ok and traj.max_sup() <= M + 5 * tol
    check(13, "sup-norm bound max{max alpha2/min beta1, |u0|} held on every "
          "run (+5 tolerance units)", ok)


def _fixed_ball_solution(n, dt, t_end):
    grid = RadialGrid(n=n, R=5.0, N=2)
    fld = constant_field(1.0)
    u = 0.5 * np.cos(np.pi * grid.r / 10.0)
    solver = DiffusionSolver(grid, 1.0, dt)
    steps = int(round(t_end / dt))
    for k in range(steps):
        u = step_reaction_diffusion(grid, u, fld, 1.0, dt, k * dt,
                                    solver=solver)
    return grid, u


def test_criterion_14_convergence_orders():
    # space: fixed small dt, reference at n = 1024 (nodes nest)
    dt = 1e-3
    _, ref = _fixed_ball_solution(1024, dt, 1.0)
    errs = []
    for n in (64, 128):
        _, u = _fixed_ball_solution(n, dt, 1.0)
        stride = 1024 // n
        errs.append(float(np.max(np.abs(u - ref[::stride]))))
    space_ratio = errs[0] / errs[1]

    # time: fixed n, reference at dt = 1e-5
    n = 128
    _, ref_t = _fixed_ball_solution(n, 1e-5, 0.25)
    errs_t = []
    for dtv in (5e-3, 2.5e-3):
        _, u = _fixed_ball_solution(n, dtv, 0.25)
        errs_t.append(float(np.max(np.abs(u - ref_t))))
    time_ratio = errs_t[0] / errs_t[1]
    check(14, "refinement gains: space %.2fx per doubling (>= 3.5), time "
          "%.2fx per halving (>= 1.9)" % (space_ratio, time_ratio),
          space_ratio >= 3.5 and time_ratio >= 1.9)


def test_criterion_15_determinism(tmp_path):
    text = """
[run]
command=simulate
[field]
alpha=1 + 0.5*sin(2*pi*t)
gamma=0.2
beta=1
[problem]
d=1
mu=1
h0=3
[numerics]
n=64
t_max=5
"""
    cfg = cli.loads_config(text)
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert cli.run(cfg, out_dir=d) == 0

    def body(path):
        with open(path) as fh:
            return [ln for ln in fh if not ln.startswith("#")]

    same = all(body(os.path.join(dirs[0], name)) == body(os.path.join(dirs[1], name))
               for name in ("trajectory.csv", "snapshots.csv"))
    check(15, "byte-identical CSV bodies across two runs of one config", same)
