import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stefanlab import freeboundary
from stefanlab.coeffmodel import (CoefficientField, ProblemSpec,
                                  constant_field)
from stefanlab.freeboundary import (DECAY_SUP, FRONT_STALL, Evidence,
                                    FreeBoundaryState, Outcome,
                                    classify_outcome, decide, front_gradient,
                                    initial_state, simulate, step_free)
from stefanlab.errors import FrontRetreat
from stefanlab.radialcore import diffusion_bands, solve_tridiag

J01 = 2.4048255576957724


def favorable_spec(**kw):
    defaults = dict(N=2, d=1.0, mu=1.0, h0=3.0, n=128, t_max=30.0)
    defaults.update(kw)
    return ProblemSpec.build(constant_field(1.0), **defaults)


class TestStepFree:
    def test_zero_stays_zero(self):
        spec = favorable_spec()
        u, h, t, h_prime = step_free(np.zeros(129), 3.0, 0.0, spec, 1e-3)
        assert h_prime == 0.0
        assert h == 3.0 and t > 0.0
        assert np.all(u == 0.0)

    def test_front_advances(self):
        spec = favorable_spec()
        state = initial_state(spec)
        u, h, t = state.u, state.h, state.t
        for _ in range(200):
            u, h, t, h_prime = step_free(u, h, t, spec, 1e-3)
            assert h_prime >= 0.0
        assert h > 3.0

    def test_front_gradient_linear_profile(self):
        # u = 1 - xi has du/dr = -1/h exactly under the 3-point stencil
        n = 64
        xi = np.linspace(0, 1, n + 1)
        assert front_gradient(1.0 - xi, 2.0) == pytest.approx(-0.5, abs=1e-12)

    def test_positivity(self):
        spec = favorable_spec(h0=1.5)
        state = initial_state(spec)
        u, h, t = state.u, state.h, state.t
        for _ in range(500):
            u, h, t, _ = step_free(u, h, t, spec, 1e-3)
            assert np.all(u >= 0.0)


def fresh_bands(n, N, s):
    """Dirichlet diffusion bands assembled row by row: no cached band
    pattern."""
    lower, diag, upper = np.zeros((3, n))
    diag[0], upper[0] = 1.0 + 2.0 * N * s, -2.0 * N * s
    for j in range(1, n):
        w = (N - 1) / (2.0 * j)
        diag[j] = 1.0 + 2.0 * s
        lower[j] = -s * (1.0 - w)
        upper[j] = -s * (1.0 + w)
    return lower, diag, upper


class TestCachedOperator:
    def test_bit_equal_to_fresh_solver(self, monkeypatch):
        # h changes every step, so every step rescales the cached pattern;
        # two dimensions on one grid size check the cache key
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*t)", gamma="0.2*exp(-r)", beta="1", T=1.0)
        specs = [ProblemSpec.build(fld, N=N, d=1.0, mu=4.0, h0=2.0, n=96,
                                   t_max=1.5) for N in (2, 3, 2)]
        cached = [simulate(spec) for spec in specs]
        monkeypatch.setattr(freeboundary, "diffusion_bands", fresh_bands)
        for spec, traj in zip(specs, cached):
            fresh = simulate(spec)
            assert traj.h[-1] > spec.h0
            assert np.array_equal(traj.h, fresh.h)
            assert np.array_equal(traj.final.u, fresh.final.u)


def allocating_step(u, h, t, spec, dt_max):
    """step_free with its step sizing written out once more, a fresh
    linspace xi grid, a zeros_like advection array and a full-length
    right-hand side: the oracle for the in-place step."""
    fld = spec.field
    n = u.size - 1
    dxi = 1.0 / n
    h_prime = max(-spec.mu * front_gradient(u, h), 0.0)
    dt = min(spec.numerics.dt, 0.45 / max(fld.alpha2_max(), 1e-12), dt_max)
    if dt * h_prime > 0.5 * (0.45 * dxi * h):
        dt = min(dt, 0.45 * dxi * h / h_prime)
    xi = np.linspace(0.0, 1.0, n + 1)
    r = h * xi
    growth = np.asarray(fld.growth(t, r), dtype=float)
    crowd = np.asarray(fld.beta(t, r), dtype=float)
    adv = np.zeros_like(u)
    adv[:-1] = xi[:-1] * (h_prime / h) * (u[1:] - u[:-1]) / dxi
    rhs = u + dt * (adv + u * (growth - crowd * u))
    s = dt * (spec.d / h ** 2) / dxi ** 2
    u_new = np.zeros(n + 1)
    u_new[:n] = solve_tridiag(*diffusion_bands(n, spec.N, s), rhs[:n])
    u_new[(u_new > freeboundary.NEG_CLIP) & (u_new < 0.0)] = 0.0
    return u_new, h + dt * h_prime, t + dt, h_prime


class TestInPlaceStep:
    @staticmethod
    def recorded(step, steps):
        def run(u, h, t, spec, dt_max):
            new = step(u, h, t, spec, dt_max)
            steps.append(new)
            return new
        return run

    @pytest.mark.parametrize("N", [2, 3])
    def test_bit_equal_to_allocating_step(self, N, monkeypatch):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*sin(2*pi*t)", gamma="0.2*exp(-r)",
            beta="1 + 0.1*cos(r*t)", T=1.0)
        spec = ProblemSpec.build(fld, N=N, d=1.0, mu=4.0, h0=2.0, n=96,
                                 t_max=1.5)
        runs = []
        for step in (step_free, allocating_step):
            steps = []
            monkeypatch.setattr(freeboundary, "step_free",
                                self.recorded(step, steps))
            runs.append((simulate(spec), steps))
        (traj, steps), (_, ref_steps) = runs
        assert traj.h[-1] > spec.h0 and len(steps) == len(ref_steps)
        for (u, h, t, hp), (ref_u, ref_h, ref_t, ref_hp) in zip(steps,
                                                                ref_steps):
            assert np.array_equal(u.view(np.uint64), ref_u.view(np.uint64))
            assert h == ref_h and t == ref_t and hp == ref_hp

    def test_xi_cached_read_only(self):
        spec = favorable_spec(n=96)
        state = initial_state(spec)
        other = FreeBoundaryState(u=np.zeros(97), h=5.0, t=1.0)
        assert state.xi is other.xi
        assert state.xi is not FreeBoundaryState(u=np.zeros(65), h=5.0,
                                                 t=1.0).xi
        assert np.array_equal(state.xi, np.linspace(0.0, 1.0, 97))
        assert not state.xi.flags.writeable
        with pytest.raises(ValueError):
            state.xi[1] = 0.5
        assert np.array_equal(other.r(), 5.0 * np.linspace(0.0, 1.0, 97))


class TestStepSizing:
    """step_free sizes its own step: positive, at most the spec's dt and
    dt_max, inside the positivity bound dt*max(alpha2) < 1 and the
    front-CFL bound dt*h'/h <= 0.5*dxi."""

    @settings(max_examples=200, deadline=None)
    @given(h=st.floats(1e-2, 1e3),
           slope=st.just(0.0) | st.floats(0.0, 1e4, exclude_min=True),
           mu=st.floats(1e-2, 1e2), n=st.integers(8, 512),
           dt=st.floats(1e-4, 1.0), a=st.floats(1e-2, 1e2),
           dt_max=st.floats(1e-6, 10.0))
    @example(h=1.0, slope=10.0, mu=1.0, n=64, dt=0.1, a=1.0,
             dt_max=1.0)                                       # CFL binds
    @example(h=1.0, slope=0.0, mu=1.0, n=64, dt=1.0, a=50.0,
             dt_max=1.0)                                       # positivity
    # a subnormal front speed h' = 5e-324: bound/h' overflows
    @example(h=1e3, slope=5e-324, mu=1.0, n=8, dt=0.1, a=1.0, dt_max=1.0)
    def test_step_within_bounds(self, h, slope, mu, n, dt, a, dt_max):
        spec = ProblemSpec.build(constant_field(a), mu=mu, n=n, dt=dt)
        # the front stencil is exact on a linear profile: u_r = -slope up
        # to rounding, and h' = mu*slope
        u = slope * h * (1.0 - np.linspace(0.0, 1.0, n + 1))
        before = u.copy()
        u_new, h_new, t_new, h_prime = step_free(u, h, 0.0, spec, dt_max)
        assert 0.0 < t_new <= min(dt, dt_max)
        assert t_new * spec.field.alpha2_max() < 1.0
        assert t_new * h_prime / h <= 0.5 / n
        # simulate's snapshots share their arrays: the input is never written
        assert np.array_equal(u.view(np.uint64), before.view(np.uint64))
        # from t = 0 the step is t_new itself, and h moves by exactly dt*h'
        assert h_new == h + t_new * h_prime


class TestSimulate:
    def test_t_max_zero(self):
        traj = simulate(favorable_spec(), t_max=0.0)
        assert traj.t.size == 1
        assert traj.h[0] == 3.0

    def test_monotone_front(self):
        traj = simulate(favorable_spec(n=96), t_max=10.0)
        assert np.all(np.diff(traj.h) >= 0.0)

    def test_mu_doubling_ordering(self):
        a = simulate(favorable_spec(n=96, mu=1.0), t_max=8.0)
        b = simulate(favorable_spec(n=96, mu=2.0), t_max=8.0)
        t_common = a.t[a.t <= min(a.t[-1], b.t[-1])]
        ha = np.interp(t_common, a.t, a.h)
        hb = np.interp(t_common, b.t, b.h)
        assert np.all(hb >= ha - 1e-9)

    def test_vanishing_supnorm_tail(self):
        fld = CoefficientField.from_expressions(alpha="0.5", gamma="1",
                                                beta="1", T=1.0)
        spec = ProblemSpec.build(fld, d=1.0, mu=0.1, h0=1.0, n=96,
                                 u0="0.1*cos(pi*r/2)")
        traj = simulate(spec, t_max=20.0)
        tail = traj.u_sup[traj.u_sup.size // 2:]
        assert np.all(np.diff(tail) <= 1e-12)
        assert traj.h[-1] < 2.0

    def test_period_snapshots_recorded(self):
        traj = simulate(favorable_spec(n=96), t_max=5.0)
        assert all(isinstance(s, FreeBoundaryState) for s in traj.snapshots)
        times = [s.t for s in traj.snapshots]
        assert traj.snapshots[0].t == 0.0
        assert any(abs(t - 3.0) < 1e-9 for t in times)
        # t_max = 5 is a period end: the last snapshot is the final state
        assert traj.snapshots[-1] is traj.final

    @pytest.mark.parametrize("case", ["seasonal", "period 1.3, samples 0.3"])
    def test_states_built_only_at_records(self, case, monkeypatch):
        built = []

        class Counted(FreeBoundaryState):
            def __init__(self, **kw):
                super().__init__(**kw)
                built.append(self.t)

        monkeypatch.setattr(freeboundary, "FreeBoundaryState", Counted)
        fld, dt, every = SIMULATE_CASES[case]
        spec = ProblemSpec.build(fld, d=1.0, mu=2.0, h0=2.0, n=64, dt=dt,
                                 sample_every=every)
        traj = simulate(spec, t_max=3.0)
        assert built == sorted(set(traj.t.tolist())
                               | {s.t for s in traj.snapshots})

    def test_front_speed_stabilizes(self):
        traj = simulate(favorable_spec(n=256, mu=2.0, t_max=60.0))
        q = traj.t.size // 4
        ratios = traj.h[-q:] / traj.t[-q:]
        assert (ratios.max() - ratios.min()) / ratios.mean() < 0.05


class TestFastFront:
    @pytest.mark.xfail(strict=True, raises=FrontRetreat, reason=(
        "known defect: a fast front (mu >= 5e3 at n = 64) overshoots the "
        "explicit Stefan update and ends in FrontRetreat"))
    def test_mu_ladder(self):
        finals = []
        for mu in (2e3, 5e3, 1e4, 1e5):
            spec = ProblemSpec.build(constant_field(1.0), h0=1.5, mu=mu,
                                     n=64, dt=0.01, t_max=1.0)
            traj = simulate(spec)
            assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(traj.h) >= 0.0)
            finals.append(traj.h[-1])
        assert np.all(np.diff(finals) >= 0.0)


class TestClassify:
    def test_spreading_favorable(self):
        spec = favorable_spec(n=96)
        traj = simulate(spec, t_max=15.0)
        out = classify_outcome(traj, spec)
        assert out.verdict == "Spreading"
        assert out.evidence.h_star == pytest.approx(J01, abs=5e-3)

    def test_vanishing_small_mu(self):
        spec = favorable_spec(h0=1.0, mu=0.01, n=96,
                              u0="0.05*(1 - r^2)")
        traj = simulate(spec, t_max=30.0)
        out = classify_outcome(traj, spec)
        assert out.verdict == "Vanishing"
        # Lemma-style consistency: final radius under the threshold
        assert out.evidence.h_final <= out.evidence.h_star * 1.05

    def test_undecided_midway(self):
        # barely-started run: density still large, front below threshold
        spec = favorable_spec(h0=1.0, mu=0.2, n=96, u0="0.5*cos(pi*r/2)")
        traj = simulate(spec, t_max=1.0)
        out = classify_outcome(traj, spec, h_star_value=J01)
        assert out.verdict == "Undecided"

    def test_mutually_exclusive(self):
        spec = favorable_spec(n=96)
        traj = simulate(spec, t_max=15.0)
        out = classify_outcome(traj, spec, h_star_value=J01)
        assert out.verdict in ("Spreading", "Vanishing", "Undecided")

    def test_precomputed_threshold_respected(self):
        spec = favorable_spec(n=96)
        traj = simulate(spec, t_max=15.0)
        out = classify_outcome(traj, spec, h_star_value=100.0)
        assert out.verdict != "Spreading"


class TestComparison:
    def test_ordered_pair_stays_ordered(self):
        # cos-profile family: amplitude and radius ordered => profiles ordered
        fld = constant_field(1.0, gamma=0.5)
        lo = ProblemSpec.build(fld, d=1.0, mu=0.5, h0=1.0, n=64,
                               u0="0.3*cos(pi*r/2)")
        hi = ProblemSpec.build(fld, d=1.0, mu=0.5, h0=1.4, n=64,
                               u0="0.6*cos(pi*r/2.8)")
        a = simulate(lo, t_max=5.0)
        b = simulate(hi, t_max=5.0)
        t_common = np.linspace(0.0, 5.0, 21)
        ha = np.interp(t_common, a.t, a.h)
        hb = np.interp(t_common, b.t, b.h)
        assert np.all(ha <= hb + 1e-6)


def reference_simulate(spec, t_max, sample_every):
    """The sampling loop of simulate() without a stop test:
    the oracle that pins the simulate command's trajectories."""
    T = spec.field.T
    state = initial_state(spec)
    u, h, t = state.u, state.h, state.t
    ts, hs, hps, sups = [0.0], [h], [0.0], [float(np.max(u))]
    snapshots = [state]
    next_sample = sample_every if sample_every > 0 else math.inf
    next_period = T
    eps = 1e-12 * max(t_max, 1.0)
    while t < t_max - eps:
        dt_max = min(t_max, next_sample, next_period) - t
        u, h, t, h_prime = step_free(u, h, t, spec,
                                     dt_max if dt_max > 0 else eps)
        state = FreeBoundaryState(u=u, h=h, t=t)
        hit_sample = t >= next_sample - eps
        if hit_sample or t >= t_max - eps:
            ts.append(t)
            hs.append(h)
            hps.append(h_prime)
            sups.append(float(np.max(u)))
            while next_sample <= t + eps:
                next_sample += sample_every
        if t >= next_period - eps:
            snapshots.append(state)
            next_period += T
    return ts, hs, hps, sups, snapshots, state


def reference_classify(traj, h_star_value, rel_tol=0.01):
    """classify_outcome's rule written out once more, as the oracle."""
    h_final = float(traj.h[-1])
    sup_final = float(traj.u_sup[-1])
    hp_final = float(traj.h_prime[-1])
    tol_h = rel_tol * (1.0 + (h_star_value if math.isfinite(h_star_value)
                              else 0.0))
    if math.isfinite(h_star_value) and h_final > h_star_value + tol_h:
        crossed = traj.t[traj.h > h_star_value + tol_h]
        ev = Evidence("eigenvalue", h_star_value, h_final, sup_final)
        return Outcome("Spreading", ev, float(crossed[0]))
    if (sup_final < DECAY_SUP and hp_final < FRONT_STALL
            and h_final < h_star_value - tol_h):
        ev = Evidence("decay", h_star_value, h_final, sup_final)
        return Outcome("Vanishing", ev, float(traj.t[-1]))
    ev = Evidence("nearest-miss", h_star_value, h_final, sup_final)
    return Outcome("Undecided", ev, float(traj.t[-1]))


def seasonal_field(T=1.0):
    return CoefficientField.from_expressions(
        alpha="1.2 + 0.5*sin(2*pi*t/%r)" % T,
        gamma="0.2 + 0.3*exp(-(r^2))", beta="1", T=T)


SIMULATE_CASES = {
    "constant": (constant_field(1.0, gamma=0.5), 0.02, 0.25),
    "seasonal": (seasonal_field(), 0.01, 0.25),
    # step sizes and period boundaries that are not binary fractions
    "period 1.3": (seasonal_field(1.3), 0.02, 0.25),
    # period boundaries k*1.3 that are no sample times
    "period 1.3, samples 0.3": (seasonal_field(1.3), 0.02, 0.3),
}


def same_trajectory(a, b):
    return (all(np.array_equal(getattr(a, k), getattr(b, k))
                for k in ("t", "h", "h_prime", "u_sup"))
            and a.final.t == b.final.t and a.final.h == b.final.h
            and np.array_equal(a.final.u, b.final.u)
            and len(a.snapshots) == len(b.snapshots)
            and all(x.t == y.t and x.h == y.h and np.array_equal(x.u, y.u)
                    for x, y in zip(a.snapshots, b.snapshots)))


class TestStop:
    def test_stopped_run_is_a_prefix(self):
        spec = ProblemSpec.build(seasonal_field(1.3), d=1.0, mu=1.3, h0=1.5,
                                 n=64, dt=0.02)
        full = simulate(spec, t_max=13.0)
        seen = []

        def stop(state, h_prime, u_sup, period_end):
            assert u_sup == float(np.max(state.u))
            seen.append((state.t, state.h, h_prime, u_sup, period_end))
            return len(seen) == 20

        part = simulate(spec, t_max=13.0, stop=stop)
        k = part.t.size
        assert k == 21 and len(seen) == 20
        for name in ("t", "h", "h_prime", "u_sup"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[:k])
        assert [s[:4] for s in seen] == list(zip(full.t[1:k], full.h[1:k],
                                                 full.h_prime[1:k],
                                                 full.u_sup[1:k]))
        # samples every 0.25 meet the period boundaries k*1.3 at 6.5, 13
        period_ends = [s[0] for s in seen if s[4]]
        assert period_ends == [t for t in full.t[1:k]
                               if abs(t / 1.3 - round(t / 1.3)) < 1e-9]
        assert len(part.snapshots) == 1 + int(part.t[-1] / 1.3 + 1e-9)


class TestUnchangedPaths:
    @pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
    def test_simulate_matches_reference_loop(self, case):
        fld, dt, every = SIMULATE_CASES[case]
        spec = ProblemSpec.build(fld, d=1.0, mu=2.0, h0=2.0, n=64, dt=dt,
                                 sample_every=every)
        traj = simulate(spec, t_max=7.0)
        ts, hs, hps, sups, snaps, final = reference_simulate(spec, 7.0, every)
        ref = freeboundary.Trajectory(
            t=np.array(ts), h=np.array(hs), h_prime=np.array(hps),
            u_sup=np.array(sups), snapshots=snaps, final=final)
        assert same_trajectory(traj, ref)

    @pytest.mark.parametrize("h_star_value", [1.0, J01, 2.9, 3.05, 100.0,
                                              math.inf])
    def test_classify_matches_reference(self, h_star_value):
        spec = favorable_spec(h0=2.0, mu=0.5, n=64)
        traj = simulate(spec, t_max=6.0)
        assert (classify_outcome(traj, spec, h_star_value=h_star_value)
                == reference_classify(traj, h_star_value))

    def test_classify_vanishing_matches_reference(self):
        spec = favorable_spec(h0=1.0, mu=0.01, n=64, u0="0.05*(1 - r^2)")
        traj = simulate(spec, t_max=30.0)
        out = classify_outcome(traj, spec, h_star_value=J01)
        assert out.verdict == "Vanishing"
        assert out == reference_classify(traj, J01)


class TestDecide:
    def test_rule(self):
        tol = 0.01 * (1.0 + J01)
        assert decide(J01 + 1.01 * tol, 0.0, 1.0, J01) == "Spreading"
        assert decide(J01 + tol, 0.0, 1.0, J01) == "Undecided"
        assert decide(J01 - 1.01 * tol, 0.0, 0.0, J01) == "Vanishing"
        assert decide(J01 - 1.01 * tol, 0.0, DECAY_SUP, J01) == "Undecided"
        assert decide(J01 - 1.01 * tol, FRONT_STALL, 0.0, J01) == "Undecided"
        assert decide(1e9, 0.0, 0.0, math.inf) == "Vanishing"


class TestConvergence:
    """Self-convergence of the front position h(1) in dt and in n.

    Three successive refinements by 2 give the observed order
    log2(|h_1 - h_2| / |h_2 - h_3|).  The front update is explicit Euler
    in dt and the front advection upwinded, so the pinned bounds are
    first order in dt and above first order in n.
    """

    @staticmethod
    def h_at_1(n, dt):
        spec = ProblemSpec.build(constant_field(1.0), N=2, d=1.0, mu=2.0,
                                 h0=2.0, n=n, dt=dt, t_max=1.0)
        traj = simulate(spec)
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)
        return float(traj.h[-1])

    @staticmethod
    def order(h):
        return math.log2(abs(h[0] - h[1]) / abs(h[1] - h[2]))

    def test_time_order(self):
        h = [self.h_at_1(128, dt) for dt in (4e-3, 2e-3, 1e-3)]
        assert self.order(h) >= 0.9

    def test_space_order(self):
        h = [self.h_at_1(n, 2.5e-4) for n in (64, 128, 256)]
        assert self.order(h) >= 1.2
