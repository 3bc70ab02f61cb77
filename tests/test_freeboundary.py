import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stefanlab import freeboundary
from stefanlab.coeffmodel import (CoefficientField, ProblemSpec,
                                  constant_field)
from stefanlab.freeboundary import (DECAY_SUP, FRONT_STALL, Evidence,
                                    FreeBoundaryState, Outcome, Snapshot,
                                    classify_outcome, decide, front_gradient,
                                    initial_state, simulate, step_free)
from stefanlab.radialcore import diffusion_bands, solve_tridiag

J01 = 2.4048255576957724


def favorable_spec(**kw):
    defaults = dict(N=2, d=1.0, mu=1.0, h0=3.0, n=128, t_max=30.0)
    defaults.update(kw)
    return ProblemSpec.build(constant_field(1.0), **defaults)


class TestStepFree:
    def test_zero_stays_zero(self):
        spec = favorable_spec()
        state = FreeBoundaryState(u=np.zeros(129), h=3.0, t=0.0, n=128)
        new, h_prime = step_free(state, spec, 1e-3)
        assert h_prime == 0.0
        assert new.h == 3.0
        assert np.all(new.u == 0.0)

    def test_front_advances(self):
        spec = favorable_spec()
        state = initial_state(spec)
        for _ in range(200):
            state, h_prime = step_free(state, spec, 1e-3)
            assert h_prime >= 0.0
        assert state.h > 3.0

    def test_front_gradient_linear_profile(self):
        # u = 1 - xi has du/dr = -1/h exactly under the 3-point stencil
        n = 64
        xi = np.linspace(0, 1, n + 1)
        state = FreeBoundaryState(u=1.0 - xi, h=2.0, t=0.0, n=n)
        assert front_gradient(state) == pytest.approx(-0.5, abs=1e-12)

    def test_positivity(self):
        spec = favorable_spec(h0=1.5)
        state = initial_state(spec)
        for _ in range(500):
            state, _ = step_free(state, spec, 1e-3)
            assert np.all(state.u >= 0.0)


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


def allocating_step(state, spec, dt):
    """step_free with a fresh linspace xi grid, a zeros_like advection
    array and a full-length right-hand side: the oracle for the in-place
    step."""
    fld = spec.field
    n = state.n
    dxi = 1.0 / n
    if dt * fld.alpha2_max() >= 1.0:
        raise freeboundary.StepSizeTooLarge("dt*max(alpha2) >= 1")
    h_prime = max(-spec.mu * front_gradient(state), 0.0)
    if dt * h_prime / state.h > 0.5 * dxi * (1.0 + 1e-12):
        raise freeboundary.StepSizeTooLarge("front CFL violated")
    xi = np.linspace(0.0, 1.0, n + 1)
    r = state.h * xi
    u = state.u
    growth = np.asarray(fld.growth(state.t, r), dtype=float)
    crowd = np.asarray(fld.beta(state.t, r), dtype=float)
    adv = np.zeros_like(u)
    adv[:-1] = xi[:-1] * (h_prime / state.h) * (u[1:] - u[:-1]) / dxi
    rhs = u + dt * (adv + u * (growth - crowd * u))
    s = dt * (spec.d / state.h ** 2) / dxi ** 2
    u_new = np.zeros(n + 1)
    u_new[:n] = solve_tridiag(*diffusion_bands(n, spec.N, s), rhs[:n])
    u_new[(u_new > freeboundary.NEG_CLIP) & (u_new < 0.0)] = 0.0
    return (FreeBoundaryState(u=u_new, h=state.h + dt * h_prime,
                              t=state.t + dt, n=n), h_prime)


class TestInPlaceStep:
    @staticmethod
    def recorded(step, steps):
        def run(state, spec, dt):
            new, h_prime = step(state, spec, dt)
            steps.append((new.u, new.h, h_prime))
            return new, h_prime
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
        for (u, h, hp), (ref_u, ref_h, ref_hp) in zip(steps, ref_steps):
            assert np.array_equal(u.view(np.uint64), ref_u.view(np.uint64))
            assert h == ref_h and hp == ref_hp

    def test_xi_cached_read_only(self):
        spec = favorable_spec(n=96)
        state = initial_state(spec)
        other = FreeBoundaryState(u=np.zeros(97), h=5.0, t=1.0, n=96)
        assert state.xi is other.xi
        assert state.xi is not FreeBoundaryState(u=np.zeros(65), h=5.0,
                                                 t=1.0, n=64).xi
        assert np.array_equal(state.xi, np.linspace(0.0, 1.0, 97))
        assert not state.xi.flags.writeable
        with pytest.raises(ValueError):
            state.xi[1] = 0.5
        snap = Snapshot(1.0, 5.0, np.zeros(97))
        assert np.array_equal(snap.r(), 5.0 * np.linspace(0.0, 1.0, 97))


class TestStepSizer:
    """The step that _StepSizer picks passes both guards of step_free, so
    simulate() takes every step at the size it picked, with no retry."""

    @settings(max_examples=200, deadline=None)
    @given(h=st.floats(1e-2, 1e3),
           slope=st.just(0.0) | st.floats(0.0, 1e4, exclude_min=True),
           mu=st.floats(1e-2, 1e2), n=st.integers(8, 512),
           dt=st.floats(1e-4, 1.0), a=st.floats(1e-2, 1e2))
    @example(h=1.0, slope=10.0, mu=1.0, n=64, dt=0.1, a=1.0)   # CFL binds
    @example(h=1.0, slope=0.0, mu=1.0, n=64, dt=1.0, a=50.0)   # positivity
    # a subnormal front speed h' = 5e-324: bound/h' overflows
    @example(h=1e3, slope=5e-324, mu=1.0, n=8, dt=0.1, a=1.0)
    def test_sized_step_passes_guards(self, h, slope, mu, n, dt, a):
        spec = ProblemSpec.build(constant_field(a), mu=mu, n=n, dt=dt)
        # the front stencil is exact on a linear profile: u_r = -slope up
        # to rounding, and h' = mu*slope
        u = slope * h * (1.0 - np.linspace(0.0, 1.0, n + 1))
        state = FreeBoundaryState(u=u, h=h, t=0.0, n=n)
        sized = freeboundary._StepSizer(spec)(state, front_gradient(state))
        step_free(state, spec, sized)


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
        times = [s.t for s in traj.snapshots]
        assert times[0] == 0.0
        assert any(abs(t - 3.0) < 1e-9 for t in times)

    def test_front_speed_stabilizes(self):
        traj = simulate(favorable_spec(n=256, mu=2.0, t_max=60.0))
        q = traj.t.size // 4
        ratios = traj.h[-q:] / traj.t[-q:]
        assert (ratios.max() - ratios.min()) / ratios.mean() < 0.05


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
    """The sampling loop of simulate() without a stop test or a resume:
    the oracle that pins the simulate command's trajectories."""
    T = spec.field.T
    state = initial_state(spec)
    sizer = freeboundary._StepSizer(spec)
    ts, hs, hps, sups = [0.0], [state.h], [0.0], [state.sup()]
    snapshots = [Snapshot(0.0, state.h, state.u.copy())]
    next_sample = sample_every if sample_every > 0 else math.inf
    next_period = T
    eps = 1e-12 * max(t_max, 1.0)
    while state.t < t_max - eps:
        dt = sizer(state, front_gradient(state))
        dt = min(dt, min(t_max, next_sample, next_period) - state.t)
        if dt <= 0:
            dt = eps
        try:
            state, h_prime = step_free(state, spec, dt)
        except freeboundary.StepSizeTooLarge:
            state, h_prime = step_free(state, spec, dt / 2.0)
        hit_sample = state.t >= next_sample - eps
        if hit_sample or state.t >= t_max - eps:
            ts.append(state.t)
            hs.append(state.h)
            hps.append(h_prime)
            sups.append(state.sup())
            while next_sample <= state.t + eps:
                next_sample += sample_every
        if state.t >= next_period - eps:
            snapshots.append(Snapshot(state.t, state.h, state.u.copy()))
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


RESUME_CASES = {
    "constant": (constant_field(1.0, gamma=0.5), 0.02, 0.25),
    "seasonal": (seasonal_field(), 0.01, 0.25),
    # step sizes and period boundaries that are not binary fractions
    "period 1.3": (seasonal_field(1.3), 0.02, 0.25),
    # the 10T horizon (13.0) is no sample time: its end sample is dropped
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


class TestResume:
    @pytest.mark.parametrize("case", sorted(RESUME_CASES))
    def test_bit_identical_to_one_run(self, case, monkeypatch):
        fld, dt, every = RESUME_CASES[case]
        spec = ProblemSpec.build(fld, d=1.0, mu=1.3, h0=1.5, n=64, dt=dt,
                                 sample_every=every)
        T = fld.T
        steps = []
        real_step = freeboundary.step_free

        def counted(*args):
            steps.append(1)
            return real_step(*args)

        monkeypatch.setattr(freeboundary, "step_free", counted)
        fresh = simulate(spec, t_max=20 * T)
        n_fresh = len(steps)
        first = simulate(spec, t_max=10 * T)
        n_first, n_samples = len(steps) - n_fresh, first.t.size
        resumed = simulate(spec, t_max=20 * T, resume=first)
        # the resumed run re-takes only the last step of the first one
        assert len(steps) - n_fresh - n_first == n_fresh - n_first + 1
        assert first.t[-1] == pytest.approx(10 * T, abs=1e-11)
        assert same_trajectory(fresh, resumed)
        # the trajectory resumed from is left as it was
        assert first.t.size == n_samples and len(first.snapshots) == 11

    def test_resume_twice(self):
        fld, dt, every = RESUME_CASES["period 1.3"]
        spec = ProblemSpec.build(fld, d=1.0, mu=1.3, h0=1.5, n=64, dt=dt)
        fresh = simulate(spec, t_max=13.0)
        traj = simulate(spec, t_max=3.9)
        traj = simulate(spec, t_max=6.5, resume=traj)
        traj = simulate(spec, t_max=13.0, resume=traj)
        assert same_trajectory(fresh, traj)

    def test_resume_to_an_earlier_time_adds_nothing(self):
        spec = favorable_spec(n=64)
        traj = simulate(spec, t_max=2.0)
        again = simulate(spec, t_max=1.0, resume=traj)
        assert same_trajectory(traj, again)


class TestStop:
    def test_stopped_run_is_a_prefix(self):
        spec = ProblemSpec.build(seasonal_field(1.3), d=1.0, mu=1.3, h0=1.5,
                                 n=64, dt=0.02)
        full = simulate(spec, t_max=13.0)
        seen = []

        def stop(t, h, h_prime, u_sup, period_end):
            seen.append((t, h, h_prime, u_sup, period_end))
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

    def test_stopped_run_resumes(self):
        spec = ProblemSpec.build(seasonal_field(), d=1.0, mu=1.3, h0=1.5,
                                 n=64, dt=0.02)
        full = simulate(spec, t_max=10.0)
        part = simulate(spec, t_max=10.0,
                        stop=lambda t, h, hp, sup, end: t >= 3.0)
        assert part.t[-1] == 3.0
        assert same_trajectory(full, simulate(spec, t_max=10.0, resume=part))


class TestUnchangedPaths:
    @pytest.mark.parametrize("case", sorted(RESUME_CASES))
    def test_simulate_matches_reference_loop(self, case):
        fld, dt, every = RESUME_CASES[case]
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
