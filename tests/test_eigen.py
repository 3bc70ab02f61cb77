import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from stefanlab import eigen
from stefanlab.coeffmodel import CoefficientField, ConstantFn, constant_field
from stefanlab.eigen import (FACTOR_TABLE_BYTES, H_STAR_INFINITE, POTENTIAL_BLOCK,
                             _Period, d_thresholds, default_substeps, h_star,
                             period_map, principal_eigenvalue)
from stefanlab.errors import BracketInvalid, NonPositiveIterate, NoSignChange
from stefanlab.radialcore import DiffusionSolver, RadialGrid


def bessel_j0_first_zero(tol=1e-14):
    """First positive zero of J0 by bisection on the power series / scipy."""
    from scipy.special import j0
    lo, hi = 2.0, 3.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


J01 = bessel_j0_first_zero()


def dirichlet_ground_eigenvalue(n, R, N, d):
    """Smallest eigenvalue of -d*Lap on the discrete radial grid.

    Independent oracle: dense eigensolve of the same matrix the implicit
    stepper uses, so period_map can be checked against separation of
    variables exactly in the discrete setting.
    """
    grid = RadialGrid(n=n, R=R, N=N)
    dr = grid.dr
    m = n
    A = np.zeros((m, m))
    A[0, 0] = 2.0 * N * d / dr ** 2
    A[0, 1] = -2.0 * N * d / dr ** 2
    for j in range(1, m):
        w = (N - 1) / (2.0 * j)
        A[j, j] = 2.0 * d / dr ** 2
        A[j, j - 1] = -d * (1.0 - w) / dr ** 2
        if j + 1 < m:
            A[j, j + 1] = -d * (1.0 + w) / dr ** 2
    vals, vecs = np.linalg.eig(A)
    k = int(np.argmin(vals.real))
    lam = float(vals.real[k])
    mode = vecs[:, k].real
    mode = mode * np.sign(mode[0])
    return lam, mode


class TestPeriodMap:
    def test_zero_potential_tiny_d(self):
        fld = constant_field(0.0, gamma=1.0)   # growth 0
        grid = RadialGrid(n=128, R=1.0, N=2)
        psi = 1.0 - grid.r ** 2
        out = period_map(psi, _Period(grid, fld, 1e-8, 1.0, 256))
        assert np.max(np.abs(out - psi)) < 1e-4

    def test_linearity(self):
        fld = constant_field(1.0)
        grid = RadialGrid(n=64, R=2.0, N=2)
        psi = np.cos(np.pi * grid.r / 4.0)
        period = _Period(grid, fld, 1.0, 1.0, 512)
        a = period_map(2.0 * psi, period)
        b = period_map(psi, period)
        assert np.max(np.abs(a - 2.0 * b)) < 1e-12

    def test_ground_mode_separation_of_variables(self):
        # discrete ground mode of the same operator: multiplier is
        # exp((c - lam_D)T) up to the implicit-Euler step-size bias
        c, d, R, T, n = 0.5, 1.0, 1.0, 1.0, 128
        lam_D, mode = dirichlet_ground_eigenvalue(n, R, 2, d)
        fld = constant_field(c)
        grid = RadialGrid(n=n, R=R, N=2)
        psi = np.zeros(n + 1)
        psi[:n] = mode / np.max(mode)
        out = period_map(psi, _Period(grid, fld, d, T, 16384))
        ratio = np.max(out) / np.max(psi)
        assert ratio == pytest.approx(math.exp((c - lam_D) * T), rel=2e-3)


def per_substep_period_map(psi, grid, field, d, T, substeps, record=None):
    """period_map written with one coefficient evaluation per substep."""
    dt = T / substeps
    solver = DiffusionSolver(grid, d, dt)
    u = np.array(psi, dtype=float)
    shots = [u.copy()]
    per_phase = substeps // record if record else 0
    for k in range(substeps):
        pot = np.asarray(field.growth((k + 0.5) * dt, grid.r), dtype=float)
        u = solver.solve(u * np.exp(dt * pot))
        u[-1] = 0.0
        if record and (k + 1) % per_phase == 0 and (k + 1) < substeps:
            shots.append(u.copy())
    return u, shots


BLOCK_FIELDS = {
    "constant": constant_field(0.7),
    "constant-expr": CoefficientField.from_expressions(
        alpha="1", gamma="0.5", beta="1", T=1.0),
    "t-only": CoefficientField.from_expressions(
        alpha="1 + 0.5*sin(2*pi*t)", gamma="0", beta="1", T=1.0),
    "t-and-r": CoefficientField.from_expressions(
        alpha="1.2 + 0.5*sin(2*pi*t)", gamma="0.2 + 0.3*exp(-(r^2))",
        beta="1", T=1.0),
}


class CountingField:
    """Constant growth 0.5 that records the shape of each time argument."""

    T = 1.0

    def __init__(self):
        self.calls = []

    def growth(self, t, r):
        self.calls.append(np.shape(t))
        return 0.5 + 0.0 * t * r

    def alpha2_max(self):
        return 0.5


class TestBlockedPotential:
    """A _Period evaluates the potential for a block of substeps per call
    and tabulates the factors; every output of period_map must equal the
    per-substep loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(BLOCK_FIELDS))
    @pytest.mark.parametrize("substeps", [128, 200])   # 200: partial block
    def test_bit_equal_without_record(self, name, substeps):
        fld = BLOCK_FIELDS[name]
        grid = RadialGrid(n=48, R=2.5, N=2)
        psi = 1.0 - (grid.r / 2.5) ** 2
        out = period_map(psi, _Period(grid, fld, 1.0, 1.0, substeps))
        ref, _ = per_substep_period_map(psi, grid, fld, 1.0, 1.0, substeps)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("name", sorted(BLOCK_FIELDS))
    def test_bit_equal_with_record(self, name):
        fld = BLOCK_FIELDS[name]
        grid = RadialGrid(n=48, R=2.5, N=3)
        psi = np.cos(np.pi * grid.r / 5.0)
        out, shots = period_map(psi, _Period(grid, fld, 0.7, 1.0, 200), record=8)
        ref, ref_shots = per_substep_period_map(psi, grid, fld, 0.7, 1.0, 200,
                                                record=8)
        assert np.array_equal(out, ref)
        assert len(shots) == len(ref_shots) == 8
        assert all(np.array_equal(a, b) for a, b in zip(shots, ref_shots))

    def test_coefficient_calls_per_block(self):
        fld = CountingField()
        grid = RadialGrid(n=16, R=1.0, N=2)
        period = _Period(grid, fld, 1.0, 1.0, 3 * POTENTIAL_BLOCK + 8)
        assert [c[0] for c in fld.calls] == [POTENTIAL_BLOCK] * 3 + [8]
        period_map(np.ones(17), period)
        period_map(np.ones(17), period)
        assert len(fld.calls) == 4      # the maps read the table

    @pytest.mark.parametrize("R", [1.0, 3.0])
    def test_one_evaluation_per_block_per_solve(self, R):
        # whatever the iteration count, a solve tabulates the coarse and
        # the fine period once each
        fld = CountingField()
        res = principal_eigenvalue(1.0, fld, R, 1.0, n=32)
        S = default_substeps(1.0, fld, R, 1.0)
        S = -(-S // eigen.EIGEN_PHASES) * eigen.EIGEN_PHASES
        assert res.iterations > 2
        assert len(fld.calls) == (-(-S // POTENTIAL_BLOCK)
                                  + -(-2 * S // POTENTIAL_BLOCK))

    @pytest.mark.parametrize("name", sorted(BLOCK_FIELDS))
    def test_period_over_the_cap_keeps_no_table(self, name, monkeypatch):
        fld = BLOCK_FIELDS[name]
        grid = RadialGrid(n=48, R=2.5, N=2)
        psi = 1.0 - (grid.r / 2.5) ** 2
        tabulated = _Period(grid, fld, 1.0, 1.0, 200)
        assert tabulated.table.nbytes == 200 * 48 * 8 <= FACTOR_TABLE_BYTES
        monkeypatch.setattr(eigen, "FACTOR_TABLE_BYTES", 200 * 48 * 8 - 1)
        untabulated = _Period(grid, fld, 1.0, 1.0, 200)
        assert untabulated.table is None
        out, shots = period_map(psi, untabulated, record=8)
        ref, ref_shots = period_map(psi, tabulated, record=8)
        assert np.array_equal(out, ref)
        assert all(np.array_equal(a, b) for a, b in zip(shots, ref_shots))

    def test_period_over_the_cap_evaluates_on_every_map(self, monkeypatch):
        monkeypatch.setattr(eigen, "FACTOR_TABLE_BYTES", 0)
        fld = CountingField()
        grid = RadialGrid(n=16, R=1.0, N=2)
        period = _Period(grid, fld, 1.0, 1.0, 3 * POTENTIAL_BLOCK + 8)
        assert fld.calls == []
        for maps in (1, 2):
            period_map(np.ones(17), period)
            assert [c[0] for c in fld.calls] == maps * ([POTENTIAL_BLOCK] * 3 + [8])

    def test_cap_binds_on_a_small_ball(self):
        # R = 0.05*h0 at h0 = 2, d = 1, n = 256, the lower end of the
        # caller bracket of h*: about 4700 coarse substeps, a 9.6 MB table
        fld = constant_field(1.0)
        grid = RadialGrid(n=256, R=0.1, N=2)
        S = default_substeps(1.0, fld, 0.1, 1.0)
        assert S * 256 * 8 > 2 * FACTOR_TABLE_BYTES
        assert _Period(grid, fld, 1.0, 1.0, S).table is None


class TestPrincipalEigenvalue:
    def test_bessel_closed_form_R1(self):
        res = principal_eigenvalue(1.0, constant_field(1.0), 1.0, 1.0, n=512)
        exact = J01 ** 2 - 1.0
        assert abs(res.lambda1 - exact) / exact < 1e-3

    def test_bessel_closed_form_R2(self):
        res = principal_eigenvalue(1.0, constant_field(1.0), 2.0, 1.0, n=512)
        exact = J01 ** 2 / 4.0 - 1.0
        assert abs(res.lambda1 - exact) / abs(exact) < 1e-3

    def test_rho_lambda_invariant(self):
        res = principal_eigenvalue(1.0, constant_field(1.0), 2.0, 1.0, n=128)
        assert res.lambda1 == pytest.approx(-math.log(res.rho) / 1.0, abs=1e-14)

    def test_eigenfunction_normalized_positive(self):
        res = principal_eigenvalue(1.0, constant_field(1.0), 3.0, 1.0, n=128)
        assert np.max(res.phi) == pytest.approx(1.0)
        assert np.all(res.phi[:, 1:-1] > 0)
        assert np.allclose(res.phi[:, -1], 0.0)

    def test_shift_identity(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + 0.5*cos(2*pi*t) + max(0, 1-r)", gamma="0.2", beta="1",
            T=1.0)
        base = principal_eigenvalue(1.0, fld, 2.0, 1.0, n=256)
        for c in (-1.0, 0.3, 2.0):
            shifted = CoefficientField.from_expressions(
                alpha="1 + 0.5*cos(2*pi*t) + max(0, 1-r) + (%r)" % c,
                gamma="0.2", beta="1", T=1.0)
            res = principal_eigenvalue(1.0, shifted, 2.0, 1.0, n=256)
            assert res.lambda1 == pytest.approx(base.lambda1 - c, abs=1e-8)

    def test_time_mean_reduction(self):
        osc = CoefficientField.from_expressions(
            alpha="1 + sin(2*pi*t)", gamma="0", beta="1", T=1.0)
        res_osc = principal_eigenvalue(1.0, osc, 1.0, 1.0, n=256)
        res_const = principal_eigenvalue(1.0, constant_field(1.0), 1.0, 1.0,
                                         n=256)
        assert res_osc.lambda1 == pytest.approx(res_const.lambda1, abs=1e-3)

    def test_monotone_in_R(self):
        fld = constant_field(1.0)
        Rs = np.linspace(0.8, 5.0, 10)
        lams = [principal_eigenvalue(1.0, fld, R, 1.0, n=128).lambda1
                for R in Rs]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_monotone_in_potential(self):
        base = CoefficientField.from_expressions(alpha="1", gamma="0.2",
                                                 beta="1", T=1.0)
        bumped = CoefficientField.from_expressions(
            alpha="1 + 0.05*max(0, 1-r)", gamma="0.2", beta="1", T=1.0)
        a = principal_eigenvalue(1.0, base, 2.0, 1.0, n=256).lambda1
        b = principal_eigenvalue(1.0, bumped, 2.0, 1.0, n=256).lambda1
        assert b < a

    def test_small_R_blowup(self):
        fld = constant_field(1.0)
        R_small = 0.1
        res = principal_eigenvalue(1.0, fld, R_small, 1.0, n=128)
        assert res.lambda1 > 100.0

    def test_small_d_limit(self):
        fld = CoefficientField.from_expressions(
            alpha="1 + max(0, 1-r)", gamma="0.3", beta="1", T=1.0)
        # max_r mean(alpha-gamma) = 1.7 at r=0
        res = principal_eigenvalue(1e-4, fld, 2.0, 1.0, n=512)
        assert res.lambda1 == pytest.approx(-1.7, rel=0.05)

    def test_large_d_growth(self):
        fld = constant_field(1.0)
        a = principal_eigenvalue(1.0, fld, 2.0, 1.0, n=128).lambda1
        b = principal_eigenvalue(10.0, fld, 2.0, 1.0, n=128).lambda1
        assert b > a + 1.0

    def test_residual_bound(self):
        tol = 1e-7
        res = principal_eigenvalue(1.0, constant_field(1.0), 2.0, 1.0,
                                   tol=tol, n=128)
        assert res.residual <= 10.0 * tol


class TestHStar:
    def test_constants_d1(self):
        hs = h_star(1.0, constant_field(1.0), 1.0, r_lo=1.0, r_hi=4.0,
                    tol=1e-3, n=256)
        assert hs == pytest.approx(J01, abs=1e-3)

    def test_constants_d4(self):
        hs = h_star(4.0, constant_field(1.0), 1.0, r_lo=2.0, r_hi=8.0,
                    tol=2e-3, n=256)
        assert hs == pytest.approx(2.0 * J01, abs=2e-3)

    def test_unfavorable_infinite(self):
        fld = CoefficientField.from_expressions(alpha="0.5", gamma="1",
                                                beta="1", T=1.0)
        hs = h_star(1.0, fld, 1.0, r_lo=1.0, r_hi=10.0, tol=1e-2, n=128)
        assert hs == H_STAR_INFINITE

    def test_bracket_invalid(self):
        with pytest.raises(BracketInvalid):
            h_star(1.0, constant_field(1.0), 1.0, r_lo=5.0, r_hi=10.0, n=128)


def counting_eigen(monkeypatch):
    """Record the radius of every principal_eigenvalue call."""
    radii = []
    real = eigen.principal_eigenvalue

    def counted(d, field, R, T, **kwargs):
        radii.append(R)
        return real(d, field, R, T, **kwargs)

    monkeypatch.setattr(eigen, "principal_eigenvalue", counted)
    return radii


def reference_h_star(d, field, T, lo, hi, tol, n, N=2):
    """Plain bisection of lambda1(R) over the caller's bracket."""
    def lam(R):
        try:
            return principal_eigenvalue(d, field, R, T, N=N, n=n).lambda1
        except NonPositiveIterate:
            return math.inf

    assert lam(lo) > 0 >= lam(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lam(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


SEASONAL = dict(alpha="1.2+0.5*sin(2*pi*t)", gamma="0.2+0.3*exp(-(r^2))",
                beta="1", T=1.0)


class TestEnvelopeBracket:
    @pytest.mark.parametrize("N, j", [(1, math.pi / 2), (2, J01),
                                      (3, math.pi)])
    def test_radii_of_a_constant_field(self, N, j):
        r_plus, r_minus = eigen._envelope_radii(4.0, constant_field(0.5), N)
        assert r_plus == pytest.approx(j * math.sqrt(8.0), rel=1e-10)
        assert r_minus == pytest.approx(j * math.sqrt(8.0), rel=1e-10)

    def test_radii_of_the_seasonal_field(self):
        # period means of alpha2 - gamma1 and alpha1 - gamma2: 1.0 and 0.7
        fld = CoefficientField.from_expressions(**SEASONAL)
        r_plus, r_minus = eigen._envelope_radii(1.0, fld, 2)
        assert r_plus == pytest.approx(J01, rel=1e-9)
        assert r_minus == pytest.approx(J01 / math.sqrt(0.7), rel=1e-9)

    def test_no_radii(self):
        unfavorable = CoefficientField.from_expressions(alpha="0.5",
                                                        gamma="1", beta="1",
                                                        T=1.0)
        assert eigen._envelope_radii(1.0, unfavorable, 2) is None
        assert eigen._envelope_radii(1.0, constant_field(1.0), 4) is None
        undeclared = CoefficientField(alpha=ConstantFn(1.0),
                                      gamma=ConstantFn(0.0),
                                      beta=ConstantFn(1.0), T=1.0)
        assert eigen._envelope_radii(1.0, undeclared, 2) is None

    def test_constant_field_solves(self, monkeypatch):
        radii = counting_eigen(monkeypatch)
        lo, hi, solves = eigen._h_star_bracket(1.0, constant_field(1.0), 1.0,
                                               r_lo=0.1, r_hi=12.8, n=128)
        assert solves == len(radii) == len(set(radii))
        # two verified probes replace both caller ends; lambda1 is linear
        # in 1/R**2 here, so one estimate and one closing probe finish:
        # 16 solves when bisecting the caller's bracket, 8 the envelope's
        assert solves == 4
        assert 0.1 not in radii and 12.8 not in radii
        assert radii[:2] == [pytest.approx(J01 * (1 - eigen.ENVELOPE_MARGIN)),
                             pytest.approx(J01 * (1 + eigen.ENVELOPE_MARGIN))]
        assert hi - lo <= 1e-3
        assert 0.5 * (lo + hi) == pytest.approx(J01, abs=1e-3)

    def test_expansion_keeps_the_verified_end(self, monkeypatch):
        # both envelope radii lie above r_hi: lambda1(r_hi) > 0 is
        # verified, so the expanded search starts from r_hi
        radii = counting_eigen(monkeypatch)
        hs = h_star(1.0, constant_field(1.0), 1.0, r_lo=0.5, r_hi=2.0,
                    tol=1e-3, n=64)
        assert radii[:3] == [0.5, 2.0, 8.0]
        assert min(radii[3:]) > 2.0
        assert hs == pytest.approx(J01, abs=2e-3)

    def test_seasonal_field_matches_caller_bracket(self):
        fld = CoefficientField.from_expressions(**SEASONAL)
        ref = reference_h_star(1.0, fld, 1.0, 1.0, 6.0, tol=1e-3, n=128)
        hs = h_star(1.0, fld, 1.0, r_lo=1.0, r_hi=6.0, tol=1e-3, n=128)
        assert abs(hs - ref) <= 1e-3

    @pytest.mark.parametrize("declared, caller_end", [
        # declared growth far too low: the lower probe lands above h*
        ((0.25, 0.3), 1.0),
        # declared growth far too high: both probes land below h*
        ((3.0, 4.0), 6.0),
    ])
    def test_wrong_envelopes_keep_the_answer(self, monkeypatch, declared,
                                             caller_end):
        fld = CoefficientField.from_expressions(
            alpha="1", gamma="0", beta="1", T=1.0,
            envelopes={"alpha1": declared[0], "alpha2": declared[1]})
        ref = reference_h_star(1.0, fld, 1.0, 1.0, 6.0, tol=1e-3, n=128)
        radii = counting_eigen(monkeypatch)
        hs = h_star(1.0, fld, 1.0, r_lo=1.0, r_hi=6.0, tol=1e-3, n=128)
        # the probe failed its check, so the caller's end was solved
        assert caller_end in radii
        assert abs(hs - ref) <= 1e-3
        assert hs == pytest.approx(J01, abs=1e-3)

    def test_logs_the_bracket(self, caplog):
        unfavorable = CoefficientField.from_expressions(alpha="0.5",
                                                        gamma="1", beta="1",
                                                        T=1.0)
        with caplog.at_level(logging.DEBUG, logger="stefanlab"):
            h_star(1.0, constant_field(1.0), 1.0, r_lo=1.0, r_hi=4.0,
                   tol=1e-2, n=64)
            h_star(1.0, unfavorable, 1.0, r_lo=1.0, r_hi=4.0, tol=1e-2, n=64)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "stefanlab" and r.getMessage().startswith("h*")]
        p_lo = J01 * (1 - eigen.ENVELOPE_MARGIN)
        p_hi = J01 * (1 + eigen.ENVELOPE_MARGIN)
        assert lines == ["h* bracket from the envelope radii: [%.10g, %.10g]"
                         % (p_lo, p_hi),
                         "h* bracket from the caller: [1, 4]"]


def fake_lambda1(monkeypatch, lambda1, underflow_below=0.0):
    """Replace principal_eigenvalue by lambda1(R); record every radius.

    Radii below ``underflow_below`` raise NonPositiveIterate, as an
    underflowed period map does.
    """
    radii = []

    def fake(d, field, R, T, **kwargs):
        radii.append(R)
        if R < underflow_below:
            raise NonPositiveIterate("underflow")
        return SimpleNamespace(lambda1=lambda1(R), phi=(None,))

    monkeypatch.setattr(eigen, "principal_eigenvalue", fake)
    return radii


class TestIllinoisSplit:
    @pytest.mark.parametrize("field, N, r_lo, r_hi", [
        # envelopes apply: the search starts from the two envelope probes
        (constant_field(1.0), 2, 1.0, 6.0),
        # N = 4 has no ball zero, so the caller's bracket is searched and
        # the period map underflows at r_lo: lambda1(r_lo) = inf
        (constant_field(1.0), 4, 0.1, 8.0),
    ])
    def test_matches_plain_bisection(self, field, N, r_lo, r_hi):
        ref = reference_h_star(1.0, field, 1.0, r_lo, r_hi, tol=1e-3, n=128,
                               N=N)
        hs = h_star(1.0, field, 1.0, r_lo=r_lo, r_hi=r_hi, tol=1e-3, N=N,
                    n=128)
        assert abs(hs - ref) <= 1e-3
        if N == 4:
            with pytest.raises(NonPositiveIterate):
                principal_eigenvalue(1.0, field, r_lo, 1.0, N=4, n=128)

    @pytest.mark.parametrize("field, N, r_lo, r_hi", [
        (constant_field(1.0), 2, 0.1, 12.8),
        (CoefficientField.from_expressions(**SEASONAL), 2, 1.0, 6.0),
        (CoefficientField.from_expressions(
            alpha="1", gamma="0", beta="1", T=1.0,
            envelopes={"alpha1": 0.25, "alpha2": 0.3}), 2, 1.0, 6.0),
        (CoefficientField.from_expressions(
            alpha="1", gamma="0", beta="1", T=1.0,
            envelopes={"alpha1": 3.0, "alpha2": 4.0}), 2, 1.0, 6.0),
        (constant_field(1.0), 4, 0.1, 8.0),
    ])
    def test_no_more_solves_than_bisection(self, monkeypatch, field, N, r_lo,
                                           r_hi):
        def bracket():
            radii = counting_eigen(monkeypatch)
            lo, hi, solves = eigen._h_star_bracket(
                1.0, field, 1.0, r_lo=r_lo, r_hi=r_hi, N=N, n=64)
            assert solves == len(radii) and hi - lo <= 1e-3
            return radii

        radii = bracket()
        assert len(set(radii)) == len(radii)
        monkeypatch.undo()
        monkeypatch.setattr(eigen, "_IllinoisSplit", lambda tol: eigen._midpoint)
        assert len(radii) <= len(bracket())

    @pytest.mark.parametrize("lambda1, root, underflow_below, N", [
        # lambda1 = (j/R)**2 - m(R): linear in 1/R**2 for a constant m,
        # curved for a growth m that rises or falls with the radius
        (lambda R: (J01 / R) ** 2 - 1.0, J01, 0.0, 2),
        (lambda R: (3.0 / R) ** 2 - 1.0, 3.0, 0.5, 4),
        (lambda R: (3.0 / R) ** 2 - 1.0 - 0.5 * math.tanh(R - 3.0), 3.0, 0.0, 4),
        (lambda R: (2.0 / R) ** 2 - 0.5 - 2.0 * math.exp(-R),
         2.4334944, 0.3, 4),
        (lambda R: (4.0 / R) ** 2 - 1.0 - 3.0 / (1.0 + math.exp(-5.0 * (R - 3.0))),
         2.8515841, 0.0, 4),
        # strongly curved in 1/R**2, and a steep drop that needs the
        # midpoint after three probes that did not halve the bracket
        (lambda R: (2.0 / R) ** 8 - 1.0, 2.0, 0.0, 4),
        (lambda R: math.atan(30.0 * (7.0 - R)), 7.0, 0.0, 4),
    ])
    def test_model_lambda1(self, monkeypatch, lambda1, root, underflow_below,
                           N):
        def bracket():
            radii = fake_lambda1(monkeypatch, lambda1, underflow_below)
            lo, hi, solves = eigen._h_star_bracket(
                1.0, constant_field(1.0), 1.0, r_lo=0.1, r_hi=12.8, N=N)
            assert solves == len(radii)
            assert lambda1(lo) > 0 >= lambda1(hi) and hi - lo <= 1e-3
            assert 0.5 * (lo + hi) == pytest.approx(root, abs=1e-3)
            return radii

        radii = bracket()
        assert len(set(radii)) == len(radii)
        monkeypatch.setattr(eigen, "_IllinoisSplit", lambda tol: eigen._midpoint)
        assert len(radii) <= len(bracket())

    def test_logs_each_probe(self, monkeypatch, caplog):
        radii = counting_eigen(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="stefanlab"):
            lo, hi, solves = eigen._h_star_bracket(
                1.0, constant_field(1.0), 1.0, r_lo=0.1, r_hi=8.0, N=4, n=64)
        steps = [r.getMessage() for r in caplog.records
                 if re.match(r"(illinois|closing|bisect) \[", r.getMessage())]
        # r_lo and r_hi are verified by a solve each; every other solve is
        # one logged probe
        assert solves == len(radii) == len(steps) + 2
        assert steps[0] == "bisect [0.1, 8]: probe 4.05"
        assert steps[-1].startswith("closing")
        assert {m.split()[0] for m in steps} <= {"illinois", "closing", "bisect"}


class TestDThresholds:
    def test_linear_crossing_R1(self):
        out = d_thresholds(constant_field(1.0), 1.0, 1.0, d_lo=0.01,
                           d_hi=10.0, tol=1e-3, n=128)
        exact = 1.0 / J01 ** 2
        assert out.d_star == pytest.approx(exact, rel=2e-3)
        assert out.d_upper == pytest.approx(out.d_star)
        assert out.crossings == 1

    def test_large_R_crossing(self):
        out = d_thresholds(constant_field(1.0), 10.0, 1.0, d_lo=1.0,
                           d_hi=100.0, tol=1e-3, n=128)
        exact = (10.0 / J01) ** 2
        assert out.d_star == pytest.approx(exact, rel=5e-3)

    def test_no_sign_change(self):
        fld = CoefficientField.from_expressions(alpha="0.5", gamma="1.5",
                                                beta="1", T=1.0)
        with pytest.raises(NoSignChange):
            d_thresholds(fld, 2.0, 1.0, d_lo=0.1, d_hi=10.0, n=128)


def _arithmetic(lo, hi, *_):
    return 0.5 * (lo + hi), "bisect"


def _geometric(lo, hi, *_):
    return math.sqrt(lo * hi), "bisect"


class TestBisect:
    @staticmethod
    def hand_loop(root, lo, hi, wide, split):
        probes = []
        while wide(lo, hi):
            mid, _ = split(lo, hi)
            probes.append(mid)
            if mid >= root:
                hi = mid
            else:
                lo = mid
        return probes, (lo, hi)

    @pytest.mark.parametrize("split, wide", [
        (None, lambda lo, hi: hi - lo > 1e-3),
        (_arithmetic, lambda lo, hi: hi - lo > 1e-3 * (1.0 + 0.5 * (lo + hi))),
        (_geometric, lambda lo, hi: hi / lo > 1.0 + 1e-3),
    ])
    def test_matches_hand_written_loop(self, split, wide):
        root = 0.7318
        probes = []

        def below(x):
            probes.append(x)
            return x < root

        kwargs = {} if split is None else {"split": split}
        got = eigen._bisect(below, 0.05, 20.0, wide, **kwargs)
        want_probes, want = self.hand_loop(root, 0.05, 20.0, wide,
                                           split or _arithmetic)
        assert probes == want_probes
        assert got == want
        assert got[0] < root <= got[1]

    def test_narrow_bracket_probes_nothing(self):
        def below(x):
            raise AssertionError("probed %r" % x)

        assert eigen._bisect(below, 1.0, 1.5, lambda lo, hi: hi - lo > 1.0) \
            == (1.0, 1.5)

    def test_logs_each_step(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="stefanlab"):
            lo, hi = eigen._bisect(lambda x: x < 0.3, 0.0, 1.0,
                                   lambda lo, hi: hi - lo > 0.1)
        steps = [r.getMessage() for r in caplog.records
                 if r.name == "stefanlab" and r.levelno == logging.DEBUG]
        assert (lo, hi) == (0.25, 0.3125)
        assert steps == ["bisect [0, 1]: probe 0.5",
                         "bisect [0, 0.5]: probe 0.25",
                         "bisect [0.25, 0.5]: probe 0.375",
                         "bisect [0.25, 0.375]: probe 0.3125"]


class TestDThresholdsRefine:
    @staticmethod
    def fake_eigen(monkeypatch, lambda1):
        calls = []

        def fake(d, field, R, T, **kwargs):
            calls.append(d)
            return SimpleNamespace(lambda1=lambda1(d))

        monkeypatch.setattr(eigen, "principal_eigenvalue", fake)
        return calls

    def test_honours_points(self, monkeypatch):
        calls = self.fake_eigen(monkeypatch, lambda d: d - 1.0)
        out = d_thresholds(constant_field(1.0), 3.0, 1.0, d_lo=0.05,
                           d_hi=20.0, points=8)
        assert out.scan_d.size == 8
        assert calls[:8] == [float(d) for d in out.scan_d]
        assert out.d_star == pytest.approx(1.0, rel=2e-3)
        with pytest.raises(ValueError):
            d_thresholds(constant_field(1.0), 3.0, 1.0, d_lo=0.05, d_hi=20.0,
                         points=1)

    @pytest.mark.parametrize("lambda1, roots", [
        (lambda d: d * (J01 / 3.0) ** 2 - 1.0, ((3.0 / J01) ** 2,)),
        (lambda d: (d - 0.5) * (d - 5.0), (0.5, 5.0)),
    ])
    def test_refine_takes_left_sign_from_scan(self, monkeypatch, lambda1,
                                              roots):
        calls = self.fake_eigen(monkeypatch, lambda1)
        out = d_thresholds(constant_field(1.0), 3.0, 1.0, d_lo=0.05,
                           d_hi=20.0, tol=1e-3)
        scan = [float(d) for d in out.scan_d]
        assert calls[:len(scan)] == scan
        refined = calls[len(scan):]
        # each refined bracket costs its bisection probes and nothing more:
        # no scan point is solved a second time
        assert refined
        assert not set(refined) & set(scan)
        assert out.crossings == len(roots)
        assert out.d_star == pytest.approx(roots[0], rel=2e-3)
        assert out.d_upper == pytest.approx(roots[-1], rel=2e-3)
        steps = math.ceil(math.log2(math.log(scan[1] / scan[0])
                                    / math.log1p(1e-3)))
        assert len(refined) in (len(roots) * steps, len(roots) * (steps + 1))
