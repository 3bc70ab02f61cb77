"""Reference ledger for h*: fine-grid answers that today's solver must meet.

Each reference was computed once, outside the test suite, with
eigen._h_star_bracket over [0.1, 16] (d = 1, T = 1) at n = 1024, a
substep floor of 1024 coarse and 2048 fine substeps, h* tol 1e-6 and
power-iteration tol 1e-10; the value is the midpoint of the final
bracket, rounded to 7 decimals.  Closed forms replace it where they
exist.  The lambda1 grid error at n = 1024 is about -0.45/n**2 = -4e-7,
which moves h* by under 1e-6.

A change that moves an answer states its new error against these
references.  Errors of spec_h_star at EIGEN_N = 64, tol 1e-3:
seasonal +6.1e-5, seasonal N=3 -1.16e-4, mu-star field -2.49e-4,
gamma hump +8.3e-5, narrow hump +1.55e-4.
"""

import math

import pytest

from stefanlab import freeboundary
from stefanlab.coeffmodel import CoefficientField, ProblemSpec

J01 = 2.4048255576957724
SEASONAL = dict(alpha="1.2+0.5*sin(2*pi*t)", gamma="0.2+0.3*exp(-(r^2))",
                beta="1", T=1.0)

LEDGER = {
    # the benchmark's simulate-seasonal field (seed 0)
    "seasonal": (SEASONAL, 2, 2.5536193),
    "seasonal, N=3": (SEASONAL, 3, 3.2222578),
    # the mu-star benchmark field, growth 0.5: the closed form J01*sqrt(d/0.5)
    "mu-star field": (dict(alpha="1", gamma="0.5", beta="1", T=1.0), 2,
                      J01 * math.sqrt(2.0)),
    # negative growth near the origin, the core field of the thresholds tests
    "gamma hump": (dict(alpha="1", gamma="0.2+1.3*exp(-(r^2))", beta="1",
                        T=1.0, r_max=60.0), 2, 3.3633856),
    "narrow hump": (dict(alpha="1", gamma="0.2+1.3*exp(-(16*r^2))", beta="1",
                         T=1.0), 2, 2.7530361),
}
HSTAR_TOL = 1e-3          # the h* tol of every spec_h_star caller


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_spec_h_star_within_half_its_tol(name):
    field, N, reference = LEDGER[name]
    # h0 = 2 puts the caller bracket at [0.1, 16], as for the references
    spec = ProblemSpec.build(CoefficientField.from_expressions(**field), N=N,
                             d=1.0, mu=1.0, h0=2.0)
    assert abs(freeboundary.spec_h_star(spec) - reference) <= 0.5 * HSTAR_TOL
