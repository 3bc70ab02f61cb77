"""Sharp parameter thresholds located by simulation bisection.

For a habitat seeded inside the radius threshold the verdict is monotone
in the expansion coefficient mu and in the initial amplitude sigma, so
bisection brackets the critical values mu* and sigma0.  Every probe is
a free-boundary simulation that stops once its verdict is certain; on
the constant field an upper solution certifies the vanishing probes
early.  Runs in a few seconds.
"""

import numpy as np

from stefanlab import ProblemSpec, constant_field, mu_star, sigma0
from stefanlab.coeffmodel import CoefficientField

J01 = 2.4048255576957724

spec = ProblemSpec.build(constant_field(1.0), d=1.0, mu=1.0, h0=1.5,
                         n=64, dt=5e-3)
res = mu_star(spec, 0.05, 8.0, tol=0.05, h_star_value=J01)
print("mu* = %.3f in bracket [%.3f, %.3f] after %d simulations"
      % (res.value, res.bracket[0], res.bracket[1], res.evaluations))

# beyond the radius threshold the question is vacuous: mu* = 0
wide = mu_star(spec.with_(h0=3.0), 0.05, 8.0)
print("h0 = 3.0 > h*: mu* = %g (%s)" % (wide.value, wide.evidence))

# an unfavorable core raises the bar for the initial amplitude
fld = CoefficientField.from_expressions(
    alpha="1", gamma="0.2 + 1.3*exp(-(r^2))", beta="1", T=1.0, r_max=60.0)
core = ProblemSpec.build(fld, d=1.0, mu=2.0, h0=1.5, n=64, dt=5e-3)
res = sigma0(core, core.u0, 0.05, 30.0, tol=0.1)
print("sigma0 = %.3f in bracket [%.3f, %.3f] (%d simulations)"
      % (res.value, res.bracket[0], res.bracket[1], res.evaluations))
