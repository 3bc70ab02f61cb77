"""Numerical laboratory for a free-boundary invasion model in a
time-periodic environment: radial logistic reaction-diffusion with a
Stefan moving front, principal periodic eigenvalues, sharp spreading
thresholds, and semi-wave front speeds.

The public names are imported from their modules on first access, so a
command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coeffmodel": ("CoefficientField", "Numerics", "ProblemSpec",
                   "classify_habitat", "constant_field", "validate"),
    "eigen": ("EigenResult", "d_thresholds", "h_star", "principal_eigenvalue"),
    "freeboundary": ("Outcome", "Trajectory", "classify_outcome", "simulate"),
    "semiwave": ("envelope_speeds", "k0_fixed_point", "measure_front_speed",
                 "periodic_logistic", "semiwave_profile"),
    "thresholds": ("ThresholdResult", "criteria_experiment", "mu_star",
                   "sigma0"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# modules that importing the package loaded before its names were lazy
_SUBMODULES = ("coeffexpr", "coeffmodel", "eigen", "errors", "freeboundary",
               "radialcore", "semiwave", "thresholds")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value

