"""In-memory span tracer for the stefanlab package, and the per-layer
metrics computed from its spans.

The tracer wraps the public functions and methods of each stefanlab module
from the outside: the package source is not modified.  Every module
binding of a wrapped function is replaced, because some modules import
names directly (``semiwave`` imports ``solve_tridiag``, ``cli`` imports
``validate``) and patching only the defining module would miss those
calls.  Each call records a span (name, start, end, parent).  Spans stay in
memory and are written to an ``.npz`` file when the traced process ends.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "stefanlab"

# (module, qualified name, attributes taken from the return value)
WRAPPED = (
    ("cli", "load_config", None),
    ("cli", "loads_config", None),
    ("cli", "build_spec", None),
    ("cli", "run", None),
    ("cli", "Artifacts.csv", None),
    ("cli", "Artifacts.json", None),
    ("cli", "Artifacts.finalize", None),
    ("coeffexpr", "parse", None),
    ("coeffexpr", "ExprFunction.__call__", None),
    ("coeffmodel", "CoefficientField.from_expressions", None),
    ("coeffmodel", "CoefficientField.alpha2_max", None),
    ("coeffmodel", "ProblemSpec.build", None),
    ("coeffmodel", "validate", None),
    ("coeffmodel", "classify_habitat", None),
    ("radialcore", "solve_tridiag", None),
    ("radialcore", "DiffusionSolver.__init__", None),
    ("radialcore", "step_reaction_diffusion", None),
    ("radialcore", "periodic_attractor", None),
    ("eigen", "principal_eigenvalue", lambda r: {"iterations": r.iterations}),
    ("eigen", "period_map", None),
    ("eigen", "h_star", lambda r: {"value": r}),
    ("eigen", "d_thresholds", None),
    ("freeboundary", "simulate", lambda r: {"model_time": r.final.t}),
    ("freeboundary", "step_free", None),
    ("freeboundary", "classify_outcome", None),
    ("semiwave", "periodic_logistic", None),
    ("semiwave", "semiwave_profile",
     lambda r: {"periods": 0 if r is None else r.periods}),
    ("semiwave", "k0_fixed_point", lambda r: {"iterations": r.iterations}),
    ("semiwave", "envelope_speeds", None),
    ("semiwave", "measure_front_speed", None),
    ("thresholds", "mu_star",
     lambda r: {"evaluations": r.evaluations,
                "undecided": r.undecided_encounters}),
    ("thresholds", "sigma0", None),
    ("thresholds", "criteria_experiment", None),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.errors = []          # (span, exception class name)
        self.attrs = []           # (span, key, value)
        self._stack = [-1]

    def wrap(self, name, fn, attrs=None):
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, errors, recorded = self._stack, self.errors, self.attrs
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors.append((idx, type(exc).__name__))
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if attrs is not None:
                for key, value in attrs(result).items():
                    recorded.append((idx, key, float(value)))
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every entry of WRAPPED and rebind it in every module."""
        homes = {m: importlib.import_module("%s.%s" % (PACKAGE, m))
                 for m, _, _ in WRAPPED}
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, qual, attrs in WRAPPED:
            home = homes[mod_name]
            span_name = "%s.%s" % (mod_name, qual)
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(
                        self.wrap(span_name, raw.__func__, attrs)))
                else:
                    setattr(owner, attr, self.wrap(span_name, raw, attrs))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(span_name, orig, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def save(self, path):
        n = len(self.start)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32, count=n),
                 start=np.frombuffer(self.start, dtype=np.float64, count=n),
                 end=np.frombuffer(self.end, dtype=np.float64, count=n),
                 parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
                 error_span=np.array([i for i, _ in self.errors], dtype=np.int64),
                 error_name=np.array([e for _, e in self.errors], dtype=str),
                 attr_span=np.array([i for i, _, _ in self.attrs], dtype=np.int64),
                 attr_key=np.array([k for _, k, _ in self.attrs], dtype=str),
                 attr_value=np.array([v for _, _, v in self.attrs], dtype=float))


# per-layer metrics: (name, unit)
LAYER_METRICS = (
    ("coeffexpr.eval.calls", "count"),
    ("coeffexpr.eval.self_s", "s"),
    ("coeffexpr.eval.us_per_call", "us"),
    ("coeffmodel.alpha2_max.calls", "count"),
    ("coeffmodel.alpha2_max.self_s", "s"),
    ("coeffmodel.field_build_s", "s"),
    ("coeffmodel.validate_s", "s"),
    ("cli.load_config_s", "s"),
    ("cli.artifacts_s", "s"),
    ("radialcore.solve_tridiag.calls", "count"),
    ("radialcore.solve_tridiag.self_s", "s"),
    ("radialcore.solve_tridiag.us_per_call", "us"),
    ("radialcore.diffusion_solver.builds", "count"),
    ("eigen.h_star.calls", "count"),
    ("eigen.h_star_s", "s"),
    ("eigen.solves", "count"),
    ("eigen.solves_per_hstar", "ratio"),
    ("eigen.power_iterations", "count"),
    ("eigen.period_map.calls", "count"),
    ("eigen.period_map.ms_per_call", "ms"),
    ("eigen.principal_eigenvalue.self_s", "s"),
    ("freeboundary.steps", "count"),
    ("freeboundary.step_retries", "count"),
    ("freeboundary.step_free.us_per_step", "us"),
    ("freeboundary.simulate.self_s", "s"),
    ("freeboundary.model_time", "model_t"),
    ("freeboundary.classify_outcome.self_s", "s"),
    ("semiwave.k0_iterations", "count"),
    ("semiwave.profile_periods", "count"),
    ("semiwave.ms_per_profile_period", "ms"),
    ("semiwave.semiwave_profile.self_s", "s"),
    ("semiwave.periodic_logistic_s", "s"),
    ("thresholds.evaluations", "count"),
    ("thresholds.undecided", "count"),
    ("thresholds.decided_ratio", "ratio"),
    ("thresholds.simulated_time", "model_t"),
    ("thresholds.mu_star_s", "s"),
)

# counts and ratios of counts repeat exactly between runs of one config
EXACT = frozenset(name for name, unit in LAYER_METRICS
                  if unit in ("count", "ratio", "model_t"))


class Spans:
    """Spans loaded from a tracer file, with per-name aggregates."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = [str(s) for s in z["names"]]
            self.name = z["name"]
            self.parent = z["parent"]
            self.dur = z["end"] - z["start"]
            self.error_span = z["error_span"]
            self.error_name = [str(s) for s in z["error_name"]]
            self.attrs = list(zip(z["attr_span"].tolist(),
                                  [str(k) for k in z["attr_key"]],
                                  z["attr_value"].tolist()))
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.dur[has_parent],
                                 minlength=self.dur.size)
        self.self_time = self.dur - child_time
        self._id = {n: i for i, n in enumerate(self.names)}

    def mask(self, name):
        return self.name == self._id.get(name, -1)

    def calls(self, name):
        return int(np.count_nonzero(self.mask(name)))

    def total(self, name):
        return float(np.sum(self.dur[self.mask(name)]))

    def self_total(self, name):
        return float(np.sum(self.self_time[self.mask(name)]))

    def errors(self, name, exc_name):
        return sum(1 for i, e in zip(self.name[self.error_span], self.error_name)
                   if e == exc_name and self.names[i] == name)

    def attr(self, name, key, under=None):
        """Values of one return-value attribute of the spans of ``name``,
        optionally only those with an ancestor span named ``under``."""
        want = self._id.get(name, -1)
        return [v for i, k, v in self.attrs
                if k == key and self.name[i] == want
                and (under is None or self.has_ancestor(i, under))]

    def has_ancestor(self, idx, name):
        want = self._id.get(name, -1)
        p = int(self.parent[idx])
        while p >= 0:
            if self.name[p] == want:
                return True
            p = int(self.parent[p])
        return False

    def count_under(self, name, under):
        return sum(1 for i in np.flatnonzero(self.mask(name))
                   if self.has_ancestor(int(i), under))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans):
    """The LAYER_METRICS of one traced run, as name -> value."""
    s = spans
    m = {}
    ev = "coeffexpr.ExprFunction.__call__"
    m["coeffexpr.eval.calls"] = s.calls(ev)
    m["coeffexpr.eval.self_s"] = s.self_total(ev)
    m["coeffexpr.eval.us_per_call"] = _ratio(s.total(ev), s.calls(ev), 1e6)
    a2 = "coeffmodel.CoefficientField.alpha2_max"
    m["coeffmodel.alpha2_max.calls"] = s.calls(a2)
    m["coeffmodel.alpha2_max.self_s"] = s.self_total(a2)
    m["coeffmodel.field_build_s"] = s.total("coeffmodel.CoefficientField.from_expressions")
    m["coeffmodel.validate_s"] = s.total("coeffmodel.validate")
    m["cli.load_config_s"] = s.total("cli.load_config")
    m["cli.artifacts_s"] = sum(s.total("cli.Artifacts." + k)
                               for k in ("csv", "json", "finalize"))
    st = "radialcore.solve_tridiag"
    m["radialcore.solve_tridiag.calls"] = s.calls(st)
    m["radialcore.solve_tridiag.self_s"] = s.self_total(st)
    m["radialcore.solve_tridiag.us_per_call"] = _ratio(s.total(st), s.calls(st), 1e6)
    m["radialcore.diffusion_solver.builds"] = s.calls("radialcore.DiffusionSolver.__init__")
    m["eigen.h_star.calls"] = s.calls("eigen.h_star")
    m["eigen.h_star_s"] = s.total("eigen.h_star")
    m["eigen.solves"] = s.calls("eigen.principal_eigenvalue")
    m["eigen.solves_per_hstar"] = _ratio(
        s.count_under("eigen.principal_eigenvalue", "eigen.h_star"),
        m["eigen.h_star.calls"])
    m["eigen.power_iterations"] = int(sum(s.attr("eigen.principal_eigenvalue",
                                                 "iterations")))
    m["eigen.period_map.calls"] = s.calls("eigen.period_map")
    m["eigen.period_map.ms_per_call"] = _ratio(s.total("eigen.period_map"),
                                               m["eigen.period_map.calls"], 1e3)
    m["eigen.principal_eigenvalue.self_s"] = s.self_total("eigen.principal_eigenvalue")
    sf = "freeboundary.step_free"
    retries = s.errors(sf, "StepSizeTooLarge")
    m["freeboundary.steps"] = s.calls(sf) - retries
    m["freeboundary.step_retries"] = retries
    m["freeboundary.step_free.us_per_step"] = _ratio(s.total(sf), s.calls(sf), 1e6)
    m["freeboundary.simulate.self_s"] = s.self_total("freeboundary.simulate")
    m["freeboundary.model_time"] = sum(s.attr("freeboundary.simulate", "model_time"))
    m["freeboundary.classify_outcome.self_s"] = s.self_total("freeboundary.classify_outcome")
    sp = "semiwave.semiwave_profile"
    m["semiwave.k0_iterations"] = int(sum(s.attr("semiwave.k0_fixed_point",
                                                 "iterations")))
    m["semiwave.profile_periods"] = int(sum(s.attr(sp, "periods")))
    m["semiwave.ms_per_profile_period"] = _ratio(s.total(sp),
                                                 m["semiwave.profile_periods"], 1e3)
    m["semiwave.semiwave_profile.self_s"] = s.self_total(sp)
    m["semiwave.periodic_logistic_s"] = s.total("semiwave.periodic_logistic")
    ms = "thresholds.mu_star"
    evaluations = int(sum(s.attr(ms, "evaluations")))
    undecided = int(sum(s.attr(ms, "undecided")))
    m["thresholds.evaluations"] = evaluations
    m["thresholds.undecided"] = undecided
    m["thresholds.decided_ratio"] = _ratio(evaluations - undecided, evaluations)
    m["thresholds.simulated_time"] = sum(s.attr("freeboundary.simulate",
                                                "model_time", under=ms))
    m["thresholds.mu_star_s"] = s.total(ms)
    return m


def invariant_failures(spans, metrics):
    """Cross-checks that fail when a binding site of a wrapped name was
    missed; returns the failed ones."""
    bad = []
    solves = metrics["eigen.solves"]
    if metrics["eigen.period_map.calls"] != metrics["eigen.power_iterations"] + 2 * solves:
        bad.append("eigen.period_map.calls %d != power_iterations %d + 2*solves %d"
                   % (metrics["eigen.period_map.calls"],
                      metrics["eigen.power_iterations"], solves))
    probes = spans.count_under("freeboundary.simulate", "thresholds.mu_star")
    if metrics["thresholds.evaluations"] != probes:
        bad.append("thresholds.evaluations %d != simulate calls inside mu_star %d"
                   % (metrics["thresholds.evaluations"], probes))
    return bad


def count_differences(a, b):
    """Exact metrics that differ between two traced runs of one config."""
    return ["%s: %r != %r" % (k, a[k], b[k]) for k in sorted(EXACT)
            if a[k] != b[k]]
