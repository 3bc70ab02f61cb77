"""Command-line harness: configuration loading, dispatch, sweep
orchestration and artifact emission.

Configuration files are line-oriented ``key=value`` with ``[section]``
headers.  Artifacts are CSV files with "#"-prefixed metadata headers and
17-significant-digit reals, so bodies are byte-identical across runs of
the same config, plus small JSON summaries.

Exit codes: 0 success; on an error, the error class's ``exit_code``: 2
configuration, validation or expression error, 3 numerical failure, 4
internal invariant breach.
"""

import json
import logging
import math
import os
import sys
import time
import zlib
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import __version__, coeffexpr, eigen, freeboundary
from .coeffmodel import (MAX_TIME_STEPS, CoefficientField, Numerics,
                         ProblemSpec, validate)
from .errors import (ConfigError, ExpressionError, ExprError, MissingKey,
                     StefanLabError, TypeMismatch, UnknownKey)

log = logging.getLogger("stefanlab")

MAX_CONFIG_BYTES = 1 << 20

# schema: section -> key -> (type, default); default None means required
# when the section is active for the chosen command (run, field, problem
# and the command's own sections in _COMMANDS)
_SCHEMA = {
    "run": {"command": ("str", None), "out": ("str", ".")},
    "field": {"alpha": ("expr", None), "gamma": ("expr", "0"),
              "beta": ("expr", "1"), "T": ("float", 1.0)},
    "problem": {"d": ("float", None), "mu": ("float", None),
                "h0": ("float", None), "N": ("int", 2), "u0": ("expr", "")},
    "numerics": {key: (type(default).__name__, default)
                 for key, default in asdict(Numerics()).items()},
    "eigen": {"R": ("floatlist", None)},
    "hstar": {"r_lo": ("float", None), "r_hi": ("float", None),
              "tol": ("float", 1e-3)},
    "speed": {"r_far": ("float", 50.0), "tol": ("float", 1e-6)},
    "mu_star": {"mu_lo": ("float", None), "mu_hi": ("float", None),
                "tol": ("float", 0.01)},
    "sigma0": {"zeta": ("expr", ""), "sigma_lo": ("float", None),
               "sigma_hi": ("float", None), "tol": ("float", 0.01)},
    "sweep": {"axis1": ("str", None), "axis1_values": ("floatlist", None),
              "axis2": ("str", None), "axis2_values": ("floatlist", None)},
    "criteria": {"kind": ("str", None)},
}

SWEEP_AXES = ("d", "mu", "h0", "sigma")


@dataclass
class RunConfig:
    command: str
    values: dict = dc_field(default_factory=dict)   # section -> key -> value

    def get(self, section, key):
        return self.values[section][key]


def _fmt(x):
    if isinstance(x, float) or isinstance(x, np.floating):
        return "%.17g" % x
    s = str(x)
    # a text field is quoted as the csv module quotes it (importing that
    # module would add about 0.15 MB to every command's peak RSS)
    if any(c in s for c in ',"\r\n'):
        return '"%s"' % s.replace('"', '""')
    return s


# value parser and expected-type name of each typed schema kind; "str"
# and "expr" keep the raw text
_PARSERS = {
    "int": (int, "int"),
    "float": (float, "float"),
    "floatlist": (lambda raw: tuple(float(p) for p in raw.split(",")
                                    if p.strip()), "comma-separated floats"),
}


def _coerce(key, kind, raw):
    if kind == "expr" and raw:
        try:
            coeffexpr.parse(raw)
        except ExprError as exc:
            raise ExpressionError(key, exc)
    if kind not in _PARSERS:
        return raw
    parse, expected = _PARSERS[kind]
    try:
        return parse(raw)
    except ValueError:
        raise TypeMismatch(key, expected, raw)


def _parse_lines(text):
    """Raw (section, key, value) triples from config text."""
    out = []
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, line))
        if section is None:
            raise ConfigError("line %d: key before any [section]" % lineno)
        key, _, value = line.partition("=")
        out.append((section, key.strip(), value.strip()))
    return out


def loads_config(text):
    errors = []
    failed = set()
    values = {s: {k: d for k, (_, d) in keys.items()}
              for s, keys in _SCHEMA.items()}
    for section, key, raw in _parse_lines(text):
        if section not in _SCHEMA:
            errors.append(UnknownKey("%s.%s" % (section, key)))
            continue
        if key not in _SCHEMA[section]:
            errors.append(UnknownKey(key))
            continue
        kind = _SCHEMA[section][key][0]
        try:
            values[section][key] = _coerce(key, kind, raw)
        except ConfigError as exc:
            errors.append(exc)
            failed.add((section, key))

    command = values["run"]["command"]
    if command is None:
        errors.append(MissingKey("command"))
    elif command not in _COMMANDS:
        errors.append(TypeMismatch("command", "one of %s" % (tuple(_COMMANDS),),
                                   command))
    else:
        for section in ("run", "field", "problem") + _COMMANDS[command][0]:
            for key, (_, default) in _SCHEMA[section].items():
                if (default is None and values[section][key] is None
                        and (section, key) not in failed):
                    errors.append(MissingKey(key))

    if errors:
        if len(errors) == 1:
            raise errors[0]
        exc = ConfigError("%d configuration errors: %s"
                          % (len(errors), "; ".join(str(e) for e in errors)))
        exc.errors = errors
        raise exc
    return RunConfig(command=command, values=values)


def load_config(path):
    if not os.path.isfile(path):
        raise ConfigError("no such config file: %s" % path)
    if os.path.getsize(path) > MAX_CONFIG_BYTES:
        raise ConfigError("config file exceeds %d bytes" % MAX_CONFIG_BYTES)
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def dump_config(config):
    """Canonical text form; loads_config(dump_config(c)) == c."""
    lines = []
    for section in _SCHEMA:
        lines.append("[%s]" % section)
        for key, (kind, _) in _SCHEMA[section].items():
            v = config.values[section][key]
            if v is None:
                continue
            if kind == "floatlist":
                lines.append("%s=%s" % (key, ",".join(_fmt(float(x)) for x in v)))
            elif kind == "float":
                lines.append("%s=%s" % (key, _fmt(float(v))))
            else:
                lines.append("%s=%s" % (key, v))
        lines.append("")
    return "\n".join(lines)


def config_hash(config):
    """16 hex digits naming the config: CRC-32 then Adler-32 of dump_config.

    An ID for the "# config" line, not a cryptographic digest; zlib is
    loaded with the interpreter, where hashlib would load OpenSSL.
    """
    data = dump_config(config).encode("utf-8")
    return "%08x%08x" % (zlib.crc32(data), zlib.adler32(data))


def build_spec(config):
    v = config.values
    field = CoefficientField.from_expressions(
        alpha=v["field"]["alpha"], gamma=v["field"]["gamma"],
        beta=v["field"]["beta"], T=v["field"]["T"])
    p, num = v["problem"], v["numerics"]
    return ProblemSpec.build(field, N=p["N"], d=p["d"], mu=p["mu"],
                             h0=p["h0"], u0=p["u0"] or None,
                             n=num["n"], dt=num["dt"], t_max=num["t_max"],
                             sample_every=num["sample_every"])


# --- artifact emission ---

class Artifacts:
    """Collector writing ``name.partial`` files, renamed on finalize().

    Metadata lines are "#"-prefixed so plain CSV readers skip them; the
    body below them is deterministic for a fixed config.
    """

    def __init__(self, out_dir, cfg_hash):
        self.out_dir = out_dir
        self.cfg_hash = cfg_hash
        self.t0 = time.monotonic()
        self.pending = []
        os.makedirs(out_dir, exist_ok=True)

    def _meta(self):
        return ["# stefanlab %s" % __version__,
                "# config %s" % self.cfg_hash,
                "# wall %.3fs" % (time.monotonic() - self.t0)]

    def _open(self, name):
        path = os.path.join(self.out_dir, name)
        self.pending.append(path)
        return open(path + ".partial", "w", encoding="utf-8")

    def csv(self, name, header, rows):
        with self._open(name) as fh:
            for line in self._meta():
                fh.write(line + "\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")

    def json(self, name, obj):
        obj = dict(obj)
        obj["meta"] = {"version": __version__, "config": self.cfg_hash}
        with self._open(name) as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")

    def finalize(self):
        for path in self.pending:
            os.replace(path + ".partial", path)


def _threshold_csv(arts, parameter, value, lo, hi, evaluations, undecided,
                   evidence):
    arts.csv("threshold.csv",
             ("parameter", "value", "lo", "hi", "evaluations",
              "undecided_encounters", "evidence"),
             [(parameter, value, lo, hi, evaluations, undecided, evidence)])


# --- worker functions (top-level for pickling) ---

def _sweep_cell(args):
    spec, t_max, v1, v2 = args
    try:
        traj = freeboundary.simulate(spec, t_max=t_max)
        out = freeboundary.classify_outcome(traj, spec)
        return (v1, v2, out.verdict, out.t_decided)
    except StefanLabError as exc:
        log.warning("sweep cell (%g, %g) failed: %s", v1, v2, exc)
        return (v1, v2, "Error", math.nan)


def _eigen_point(args):
    d, field, R, T, N, n = args
    res = eigen.principal_eigenvalue(d, field, R, T, N=N, n=n)
    return (R, res.lambda1, res.rho, res.iterations, res.residual)


def _map(fn, work, jobs):
    """[fn(w) for w in work], in a process pool when ``jobs`` > 1."""
    if jobs and jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, work))
    return [fn(w) for w in work]


# --- command implementations ---

def _cmd_simulate(config, spec, arts, jobs, horizon):
    traj = freeboundary.simulate(spec, t_max=horizon)
    out = freeboundary.classify_outcome(traj, spec)
    arts.csv("trajectory.csv", ("t", "h", "h_prime", "u_sup"),
             zip(traj.t, traj.h, traj.h_prime, traj.u_sup))
    rows = []
    for snap in traj.snapshots:
        for r, u in zip(snap.r(), snap.u):
            rows.append((snap.t, r, u))
    arts.csv("snapshots.csv", ("t", "r", "u"), rows)
    ev = out.evidence
    arts.json("outcome.json", {
        "verdict": out.verdict, "t_decided": out.t_decided,
        "criterion": ev.criterion, "h_star": ev.h_star,
        "h_final": ev.h_final, "u_sup_final": ev.u_sup_final})


def _cmd_eigen(config, spec, arts, jobs, horizon):
    Rs = config.get("eigen", "R")
    work = [(spec.d, spec.field, R, spec.field.T, spec.N, spec.numerics.n)
            for R in Rs]
    rows = _map(_eigen_point, work, jobs)
    arts.csv("eigen_sweep.csv", ("R", "lambda1", "rho", "iterations", "residual"),
             rows)


def _cmd_hstar(config, spec, arts, jobs, horizon):
    v = config.values["hstar"]
    lo, hi, solves = eigen._h_star_bracket(
        spec.d, spec.field, spec.field.T, r_lo=v["r_lo"], r_hi=v["r_hi"],
        tol=v["tol"], N=spec.N, n=spec.numerics.n)
    _threshold_csv(arts, "h_star", 0.5 * (lo + hi), lo, hi, solves, 0, "")


def _cmd_speed(config, spec, arts, jobs, horizon):
    from . import semiwave
    v = config.values["speed"]
    r_far = v["r_far"]
    fld = spec.field
    res = semiwave.k0_fixed_point(spec.mu, lambda t: fld.growth(t, r_far),
                                  lambda t: fld.beta(t, r_far), spec.d, fld.T,
                                  tol=v["tol"])
    arts.json("speed.json", {
        "c": res.c, "bound": res.bound, "iterations": res.iterations,
        "profile_periods": res.profile_periods, "residual": res.residual,
        "r_far": r_far,
        "k0": [float(x) for x in res.k0]})


def _cmd_mu_star(config, spec, arts, jobs, horizon):
    from . import thresholds
    v = config.values["mu_star"]
    res = thresholds.mu_star(spec, v["mu_lo"], v["mu_hi"], tol=v["tol"])
    _threshold_csv(arts, "mu_star", res.value, *res.bracket, res.evaluations,
                   res.undecided_encounters, res.evidence)


def _cmd_sigma0(config, spec, arts, jobs, horizon):
    from . import thresholds
    v = config.values["sigma0"]
    zeta = coeffexpr.ExprFunction(v["zeta"]) if v["zeta"] else spec.u0
    res = thresholds.sigma0(spec, zeta, v["sigma_lo"], v["sigma_hi"],
                            tol=v["tol"])
    _threshold_csv(arts, "sigma0", res.value, *res.bracket, res.evaluations,
                   res.undecided_encounters, res.evidence)


def _cmd_sweep(config, spec, arts, jobs, horizon):
    from . import thresholds
    v = config.values["sweep"]
    a1, a2 = v["axis1"], v["axis2"]
    work = []
    for v1 in v["axis1_values"]:
        for v2 in v["axis2_values"]:
            cell = thresholds.spec_at(thresholds.spec_at(spec, a1, v1), a2, v2)
            work.append((cell, horizon, v1, v2))
    rows = _map(_sweep_cell, work, jobs)
    arts.csv("phase.csv", ("axis1", "axis2", "verdict", "t_decided"), rows)

    overlay = {"axis1": a1, "axis2": a2}
    try:
        # the h* that a base-spec cell compared against, unless that cell
        # ended beyond 2*h0 and so widened its bracket (within h*'s tol)
        overlay["h_star"] = freeboundary.spec_h_star(spec)
    except StefanLabError:
        overlay["h_star"] = None
    try:
        dth = freeboundary.spec_d_thresholds(spec)
        overlay["d_star"], overlay["d_upper"] = dth.d_star, dth.d_upper
    except StefanLabError:
        overlay["d_star"] = overlay["d_upper"] = None
    arts.json("overlay.json", overlay)


def _cmd_criteria(config, spec, arts, jobs, horizon):
    from . import thresholds
    kind = config.get("criteria", "kind")
    rep = thresholds.criteria_experiment(kind, spec)
    arts.json("outcome.json", {
        "kind": rep.kind, "h_star": rep.h_star_value, "d_star": rep.d_star,
        "d_upper": rep.d_upper, "chosen": rep.chosen,
        "verdicts": list(rep.verdicts), "prediction": rep.prediction,
        "matches": rep.matches})


# command -> (its sections besides run, field and problem, handler); every
# handler takes (config, spec, arts, jobs, horizon)
_COMMANDS = {
    "simulate": ((), _cmd_simulate),
    "eigen": (("eigen",), _cmd_eigen),
    "hstar": (("hstar",), _cmd_hstar),
    "speed": ((), _cmd_speed),
    "mu-star": (("mu_star",), _cmd_mu_star),
    "sigma0": (("sigma0",), _cmd_sigma0),
    "sweep": (("sweep",), _cmd_sweep),
    "criteria": (("criteria",), _cmd_criteria),
}


def _section_errors(config):
    """Command-section values the numerics cannot take (each exits 2)."""
    cmd, v = config.command, config.values
    bad = []
    if cmd == "eigen" and not (v["eigen"]["R"]
                               and all(R > 0 for R in v["eigen"]["R"])):
        bad.append("[eigen] R must list one or more values > 0")
    if cmd == "hstar" and not 0 < v["hstar"]["r_lo"] < v["hstar"]["r_hi"]:
        bad.append("[hstar] needs 0 < r_lo < r_hi")
    if cmd == "speed" and not v["speed"]["r_far"] > 0:
        bad.append("[speed] r_far must be > 0")
    section = cmd.replace("-", "_")
    if (section in ("hstar", "speed", "mu_star", "sigma0")
            and not 0 < v[section]["tol"] < math.inf):
        # a zero tol never ends a bisection, an infinite one ends it at once
        bad.append("[%s] tol must be finite and > 0" % section)
    if cmd == "sweep":
        sw = v["sweep"]
        for axis, values in ((sw["axis1"], sw["axis1_values"]),
                             (sw["axis2"], sw["axis2_values"])):
            if not values:
                bad.append("[sweep] axis %r lists no values" % axis)
            if axis not in SWEEP_AXES:
                bad.append("[sweep] axis %r is not one of %s"
                           % (axis, ", ".join(SWEEP_AXES)))
            elif not all(0 < x < math.inf for x in values):
                bad.append("[sweep] %s values must be finite and > 0" % axis)
    if cmd == "criteria":
        from .thresholds import CRITERIA_KINDS
        if v["criteria"]["kind"] not in CRITERIA_KINDS:
            bad.append("[criteria] kind %r is not one of %s"
                       % (v["criteria"]["kind"], ", ".join(CRITERIA_KINDS)))
    return bad


def _horizon(cmd, spec, horizon_scale):
    """The longest run the command asks for.

    --horizon-scale stretches t_max, and the threshold probes run up to
    HORIZON_CAP periods whatever t_max is.  A run slowed by the front-CFL
    bound takes more than horizon/dt steps.
    """
    if cmd in ("simulate", "sweep"):
        return horizon_scale * spec.numerics.t_max
    if cmd in ("mu-star", "sigma0", "criteria"):
        from .thresholds import HORIZON_CAP
        return HORIZON_CAP * spec.field.T
    return spec.numerics.t_max


def run(config, out_dir=None, jobs=None, horizon_scale=1.0):
    """Dispatch a loaded RunConfig; returns the process exit code.

    An error ends the run with its class's ``exit_code`` and leaves no
    finished artifact.
    """
    if out_dir is None:
        out_dir = config.get("run", "out")
    if jobs is None:
        jobs = os.cpu_count() or 1
    cmd = config.command
    try:
        if cmd not in _COMMANDS:
            # only a RunConfig built without loads_config gets here
            raise ConfigError("unknown command %r" % cmd)
        spec = build_spec(config)
        invalid = ["%s at %s: %s" % (viol.kind, viol.where, viol.detail)
                   for viol in validate(spec).violations]
        invalid += _section_errors(config)
        if cmd in ("simulate", "sweep") and not 0 < horizon_scale < math.inf:
            # a horizon <= 0 or nan never stepped, an infinite one made
            # simulate's end test nan: each wrote a verdict at t = 0
            invalid.append("--horizon-scale must be finite and > 0, got %r"
                           % horizon_scale)
        horizon = _horizon(cmd, spec, horizon_scale)
        if not invalid and horizon / spec.numerics.dt > MAX_TIME_STEPS:
            invalid.append("TooManySteps: horizon %.3g/dt must be <= %d"
                           % (horizon, MAX_TIME_STEPS))
        if invalid:
            for msg in invalid:
                log.error("validation: %s", msg)
            return 2
        arts = Artifacts(out_dir, config_hash(config))
        _COMMANDS[cmd][1](config, spec, arts, jobs, horizon)
    except StefanLabError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return exc.exit_code
    arts.finalize()
    return 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="stefanlab",
        description="Free-boundary invasion model laboratory")
    parser.add_argument("--config", required=True, help="configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker budget for sweeps")
    parser.add_argument("--horizon-scale", type=float, default=1.0,
                        help="multiply t_max of simulate and sweep (threshold "
                             "probes run to their cap of periods regardless)")
    parser.add_argument("--verbose", action="store_true",
                        help="log at DEBUG instead of WARNING")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        log.error("%s", exc)
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    return run(config, out_dir=args.out, jobs=args.jobs,
               horizon_scale=args.horizon_scale)


if __name__ == "__main__":
    sys.exit(main())
