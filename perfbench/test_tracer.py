"""Self-tests of the benchmark: tracer bindings, trace invariants, the
seeded generator and the metric lists in BENCHMARK.json.

    python3 -m pytest perfbench/test_tracer.py

The invariant tests run traced experiments and take about a minute.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_workload  # noqa: E402


def test_every_binding_is_wrapped():
    # in a subprocess: installing the tracer patches the package in place
    code = (
        "import tracer\n"
        "from stefanlab import cli, coeffmodel, eigen, radialcore, semiwave\n"
        "import stefanlab\n"
        "tracer.Tracer().install()\n"
        "for fn in (semiwave.solve_tridiag, radialcore.solve_tridiag,\n"
        "           cli.validate, coeffmodel.validate, stefanlab.validate,\n"
        "           stefanlab.h_star, eigen.period_map,\n"
        "           coeffmodel.CoefficientField.from_expressions):\n"
        "    assert hasattr(fn, '__wrapped__'), fn\n")
    env = run.child_env()
    env["PYTHONPATH"] = "%s:%s" % (HERE, env["PYTHONPATH"])
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_spans_self_time_and_errors(tmp_path):
    t = tracer.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        time.sleep(0.01)

    leaf = t.wrap("m.leaf", leaf)

    def outer():
        leaf(1)
        with pytest.raises(ValueError):
            leaf(-1)

    t.wrap("m.outer", outer)()
    t.save(tmp_path / "s.npz")
    s = tracer.Spans(tmp_path / "s.npz")
    assert s.calls("m.leaf") == 2 and s.calls("m.outer") == 1
    assert s.errors("m.leaf", "ValueError") == 1
    assert s.count_under("m.leaf", "m.outer") == 2
    assert s.self_total("m.outer") == pytest.approx(
        s.total("m.outer") - s.total("m.leaf"))
    assert s.self_total("m.outer") < 0.01 <= s.total("m.leaf")


@pytest.mark.parametrize("workload", ["simulate-seasonal", "mu-star"])
def test_trace_invariants(workload, tmp_path):
    text, params = make_workload(workload, DEFAULT_SEED)
    config = tmp_path / "config.cfg"
    config.write_text(text)
    recs = [run.one_run(workload, DEFAULT_SEED, params, config,
                        tmp_path / ("run%d" % k), spans=tmp_path / ("s%d.npz" % k))
            for k in range(2)]
    for k, rec in enumerate(recs):
        assert rec["problems"] == []
        m = rec["layers"]
        assert m["eigen.period_map.calls"] == (m["eigen.power_iterations"]
                                               + 2 * m["eigen.solves"])
        spans = tracer.Spans(tmp_path / ("s%d.npz" % k))
        assert m["thresholds.evaluations"] == spans.count_under(
            "freeboundary.simulate", "thresholds.mu_star")
    assert tracer.count_differences(recs[0]["layers"], recs[1]["layers"]) == []
    if workload == "mu-star":
        assert recs[0]["layers"]["thresholds.evaluations"] > 0


def test_generator_is_seeded():
    for w in WORKLOADS:
        assert make_workload(w, 7) == make_workload(w, 7)
        assert make_workload(w, 7)[0] != make_workload(w, 8)[0]
    assert "alpha=1.2+0.5*sin(2*pi*t)" in make_workload("simulate-seasonal", 0)[0]


def _bisection_probes(lo, hi, tol):
    # the probe sequence of thresholds._bisect when the verdict flips at mu*
    probes = [lo, hi]
    mu_star = 1.8
    while hi - lo > tol * (1.0 + 0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        probes.append(mid)
        if mid > mu_star:
            hi = mid
        else:
            lo = mid
    return probes


def test_mu_star_probes_avoid_the_critical_band():
    # measured at dt=0.02, h0 in [1.98, 2.02]: mu >= 2.0 spreads within the
    # first horizon, mu in [1.2, 1.5] vanishes after one escalation, and
    # probes nearer mu* (~1.8) can stay Undecided up to the cap
    for seed in range(300):
        text, params = make_workload("mu-star", seed)
        cfg = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        probes = _bisection_probes(float(cfg["mu_lo"]), float(cfg["mu_hi"]),
                                   params["tol"])
        assert len(probes) == 4, (seed, probes)
        assert probes[2] >= 2.0 and 1.2 <= probes[3] <= 1.5, (seed, probes)


def test_benchmark_json_lists_the_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
