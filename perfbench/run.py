"""stefanlab benchmark: time-to-answer of pinned experiments.

Each operation is one experiment run in a fresh single-threaded Python
process (``child.py``) against the package under ``src/``.  Untraced runs
give the end-to-end metrics; ``--trace 1`` adds two traced runs that give
the per-layer metrics and the tracing overhead.

    python3 perfbench/run.py --workload simulate-seasonal --seed 0 \
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
Run records (environment, config, answers, timings) are written under
``.perfbench_runs/`` in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import tracer  # noqa: E402  (after pinning BLAS threads for numpy)
from workloads import WORKLOADS, check_answers, make_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
CHILD_TIMEOUT_S = 150
MIN_UNTRACED = 2           # two runs of one config for the determinism check

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = tracer.LAYER_METRICS + (("trace.overhead_s", "s"),)

ARTIFACTS = {"simulate-seasonal": ("trajectory.csv", "snapshots.csv", "outcome.json"),
             "mu-star": ("threshold.csv",),
             "front-speed": ("answers.json",)}


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONHASHSEED"] = "0"     # same string hashing in every process
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "threads": PINNED_ENV,
            "jobs": 1, "platform": platform.platform()}


def run_child(workload, config, out, spans=None):
    """Run one experiment; returns its timings and exit code."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--config", str(config), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = child_env()
    with open(out / "stderr.txt", "wb") as log:
        t0 = time.monotonic()
        env["PERFBENCH_T0"] = repr(t0)
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def read_answers(workload, out):
    if workload == "simulate-seasonal":
        with open(out / "outcome.json") as fh:
            o = json.load(fh)
        return {k: o[k] for k in ("verdict", "h_star", "h_final", "t_decided")}
    if workload == "mu-star":
        rows = [line for line in (out / "threshold.csv").read_text().splitlines()
                if not line.startswith("#")]
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        return {"value": float(row["value"]), "lo": float(row["lo"]),
                "hi": float(row["hi"]), "evaluations": int(row["evaluations"]),
                "undecided": int(row["undecided_encounters"])}
    with open(out / "answers.json") as fh:
        return json.load(fh)


def body_digest(workload, out):
    """Digest of the artifact bodies: every line not starting with '#'."""
    h = hashlib.sha256()
    for name in ARTIFACTS[workload]:
        h.update(name.encode())
        for line in (out / name).read_text().splitlines(keepends=True):
            if not line.startswith("#"):
                h.update(line.encode())
    return h.hexdigest()


def one_run(workload, seed, params, config, out, spans=None):
    rec = run_child(workload, config, out, spans)
    rec["problems"] = []
    if rec["exit"] != 0:
        rec["problems"].append("exit code %d (see %s)"
                               % (rec["exit"], out / "stderr.txt"))
        return rec
    try:
        with open(out / "child.json") as fh:
            rec["setup_s"] = json.load(fh)["setup_s"]
        rec["answers"] = read_answers(workload, out)
        rec["digest"] = body_digest(workload, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec["problems"].append("unreadable output: %r" % exc)
        return rec
    if spans is not None:
        spans_data = tracer.Spans(spans)
        rec["layers"] = tracer.layer_metrics(spans_data)
        rec["problems"] += tracer.invariant_failures(spans_data, rec["layers"])
        if workload == "mu-star":
            inner = spans_data.attr("eigen.h_star", "value",
                                    under="thresholds.mu_star")
            rec["answers"]["h_star"] = inner[0] if inner else float("nan")
    rec["problems"] += check_answers(workload, seed, params, rec["answers"])
    return rec


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def warm_up():
    """Compile bytecode and warm the file cache outside the timed runs."""
    subprocess.run([sys.executable, "-c", "import stefanlab.cli"],
                   env=child_env(), cwd=ROOT, check=True)


def run_workload(workload, seed, seconds, trace):
    text, params = make_workload(workload, seed)
    base = RUNS / ("%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    config = base / "config.cfg"
    config.write_text(text)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(), "config": text}
    warm_up()

    start = time.monotonic()
    traced = []
    if trace:
        for k in range(2):
            traced.append(one_run(workload, seed, params, config,
                                  base / ("traced%d" % k),
                                  spans=base / ("spans%d.npz" % k)))
        if all("layers" in r for r in traced):
            traced[1]["problems"] += tracer.count_differences(
                traced[0]["layers"], traced[1]["layers"])
    untraced = []
    need = 1 if trace else MIN_UNTRACED
    while len(untraced) < need or time.monotonic() - start < seconds:
        untraced.append(one_run(workload, seed, params, config,
                                base / ("run%d" % len(untraced))))

    runs = traced + untraced
    first = runs[0].get("digest")
    for r in runs[1:]:
        if "digest" in r and r["digest"] != first:
            r["problems"].append("artifact bodies differ from the first run")
    failed = sum(1 for r in runs if r["problems"])

    summary = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in untraced if name in r] or [float("nan")]
        q1, q3 = quartiles(values)
        summary[name] = {"value": statistics.median(values), "unit": unit,
                         "q1": q1, "q3": q3, "n": len(values)}
    record.update(runs=runs, summary=summary, attempted=len(runs),
                  failed=failed, fail_ratio=failed / len(runs))

    if trace:
        layers = dict(traced[0].get("layers", {}))
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - summary["wall_s"]["value"])
        record["layers"] = layers
        metrics = {name: {"value": layers.get(name, float("nan")), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": summary[name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    with open(base / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    report(record, trace)
    return record, metrics


def report(record, trace):
    env = record["environment"]
    print("== %s seed %d: %d runs, %d failed (fail_ratio %.3f); python %s "
          "numpy %s scipy %s, nproc %d, load %.2f"
          % (record["workload"], record["seed"], record["attempted"],
             record["failed"], record["fail_ratio"], env["python"],
             env["numpy"], env["scipy"], env["nproc"], env["loadavg"][0]))
    for name, s in record["summary"].items():
        print("  %-13s %12.4f %-3s (q1 %.4f, q3 %.4f, n=%d)"
              % (name, s["value"], s["unit"], s["q1"], s["q3"], s["n"]))
    print("  %-13s %12.4f" % ("fail_ratio", record["fail_ratio"]))
    last = record["runs"][-1]
    print("  answers: %s" % json.dumps(last.get("answers", {}), sort_keys=True))
    if trace:
        for name, unit in PER_LAYER:
            print("  %-40s %14.6g %s" % (name, record["layers"].get(name, float("nan")), unit))
    for i, r in enumerate(record["runs"]):
        for p in r["problems"]:
            print("  FAILED run %d: %s" % (i, p))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stefanlab" / "__init__.py").is_file():
        print("perfbench: no stefanlab package under %s" % SRC, file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {"%s.%s" % (w, k): v for w, (_, m) in zip(names, results)
                   for k, v in m.items()}
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
