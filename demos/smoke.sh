#!/usr/bin/env bash
# Smoke run of every demo and of the CLI on the demo configs.
#
# The demos are the library's only callers outside the tests and the
# benchmark; python -m stefanlab is the stefanlab console script.  Run
# from the repository root:  bash demos/smoke.sh
set -euo pipefail
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# a RuntimeWarning fails the run, as it fails a test (pyproject.toml)
export PYTHONWARNINGS=error::RuntimeWarning
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

for demo in demos/*.py; do
  echo "== $demo"
  python "$demo"
done
# the sweep once serially and once through the process pool, which
# pickles the coefficient expressions: the artifact bodies (every line
# not starting with '#') must agree
python -m stefanlab --config demos/phase_sweep.cfg \
  --out "$scratch/serial" --jobs 1 --horizon-scale 0.2
python -m stefanlab --config demos/phase_sweep.cfg \
  --out "$scratch/pooled" --jobs 2 --horizon-scale 0.2
for f in phase.csv overlay.json; do
  diff <(grep -v '^#' "$scratch/serial/$f") <(grep -v '^#' "$scratch/pooled/$f")
done
# each cell stops at its decision (the threshold probes' stop test), so
# every cell of the demo sweep is decided: no Undecided and no Error row
if grep -v '^#' "$scratch/serial/phase.csv" | grep -E ',(Undecided|Error),'; then
  echo "phase_sweep.cfg: a cell is Undecided or Error at --horizon-scale 0.2" >&2
  exit 1
fi
# the overlay's h* on the constant field (growth 1, d=1): J01 within tol/2
grep -v '^#' "$scratch/serial/overlay.json" | python -c '
import json, sys
got = json.load(sys.stdin)["h_star"]
if not abs(got - 2.4048256) <= 5e-4:
    sys.exit("phase_sweep.cfg: overlay h* %r, expected J01 = 2.4048256 within 5e-4" % got)
'
python -m stefanlab --config demos/speed.cfg --out "$scratch/speed"
# the semi-wave speed of the seasonal far field (the LDL^T-factored step,
# which needs LAPACK dpttrf and dpttrs, and the swept logistic orbit V):
# c within 1e-12, in 10 iterations
grep -v '^#' "$scratch/speed/speed.json" | python -c '
import json, sys
got = json.load(sys.stdin)
if not (abs(got["c"] - 0.8192804417642802) <= 1e-12 and got["iterations"] == 10):
    sys.exit("speed.cfg: c %r in %r iterations, expected 0.8192804417642802 "
             "within 1e-12 in 10" % (got["c"], got["iterations"]))
'
python -m stefanlab --config demos/hstar.cfg --out "$scratch/hstar"
# h* of the seasonal field: the fine-grid reference 2.5536193 within tol/2
grep -v '^#' "$scratch/hstar/threshold.csv" | python -c '
import csv, sys
row, = csv.DictReader(sys.stdin)
if not abs(float(row["value"]) - 2.5536193) <= 5e-4:
    sys.exit("hstar.cfg: h* %r, expected 2.5536193 within 5e-4" % row["value"])
'
# the mu-star benchmark config (seed 0): mu* = 1.75 in [1.3, 2.2] after
# 4 probe simulations, none Undecided
python -m stefanlab --config demos/mu_star.cfg --out "$scratch/mu_star"
grep -v '^#' "$scratch/mu_star/threshold.csv" | python -c '
import csv, math, sys
row, = csv.DictReader(sys.stdin)
got = [float(row[k]) for k in ("value", "lo", "hi")]
counts = (row["evaluations"], row["undecided_encounters"])
if not (all(math.isclose(g, w, abs_tol=1e-12) for g, w in zip(got, (1.75, 1.3, 2.2)))
        and counts == ("4", "0")):
    sys.exit("mu_star.cfg: mu* %r in [%r, %r] after %s probes (%s Undecided), "
             "expected 1.75 in [1.3, 2.2] after 4 (0)" % (*got, *counts))
'
# sigma0 on a field whose growth depends on r (the decay test alone, no
# upper-solution certificate): 9 probe simulations, one per probe
python -m stefanlab --config demos/sigma0.cfg --out "$scratch/sigma0"
grep -v '^#' "$scratch/sigma0/threshold.csv" | python -c '
import csv, math, sys
row, = csv.DictReader(sys.stdin)
got = [float(row[k]) for k in ("value", "lo", "hi")]
want = (3.4427734375000005, 3.3257812500000004, 3.5597656250000003)
if not (all(math.isclose(g, w, abs_tol=1e-12) for g, w in zip(got, want))
        and row["evaluations"] == "9"):
    sys.exit("sigma0.cfg: sigma0 %r in [%r, %r] after %s probes, expected "
             "%r in [%r, %r] after 9" % (*got, row["evaluations"], *want))
'
# sigma0 where a bisection probe (sigma=2.8484375) stays Undecided up to
# 400 periods: the search returns the bracket it had verified, exit 0, and
# the evidence column names that probe
python -m stefanlab --config demos/sigma0_critical.cfg --out "$scratch/sigma0_critical"
grep -v '^#' "$scratch/sigma0_critical/threshold.csv" | python -c '
import csv, math, sys
row, = csv.DictReader(sys.stdin)
got = [float(row[k]) for k in ("lo", "hi")]
if not (all(math.isclose(g, w, abs_tol=1e-12) for g, w in zip(got, (2.5375, 3.159375)))
        and row["undecided_encounters"] == "1"
        and "sigma=2.8484375" in row["evidence"]):
    sys.exit("sigma0_critical.cfg: bracket [%r, %r] with %s Undecided (%r), "
             "expected [2.5375, 3.159375] with 1, the probe sigma=2.8484375 "
             "named in the evidence"
             % (*got, row["undecided_encounters"], row["evidence"]))
'
# an eigen solve at R=0.001 asks for about 4.6e7 coarse substeps per
# period: it must end at once with exit 3 (StepSizeTooLarge, over
# MAX_SUBSTEPS) and write no artifact
cat > "$scratch/eigen_tiny.cfg" <<'CFG'
[run]
command=eigen
[field]
alpha=1+0.5*sin(2*pi*t)
gamma=0
beta=1
[problem]
d=1
mu=1
h0=3
[numerics]
n=64
[eigen]
R=0.001
CFG
rc=0
timeout 60 python -m stefanlab --config "$scratch/eigen_tiny.cfg" \
  --out "$scratch/eigen_tiny" 2>/dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "eigen R=0.001: exit $rc, expected 3 (MAX_SUBSTEPS)" >&2
  exit 1
fi
# two runs over the work caps that once did not end: mu_star.cfg sampled
# every 1e-6 (each probe runs 400 periods cut at every sample, 4e8
# steps) and a simulate with period 1e-7 (5e7 period-end steps, a state
# kept at each).  Each must end at once with exit 2 (TooManySamples) and
# write no artifact
{ cat demos/mu_star.cfg; printf '[numerics]\nt_max=0.05\nsample_every=1e-6\n'; } \
  > "$scratch/mu_star_samples.cfg"
cat > "$scratch/period_tiny.cfg" <<'CFG'
[run]
command=simulate
[field]
alpha=1
gamma=0
beta=1
T=1e-7
[problem]
d=1
mu=1
h0=3
[numerics]
n=64
t_max=5
CFG
for cfg in mu_star_samples period_tiny; do
  rc=0
  timeout 60 python -m stefanlab --config "$scratch/$cfg.cfg" \
    --out "$scratch/$cfg" 2>/dev/null || rc=$?
  if [ "$rc" -ne 2 ] || [ -e "$scratch/$cfg" ]; then
    echo "$cfg.cfg: exit $rc, expected 2 (TooManySamples) and no artifact" >&2
    exit 1
  fi
done
