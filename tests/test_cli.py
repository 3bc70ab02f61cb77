import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from stefanlab import cli, eigen, freeboundary, semiwave
from stefanlab.errors import (ConfigError, EvalDomainError, ExpressionError,
                              MissingKey, NoSignChange, NumericalError,
                              TypeMismatch, UnknownIdentifier, UnknownKey)

MINIMAL = """
[run]
command=simulate
[field]
alpha=1
gamma=0
beta=1
[problem]
d=1
mu=1
h0=3
[numerics]
n=64
t_max=5
"""


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def subclasses(cls):
    """Every subclass of ``cls``, recursively."""
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + subclasses(sub)
    return out


def forced(error):
    """An ``error`` instance with message "forced", whatever the arguments
    of its constructor."""
    exc = error.__new__(error)
    Exception.__init__(exc, "forced")
    return exc


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_body(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


class TestLoadConfig:
    def test_minimal_valid(self):
        cfg = cli.loads_config(MINIMAL)
        assert cfg.command == "simulate"
        assert cfg.get("problem", "mu") == 1.0
        assert cfg.get("field", "alpha") == "1"

    def test_missing_mu(self):
        text = MINIMAL.replace("mu=1\n", "")
        with pytest.raises(MissingKey) as exc:
            cli.loads_config(text)
        assert exc.value.key == "mu"

    def test_expression_error_offset(self):
        text = MINIMAL.replace("alpha=1", "alpha=sin(t")
        with pytest.raises(ExpressionError) as exc:
            cli.loads_config(text)
        assert exc.value.key == "alpha"
        assert exc.value.offset == 5

    def test_unknown_identifier_exit(self, tmp_path):
        # an expression may name only t, r, pi, e and the functions
        text = MINIMAL.replace("alpha=1", "alpha=1+a*t")
        with pytest.raises(ExpressionError) as exc:
            cli.loads_config(text)
        assert exc.value.key == "alpha"
        assert exc.value.offset == 2
        assert isinstance(exc.value.cause, UnknownIdentifier)
        out = str(tmp_path / "out")
        assert cli.main(["--config", write(tmp_path, text), "--out", out]) == 2
        assert not os.path.exists(out)

    def test_type_mismatch(self):
        text = MINIMAL.replace("d=1", "d=abc")
        with pytest.raises(TypeMismatch):
            cli.loads_config(text)

    def test_unknown_key(self):
        with pytest.raises(UnknownKey):
            cli.loads_config(MINIMAL + "\nbogus=1\n")

    def test_unknown_section(self):
        with pytest.raises(UnknownKey):
            cli.loads_config(MINIMAL + "\n[bogus]\nx=1\n")

    def test_unknown_command(self):
        with pytest.raises(TypeMismatch):
            cli.loads_config(MINIMAL.replace("command=simulate",
                                             "command=frobnicate"))

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            cli.loads_config(MINIMAL + "\nnot a key value line\n")

    def test_multiple_errors_collected(self):
        text = MINIMAL.replace("d=1", "d=abc").replace("mu=1\n", "")
        with pytest.raises(ConfigError) as exc:
            cli.loads_config(text)
        assert len(exc.value.errors) == 2

    def test_size_cap(self, tmp_path):
        path = write(tmp_path, "#" + "x" * (1 << 20))
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_round_trip(self):
        cfg = cli.loads_config(MINIMAL)
        assert cli.loads_config(cli.dump_config(cfg)) == cfg

    def test_round_trip_with_lists(self):
        text = MINIMAL.replace("command=simulate", "command=eigen")
        text += "\n[eigen]\nR=1,1.5,2.25\n"
        cfg = cli.loads_config(text)
        assert cli.loads_config(cli.dump_config(cfg)) == cfg
        assert cfg.get("eigen", "R") == (1.0, 1.5, 2.25)


class TestRun:
    def test_simulate_artifacts(self, tmp_path):
        cfg = cli.loads_config(MINIMAL)
        out = str(tmp_path / "out")
        assert cli.run(cfg, out_dir=out) == 0
        for name in ("trajectory.csv", "snapshots.csv", "outcome.json"):
            assert os.path.exists(os.path.join(out, name))
            assert not os.path.exists(os.path.join(out, name + ".partial"))
        body = read_body(os.path.join(out, "trajectory.csv"))
        assert body[0].strip() == "t,h,h_prime,u_sup"
        with open(os.path.join(out, "outcome.json")) as fh:
            outcome = json.load(fh)
        assert outcome["verdict"] in ("Spreading", "Vanishing", "Undecided")

    def test_determinism(self, tmp_path):
        cfg = cli.loads_config(MINIMAL)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.run(cfg, out_dir=a) == 0
        assert cli.run(cfg, out_dir=b) == 0
        for name in ("trajectory.csv", "snapshots.csv"):
            assert read_body(os.path.join(a, name)) == read_body(
                os.path.join(b, name))

    def test_validation_exit_code(self, tmp_path):
        cfg = cli.loads_config(MINIMAL + "\n[problem]\nu0=1\n")
        assert cli.run(cfg, out_dir=str(tmp_path / "bad")) == 2

    def test_eigen_sweep_decreasing(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=eigen")
        text += "\n[eigen]\nR=1,1.5,2,3\n[numerics]\nn=128\n"
        cfg = cli.loads_config(text)
        out = str(tmp_path / "eig")
        assert cli.run(cfg, out_dir=out, jobs=1) == 0
        body = read_body(os.path.join(out, "eigen_sweep.csv"))
        lams = [float(line.split(",")[1]) for line in body[1:]]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_sweep_1x1_matches_simulate(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=sweep")
        text += "\n[sweep]\naxis1=mu\naxis1_values=1\naxis2=h0\naxis2_values=3\n"
        cfg = cli.loads_config(text)
        out = str(tmp_path / "sw")
        assert cli.run(cfg, out_dir=out, jobs=1) == 0
        body = read_body(os.path.join(out, "phase.csv"))
        assert body[0].strip() == "axis1,axis2,verdict,t_decided"
        cells = body[1].strip().split(",")
        sim_cfg = cli.loads_config(MINIMAL)
        sim_out = str(tmp_path / "sim")
        assert cli.run(sim_cfg, out_dir=sim_out) == 0
        with open(os.path.join(sim_out, "outcome.json")) as fh:
            verdict = json.load(fh)["verdict"]
        assert cells[2] == verdict
        assert os.path.exists(os.path.join(out, "overlay.json"))

    def test_sweep_overlay_hstar_is_the_cells(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=sweep")
        text += "\n[sweep]\naxis1=mu\naxis1_values=1,2\naxis2=h0\naxis2_values=3\n"
        cfg = cli.loads_config(text)
        out = str(tmp_path / "sw")
        assert cli.run(cfg, out_dir=out, jobs=1) == 0
        with open(os.path.join(out, "overlay.json")) as fh:
            overlay = json.load(fh)
        # the (mu=1, h0=3) cell is the base spec
        spec = cli.build_spec(cfg)
        traj = freeboundary.simulate(spec, t_max=spec.numerics.t_max)
        cell_hstar = freeboundary.classify_outcome(traj, spec).evidence.h_star
        assert abs(overlay["h_star"] - cell_hstar) <= 1e-3

    def test_sweep_overlay_hstar_without_envelopes(self, tmp_path):
        # N = 5 has no envelope radii, so h* depends on the caller's
        # bracket: the overlay and the cells must search the same one
        text = MINIMAL.replace("command=simulate", "command=sweep")
        text = text.replace("h0=3\n", "h0=3\nN=5\n")
        text += "\n[sweep]\naxis1=mu\naxis1_values=1\naxis2=h0\naxis2_values=3\n"
        cfg = cli.loads_config(text)
        out = str(tmp_path / "sw")
        assert cli.run(cfg, out_dir=out, jobs=1) == 0
        with open(os.path.join(out, "overlay.json")) as fh:
            overlay = json.load(fh)
        spec = cli.build_spec(cfg)
        assert spec.N == 5 and eigen._envelope_radii(spec.d, spec.field, 5) is None
        traj = freeboundary.simulate(spec, t_max=spec.numerics.t_max)
        cell_hstar = freeboundary.classify_outcome(traj, spec).evidence.h_star
        assert overlay["h_star"] == cell_hstar

    def test_sweep_bad_axis(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=sweep")
        text += "\n[sweep]\naxis1=bogus\naxis1_values=1\naxis2=h0\naxis2_values=3\n"
        cfg = cli.loads_config(text)
        assert cli.run(cfg, out_dir=str(tmp_path / "sw")) == 2

    def test_hstar_command(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=hstar")
        text += "\n[hstar]\nr_lo=1\nr_hi=4\ntol=0.001\n[numerics]\nn=128\n"
        cfg = cli.loads_config(text)
        out = str(tmp_path / "hs")
        assert cli.run(cfg, out_dir=out) == 0
        body = read_body(os.path.join(out, "threshold.csv"))
        row = body[1].strip().split(",")
        assert row[0] == "h_star"
        assert float(row[1]) == pytest.approx(2.4048, abs=2e-3)

    def test_hstar_writes_final_bracket(self, tmp_path, monkeypatch):
        solves = []
        real = eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            solves.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen, "principal_eigenvalue", counted)
        text = MINIMAL.replace("command=simulate", "command=hstar")
        text += "\n[hstar]\nr_lo=1\nr_hi=4\ntol=0.01\n"
        out = str(tmp_path / "hs")
        assert cli.run(cli.loads_config(text), out_dir=out) == 0
        body = read_body(os.path.join(out, "threshold.csv"))
        assert body[0].strip() == ("parameter,value,lo,hi,evaluations,"
                                   "undecided_encounters")
        row = body[1].strip().split(",")
        assert row[0] == "h_star"
        value, lo, hi = (float(x) for x in row[1:4])
        assert 0.0 < hi - lo <= 0.01
        assert value == 0.5 * (lo + hi)
        assert value == pytest.approx(2.4048, abs=0.01)
        assert int(row[4]) == len(solves) > 0
        assert int(row[5]) == 0

    def test_speed_reports_drift_values(self, tmp_path):
        # a constant alpha once crashed the period means; k0 must hold
        # the drift per phase (its mean is c), not the phase times
        text = MINIMAL.replace("command=simulate", "command=speed")
        text += "\n[speed]\ntol=1e-4\n"
        out = str(tmp_path / "speed")
        assert cli.run(cli.loads_config(text), out_dir=out) == 0
        with open(os.path.join(out, "speed.json")) as fh:
            speed = json.load(fh)
        k0 = np.array(speed["k0"])
        assert k0.size == 64
        assert np.all(k0 > 0.0)
        assert float(np.mean(k0)) == pytest.approx(speed["c"], rel=1e-12)

    def test_speed_reports_profile_periods(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=speed")
        text += "\n[speed]\ntol=1e-4\n"
        out = str(tmp_path / "speed")
        assert cli.run(cli.loads_config(text), out_dir=out) == 0
        with open(os.path.join(out, "speed.json")) as fh:
            speed = json.load(fh)
        # every drift iterate solves one profile of at least one period
        assert speed["profile_periods"] >= speed["iterations"] > 0

    def test_speed_nonpositive_mean_growth_exit(self, tmp_path):
        # alpha - gamma has mean -0.3 in the far field: no semi-wave
        text = MINIMAL.replace("command=simulate", "command=speed")
        text = text.replace("gamma=0", "gamma=0.5").replace("alpha=1", "alpha=0.2")
        path = write(tmp_path, text)
        out = str(tmp_path / "speed")
        assert cli.main(["--config", path, "--out", out]) == 3
        assert not os.path.exists(os.path.join(out, "speed.json"))


class TestMain:
    def test_config_error_exit(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace("mu=1\n", ""))
        assert cli.main(["--config", path]) == 2

    def test_infinite_period_prints_only_the_error(self, tmp_path):
        # in a fresh interpreter, so stderr holds every warning and log line
        text = MINIMAL.replace("alpha=1", "alpha=1+0.5*sin(2*pi*t)")
        path = write(tmp_path, text.replace("beta=1", "beta=1\nT=inf"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "stefanlab", "--config", path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and "T must be finite and > 0, got inf" in err[0]

    def test_missing_file(self):
        assert cli.main(["--config", "/nonexistent/x.cfg"]) == 2

    def test_full_run(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = str(tmp_path / "out")
        assert cli.main(["--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "outcome.json"))

    @staticmethod
    def forced_exit(tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise forced(error)

        monkeypatch.setattr(cli.freeboundary, "simulate", fail)
        path = write(tmp_path, MINIMAL)
        out = str(tmp_path / "out")
        code = cli.main(["--config", path, "--out", out])
        assert not os.path.exists(os.path.join(out, "outcome.json"))
        return code

    def test_numerical_classes(self):
        assert {e.__name__ for e in subclasses(NumericalError)} == {
            "NoConvergence", "TooManyUndecided", "NoSignChange",
            "BracketInvalid", "DomainNotLargeEnough", "TruncationTooSmall",
            "BoundViolated", "StepSizeTooLarge",
            "SolverSingular", "FrontRetreat", "NonPositiveIterate",
            "NonPositive", "HypothesisHFailed"}

    @pytest.mark.parametrize("error", subclasses(NumericalError))
    def test_numerical_failure_exit(self, tmp_path, monkeypatch, error):
        assert self.forced_exit(tmp_path, monkeypatch, error) == 3

    @pytest.mark.parametrize("error", [ConfigError, EvalDomainError])
    def test_input_error_exit(self, tmp_path, monkeypatch, error):
        assert self.forced_exit(tmp_path, monkeypatch, error) == 2


class TestRejectedConfigs:
    """Accepted configs that cannot run end with their error's exit code,
    without a traceback, an artifact or an eigen solve."""

    CRITERIA = MINIMAL.replace("command=simulate", "command=criteria")
    SPEED = MINIMAL.replace("command=simulate", "command=speed")
    HSTAR = (MINIMAL.replace("command=simulate", "command=hstar")
             + "[hstar]\nr_lo=1\nr_hi=4\n")
    MU_STAR = (MINIMAL.replace("command=simulate", "command=mu-star")
               + "[mu_star]\nmu_lo=0.2\nmu_hi=6\n")
    SIGMA0 = (MINIMAL.replace("command=simulate", "command=sigma0")
              + "[sigma0]\nsigma_lo=0.1\nsigma_hi=4\n")
    SWEEP = (MINIMAL.replace("command=simulate", "command=sweep")
             + "[sweep]\naxis1=d\naxis1_values=1,2\naxis2=mu\n"
             "axis2_values=1,2\n")

    @pytest.mark.parametrize("text,code", [
        (MINIMAL.replace("alpha=1", "alpha=2+log(t)"), 2),
        (MINIMAL.replace("alpha=1", "alpha=1+sqrt(5-r)"), 2),
        (CRITERIA + "[criteria]\nkind=Bogus\n", 2),
        # a d scan that finds no threshold leaves SlowDiffusion no d to
        # probe (stubbed: the real scan fails after about 30 s)
        (CRITERIA.replace("h0=3", "h0=100") + "[criteria]\nkind=SlowDiffusion\n",
         3),
        # a period that is not positive made simulate step forever
        (MINIMAL.replace("beta=1", "beta=1\nT=0"), 2),
        (MINIMAL.replace("beta=1", "beta=1\nT=-1"), 2),
        # an infinite period warned while the envelopes were sampled
        (MINIMAL.replace("beta=1", "beta=1\nT=inf"), 2),
        (MINIMAL.replace("h0=3", "h0=3\nN=0"), 2),
        (MINIMAL.replace("command=simulate", "command=speed")
         + "[speed]\nr_far=-1\n", 2),
        # a NaN step or horizon, or a horizon <= 0, wrote a trajectory
        # that never stepped and a verdict decided at t = 0
        (MINIMAL.replace("t_max=5", "t_max=5\ndt=nan"), 2),
        (MINIMAL.replace("t_max=5", "t_max=nan"), 2),
        (MINIMAL.replace("t_max=5", "t_max=0"), 2),
        (MINIMAL.replace("t_max=5", "t_max=-1"), 2),
        # a sampling interval that is not finite and > 0 recorded only
        # t = 0 and t_max, and cost the threshold probes their early stop
        (MINIMAL.replace("t_max=5", "t_max=5\nsample_every=0"), 2),
        (MINIMAL.replace("t_max=5", "t_max=5\nsample_every=-1"), 2),
        (MINIMAL.replace("t_max=5", "t_max=5\nsample_every=nan"), 2),
        (MINIMAL.replace("t_max=5", "t_max=5\nsample_every=inf"), 2),
        # an infinite tol ended the drift iteration or a bisection at its
        # first step; a NaN or negative one ran the drift iteration's
        # whole budget
        (SPEED + "[speed]\ntol=inf\n", 2),
        (SPEED + "[speed]\ntol=nan\n", 2),
        (SPEED + "[speed]\ntol=-1\n", 2),
        (HSTAR + "tol=inf\n", 2),
        (MU_STAR + "tol=inf\n", 2),
        (SIGMA0 + "tol=inf\n", 2),
        # an empty list wrote a header-only artifact
        (MINIMAL.replace("command=simulate", "command=eigen")
         + "[eigen]\nR=\n", 2),
        (SWEEP.replace("axis1_values=1,2", "axis1_values="), 2),
        (SWEEP.replace("axis2_values=1,2", "axis2_values="), 2),
        # a sweep value that is not finite and > 0 ended in a traceback
        # (d=inf) or wrote verdicts for cells that validate rejects
        (SWEEP.replace("axis1_values=1,2", "axis1_values=1,inf"), 2),
        (SWEEP.replace("axis1=d\naxis1_values=1,2",
                       "axis1=h0\naxis1_values=1,inf"), 2),
        (SWEEP.replace("axis2_values=1,2", "axis2_values=0,1"), 2),
        (SWEEP.replace("axis2=mu\naxis2_values=1,2",
                       "axis2=sigma\naxis2_values=-1,1"), 2)],
        ids=["log", "sqrt", "criteria-kind", "no-d-threshold", "T-zero",
             "T-negative", "T-inf", "N-zero", "r_far-negative", "dt-nan",
             "t_max-nan", "t_max-zero", "t_max-negative", "sample_every-zero",
             "sample_every-negative", "sample_every-nan", "sample_every-inf",
             "speed-tol-inf", "speed-tol-nan",
             "speed-tol-negative", "hstar-tol-inf", "mu-star-tol-inf",
             "sigma0-tol-inf", "eigen-R-empty", "sweep-axis1-empty",
             "sweep-axis2-empty", "sweep-d-inf", "sweep-h0-inf",
             "sweep-mu-zero", "sweep-sigma-negative"])
    def test_exit_code(self, tmp_path, monkeypatch, capsys, text, code):
        def one_signed(*args, **kwargs):
            raise NoSignChange(+1)

        def no_solve(*args, **kwargs):
            raise AssertionError("unexpected eigen solve")

        def no_run(*args, **kwargs):
            raise AssertionError("unexpected run")

        monkeypatch.setattr(eigen, "d_thresholds", one_signed)
        monkeypatch.setattr(eigen, "principal_eigenvalue", no_solve)
        monkeypatch.setattr(freeboundary, "simulate", no_run)
        monkeypatch.setattr(semiwave, "k0_fixed_point", no_run)
        out = str(tmp_path / "out")
        assert cli.main(["--config", write(tmp_path, text), "--out", out]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not os.path.exists(out) or not os.listdir(out)


class TestNonPositiveValues:
    """Configs that load but whose values the numerics cannot take end
    with exit 2, not a traceback."""

    @staticmethod
    def exit_code(tmp_path, text):
        path = write(tmp_path, text)
        out = str(tmp_path / "out")
        code = cli.main(["--config", path, "--out", out])
        assert not os.path.exists(out) or not os.listdir(out)
        return code

    def test_simulate_d_zero(self, tmp_path):
        assert self.exit_code(tmp_path, MINIMAL.replace("d=1", "d=0")) == 2

    def test_simulate_h0_negative(self, tmp_path):
        assert self.exit_code(tmp_path, MINIMAL.replace("h0=3", "h0=-1")) == 2

    def test_speed_mu_zero(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=speed")
        assert self.exit_code(tmp_path, text.replace("mu=1", "mu=0")) == 2

    def test_eigen_radius_zero(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=eigen")
        assert self.exit_code(tmp_path, text + "\n[eigen]\nR=1,0\n") == 2

    def test_hstar_reversed_bracket(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=hstar")
        text += "\n[hstar]\nr_lo=5\nr_hi=1\n"
        assert self.exit_code(tmp_path, text) == 2

    @pytest.mark.parametrize("command,section", [
        ("hstar", "[hstar]\nr_lo=1\nr_hi=4"),
        ("mu-star", "[mu_star]\nmu_lo=0.1\nmu_hi=4"),
        ("sigma0", "[sigma0]\nsigma_lo=0.1\nsigma_hi=4")])
    def test_bisection_tol_zero(self, tmp_path, command, section):
        text = MINIMAL.replace("command=simulate", "command=" + command)
        text += "\n%s\ntol=0\n" % section
        assert self.exit_code(tmp_path, text) == 2

    @pytest.mark.parametrize("axis,values", [("d", "1,0"), ("h0", "-1,3")])
    def test_sweep_axis_value(self, tmp_path, axis, values):
        text = MINIMAL.replace("command=simulate", "command=sweep")
        text += ("\n[sweep]\naxis1=%s\naxis1_values=%s\naxis2=mu\n"
                 "axis2_values=1\n" % (axis, values))
        assert self.exit_code(tmp_path, text) == 2


class TestDocumentedConfig:
    def test_readme_example_loads(self):
        with open(README, encoding="utf-8") as fh:
            blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.DOTALL)
        assert len(blocks) == 1
        cfg = cli.loads_config(blocks[0])
        assert cfg.command == "simulate"
        assert cfg.get("field", "T") == 1.0
        assert cfg.get("problem", "N") == 2
        assert cfg.get("problem", "u0") == ""
        assert cfg.get("numerics", "n") == 256

    def test_seed_key_is_unknown(self, tmp_path):
        text = MINIMAL.replace("command=simulate", "command=simulate\nseed=3")
        with pytest.raises(UnknownKey):
            cli.loads_config(text)
        assert cli.main(["--config", write(tmp_path, text)]) == 2

    def test_numerics_tol_is_unknown(self, tmp_path):
        # [numerics] tol was parsed and stored but never read
        text = MINIMAL.replace("n=64", "n=64\ntol=1e-6")
        with pytest.raises(UnknownKey):
            cli.loads_config(text)
        assert cli.main(["--config", write(tmp_path, text)]) == 2

    def test_out_defaults_to_run_out(self, tmp_path):
        out = tmp_path / "from-config"
        text = MINIMAL.replace("command=simulate",
                               "command=simulate\nout=%s" % out)
        assert cli.main(["--config", write(tmp_path, text)]) == 0
        assert (out / "outcome.json").exists()
