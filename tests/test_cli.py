import json
import os

import numpy as np
import pytest

from stefanlab import cli
from stefanlab.errors import (ConfigError, ExpressionError, FrontRetreat,
                              HypothesisHFailed, MissingKey, NonPositive,
                              NonPositiveIterate, SolverSingular, TypeMismatch,
                              UnknownKey)

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

    def test_missing_file(self):
        assert cli.main(["--config", "/nonexistent/x.cfg"]) == 2

    def test_full_run(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = str(tmp_path / "out")
        assert cli.main(["--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "outcome.json"))

    @pytest.mark.parametrize("error", [SolverSingular, FrontRetreat,
                                       NonPositiveIterate, NonPositive,
                                       HypothesisHFailed])
    def test_numerical_failure_exit(self, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr(cli.freeboundary, "simulate", fail)
        path = write(tmp_path, MINIMAL)
        out = str(tmp_path / "out")
        assert cli.main(["--config", path, "--out", out]) == 3
        assert not os.path.exists(os.path.join(out, "outcome.json"))
