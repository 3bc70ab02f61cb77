"""One benchmark experiment in a fresh process.

Run by ``run.py`` with ``src`` on PYTHONPATH and BLAS pinned to one
thread.  ``PERFBENCH_T0`` carries the parent's monotonic clock at launch,
so ``setup_s`` covers interpreter start, imports, config parse, spec build
and validation, up to the first solver call.

    python3 perfbench/child.py --workload W --config CFG --out DIR [--spans F]
"""

import argparse
import json
import os
import sys
import time

FAR_FIELD_R = 50.0        # radius where front-speed samples the far field
FAR_FIELD_PHASES = 256
K0_TOL = 1e-4
PROFILE_TOL = 1e-5


def _front_speed(spec, out_dir):
    """Library-driven front speed: no CLI command measures it."""
    import numpy as np
    from stefanlab import freeboundary, semiwave

    traj = freeboundary.simulate(spec)
    slope, crude = semiwave.measure_front_speed(traj)
    fld = spec.field
    # the far-field coefficients enter as phase samples, one of the input
    # forms k0_fixed_point documents
    phases = np.arange(FAR_FIELD_PHASES) * (fld.T / FAR_FIELD_PHASES)
    a, b = (np.broadcast_to(np.asarray(fn(phases, FAR_FIELD_R), dtype=float),
                            phases.shape).copy()
            for fn in (fld.growth, fld.beta))
    res = semiwave.k0_fixed_point(spec.mu, a, b, spec.d, fld.T, tol=K0_TOL,
                                  profile_kwargs={"tol": PROFILE_TOL})
    answers = {"c": res.c, "slope": slope, "crude": crude, "bound": res.bound,
               "h_final": float(traj.h[-1]), "k0_iterations": res.iterations}
    with open(os.path.join(out_dir, "answers.json"), "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    t0 = float(os.environ["PERFBENCH_T0"])

    from stefanlab import cli

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_end = []
    validate = cli.validate

    def timed_validate(spec):
        report = validate(spec)
        if not setup_end:
            setup_end.append(time.monotonic())
        return report

    cli.validate = timed_validate

    config = cli.load_config(args.config)
    if args.workload == "front-speed":
        spec = cli.build_spec(config)
        if not cli.validate(spec).ok:
            return 2
        _front_speed(spec, args.out)
        code = 0
    else:
        code = cli.run(config, out_dir=args.out, jobs=1)

    if tracer is not None:
        tracer.save(args.spans)
    with open(os.path.join(args.out, "child.json"), "w") as fh:
        json.dump({"exit": code, "setup_s": setup_end[0] - t0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
