"""One benchmark invocation of the subfbsde CLI in a fresh interpreter.

Usage: child.py MODE SUBCOMMAND SCENARIO RESULT

MODE is `setup` (import and validate, then stop), `run` (also call
`subfbsde.cli.run`) or `trace` (the same call with spans recorded at the
module boundaries).  The parent sets the thread environment and PYTHONPATH;
this file writes its measurements to RESULT as JSON.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def main(mode: str, subcommand: str, scenario: str, result_path: str) -> None:
    # set-up is what a CLI user pays before compute: interpreter start, the
    # package import and scenario validation
    from subfbsde import cli

    with open(scenario) as fh:
        cli.ScenarioConfig(json.load(fh))
    ready = time.monotonic()

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"subfbsde imported from {cli.__file__}, not from {src}")
    out = {"ready": ready}
    if mode == "setup":
        out["env"] = environment()
    else:
        tracer = None
        run = cli.run
        if mode == "trace":
            from spans import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.wrap(ROOT, cli.run)
        t0 = time.perf_counter()
        out["rc"] = run(subcommand, scenario)
        out["run_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(out["run_s"])
            ens = tracer.results.get("build_ensemble")
            out["layers"]["clock.frozen_frac"] = (
                float((ens.dL == 0.0).mean()) if ens is not None else 0.0
            )
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(*sys.argv[1:5])
