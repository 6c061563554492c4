"""Benchmark of the subfbsde CLI.

    python3 perfbench/run.py --workload jump_solve [--seed 7] [--seconds 60] [--trace 0|1]

Each invocation runs `subfbsde.cli.run` in a fresh child interpreter with
BLAS/OpenMP threads pinned to 1 (closed loop: one invocation at a time).
The child reports its set-up time, the subcommand's wall time and its peak
RSS; the artifacts are checked here, outside the timed region.  With
`--trace 1` untraced and traced invocations alternate and the per-layer
metrics come from the traced ones.  The last stdout line is the JSON
result; the lines before it print every metric with its unit and the
environment stamp.  Exit code 2: the program is not in this checkout;
3: nothing could be measured (a child failed to start, or no invocation
passed its checks).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import FULL_SIZE, SCENARIOS, CheckFailed, Checker, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5
MIN_UNTRACED = 3
GRACE_S = 30  # past the deadline, stop even below the minimum count
CHILD_TIMEOUT_S = 120
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class HarnessError(RuntimeError):
    pass


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (which
    would search parent directories of a checkout that is not a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def private_dir(prefix: str):
    """A fresh directory under .perfbench_tmp/ in the checkout, removed on exit."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def use_checkout() -> None:
    """Import subfbsde and the test oracles from this checkout."""
    if not (ROOT / "src" / "subfbsde" / "cli.py").is_file():
        raise FileNotFoundError(f"no subfbsde package under {ROOT / 'src'}")
    for path in (str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


class Invoker:
    """Starts the child interpreters of one run in its private artifact
    directory."""

    def __init__(self, raw: dict, subcommand: str, tmp: Path):
        self.subcommand = subcommand
        self.tmp = tmp
        self.out_dir = tmp / raw["output_dir"]
        self.scenario = tmp / "scenario.json"
        self.scenario.write_text(json.dumps(raw, indent=2))
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}

    def child(self, mode: str) -> dict:
        """Run child.py once; returns its measurements plus `setup_s` and
        `wall_s` (both seen from here)."""
        result = self.tmp / "child.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), mode, self.subcommand,
                str(self.scenario), str(result)]
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=self.tmp, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {CHILD_TIMEOUT_S} s",
                    "wall_s": CHILD_TIMEOUT_S}
        wall = time.monotonic() - start
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.strip()[-2000:]
            return {"error": f"child exit {proc.returncode}: {tail}", "wall_s": wall}
        out = json.loads(result.read_text())
        out["setup_s"] = out["ready"] - start
        out["wall_s"] = wall
        return out


def bench(workload: str, seed: int, seconds: float, trace: bool,
          size: dict | None = None, reference: dict | None = None) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result, report lines)."""
    use_checkout()
    from subfbsde.cli import ScenarioConfig

    size = size or FULL_SIZE
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    subcommand, raw = scenario(workload, seed, **size)
    checker = Checker(workload, raw, reference, ScenarioConfig(raw).config_hash)

    with private_dir(f"{workload}-") as tmp:
        env, setups, done, failures = measure(Invoker(raw, subcommand, tmp), checker,
                                              seconds, trace)

    attempted = len(done) + len(failures)
    untraced = [i for i in done if not i["traced"]]
    traced = sorted((i for i in done if i["traced"]), key=lambda i: i["run_s"])
    if not untraced or (trace and not traced):
        raise HarnessError("no invocation passed its checks: " + "; ".join(failures))
    setups += [i["setup_s"] for i in done]
    run_s = statistics.median(i["run_s"] for i in untraced)
    if trace:
        pick = traced[(len(traced) - 1) // 2]  # the median traced invocation
        metrics = {
            **pick["layers"],
            "fbsde_solver.linear_solves": pick["info"]["linear_solves"],
            "fbsde_solver.oracle_rel_err": pick["info"]["oracle_rel_err"],
            "cli.bytes_written": pick["bytes"],
            "cli.write_mb_per_s": pick["bytes"] / 1e6 / pick["layers"]["cli.self_s"],
            "trace.overhead_frac": statistics.median(i["run_s"] for i in traced) / run_s - 1.0,
        }
        counts = f"{len(traced)} traced, {len(untraced)} untraced"
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in untraced),
        }
        counts = f"setup n={len(setups)}, run n={len(untraced)}"
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise HarnessError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    stamp = {"workload": workload, "seed": seed, "size": size, "commit": git_commit(),
             "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "cpu": cpu_model(), **env}
    lines = [f"# env {json.dumps(stamp, sort_keys=True)}"]
    lines += [f"# check failed: {f}" for f in failures]
    lines.append("# samples " + json.dumps({
        "setup_s": [round(v, 4) for v in setups],
        "run_s": [round(i["run_s"], 4) for i in done],
        "traced": [i["traced"] for i in done],
    }))
    lines.append(f"# {workload} seed={seed} invocations={attempted} ({counts})")
    lines += [f"{name:34s} {metrics[name]:.6g} {units[name]}" for name in sorted(metrics)]
    lines.append(f"{'failed_frac':34s} {len(failures) / attempted:.6g} 1 "
                 f"({len(failures)}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    return result, lines


def measure(invoker: Invoker, checker, seconds: float, trace: bool):
    """Set-up probes, then invocations until the next one would end past the
    deadline.  With `trace`, untraced and traced invocations alternate.
    Returns (environment, set-up samples, passed invocations, failures)."""
    # warm-up probe: byte-compiles the package on a fresh checkout and
    # reports the library versions; its set-up time is not counted
    warm = invoker.child("setup")
    if "error" in warm:
        raise HarnessError(warm["error"])
    deadline = time.monotonic() + seconds
    setups = []
    for _ in range(SETUP_PROBES):
        probe = invoker.child("setup")
        if "error" in probe:
            raise HarnessError(probe["error"])
        setups.append(probe["setup_s"])

    done, failures, walls = [], [], []
    while True:
        traced = trace and len(walls) % 2 == 1
        inv = invoker.child("trace" if traced else "run")
        inv["traced"] = traced
        walls.append(inv["wall_s"])
        try:
            if "error" in inv:
                raise CheckFailed(inv["error"])
            inv["info"] = checker.check(inv["rc"], invoker.out_dir)
            inv["bytes"] = sum(p.stat().st_size for p in invoker.out_dir.iterdir())
            done.append(inv)
        except (CheckFailed, OSError) as err:
            failures.append(f"invocation {len(walls)}: {err}")
        shutil.rmtree(invoker.out_dir, ignore_errors=True)
        n_traced = sum(i["traced"] for i in done)
        if trace:
            enough = n_traced >= 1 and len(done) - n_traced >= 1
        else:
            enough = len(done) >= MIN_UNTRACED
        now = time.monotonic()
        if now + statistics.median(walls) > deadline and (enough or now > deadline + GRACE_S):
            return warm["env"], setups, done, failures


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, lines = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    except HarnessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
