"""Harness self-check at tiny size (200 paths x 10 steps), about 20 s.

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, emits exactly the metric names in
   BENCHMARK.json and passes its output checks.
2. Every output check fails on a corrupted artifact or a wrong reference.

Exit code 0 when both hold.  Not part of the test suite.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from workloads import CheckFailed, Checker, oracle_rel_err, scenario

TINY = {"n_paths": 200, "n_steps": 10}
# references loose enough for the tiny size; part 2 tightens them
LOOSE = {
    "jump_solve": {"mean_y0": {"value": 1.0, "tol": 1.0}, "m_norm": {"value": 1.0, "tol": 1.0}},
    "drift_ladder": {"oracle_rel_err_max": 1.0},
    "pareto_sample": {},
}


def check_metrics(failures: list[str]) -> None:
    """run.bench itself refuses metrics that differ from BENCHMARK.json."""
    for workload in sorted(LOOSE):
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            try:
                result, _ = run.bench(workload, 7, 0.5, trace, TINY, LOOSE)
            except run.HarnessError as err:
                failures.append(f"{label}: {err}")
                continue
            if not result["correct"]:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed")
                continue
            print(f"ok {label}: the {len(result['metrics'])} metrics of BENCHMARK.json")


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _set_cell(lines: list[str], row: int, col: int, value: str) -> list[str]:
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = value
    return lines[:row] + [",".join(cells) + "\n"] + lines[row + 1:]


def _scale(line: str, cols, factor: float) -> str:
    cells = line.rstrip("\n").split(",")
    for col in cols:
        cells[col] = repr(factor * float(cells[col]))
    return ",".join(cells) + "\n"


def _scale_solution(csv: Path, js: Path, factor: float) -> None:
    """A wrong answer whose CSV moments and JSON norm still agree."""
    _edit_csv(csv, lambda ls: ls[:2] + [_scale(l, (1, 2, 4, 5), factor) for l in ls[2:]])

    def edit(doc):
        parts = doc["m_norm"]["parts"]
        parts["x0"] *= factor**2
        parts["dt"] *= factor**2

    _edit_json(js, edit)


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def mutations(workload: str, sub: str, raw: dict, reference: dict):
    """(label, rc, reference, edit of the artifact directory); each must fail."""
    csv = f"{workload}_{sub}_{raw['seed']}.csv"
    js = f"{workload}_{sub}_{raw['seed']}.json"
    last = 2 + raw["n_steps"]  # line of path 0 at the final node
    out = [
        ("non-zero exit code", 1, reference, lambda d: None),
        ("wrong seed in the CSV stamp", 0, reference,
         lambda d: _edit_csv(d / csv, lambda ls: [ls[0].replace("seed=", "seed=9")] + ls[1:])),
        ("missing JSON artifact", 0, reference, lambda d: (d / js).unlink()),
        ("NaN in the CSV", 0, reference,
         lambda d: _edit_csv(d / csv, lambda ls: _set_cell(ls, 2, 2, "nan"))),
    ]
    if workload == "jump_solve":
        for name in ("mean_y0", "m_norm"):
            wrong = copy.deepcopy(reference)
            wrong[workload][name]["value"] += 3 * wrong[workload][name]["tol"]
            out.append((f"wrong {name} reference", 0, wrong, lambda d: None))
        out.append(("not converged", 0, reference, lambda d: _edit_json(
            d / js, lambda doc: doc["levels"][-1].update(converged=False))))
    elif workload == "drift_ladder":
        wrong = copy.deepcopy(reference)
        wrong[workload]["oracle_rel_err_max"] /= 4
        out.append(("oracle bound below the error", 0, wrong, lambda d: None))
        out.append(("mean_y off by 5%", 0, reference, lambda d: _edit_csv(
            d / csv, lambda ls: ls[:2] + [_scale(l, (2,), 1.05) for l in ls[2:]])))
        out.append(("x and y scaled by 5%, norm kept consistent", 0, reference,
                    lambda d: _scale_solution(d / csv, d / js, 1.05)))
    else:
        out += [
            ("last row dropped", 0, reference, lambda d: _edit_csv(d / csv, lambda ls: ls[:-1])),
            ("clock step above dt/kappa", 0, reference,
             lambda d: _edit_csv(d / csv, lambda ls: _set_cell(ls, last, 2, "99"))),
            ("negative overshoot", 0, reference,
             lambda d: _edit_csv(d / csv, lambda ls: _set_cell(ls, 3, 3, "-1e-9"))),
        ]
    return out


def tiny_reference(workload: str, raw: dict, genuine: Path) -> dict:
    """LOOSE, tightened around the genuine tiny run's own values."""
    reference = copy.deepcopy(LOOSE)
    if workload == "pareto_sample":
        return reference
    doc = json.loads(next(genuine.glob("*.json")).read_text())
    rows = np.loadtxt(next(genuine.glob("*.csv")), delimiter=",", skiprows=2)
    if workload == "jump_solve":
        for name, value in (("mean_y0", rows[0, 2]), ("m_norm", doc["m_norm"]["value"])):
            reference[workload][name] = {"value": float(value), "tol": 1e-3}
    else:
        reference[workload]["oracle_rel_err_max"] = 2 * oracle_rel_err(
            rows, doc["m_norm"]["parts"], raw
        )
    return reference


def _fresh_copy(src: Path, dst: Path) -> Path:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def _expect_failure(label: str, check, failures: list[str]) -> None:
    try:
        check()
    except CheckFailed as err:
        print(f"ok {label} -> {err}")
    else:
        failures.append(f"{label} passed the checks")
        print(f"FAIL {label} passed the checks")


def check_checks(failures: list[str]) -> None:
    run.use_checkout()
    from subfbsde import cli

    with run.private_dir("selfcheck-") as tmp:
        for workload in sorted(LOOSE):
            sub, raw = scenario(workload, 7, **TINY)
            cfg = tmp / f"{workload}.json"
            cfg.write_text(json.dumps(raw))
            genuine = tmp / workload
            if cli.run(sub, cfg, output_dir=genuine) != 0:
                failures.append(f"{workload}: tiny CLI run failed")
                continue
            config_hash = cli.ScenarioConfig(raw).config_hash
            reference = tiny_reference(workload, raw, genuine)
            Checker(workload, raw, reference, config_hash).check(0, genuine)  # must pass

            for label, rc, ref, edit in mutations(workload, sub, raw, reference):
                work = _fresh_copy(genuine, tmp / "mutated")
                edit(work)
                checker = Checker(workload, raw, ref, config_hash)
                _expect_failure(f"{workload}: {label}", lambda: checker.check(rc, work), failures)

            # byte identity: a rerun whose bytes differ from the first must fail
            checker = Checker(workload, raw, reference, config_hash)
            checker.check(0, genuine)
            work = _fresh_copy(genuine, tmp / "mutated")
            with open(next(work.glob("*.json")), "a") as fh:
                fh.write(" ")
            _expect_failure(f"{workload}: rerun with different bytes",
                            lambda: checker.check(0, work), failures)


def main() -> int:
    failures: list[str] = []
    check_metrics(failures)
    check_checks(failures)
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
