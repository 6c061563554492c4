"""Byte-identity guard: the `solve` artifacts of two small scenarios, pinned
by sha256.

Speed and memory work must leave every artifact byte-identical, and these
pins catch a change that moves any bit.  Only a deliberate change of the
reproducibility contract updates them, and such a change adds a row to
README's version table.  72 steps keep the row-block helper thread in the
run (it starts at 70 steps on a host with more than one CPU); the results do
not depend on it, since every block sum is added in block order, nor on the
BLAS threads, since no sum goes through a BLAS dot product.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subfbsde import cli

COMMON = {
    "seed": 7, "n_paths": 600, "n_steps": 72, "kappa": 1.0, "T": 1.0, "x0": 1.0,
    "picard_tol": 1e-3, "basis": {"degree": 2, "include_r": True},
}
SCENARIOS = {
    "jump_flatten": {
        "jumps": {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0},
        "bundle": "riccati_test", "strategy": "flatten",
    },
    "drift_nested": {
        "jumps": {"jump_kind": "none"},
        "bundle": "canonical_monotone", "bundle_params": {"c": 0.5},
        "strategy": "nested", "eta": 0.5,
    },
}
SHA256 = {
    "jump_flatten": {
        "jump_flatten_solve_7.csv": "baefc8d07cfc8627fb4b95d689be1e9645b0671117802906d9b7c5a9e85a9556",
        "jump_flatten_solve_7.json": "cfe50b83b8bc0e02de3c847c4d9c8247500f0018d4fc50aa2b2ef7d59794c4ce",
    },
    "drift_nested": {
        "drift_nested_solve_7.csv": "3538a8328aacaafe951352fb6cedf6ec57ff087568aac05beddea58803477af9",
        "drift_nested_solve_7.json": "6049ee21ae2fa7d5dd04320b45de302844b5ee42a64f4290ebdf780948ea5deb",
    },
}


def _scenario(tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"scenario": name, **COMMON, **SCENARIOS[name]}))
    return path


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_solve_artifacts_are_pinned(tmp_path, name):
    path = _scenario(tmp_path, name)
    assert cli.run("solve", path, output_dir=tmp_path / "out") == cli.EXIT_OK
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted((tmp_path / "out").iterdir())
    }
    assert digests == SHA256[name]


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """A pinned scenario solved in two child interpreters, OpenBLAS on one
    thread and on two, writes the same bytes.  OpenBLAS splits a long dot
    product over its threads, and adds the parts in another order than one
    thread does, so any sum that went through a BLAS dot product would move
    the last bits.  OpenBLAS runs no more threads than the CPUs the process may
    use, so on a host with one CPU both children run one thread and this
    passes trivially."""
    path = _scenario(tmp_path, "jump_flatten")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        cmd = [sys.executable, "-m", "subfbsde.cli", "solve", str(path), "--output-dir", str(out)]
        subprocess.run(cmd, env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True, timeout=120)
        artifacts.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert artifacts[0] == artifacts[1]
