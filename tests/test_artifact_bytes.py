"""Byte-identity guard: the `solve` artifacts of two small scenarios, pinned
by sha256.

Speed and memory work must leave every artifact byte-identical, and these
pins catch a change that moves any bit.  Only a deliberate change of the
reproducibility contract updates them, and such a change adds a row to
README's version table.  72 steps keep the row-block helper thread in the
run (it starts at 70 steps on a host with more than one CPU); the results do
not depend on it, since every block sum is added in block order.
"""

import hashlib
import json

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
        "jump_flatten_solve_7.json": "d84f22dee29366fae81d37fdc1072fb23811eeb040bb41e0e6e28187b7c2bc83",
    },
    "drift_nested": {
        "drift_nested_solve_7.csv": "971571517ee0dc8afdd039f2c591026c0e952da7df676e0691f1eb313c7f8f94",
        "drift_nested_solve_7.json": "d49ed2ac7eedc03a4ba8f922e98bd3afdd0e1c21653bae839a022f4c12a13878",
    },
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_solve_artifacts_are_pinned(tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"scenario": name, **COMMON, **SCENARIOS[name]}))
    assert cli.run("solve", path, output_dir=tmp_path / "out") == cli.EXIT_OK
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted((tmp_path / "out").iterdir())
    }
    assert digests == SHA256[name]
