import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ContinuationConfig,
    SubordinatorSpec,
    cli,
    coefficients,
    solve_fbsde,
)
from subfbsde.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_HYPOTHESIS,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    ScenarioConfig,
    _nonfinite_key,
    main,
    run,
)


def base_config(**over):
    cfg = {
        "scenario": "t",
        "seed": 9,
        "kappa": 1.0,
        "T": 1.0,
        "n_steps": 20,
        "n_paths": 100,
        "x0": 1.0,
        "bundle": "canonical_monotone",
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


@pytest.mark.parametrize(
    "subcommand",
    ["sample-subdiffusion", "check-hypothesis", "solve-linear", "solve"],
)
def test_subcommands_succeed(tmp_path, subcommand):
    cfg = base_config(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert run(subcommand, path) == EXIT_OK
    artifacts = list((tmp_path / "out").glob(f"t_{subcommand}_9.*"))
    assert artifacts, f"no artifacts for {subcommand}"


def test_artifacts_embed_hash_and_seed(tmp_path):
    cfg = base_config(output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("sample-subdiffusion", path) == EXIT_OK
    sc = ScenarioConfig(cfg)
    csv = (tmp_path / "t_sample-subdiffusion_9.csv").read_text().splitlines()
    assert csv[0] == f"# config_hash={sc.config_hash} seed=9"
    doc = json.loads((tmp_path / "t_sample-subdiffusion_9.json").read_text())
    assert doc["config_hash"] == sc.config_hash
    assert doc["seed"] == 9


def test_drift_only_clock_csv_L_equals_t(tmp_path):
    cfg = base_config(output_dir=str(tmp_path), n_paths=3)
    path = write_config(tmp_path, cfg)
    assert run("sample-subdiffusion", path) == EXIT_OK
    lines = (tmp_path / "t_sample-subdiffusion_9.csv").read_text().splitlines()
    header = lines[1].split(",")
    it, iL = header.index("t"), header.index("L")
    for row in lines[2:]:
        vals = row.split(",")
        assert float(vals[it]) == pytest.approx(float(vals[iL]), abs=1e-14)


@pytest.mark.parametrize(
    "strategy",
    [{"strategy": "flatten"}, {"strategy": "nested", "eta": 0.5}],
    ids=["flatten", "nested"],
)
def test_reruns_byte_identical(tmp_path, strategy):
    cfg = base_config(bundle="canonical_monotone", **strategy)
    path = write_config(tmp_path, cfg)
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert run("solve", path, output_dir=out) == EXIT_OK
        outs.append(out)
    for name in ("t_solve_9.csv", "t_solve_9.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_flatten_is_the_one_level_ladder(tmp_path):
    # strategy "flatten" and a nested ladder with eta = 1 are one solve
    jumps = {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0}
    strategies = {"flat": {"strategy": "flatten"}, "nested": {"strategy": "nested", "eta": 1.0}}
    docs = []
    for d, over in strategies.items():
        out = tmp_path / d
        cfg = base_config(bundle="riccati_test", jumps=jumps, **over)
        assert run("solve", write_config(tmp_path, cfg, f"{d}.json"), output_dir=out) == EXIT_OK
        rows = (out / "t_solve_9.csv").read_text().splitlines()[1:]
        doc = json.loads((out / "t_solve_9.json").read_text())
        del doc["config_hash"]
        docs.append((rows, doc))
    assert docs[0] == docs[1]


def test_validation_errors(tmp_path, capsys):
    # unreadable file
    assert run("solve", tmp_path / "missing.json") == EXIT_CONFIG
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("solve", bad) == EXIT_CONFIG
    # missing required key
    cfg = base_config()
    del cfg["seed"]
    assert run("solve", write_config(tmp_path, cfg, "a.json")) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    # wrong type names the key
    assert run("solve", write_config(tmp_path, base_config(kappa=-1.0), "b.json")) == EXIT_CONFIG
    assert "kappa" in capsys.readouterr().err
    # unknown top-level key
    assert run("solve", write_config(tmp_path, base_config(extra=1), "c.json")) == EXIT_CONFIG
    # unknown bundle
    assert run("solve", write_config(tmp_path, base_config(bundle="nope"), "d.json")) == EXIT_CONFIG
    # non-object config
    lst = tmp_path / "list.json"
    lst.write_text("[1,2]")
    assert run("solve", lst) == EXIT_CONFIG
    # unknown subcommand
    assert run("frobnicate", write_config(tmp_path, base_config(), "e.json")) == EXIT_CONFIG


_DROP = object()  # a key left out of the scenario


def _assert_config_error(tmp_path, capsys, key, subcommand="solve", **over):
    """The scenario base_config(**over) is refused before any compute: exit 2,
    one stderr line naming the key, no traceback and no artifact."""
    out = tmp_path / "out"
    cfg = base_config(**{"output_dir": str(out), **over})
    cfg = {k: v for k, v in cfg.items() if v is not _DROP}
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config key {key}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("subcommand", ["solve", "sample-subdiffusion"])
@pytest.mark.parametrize(
    "key, over",
    [
        ("n_steps", {"n_steps": 10.0}),
        ("n_paths", {"n_paths": 200.0}),
        ("seed", {"seed": 9.0}),
        ("max_picard", {"max_picard": 5.0}),
        ("basis/degree", {"basis": {"degree": 2.0}}),
    ],
)
def test_integer_valued_floats_are_refused(tmp_path, capsys, subcommand, key, over):
    # an integer key takes a JSON integer only; 10.0 is not coerced
    err = _assert_config_error(tmp_path, capsys, key, subcommand, **over)
    assert "must be an integer" in err


_EXP = {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0}
_PARETO = {"jump_kind": "pareto", "rate": 1.0, "jump_param": [0.3, 1.5]}


@pytest.mark.parametrize("subcommand", ["solve", "solve-linear"])
@pytest.mark.parametrize(
    "key, over",
    [
        ("x0", {"x0": float("nan")}),
        ("kappa", {"kappa": float("inf")}),
        ("T", {"T": float("-inf")}),
        ("basis/ridge", {"basis": {"ridge": float("nan")}}),
        ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": float("inf")}}),
        ("jumps/jump_param", {"jumps": {**_PARETO, "jump_param": [0.3, float("nan")]}}),
        ("jumps/rate", {"jumps": {**_EXP, "rate": float("inf")}}),
        ("a", {"a": float("nan")}),
        ("eta", {"strategy": "nested", "eta": float("nan")}),
        ("picard_tol", {"picard_tol": float("inf")}),
        ("forcings/b0", {"forcings": {"b0": float("nan")}}),
        ("forcings/phi0", {"forcings": {"phi0": float("-inf")}}),
        ("bundle_params", {"bundle_params": {"eps": float("nan")}, "bundle": "riccati_test"}),
    ],
)
def test_non_finite_settings_are_refused(tmp_path, capsys, subcommand, key, over):
    # json.load reads NaN and Infinity; every number in a scenario is finite
    err = _assert_config_error(tmp_path, capsys, key, subcommand, **over)
    assert "finite" in err


_TRUNCATED = {"jump_kind": "truncated_stable", "jump_param": 0.5, "cutoff": 0.1}

# (key named in the message, scenario overrides): each required key, unknown
# key, JSON type, enum, name pattern and range rule of a scenario
_REFUSED = [
    # required keys
    *[(k, {k: _DROP}) for k in ("scenario", "seed", "kappa", "T", "n_steps", "n_paths")],
    ("jumps/jump_kind", {"jumps": {"rate": 1.0}}),
    # unknown keys
    ("extra", {"extra": 1}),
    ("jumps/mean", {"jumps": {**_EXP, "mean": 1.0}}),
    ("basis/order", {"basis": {"order": 2}}),
    ("forcings/f0", {"forcings": {"f0": 1.0}}),
    # JSON types, a bool for an integer and for a number among them
    ("scenario", {"scenario": 7}),
    ("seed", {"seed": "9"}),
    ("seed", {"seed": True}),
    ("kappa", {"kappa": "1"}),
    ("kappa", {"kappa": True}),
    ("jumps", {"jumps": ["exponential"]}),
    ("jumps/jump_kind", {"jumps": {"jump_kind": 1}}),
    ("jumps/rate", {"jumps": {**_EXP, "rate": "1"}}),
    ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": "1"}}),
    ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": [1.0]}}),
    ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": [1.0, 2.0, 3.0]}}),
    ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": [1.0, "2"]}}),
    ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": True}}),
    ("jumps/cutoff", {"jumps": {**_TRUNCATED, "cutoff": "0.1"}}),
    ("a", {"a": "0"}),
    ("T", {"T": None}),
    ("n_steps", {"n_steps": 1.5}),
    ("n_steps", {"n_steps": True}),
    ("n_paths", {"n_paths": "100"}),
    ("x0", {"x0": "1"}),
    ("x0", {"x0": False}),
    ("bundle", {"bundle": 1}),
    ("bundle_params", {"bundle_params": [1]}),
    ("strategy", {"strategy": 1}),
    ("eta", {"strategy": "nested", "eta": "0.5"}),
    ("picard_tol", {"picard_tol": None}),
    ("max_picard", {"max_picard": 2.5}),
    # keys of the removed derived step: unknown keys, whatever their value
    ("nested_max_depth", {"nested_max_depth": "3"}),
    ("C1", {"strategy": "nested", "C1": "2"}),
    ("basis", {"basis": 2}),
    ("basis/degree", {"basis": {"degree": "2"}}),
    ("basis/degree", {"basis": {"degree": True}}),
    ("basis/include_r", {"basis": {"include_r": 1}}),
    ("basis/ridge", {"basis": {"ridge": "0"}}),
    ("forcings", {"forcings": 1.0}),
    *[(f"forcings/{k}", {"forcings": {k: "1"}}) for k in ("b0", "g0", "delta0", "h0", "sigma0")],
    ("forcings/phi0", {"forcings": {"phi0": "1"}}),
    ("forcings/g0", {"forcings": {"g0": True}}),
    ("strict", {"strict": True}),  # the removed strict key: unknown, whatever its value
    ("output_dir", {"output_dir": 1}),
    # enums
    ("jumps/jump_kind", {"jumps": {"jump_kind": "gamma"}}),
    ("strategy", {"strategy": "both"}),
    # the scenario name stays a file name inside output_dir
    ("scenario", {"scenario": "../x"}),
    ("scenario", {"scenario": ""}),
    # ranges ScenarioConfig owns, then three more unknown keys of the removed step
    ("seed", {"seed": -1}),
    ("n_paths", {"n_paths": 0}),
    ("nested_max_depth", {"nested_max_depth": 0}),
    ("C1", {"strategy": "nested", "C1": 0}),
    ("C1", {"strategy": "nested", "C1": -1.0}),
    # ranges the settings objects own
    ("kappa", {"kappa": 0}),
    ("jumps/rate", {"jumps": {**_EXP, "rate": -1.0}}),
    ("jumps/cutoff", {"jumps": {**_TRUNCATED, "cutoff": 0.0}}),
    ("jumps/jump_param", {"jumps": {**_EXP, "jump_param": 0.0}}),
    ("a", {"a": -0.1}),
    ("T", {"T": 0.0}),
    ("n_steps", {"n_steps": 0}),
    ("eta", {"strategy": "nested", "eta": 0}),
    ("eta", {"strategy": "nested", "eta": 1.5}),
    ("picard_tol", {"picard_tol": 0}),
    ("max_picard", {"max_picard": 0}),
    ("basis/degree", {"basis": {"degree": -1}}),
    ("basis/ridge", {"basis": {"ridge": -1e-3}}),
    # jump settings the chosen law does not read
    ("jumps/rate", {"jumps": {"jump_kind": "none", "rate": 5.0}}),
    ("jumps/jump_param", {"jumps": {"jump_kind": "none", "jump_param": 3.0}}),
    ("jumps/cutoff", {"jumps": {"jump_kind": "none", "cutoff": 0.1}}),
    ("jumps/rate", {"jumps": {**_TRUNCATED, "rate": 5.0}}),
    ("jumps/cutoff", {"jumps": {**_EXP, "cutoff": 0.3}}),
    ("jumps/cutoff", {"jumps": {**_EXP, "jump_kind": "fixed", "cutoff": 0.3}}),
    ("jumps/cutoff", {"jumps": {**_PARETO, "cutoff": 0.3}}),
    # the removed alias of canonical_monotone(c=1)
    ("bundle", {"bundle": "linear_test"}),
]


@pytest.mark.parametrize(
    "key, over", _REFUSED, ids=[f"{k}-{i}" for i, (k, _) in enumerate(_REFUSED)]
)
def test_scenario_rules_refuse(tmp_path, capsys, key, over):
    _assert_config_error(tmp_path, capsys, key, **over)


def test_divergence_exit_code_and_artifact(tmp_path):
    cfg = base_config(bundle="riccati_test", bundle_params={"c": 8.0}, output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("solve", path) == EXIT_DIVERGED
    doc = json.loads((tmp_path / "t_solve_9.json").read_text())
    assert doc["diverged"] is True
    assert "error" in doc


@pytest.mark.parametrize("subcommand", ["solve"])
def test_picard_budget_exhausted_exit_code_and_artifacts(tmp_path, capsys, subcommand):
    cfg = base_config(bundle="riccati_test", max_picard=1, output_dir=str(tmp_path))
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    assert "did not converge within max_picard=1" in err and "Traceback" not in err
    doc = json.loads((tmp_path / f"t_{subcommand}_9.json").read_text())
    assert doc["levels"][-1]["converged"] is False
    assert len(doc["levels"][-1]["residuals"]) == 1
    assert doc["diverged"] is False and doc["total_linear_solves"] == 1
    assert (tmp_path / "t_solve_9.csv").exists()


def test_strict_hypothesis_failure(tmp_path):
    cfg = base_config(bundle="flipped_b_demo", output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("check-hypothesis", path) == EXIT_OK  # non-strict: report only
    assert run("check-hypothesis", path, strict=True) == EXIT_HYPOTHESIS
    assert main(["check-hypothesis", str(path), "--strict"]) == EXIT_HYPOTHESIS
    doc = json.loads((tmp_path / "t_check-hypothesis_9.json").read_text())
    assert doc["report"]["passed"] is False
    assert doc["report"]["violation"] is not None


def test_strict_solve_stops_before_the_ensemble(tmp_path, capsys, monkeypatch):
    # the check-hypothesis failure line and exit 4, no ensemble and no artifact
    def no_ensemble(*args, **kwargs):
        raise AssertionError("the ensemble was built")

    out = tmp_path / "out"
    cfg = base_config(bundle="flipped_b_demo", seed=1, n_paths=200, jumps=_EXP, output_dir=str(out))
    path = write_config(tmp_path, cfg)
    monkeypatch.setattr(cli, "build_ensemble", no_ensemble)
    assert run("solve", path, strict=True) == EXIT_HYPOTHESIS
    assert main(["solve", str(path), "--strict"]) == EXIT_HYPOTHESIS
    line = "hypothesis check failed for bundle flipped_b_demo(c=1)\n"
    assert capsys.readouterr().err == line * 2
    assert not out.exists()
    # the check-hypothesis line is the same one
    assert run("check-hypothesis", path, strict=True) == EXIT_HYPOTHESIS
    assert capsys.readouterr().err == line


def test_solve_without_strict_warns_and_solves_anyway(tmp_path, capsys):
    # flipped_b_demo fails the check; without --strict the solve runs on,
    # here to max_picard, and writes both artifacts
    cfg = base_config(bundle="flipped_b_demo", seed=1, n_paths=200, n_steps=10,
                      output_dir=str(tmp_path))
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        "warning: bundle flipped_b_demo(c=1) fails the hypothesis check; solving anyway"
    )
    assert len(err) == 2 and err[1].startswith("Picard iteration did not converge")
    assert (tmp_path / "t_solve_1.csv").exists()
    assert (tmp_path / "t_solve_1.json").exists()


@pytest.mark.parametrize("subcommand", ["sample-subdiffusion", "solve-linear"])
def test_strict_is_refused_without_a_bundle(tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(output_dir=str(out)))
    assert run(subcommand, path, strict=True) == EXIT_CONFIG
    assert main([subcommand, str(path), "--strict"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "--strict: read only by check-hypothesis and solve\n" * 2
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["sample-subdiffusion", "check-hypothesis", "solve"])
def test_forcings_are_refused_outside_solve_linear(tmp_path, capsys, subcommand):
    # only solve-linear reads forcings: a coupled solve's data are its bundle's
    err = _assert_config_error(
        tmp_path, capsys, "forcings", subcommand, n_paths=200, n_steps=10,
        forcings={"g0": 5.0},
    )
    assert err == "config key forcings: read only by solve-linear\n"


_SOLVE_KEYS = [
    ("max_picard", {"max_picard": 3}),
    ("picard_tol", {"picard_tol": 0.5}),
    ("strategy", {"strategy": "flatten"}),
    ("eta", {"eta": 0.5, "strategy": "nested"}),
]


@pytest.mark.parametrize("subcommand", ["sample-subdiffusion", "check-hypothesis", "solve-linear"])
@pytest.mark.parametrize("key, over", _SOLVE_KEYS, ids=[k for k, _ in _SOLVE_KEYS])
def test_solver_keys_are_refused_outside_solve(tmp_path, capsys, subcommand, key, over):
    # the Picard settings would change the config hash of artifacts they never shape
    err = _assert_config_error(tmp_path, capsys, key, subcommand, n_paths=50, n_steps=10, **over)
    assert err == f"config key {key}: read only by solve\n"


@pytest.mark.parametrize("subcommand", ["sample-subdiffusion", "check-hypothesis"])
def test_basis_is_refused_outside_the_solves(tmp_path, capsys, subcommand):
    err = _assert_config_error(tmp_path, capsys, "basis", subcommand, basis={"degree": 5})
    assert err == "config key basis: read only by solve-linear and solve\n"


@pytest.mark.parametrize("subcommand", ["solve-linear", "solve"])
def test_the_solves_read_their_keys(tmp_path, subcommand):
    over = {"basis": {"degree": 1}, "n_paths": 200, "n_steps": 10}
    if subcommand == "solve":
        over.update(max_picard=30, picard_tol=1e-2, strategy="nested", eta=0.5)
    path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out"), **over))
    assert run(subcommand, path) == EXIT_OK


_NON_FINITE_B = "numerical failure: coefficient b produced non-finite values"
_OVERFLOWED_M1 = "numerical failure: hypothesis check m1_margin is nan: the sampled terms overflow"
_OVERFLOW_CASES = [
    ("check-hypothesis", 1e307, [_OVERFLOWED_M1]),
    ("solve", 1e307, [_OVERFLOWED_M1]),
    ("check-hypothesis", 1e308, [_NON_FINITE_B]),
    ("solve", 1e308, [_NON_FINITE_B]),
]


@pytest.mark.parametrize("subcommand, c, lines", _OVERFLOW_CASES)
def test_overflowing_hypothesis_check_prints_only_its_verdict(
    tmp_path, capsys, subcommand, c, lines
):
    # the margins (c = 1e307) or the coefficient differences (c = 1e308)
    # overflow: numpy prints no warning, and the check is a numerical
    # failure, not a failed hypothesis
    cfg = base_config(output_dir=str(tmp_path / "out"), bundle_params={"c": c})
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, c, lines", _OVERFLOW_CASES)
def test_overflowing_hypothesis_check_is_a_numerical_failure_under_strict(
    tmp_path, capsys, subcommand, c, lines
):
    # not exit 4 with "hypothesis check failed": the same one line as without --strict
    cfg = base_config(output_dir=str(tmp_path / "out"), bundle_params={"c": c})
    assert run(subcommand, write_config(tmp_path, cfg), strict=True) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", list(cli._HANDLERS))
@pytest.mark.parametrize(
    "key, over",
    [
        ("bundle", {"bundle": "no_such_bundle"}),
        ("bundle", {"bundle_params": {"zz": 1.0}}),
        ("bundle", {"bundle": "cross_lipschitz", "bundle_params": {"cross": 0.6}}),
        ("bundle_params", {"bundle": _DROP, "bundle_params": {"c": 2.0}}),
    ],
    ids=["unknown", "unknown_param", "bad_param", "params_without_bundle"],
)
def test_bundle_is_checked_by_every_subcommand(tmp_path, capsys, subcommand, key, over):
    # the bundle is built when the scenario is loaded, whether or not the
    # subcommand solves with it; the message is printed as it was raised
    err = _assert_config_error(tmp_path, capsys, key, subcommand, **over)
    assert '"' not in err, err


@pytest.mark.parametrize("subcommand", ["diagnose", "sample-clock"])
def test_removed_subcommands_are_unknown(tmp_path, capsys, subcommand):
    # `solve` writes what `diagnose` wrote, `sample-subdiffusion` what
    # `sample-clock` wrote
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(output_dir=str(out)))
    assert run(subcommand, path) == EXIT_CONFIG
    assert main([subcommand, str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"unknown subcommand {subcommand!r}\n" * 2
    assert not out.exists()


def test_check_hypothesis_flipped_orientation_passes(tmp_path):
    cfg = base_config(bundle="canonical_flipped_hp2", output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("check-hypothesis", path, strict=True) == EXIT_OK


def test_solve_linear_artifacts(tmp_path):
    cfg = base_config(output_dir=str(tmp_path), forcings={"b0": 1.0, "phi0": 0.5})
    del cfg["bundle"]
    path = write_config(tmp_path, cfg)
    assert run("solve-linear", path) == EXIT_OK
    lines = (tmp_path / "t_solve-linear_9.csv").read_text().splitlines()
    assert lines[1] == "t,mean_x,mean_y,mean_z,sd_x,sd_y"
    assert len(lines) == 2 + cfg["n_steps"] + 1
    doc = json.loads((tmp_path / "t_solve-linear_9.json").read_text())
    assert "m_norm" in doc
    assert set(doc["apriori"]) == {"lhs", "rhs", "ratio", "degenerate"}


def test_solve_requires_bundle(tmp_path):
    cfg = base_config(output_dir=str(tmp_path))
    del cfg["bundle"]
    path = write_config(tmp_path, cfg)
    assert run("solve", path) == EXIT_CONFIG


def _key_tree(doc):
    """The nested keys of a JSON document: an object maps its keys to their
    values' trees, a list of objects lists theirs, and any other value is None."""
    if isinstance(doc, dict):
        return {k: _key_tree(v) for k, v in doc.items()}
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        return [_key_tree(v) for v in doc]
    return None


_STAMP = dict.fromkeys(["config_hash", "seed"])
_M_NORM = {"value": None, "parts": dict.fromkeys(["x0", "dt", "dL"])}
_APRIORI = dict.fromkeys(["lhs", "rhs", "ratio", "degenerate"])
_REPORT = {
    **dict.fromkeys(["lipschitz_estimate", "m1_margin", "m2_margin", "phi_monotone",
                     "samples_used", "passed", "violation"]),
    "verdict": dict.fromkeys(["m1", "m2", "phi_monotone"]),
}
_VIOLATION = dict.fromkeys(
    ["condition", "t", "state_x", "state_r", "x1", "x2", "y1", "y2", "z1", "z2"]
)
_LEVEL = dict.fromkeys(["alpha", "eta", "residuals", "converged", "contraction_ratio"])
_SOLVE = {
    **_STAMP,
    "m_norm": _M_NORM,
    "apriori": _APRIORI,
    "levels": [_LEVEL],
    **dict.fromkeys(["diverged", "total_linear_solves"]),
}


def test_diagnose_json_schema(tmp_path):
    # the key tree of every JSON artifact, the diagnostics JSON that `solve`
    # writes next to its CSV among them
    fixed = {"jump_kind": "fixed", "rate": 1.0, "jump_param": 1.0}
    cases = [
        ("sample-subdiffusion", {"jumps": _PARETO}, EXIT_OK, {
            **_STAMP,
            "subordinator": dict.fromkeys(["kappa", "jump_kind", "rate", "jump_param", "cutoff"]),
            **dict.fromkeys(["n_paths", "mean_L_T", "x0", "var_X_T"]),
        }),
        ("check-hypothesis", {}, EXIT_OK, {**_STAMP, "bundle": None, "report": _REPORT}),
        ("check-hypothesis", {"bundle": "flipped_b_demo"}, EXIT_OK, {
            **_STAMP, "bundle": None, "report": {**_REPORT, "violation": _VIOLATION},
        }),
        ("solve-linear", {"forcings": {"b0": 1.0}}, EXIT_OK,
         {**_STAMP, "m_norm": _M_NORM, "apriori": _APRIORI}),
        ("solve", {"jumps": fixed}, EXIT_OK, _SOLVE),
        ("solve", {"bundle": "riccati_test", "bundle_params": {"c": 8.0}}, EXIT_DIVERGED, {
            **_SOLVE, "m_norm": None, "apriori": None, "error": None,
        }),
    ]
    for i, (subcommand, over, code, tree) in enumerate(cases):
        out = tmp_path / str(i)
        cfg = base_config(output_dir=str(out), **over)
        assert run(subcommand, write_config(tmp_path, cfg)) == code
        doc = json.loads((out / f"t_{subcommand}_9.json").read_text())
        assert _key_tree(doc) == tree, (subcommand, over)
        if subcommand == "solve" and code == EXIT_OK:
            assert all(level["converged"] for level in doc["levels"])


def test_main_entry(tmp_path):
    cfg = base_config(output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert main(["sample-subdiffusion", str(path)]) == EXIT_OK
    with pytest.raises(SystemExit):
        main([])


def _assert_write_error(capsys, code, out):
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write artifacts to {out}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("route", ["scenario key", "argument"])
def test_unwritable_output_dir_is_a_config_error(tmp_path, capsys, route):
    # a regular file where the output directory's parent should be
    (tmp_path / "blocker").write_text("")
    out = tmp_path / "blocker" / "out"
    if route == "scenario key":
        path = write_config(tmp_path, base_config(output_dir=str(out)))
        code = main(["sample-subdiffusion", str(path)])
    else:
        code = run("sample-subdiffusion", write_config(tmp_path, base_config()), output_dir=out)
    _assert_write_error(capsys, code, out)


@pytest.mark.parametrize("subcommand", ["solve", "solve-linear", "sample-subdiffusion"])
def test_unwritable_output_dir_is_refused_before_any_compute(tmp_path, capsys, monkeypatch, subcommand):
    # the directory is judged at its nearest existing ancestor, a regular
    # file here, before the handler runs, and nothing is created
    def never(*args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, subcommand, never)
    (tmp_path / "blocker").write_text("")
    before = sorted(tmp_path.rglob("*"))
    path = write_config(tmp_path, base_config(output_dir="blocker/out"))
    monkeypatch.chdir(tmp_path)
    _assert_write_error(capsys, run(subcommand, path), Path("blocker/out"))
    assert sorted(tmp_path.rglob("*")) == sorted([*before, path])
    assert not (tmp_path / "blocker").is_dir()


def test_output_dir_without_write_permission_is_refused(tmp_path, capsys, monkeypatch):
    # os.access denies the nearest existing ancestor: the suite may run as
    # root, to whom a chmod denies nothing
    locked, access = tmp_path / "locked", os.access
    locked.mkdir()

    def never(*args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli.os, "access", lambda p, mode: Path(p) != locked and access(p, mode))
    monkeypatch.setitem(cli._HANDLERS, "solve", never)
    out = locked / "out"
    code = run("solve", write_config(tmp_path, base_config(output_dir=str(out))))
    assert code == EXIT_CONFIG
    denied = f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{locked}'"
    assert capsys.readouterr().err == f"cannot write artifacts to {out}: {denied}\n"
    assert not out.exists()


def test_csv_written_before_a_failing_json_write_stays(tmp_path, capsys):
    # a directory where the JSON artifact should be
    out = tmp_path / "out"
    (out / "t_solve-linear_9.json").mkdir(parents=True)
    path = write_config(tmp_path, base_config(output_dir=str(out)))
    _assert_write_error(capsys, run("solve-linear", path), out)
    assert (out / "t_solve-linear_9.csv").read_text().startswith("# config_hash=")


def test_jump_param_list_round_trip(tmp_path):
    cfg = base_config(
        output_dir=str(tmp_path),
        jumps={"jump_kind": "pareto", "rate": 0.5, "jump_param": [0.2, 1.5]},
    )
    path = write_config(tmp_path, cfg)
    assert run("sample-subdiffusion", path) == EXIT_OK
    sc = ScenarioConfig(cfg)
    assert sc.subordinator.jump_param == (0.2, 1.5)


@pytest.mark.parametrize("key, value", [("eta", 0.5)])
@pytest.mark.parametrize("strategy", [None, "flatten"])
def test_nested_only_keys_refused_under_flatten(tmp_path, capsys, key, value, strategy):
    over = {key: value, "output_dir": str(tmp_path / "out")}
    if strategy is not None:
        over["strategy"] = strategy
    path = write_config(tmp_path, base_config(**over))
    assert run("solve", path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config key {key}" in err and "nested" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # the same key is read under "nested"
    ok = base_config(**{**over, "strategy": "nested", "eta": 1.0})
    assert run("solve", write_config(tmp_path, ok, "nested.json")) == EXIT_OK


@pytest.mark.parametrize(
    "over, message",
    [
        ({"strategy": "nested", "eta": 0.3}, "eta 0.3 needs 4 ladder levels, more than 3"),
        ({"strategy": "nested", "eta": 0.01}, "eta 0.01 needs 100 ladder levels, more than 3"),
        ({"strategy": "nested"}, 'required with "strategy": "nested"'),
    ],
)
def test_deep_or_missing_step_refused_before_compute(tmp_path, capsys, monkeypatch, over, message):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the step was checked")

    monkeypatch.setattr(cli, "check_hypothesis", no_compute)
    monkeypatch.setattr(cli, "build_ensemble", no_compute)
    err = _assert_config_error(tmp_path, capsys, "eta", **over)
    assert message in err


@pytest.mark.parametrize("key", ["C1", "nested_max_depth"])
def test_removed_step_keys_are_unknown(tmp_path, capsys, key):
    err = _assert_config_error(tmp_path, capsys, key, strategy="nested", eta=0.5, **{key: 1})
    assert err == f"config key {key}: unknown key\n"


@pytest.mark.parametrize("subcommand", ["solve"])
def test_inner_level_out_of_iterates_exit_code(tmp_path, capsys, subcommand):
    # flat Picard runs out of its 11 iterates and the ladder takes over; its
    # top level converges in 11 iterates; the first four of its 11 inner
    # loops run out of them.  Exit 6 counts the ladder's loops alone.
    cfg = base_config(
        seed=1,
        n_paths=200,
        T=3.0,
        jumps={"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0},
        bundle_params={"c": 4.0},
        strategy="nested",
        eta=0.5,
        max_picard=11,
        output_dir=str(tmp_path),
    )
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    doc = json.loads((tmp_path / f"t_{subcommand}_1.json").read_text())
    levels = doc["levels"]
    assert err == (
        "flat Picard abandoned after 11 linear solves: max_picard=11 reached; "
        "the eta=0.5 ladder took over\n"
        "Picard iteration did not converge within max_picard=11 iterates: "
        f"4 of 12 loops, the first at alpha=0.5 with last residual {levels[1]['residuals'][-1]:g}\n"
    )
    assert levels[0]["alpha"] == levels[0]["eta"] == 1.0 and len(levels[0]["residuals"]) == 11
    assert levels[-1]["alpha"] == 1.0 and levels[-1]["converged"] is True
    assert len(levels[-1]["residuals"]) == 11
    assert [level["converged"] for level in levels] == [False] * 5 + [True] * 8
    assert doc["diverged"] is False
    assert (tmp_path / "t_solve_1.csv").exists()


# riccati_test(4) on a drift clock: flat Picard diverges, and the eta 1/3
# ladder solves it
_RICCATI_4 = {"seed": 1, "n_paths": 400, "n_steps": 50, "bundle": "riccati_test",
              "bundle_params": {"c": 4.0}, "max_picard": 60}
_FALLBACK_LINE = re.compile(
    r"flat Picard abandoned after (\d+) linear solves: its residual ratio rose to "
    r"\d\.\d{4} after falling; the eta=0\.333333 ladder took over"
)


def test_stalled_flat_picard_falls_back_on_the_ladder(tmp_path, capsys):
    cfg = base_config(output_dir=str(tmp_path), strategy="nested", eta=1 / 3, **_RICCATI_4)
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_OK
    err = capsys.readouterr().err
    match = _FALLBACK_LINE.fullmatch(err.rstrip("\n"))
    assert match and err.count("\n") == 1, err
    text = (tmp_path / "t_solve_1.json").read_text()
    doc = json.loads(text)
    flat, *ladder = doc["levels"]
    # the abandoned loop is the first record; the stall rule stopped it long
    # before the 1e6 guard would have, and its solves are counted
    assert flat["alpha"] == flat["eta"] == 1.0 and flat["converged"] is False
    assert len(flat["residuals"]) == int(match.group(1)) < 10
    assert all(level["converged"] and level["eta"] < 1.0 for level in ladder)
    assert doc["total_linear_solves"] > len(flat["residuals"]) + len(ladder[-1]["residuals"])
    assert doc["diverged"] is False
    # why the loop was abandoned is said on stderr only
    assert "abandoned" not in text and "rose" not in text
    assert (tmp_path / "t_solve_1.csv").exists()


def test_flat_picard_alone_still_diverges(tmp_path, capsys):
    # the same scenario with no ladder: the guard trips, exit 3, no fallback
    cfg = base_config(output_dir=str(tmp_path), **_RICCATI_4)
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("Picard iteration diverged at alpha=1, eta=1; ")
    assert err.count("\n") == 1 and "abandoned" not in err
    doc = json.loads((tmp_path / "t_solve_1.json").read_text())
    assert doc["diverged"] is True and len(doc["levels"]) == 1
    assert doc["total_linear_solves"] == len(doc["levels"][0]["residuals"]) > 10


def test_ladder_divergence_after_the_fallback_exit_code(tmp_path, capsys):
    # riccati_test(8): flat Picard stalls, and the eta 0.5 ladder diverges too
    cfg = base_config(output_dir=str(tmp_path), bundle="riccati_test",
                      bundle_params={"c": 8.0}, strategy="nested", eta=0.5)
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_DIVERGED
    err = capsys.readouterr().err.splitlines()
    doc = json.loads((tmp_path / "t_solve_9.json").read_text())
    flat, last = doc["levels"][0], doc["levels"][-1]
    assert len(err) == 2
    assert err[0].startswith(f"flat Picard abandoned after {len(flat['residuals'])} linear solves: ")
    assert err[0].endswith("; the eta=0.5 ladder took over")
    assert err[1] == doc["error"] and err[1].startswith("Picard iteration diverged at ")
    assert ", eta=0.5; " in err[1]
    assert doc["diverged"] is True and flat["eta"] == 1.0 and flat["converged"] is False
    assert last["eta"] == 0.5 and last["converged"] is False
    assert not (tmp_path / "t_solve_9.csv").exists()


def test_nested_scenario_that_converges_flat_records_one_loop(tmp_path, capsys):
    # a drift scenario on which flat Picard converges: the nested solve runs
    # no ladder, says nothing on stderr, and writes the flat solve's payload
    docs = {}
    for strategy in ({"strategy": "flatten"}, {"strategy": "nested", "eta": 0.5}):
        out = tmp_path / strategy["strategy"]
        cfg = base_config(output_dir=str(out), n_paths=400, n_steps=50, seed=1,
                          bundle_params={"c": 0.5}, **strategy)
        assert run("solve", write_config(tmp_path, cfg)) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "t_solve_1.json").read_text())
        del doc["config_hash"]
        docs[strategy["strategy"]] = doc
    levels = docs["nested"]["levels"]
    assert len(levels) == 1 and levels[0]["eta"] == 1.0 and levels[0]["converged"] is True
    assert docs["nested"] == docs["flatten"]


@pytest.mark.parametrize("subcommand", ["sample-subdiffusion"])
def test_jump_budget_is_a_config_error(tmp_path, capsys, monkeypatch, subcommand):
    jumps = {"jump_kind": "truncated_stable", "jump_param": 0.9, "cutoff": 1e-12}
    path = write_config(tmp_path, base_config(jumps=jumps, output_dir=str(tmp_path / "out")))

    def no_draws(*args, **kwargs):
        raise AssertionError("a random stream was created")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(cli.ConfigError, match="config key jumps: .* jumps on 100 paths"):
        ScenarioConfig(json.loads(path.read_text())).ensemble()
    assert main([subcommand, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config key jumps" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_csv_writer_matches_per_value_format(tmp_path, monkeypatch):
    values = [0, -0.0, -3, 2**53, 1, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
              1.7976931348623157e308, 1e300, 0.1, -1 / 3, 123456789.125, np.pi, np.inf, -np.inf,
              np.nan]
    table = np.array(values + [np.float64(7)] * 2, dtype=float).reshape(5, 4)
    table[:, 0] = np.arange(5)  # an int-valued id column, as in the long format
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 2)  # several chunks and a short last one
    out = tmp_path / "t.csv"
    cli._write_csv(out, ScenarioConfig(base_config()), ["a", "b", "c", "d"], table)
    body = out.read_bytes().split(b"\n", 2)[2]
    expected = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in table)
    assert body == expected.encode()
    assert b"-0," in body and b"e-324" in body and b"inf" in body and b"nan" in body


def _nan_bundle(where):
    """canonical_monotone whose b is NaN where `where(t, x)` holds."""

    def factory():
        bundle = coefficients.get_bundle("canonical_monotone")
        bundle.b = lambda t, st, x, y: np.where(where(t, x), np.nan, -y)
        return bundle

    return factory


def _assert_numerical_failure(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("subcommand", ["check-hypothesis", "solve"])
def test_nan_in_hypothesis_cloud_is_numerical_failure(tmp_path, capsys, monkeypatch, subcommand):
    def nan_phi():
        bundle = coefficients.get_bundle("canonical_monotone")
        bundle.phi = lambda st, x: np.full(np.shape(x), np.nan)
        return bundle

    nan_b = _nan_bundle(lambda t, x: np.ones(np.shape(x), dtype=bool))
    for name, factory in (("b", nan_b), ("phi", nan_phi)):
        monkeypatch.setitem(coefficients._REGISTRY, "nan_cloud", factory)
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(bundle="nan_cloud", output_dir=str(out)))
        assert run(subcommand, path) == EXIT_NUMERICAL
        _assert_numerical_failure(capsys, f"coefficient {name} produced non-finite values")
        assert not out.exists()


def test_nan_during_solve_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # NaN only at the terminal node t = T, which the hypothesis cloud (t < T)
    # never samples
    nan_at_T = _nan_bundle(lambda t, x: np.broadcast_to(t >= 1.0, np.shape(x)))
    monkeypatch.setitem(coefficients._REGISTRY, "nan_at_T", nan_at_T)
    path = write_config(tmp_path, base_config(bundle="nan_at_T", output_dir=str(tmp_path)))
    assert run("check-hypothesis", path, strict=True) == EXIT_OK
    capsys.readouterr()
    assert run("solve", path) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "forcing b0 contains non-finite values")


def test_nan_in_last_partial_block_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # 1100 paths are row blocks of 512, 512 and 76; b is NaN only on the
    # last block, at the interior node t = 0.5, which the hypothesis cloud
    # (1-d samples) never reaches
    def where(t, x):
        hit = np.zeros(np.shape(x), dtype=bool)
        if np.shape(x) == (76, 21):
            hit[:, 10] = True
        return hit

    monkeypatch.setitem(coefficients._REGISTRY, "nan_last_block", _nan_bundle(where))
    out = tmp_path / "out"
    cfg = base_config(bundle="nan_last_block", n_paths=1100, output_dir=str(out))
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "forcing b0 contains non-finite values")
    assert not out.exists()


def test_non_finite_linear_solve_is_numerical_failure(tmp_path, capsys):
    # a finite forcing whose weighted Ito integral overflows
    cfg = base_config(output_dir=str(tmp_path), forcings={"sigma0": 1e308})
    assert run("solve-linear", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "linear solve produced non-finite values")


def test_non_finite_regression_targets_are_numerical_failure(tmp_path, capsys):
    # finite forcings whose sum overflows the running integral, so the
    # terminal aggregate the regressions fit is infinite
    out = tmp_path / "out"
    cfg = base_config(output_dir=str(out), forcings={"g0": 1e308, "b0": 1e308})
    assert run("solve-linear", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "non-finite regression targets")
    assert not out.exists()


def test_singular_design_is_numerical_failure(tmp_path, capsys):
    # a delayed jump-free clock: R = (a - t)^+ is one value that every path
    # shares, collinear with the intercept, so an unridged basis in (X, R) is
    # rank deficient from the first slice on
    cfg = base_config(output_dir=str(tmp_path), a=0.3, basis={"ridge": 0.0})
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "rank deficient at slice 1; add ridge regularization")


def test_jump_free_clock_solves_unridged(tmp_path):
    # R is zero on every path, so the plan fits and judges the design without
    # it: unridged, include_r solves as the X-only basis does, bit for bit
    rows = {}
    for include_r in (True, False):
        out = tmp_path / str(include_r)
        cfg = base_config(output_dir=str(out), basis={"ridge": 0.0, "include_r": include_r})
        assert run("solve", write_config(tmp_path, cfg)) == EXIT_OK
        rows[include_r] = (out / "t_solve_9.csv").read_text().split("\n", 1)[1]
    assert rows[True] == rows[False]


def test_nearly_collinear_design_is_numerical_failure(tmp_path, capsys):
    # over a horizon of 1e-10, X stays within ~1e-5 of x0 = 1: the design
    # [1, X, X^2] has full rank, but its Gram, which LU factors, does not
    cfg = base_config(output_dir=str(tmp_path), T=1e-10,
                      basis={"include_r": False, "ridge": 0.0})
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "rank deficient at slice 1; add ridge regularization")


@pytest.mark.parametrize("subcommand", ["solve-linear", "solve"])
@pytest.mark.parametrize(
    "over",
    [
        {"x0": 1e100},  # the Gram's degree-4 entries overflow
        {"x0": 1e160, "jumps": _EXP, "basis": {"ridge": 0}},  # so do the monomials themselves
    ],
    ids=["gram", "monomials"],
)
def test_overflowing_regression_design_is_numerical_failure(tmp_path, capfd, subcommand, over):
    # one stderr line naming the design: no numpy warning, no LAPACK output
    # on stdout, and no advice about a ridge
    out = tmp_path / "out"
    cfg = base_config(output_dir=str(out), **over)
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert "non-finite regression design" in captured.err
    assert not out.exists()


_EXP_200 = {"seed": 1, "n_paths": 200, "jumps": _EXP}
_EXP_SMALL = {**_EXP_200, "n_steps": 10}
_OVERFLOWING_JUMPS = [
    {"jump_kind": "pareto", "rate": 1.0, "jump_param": [1.0, 0.001]},
    {"jump_kind": "fixed", "rate": 1.0, "jump_param": 1e308},
]


@pytest.mark.parametrize(
    "subcommand, over, message",
    [
        ("solve", {**_EXP_200, "basis": {"degree": 0}, "x0": 1e155}, "M-norm is inf"),
        ("solve-linear", {**_EXP_200, "basis": {"degree": 0}, "x0": 1e155}, "M-norm is inf"),
        ("solve-linear", {"forcings": {"g0": 1e200}}, "M-norm is inf"),
        (
            "sample-subdiffusion",
            {**_EXP_200, "x0": 1e200},
            "non-finite value in the JSON payload at key var_X_T",
        ),
        # the weighted running integral overflows, and so do the regression
        # targets, the ratio estimator or the Ito integral: no numpy warning
        (
            "solve-linear",
            {**_EXP_SMALL, "forcings": {"g0": 1e308}},
            "non-finite regression targets",
        ),
        ("solve-linear", {**_EXP_SMALL, "forcings": {"g0": 1e300}}, "M-norm is nan"),
        (
            "solve-linear",
            {**_EXP_SMALL, "forcings": {"sigma0": 1e308}},
            "linear solve produced non-finite values",
        ),
        # jump sizes, or their sums along a path, beyond float64
        *(
            (subcommand, {**_EXP_SMALL, "jumps": jumps}, "jump sizes overflow float64")
            for subcommand in ("sample-subdiffusion", "solve")
            for jumps in _OVERFLOWING_JUMPS
        ),
        # README's examples
        ("solve", {"bundle_params": {"c": 1e200}}, "M-norm is inf"),
        ("check-hypothesis", {"bundle_params": {"c": 1e307}}, "m1_margin is nan"),
        ("solve", {"x0": 1e100, "basis": {"degree": 4}}, "non-finite regression design at slice"),
        ("solve", {"x0": 1e155, "basis": {"degree": 0}}, "M-norm is inf"),
    ],
    ids=[
        "solve-x0", "solve-linear-x0", "solve-linear-g0", "sample-x0",
        "solve-linear-g0-targets", "solve-linear-g0-ratio", "solve-linear-sigma0",
        "sample-pareto", "sample-fixed", "solve-pareto", "solve-fixed",
        "readme-c", "readme-check-c", "readme-degree-4", "readme-degree-0",
    ],
)
def test_overflow_is_numerical_failure(tmp_path, capsys, subcommand, over, message):
    # finite settings whose squares overflow: an infinite M-norm read as a
    # converged residual (inf <= tol * inf), or NaN and Infinity written into
    # the JSON, where RFC 8259 has neither; one stderr line and no artifact
    out = tmp_path / "out"
    cfg = base_config(output_dir=str(out), **over)
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, message)
    assert not out.exists()


def test_unallocatable_ensemble_is_a_config_error(tmp_path, capsys):
    # 10^14 paths are beyond a 48-bit address space, so no system grants them
    out = tmp_path / "out"
    cfg = base_config(output_dir=str(out), n_paths=10**14)
    assert run("sample-subdiffusion", write_config(tmp_path, cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot allocate the arrays of this run: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_nonfinite_json_key_is_named_by_its_path():
    inf = float("inf")
    assert _nonfinite_key({"seed": 1, "apriori": {"rhs": 1.0, "lhs": inf}}) == "apriori.lhs"
    doc = {"levels": [{"residuals": [1.0, 0.5]}, {"residuals": [2.0, float("nan")]}]}
    assert _nonfinite_key(doc) == "levels[1].residuals[1]"
    assert _nonfinite_key({"n": 3, "name": "x", "ok": True, "v": [1e308]}) is None


def test_overflowing_coupling_is_numerical_failure(tmp_path, capsys):
    # the second Picard iterate of canonical_monotone(c=1e200) overflows the
    # M-norm: a numerical failure, no longer an infinite residual that the
    # divergence guard turns into exit 3.  The hypothesis check passes at this
    # scale, so the failure is the one stderr line.
    out = tmp_path / "out"
    cfg = base_config(bundle_params={"c": 1e200}, output_dir=str(out))
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: M-norm is inf: the squares of the solution overflow",
    ]
    assert not out.exists()


@pytest.mark.parametrize("c, seed", [(256, 5), (1000, 9)])
def test_strict_check_passes_a_monotone_bundle_with_large_c(tmp_path, capsys, c, seed):
    # rounding in c * squares is not a violation: both --strict commands get
    # past the check (the flat ladder then diverges at this coupling)
    cfg = base_config(bundle_params={"c": c}, seed=seed, output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("check-hypothesis", path, strict=True) == EXIT_OK
    doc = json.loads((tmp_path / f"t_check-hypothesis_{seed}.json").read_text())
    assert doc["report"]["passed"] is True and doc["report"]["violation"] is None
    assert run("solve", path, strict=True) == EXIT_DIVERGED
    assert capsys.readouterr().err.startswith("Picard iteration diverged")


def test_too_few_paths_is_a_config_error(tmp_path, capsys):
    # paths are counted on the basis the plan fits: (X, R) at degree 2 has
    # dimension 6 under a jump clock, so 7 paths fit a slice in-sample and
    # each cross-fit half needs 7 as well; a jump-free clock's R is zero on
    # every path and leaves the basis, (X) at degree 2 has dimension 3
    in_sample = "need at least basis dimension + 1 = {} paths, got {}"
    cross_fit = "need at least 2 * (basis dimension + 1) = {} paths to cross-fit the integrand, "
    cross_fit += "got {}"
    expected = [
        (_EXP, 6, in_sample.format(7, 6)),
        (_EXP, 7, cross_fit.format(14, 7)),
        (_EXP, 13, cross_fit.format(14, 13)),
        (_EXP, 14, None),
        (None, 3, in_sample.format(4, 3)),
        (None, 7, cross_fit.format(8, 7)),
        (None, 8, None),
    ]
    for jumps, n_paths, message in expected:
        cfg = base_config(output_dir=str(tmp_path), n_paths=n_paths)
        if jumps is not None:
            cfg["jumps"] = jumps
        legs = {"solve-linear": {**cfg, "forcings": {"b0": 1.0}}, "solve": cfg}
        for subcommand, leg in legs.items():
            code = run(subcommand, write_config(tmp_path, leg))
            err = capsys.readouterr().err
            if message is None:
                assert code == EXIT_OK and err == ""
            else:
                assert code == EXIT_CONFIG and err == message + "\n"


def test_solve_csv_moments_are_the_per_node_reductions(tmp_path):
    jumps = {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0}
    cfg = base_config(bundle="riccati_test", jumps=jumps, n_paths=1000, output_dir=str(tmp_path))
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_OK
    table = np.loadtxt(tmp_path / "t_solve_9.csv", delimiter=",", skiprows=2)
    sc = ScenarioConfig(cfg)
    ens = sc.ensemble()
    theta, _ = solve_fbsde(sc.bundle, sc.x0, ens, sc.solver, sc.basis)
    expected = [
        [ens.grid.times()[k]]
        + [np.mean(a[:, k]) for a in (theta.x, theta.y, theta.z)]
        + [np.std(a[:, k]) for a in (theta.x, theta.y)]
        for k in range(ens.n_steps + 1)
    ]
    # %.17g round-trips every float64, so equal here means equal bit for bit
    assert np.array_equal(table, np.array(expected))


def test_absent_keys_take_the_settings_defaults():
    sc = ScenarioConfig(base_config())
    assert sc.basis == BasisSpec()
    assert sc.solver == ContinuationConfig(eta=1.0)
    assert sc.subordinator == SubordinatorSpec(kappa=1.0)


def test_readme_matches_cli():
    # the README's scenarios validate; tests/test_surface.py checks its
    # subcommand list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scenarios = [json.loads(body) for body in re.findall(r"```json\n(.*?)```", readme, flags=re.S)]
    assert scenarios
    for raw in scenarios:
        ScenarioConfig(raw)
