import json
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
    ["sample-clock", "sample-subdiffusion", "check-hypothesis", "solve-linear", "solve", "diagnose"],
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
    assert run("sample-clock", path) == EXIT_OK
    sc = ScenarioConfig(cfg)
    csv = (tmp_path / "t_sample-clock_9.csv").read_text().splitlines()
    assert csv[0] == f"# config_hash={sc.config_hash} seed=9"
    doc = json.loads((tmp_path / "t_sample-clock_9.json").read_text())
    assert doc["config_hash"] == sc.config_hash
    assert doc["seed"] == 9


def test_drift_only_clock_csv_L_equals_t(tmp_path):
    cfg = base_config(output_dir=str(tmp_path), n_paths=3)
    path = write_config(tmp_path, cfg)
    assert run("sample-clock", path) == EXIT_OK
    lines = (tmp_path / "t_sample-clock_9.csv").read_text().splitlines()
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


@pytest.mark.parametrize("subcommand", ["solve", "sample-clock"])
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
        ("C1", {"strategy": "nested", "C1": float("nan")}),
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
    ("strict", {"strict": "yes"}),
    ("output_dir", {"output_dir": 1}),
    # enums
    ("jumps/jump_kind", {"jumps": {"jump_kind": "gamma"}}),
    ("strategy", {"strategy": "both"}),
    # the scenario name stays a file name inside output_dir
    ("scenario", {"scenario": "../x"}),
    ("scenario", {"scenario": ""}),
    # ranges ScenarioConfig and ContinuationConfig own
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
]


@pytest.mark.parametrize(
    "key, over", _REFUSED, ids=[f"{k}-{i}" for i, (k, _) in enumerate(_REFUSED)]
)
def test_scenario_rules_refuse(tmp_path, capsys, key, over):
    _assert_config_error(tmp_path, capsys, key, **over)


def test_divergence_exit_code_and_artifact(tmp_path):
    cfg = base_config(bundle="divergence_demo", output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("solve", path) == EXIT_DIVERGED
    doc = json.loads((tmp_path / "t_solve_9.json").read_text())
    assert doc["diverged"] is True
    assert "error" in doc


@pytest.mark.parametrize("subcommand", ["solve", "diagnose"])
def test_picard_budget_exhausted_exit_code_and_artifacts(tmp_path, capsys, subcommand):
    cfg = base_config(bundle="riccati_test", max_picard=1, output_dir=str(tmp_path))
    assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    assert "did not converge within max_picard=1" in err and "Traceback" not in err
    doc = json.loads((tmp_path / f"t_{subcommand}_9.json").read_text())
    assert doc["levels"][-1]["converged"] is False
    assert len(doc["levels"][-1]["residuals"]) == 1
    assert doc["diverged"] is False and doc["total_linear_solves"] == 1
    assert (tmp_path / "t_solve_9.csv").exists() == (subcommand == "solve")


def test_strict_hypothesis_failure(tmp_path):
    cfg = base_config(bundle="flipped_b_demo", output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("check-hypothesis", path) == EXIT_OK  # non-strict: report only
    assert run("check-hypothesis", path, strict=True) == EXIT_HYPOTHESIS
    cfg["strict"] = True
    path2 = write_config(tmp_path, cfg, "strict.json")
    assert run("check-hypothesis", path2) == EXIT_HYPOTHESIS
    doc = json.loads((tmp_path / "t_check-hypothesis_9.json").read_text())
    assert doc["report"]["passed"] is False
    assert doc["report"]["violation"] is not None


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
    assert set(doc["apriori"]) == {"lhs", "rhs", "ratio", "se", "degenerate"}


def test_solve_requires_bundle(tmp_path):
    cfg = base_config(output_dir=str(tmp_path))
    del cfg["bundle"]
    path = write_config(tmp_path, cfg)
    assert run("solve", path) == EXIT_CONFIG


def test_diagnose_json_schema(tmp_path):
    cfg = base_config(output_dir=str(tmp_path), jumps={"jump_kind": "fixed", "rate": 1.0, "jump_param": 1.0})
    path = write_config(tmp_path, cfg)
    assert run("diagnose", path) == EXIT_OK
    doc = json.loads((tmp_path / "t_diagnose_9.json").read_text())
    assert set(doc["m_norm"]) == {"value", "parts"}
    assert set(doc["contraction"]) == {"ratios", "fit"}
    assert set(doc["apriori"]) == {"lhs", "rhs", "ratio", "se", "degenerate"}


def test_main_entry(tmp_path):
    cfg = base_config(output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert main(["sample-clock", str(path)]) == EXIT_OK
    with pytest.raises(SystemExit):
        main([])


def test_jump_param_list_round_trip(tmp_path):
    cfg = base_config(
        output_dir=str(tmp_path),
        jumps={"jump_kind": "pareto", "rate": 0.5, "jump_param": [0.2, 1.5]},
    )
    path = write_config(tmp_path, cfg)
    assert run("sample-clock", path) == EXIT_OK
    sc = ScenarioConfig(cfg)
    assert sc.subordinator.jump_param == (0.2, 1.5)


@pytest.mark.parametrize("key, value", [("eta", 0.5), ("C1", 2.0)])
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


@pytest.mark.parametrize("subcommand", ["sample-clock", "sample-subdiffusion"])
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
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["check-hypothesis", "solve"])
def test_nan_in_hypothesis_cloud_is_numerical_failure(tmp_path, capsys, monkeypatch, subcommand):
    nan_everywhere = _nan_bundle(lambda t, x: np.ones(np.shape(x), dtype=bool))
    monkeypatch.setitem(coefficients._REGISTRY, "nan_cloud", nan_everywhere)
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(bundle="nan_cloud", output_dir=str(out)))
    assert run(subcommand, path) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "coefficient b produced non-finite values")
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
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("solve-linear", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "linear solve produced non-finite values")


def test_non_finite_regression_targets_are_numerical_failure(tmp_path, capsys):
    # finite forcings whose sum overflows the running integral, so the
    # terminal aggregate the regressions fit is infinite
    out = tmp_path / "out"
    cfg = base_config(output_dir=str(out), forcings={"g0": 1e308, "b0": 1e308})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("solve-linear", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "non-finite regression targets")
    assert not out.exists()


def test_singular_design_is_numerical_failure(tmp_path, capsys):
    # without jumps R is identically zero, so an unridged basis in (X, R) is
    # rank deficient
    cfg = base_config(output_dir=str(tmp_path), basis={"ridge": 0.0})
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "rank deficient at slice 1; add ridge regularization")


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


def test_too_few_paths_is_a_config_error(tmp_path, capsys):
    # the default basis has dimension 6: 7 paths fit a slice in-sample, and
    # each cross-fit half needs 7 as well
    expected = {
        3: "need at least basis dimension + 1 = 7 paths, got 3",
        7: "need at least 2 * (basis dimension + 1) = 14 paths to cross-fit the integrand, got 7",
        13: "need at least 2 * (basis dimension + 1) = 14 paths to cross-fit the integrand, got 13",
    }
    for n_paths, message in expected.items():
        cfg = base_config(output_dir=str(tmp_path), n_paths=n_paths, forcings={"b0": 1.0})
        for subcommand in ("solve-linear", "solve"):
            assert run(subcommand, write_config(tmp_path, cfg)) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err


def test_solve_csv_moments_are_the_per_node_reductions(tmp_path):
    jumps = {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0}
    cfg = base_config(bundle="riccati_test", jumps=jumps, n_paths=1000, output_dir=str(tmp_path))
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_OK
    table = np.loadtxt(tmp_path / "t_solve_9.csv", delimiter=",", skiprows=2)
    sc = ScenarioConfig(cfg)
    ens = sc.ensemble()
    theta, _ = solve_fbsde(sc.bundle(), sc.x0, ens, sc.solver, sc.basis)
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
    # nested without eta steps by the bound derived from C1
    assert ScenarioConfig(base_config(strategy="nested")).solver.eta is None


def test_readme_matches_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w+)\n(.*?)```", readme, flags=re.S)
    scenarios = [json.loads(body) for lang, body in blocks if lang == "json"]
    assert scenarios
    for raw in scenarios:
        ScenarioConfig(raw)
    documented = {
        line.split()[1]
        for lang, body in blocks
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("subfbsde ")
    }
    assert documented == set(cli._HANDLERS)
