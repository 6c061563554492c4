import json

import numpy as np
import pytest

from subfbsde import cli, coefficients
from subfbsde.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_HYPOTHESIS,
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
    # unknown top-level key rejected by the schema
    assert run("solve", write_config(tmp_path, base_config(extra=1), "c.json")) == EXIT_CONFIG
    # unknown bundle
    assert run("solve", write_config(tmp_path, base_config(bundle="nope"), "d.json")) == EXIT_CONFIG
    # non-object config
    lst = tmp_path / "list.json"
    lst.write_text("[1,2]")
    assert run("solve", lst) == EXIT_CONFIG
    # unknown subcommand
    assert run("frobnicate", write_config(tmp_path, base_config(), "e.json")) == EXIT_CONFIG


def test_divergence_exit_code_and_artifact(tmp_path):
    cfg = base_config(bundle="divergence_demo", output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert run("solve", path) == EXIT_DIVERGED
    doc = json.loads((tmp_path / "t_solve_9.json").read_text())
    assert doc["diverged"] is True
    assert "error" in doc


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


def test_non_finite_linear_solve_is_numerical_failure(tmp_path, capsys):
    # a finite forcing whose weighted Ito integral overflows
    cfg = base_config(output_dir=str(tmp_path), forcings={"sigma0": 1e308})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("solve-linear", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "linear solve produced non-finite values")


def test_singular_design_is_numerical_failure(tmp_path, capsys):
    # without jumps R is identically zero, so an unridged basis in (X, R) is
    # rank deficient
    cfg = base_config(output_dir=str(tmp_path), basis={"ridge": 0.0})
    assert run("solve", write_config(tmp_path, cfg)) == EXIT_NUMERICAL
    _assert_numerical_failure(capsys, "rank deficient at slice 1")


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
