"""Config parsing, validation, and hash identity."""
import dataclasses

import pytest

from stablegap import (
    DEFAULT_ALPHA_GRID,
    ExperimentConfig,
    load_config,
    parse_config_text,
)


def base(**kw):
    kw.setdefault("experiment", "alpha_sweep")
    kw.setdefault("seed", 7)
    return ExperimentConfig(**kw)


def test_defaults_and_coercion():
    cfg = base(seed="9", alpha_grid=["1.9", 1.95], d_grid=[2.0])
    assert cfg.seed == 9
    assert cfg.alpha_grid == (1.9, 1.95)
    assert cfg.d_grid == (2,)
    assert cfg.estimator == "sliced"
    assert base().alpha_grid == DEFAULT_ALPHA_GRID


@pytest.mark.parametrize("kw, match", [
    ({"experiment": "nope"}, "unknown experiment"),
    ({"estimator": "exact"}, "unknown estimator"),
    ({"drift": "linear"}, "unknown drift"),
    ({"alpha_grid": ()}, "nonempty"),
    ({"alpha_grid": (2.1,)}, r"alpha values must lie in \(1,2\]"),
    ({"alpha_grid": (1.0,)}, r"alpha values must lie in \(1,2\]"),
    ({"d_grid": (0,)}, "dimensions must be >= 1"),
    ({"n_samples": 0}, "n_samples must be >= 1"),
    ({"experiment": "contraction", "n_steps": -3}, "n_steps must be >= 1"),
    ({"experiment": "contraction", "T": 0.0}, "T must be positive"),
    ({"drift": "custom", "burn_in": -1.0}, "burn_in must be positive"),
    ({"n_bootstrap": 1}, "n_bootstrap must be >= 2"),
    ({"n_projections": 0}, "n_projections must be >= 1"),
], ids=[f"kw{i}" for i in range(13)])
def test_validation_rejects(kw, match):
    with pytest.raises(ValueError, match=match):
        base(**kw)


@pytest.mark.parametrize("kw, match", [
    ({"experiment": "contraction", "estimator": "assignment"},
     "contraction does not read estimator"),
    ({"experiment": "gradient_check", "T": 2.0}, "gradient_check does not read T"),
    ({"experiment": "dim_sweep", "n_bootstrap": 2}, "dim_sweep does not read n_bootstrap"),
    ({"experiment": "selftest", "n_samples": 64}, "selftest does not read n_samples"),
    ({"experiment": "selftest", "drift": "custom"}, "selftest does not read drift"),
    ({"experiment": "transient", "burn_in": 5.0}, "burn_in only under drift=custom"),
    ({"experiment": "contraction", "drift": "custom", "burn_in": 5.0},
     "contraction does not read burn_in"),
    ({"drift_param": 0.3}, "drift_param only under drift=custom"),
    ({"d_grid": (1, 2)}, "first value of d_grid only"),
    ({"experiment": "contraction", "alpha_grid": (1.8, 1.9)},
     "first value of alpha_grid only"),
    ({"experiment": "dim_sweep", "alpha_grid": (1.8, 1.9), "d_grid": (1, 2, 3)},
     "first value of alpha_grid only"),
])
def test_fields_the_experiment_never_reads_are_refused(kw, match):
    # a value nothing reads would change the config hash and nothing else
    with pytest.raises(ValueError, match=match):
        base(**kw)


def test_fields_read_or_left_at_default_are_accepted():
    # the default value of an unread field is accepted and keeps the hash
    assert (base(experiment="contraction", estimator="sliced").config_hash()
            == base(experiment="contraction").config_hash())
    base(experiment="selftest", alpha_grid=DEFAULT_ALPHA_GRID, d_grid=(1,))
    base(experiment="transient", drift="custom", drift_param=0.3, burn_in=5.0,
         alpha_grid=(1.9,), d_grid=(2,), n_steps=10, T=1.0, x_start=3.0,
         estimator="mean-norm", n_bootstrap=4, n_projections=8, n_samples=64)
    base(experiment="dim_sweep", drift="custom", burn_in=5.0, alpha_grid=(1.9,),
         d_grid=(1, 2, 3), n_projections=8)
    base(experiment="gradient_check", drift="custom", drift_param=0.2,
         alpha_grid=(1.5, 1.8), n_steps=100)


def test_dimensions_must_be_integers():
    assert base(experiment="dim_sweep", alpha_grid=(1.9,), d_grid=[1, 2.0, "3"]).d_grid == \
        (1, 2, 3)
    with pytest.raises(ValueError, match="dimensions must be integers, got 2.7"):
        base(d_grid=[2.7])
    assert parse_config_text("d_grid = 1:5:3\n")["d_grid"] == (1, 3, 5)
    with pytest.raises(ValueError, match="dimensions must be integers, got 2.5"):
        parse_config_text("d_grid = 1:4:3\n")


def test_seed_is_mandatory():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(experiment="selftest", seed=None)
    with pytest.raises(TypeError):
        ExperimentConfig(experiment="selftest")


def test_parse_config_text():
    text = """
    # an experiment
    experiment = alpha_sweep
    seed=3          # trailing comment
    alpha_grid = 1.8,1.9,1.95
    d_grid = 2
    n_samples = 4096
    estimator = assignment
    """
    data = parse_config_text(text)
    assert data["experiment"] == "alpha_sweep"
    assert data["seed"] == 3
    assert data["alpha_grid"] == (1.8, 1.9, 1.95)
    assert data["d_grid"] == (2,)
    cfg = ExperimentConfig(**data)
    assert cfg.n_samples == 4096 and cfg.estimator == "assignment"


def test_parse_grid_range_endpoints():
    data = parse_config_text("experiment=transient\nseed=0\nalpha_grid=1.5:1.99:8\n")
    grid = data["alpha_grid"]
    assert len(grid) == 8
    assert grid[0] == pytest.approx(1.5) and grid[-1] == pytest.approx(1.99)
    single = parse_config_text("seed=0\nalpha_grid=1.9:1.99:1\n")["alpha_grid"]
    assert single == (1.9,)


@pytest.mark.parametrize("line", [
    "mystery = 3",
    "seed",
    "alpha_grid = 1.8:1.9",
    "alpha_grid = 1.8:1.9:0",
    "seed = seven",
])
def test_parse_errors_carry_line_numbers(line):
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("experiment = selftest\n" + line + "\n")


def test_load_config_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("experiment = contraction\nseed = 4\nT = 2.0\n")
    cfg = load_config(str(p))
    assert cfg.experiment == "contraction" and cfg.seed == 4 and cfg.T == 2.0
    # explicit overrides win; None overrides are ignored
    cfg2 = load_config(str(p), {"seed": 11, "T": None, "n_samples": 64})
    assert cfg2.seed == 11 and cfg2.T == 2.0 and cfg2.n_samples == 64


def test_hash_stability_and_sensitivity():
    a = base()
    b = base()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12
    assert base(seed=8).config_hash() != a.config_hash()
    assert base(estimator="assignment").config_hash() != a.config_hash()
    assert base(alpha_grid=(1.9,)).config_hash() != a.config_hash()


def test_hash_ignores_output_path():
    a = base(output_path=None)
    b = base(output_path="/tmp/elsewhere.csv")
    assert a.config_hash() == b.config_hash()
    assert not any(kv.startswith("output_path") for kv in a.key_values())


def test_key_values_sorted_and_complete():
    cfg = base()
    keys = [kv.split("=", 1)[0] for kv in cfg.key_values()]
    assert keys == sorted(keys)
    expected = {f.name for f in dataclasses.fields(cfg)} - {"output_path"}
    assert set(keys) == expected


def test_config_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        base().seed = 5
