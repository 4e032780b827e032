"""Config parsing, validation, and hash identity."""
import dataclasses

import pytest

from stablegap import (
    ASSIGNMENT_CAP,
    DEFAULT_ALPHA_GRID,
    CapacityError,
    DriftSpec,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from stablegap import cli, config
from stablegap.config import GRID_COUNT_CAP, MEMBER_STEP_CAP, euler_step


def base(**kw):
    kw.setdefault("experiment", "alpha_sweep")
    kw.setdefault("seed", 7)
    return ExperimentConfig(**kw)


def test_defaults_and_coercion():
    cfg = base(seed="9", alpha_grid=["1.9", 1.95, "1.99"], d_grid=[2.0])
    assert cfg.seed == 9
    assert cfg.alpha_grid == (1.9, 1.95, 1.99)
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
    ({"experiment": "contraction", "T": float("inf")}, "T must be finite"),
    ({"drift": "custom", "burn_in": float("inf")}, "burn_in must be finite"),
    ({"experiment": "contraction", "x_start": float("nan")}, "x_start must be finite"),
    ({"drift": "custom", "drift_param": float("inf")}, "drift_param must be finite"),
    # numpy rounds a Philox key holding an entry >= 2**63 (a masked negative
    # seed is one), and float64 holds every integer up to 2**53 only
    ({"seed": -1}, r"seed must lie in \[0, 2\*\*53\], got -1"),
    ({"seed": 2**53 + 1}, r"seed must lie in \[0, 2\*\*53\], got 9007199254740993"),
    # integer text is read exactly, not rounded to 2**53 through a float
    ({"seed": "9007199254740993"}, r"seed must lie in \[0, 2\*\*53\], got 9007199254740993"),
], ids=[f"kw{i}" for i in range(20)])
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
    ({"experiment": "transient", "alpha_grid": (1.9,), "n_steps": 5},
     "transient reads n_steps only under drift=custom; got n_steps=5"),
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
         estimator="radial", n_bootstrap=4, n_projections=8, n_samples=64)
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


def test_one_hash_per_value_spelling():
    # counts are ints and real scalars floats, whatever spelling came in
    assert (base(experiment="contraction", T=5).config_hash()
            == base(experiment="contraction", T=5.0).config_hash())
    assert (base(experiment="contraction", n_samples=512.0, n_steps="5000").config_hash()
            == base(experiment="contraction", n_samples=512, n_steps=5000).config_hash())
    cfg = base(experiment="transient", drift="custom", drift_param=0, burn_in=5, x_start=3,
               n_bootstrap=4.0, alpha_grid=(1.9,))
    assert [type(v) for v in (cfg.drift_param, cfg.burn_in, cfg.x_start, cfg.n_bootstrap)] \
        == [float, float, float, int]
    assert "burn_in=5.0" in cfg.key_values()
    for kw in ({"n_samples": 100.5}, {"experiment": "contraction", "n_steps": 10.5},
               {"seed": 1.5}, {"n_projections": "8.5"}):
        name = [k for k in kw if k != "experiment"][0]
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {kw[name]}"):
            base(**kw)


def _text(v):
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


@pytest.mark.parametrize("experiment, field, flag, value, text", [
    ("contraction", "n_samples", "--samples", 512, "512.0"),
    ("contraction", "n_samples", "--samples", 4, "4e0"),
    ("contraction", "seed", "--seed", 1, "1.0"),
    ("contraction", "T", "--t-max", 0.5, "5e-1"),
    ("dim_sweep", "d_grid", "--dim", (2, 3, 5), "2,3,5"),
    ("dim_sweep", "d_grid", "--dim", (2, 3, 4), "2:4:3"),
    ("alpha_sweep", "alpha_grid", "--alpha", (1.8, 1.9, 1.95), "1.8,1.9,1.95"),
], ids=["samples_512.0", "samples_4e0", "seed_1.0", "T_5e-1", "dims_list", "dims_range",
        "alphas_list"])
def test_one_value_is_one_config_from_code_file_or_flag(experiment, field, flag, value,
                                                        text, tmp_path):
    # the Python value, its text through the API, a config-file line and a
    # flag all meet in one coercion, so they store one value under one hash
    others = {"experiment": experiment, "seed": 3}
    if experiment == "dim_sweep":
        others["alpha_grid"] = (1.9,)
    base_file, spelled_file = tmp_path / "base.cfg", tmp_path / "spelled.cfg"
    base_file.write_text("".join(f"{k} = {_text(v)}\n" for k, v in others.items()))
    spelled_file.write_text(base_file.read_text() + f"{field} = {text}\n")
    argv = [experiment.replace("_", "-"), "--config", str(base_file), flag, text]
    configs = [ExperimentConfig(**dict(others, **{field: value})),
               ExperimentConfig(**dict(others, **{field: text})),
               load_config(str(spelled_file)),
               cli._build_config(cli.build_parser().parse_args(argv))]
    assert [getattr(c, field) for c in configs] == [value] * 4
    assert [type(getattr(c, field)) for c in configs] == [type(value)] * 4
    assert len({c.config_hash() for c in configs}) == 1


def test_grid_text_is_grid_syntax_in_every_input():
    # "235" is one dimension, not the characters 2, 3 and 5
    assert base(d_grid="235").d_grid == (235,)
    with pytest.raises(ValueError, match=r"need >= 3 dimensions, got \(235,\)"):
        base(experiment="dim_sweep", alpha_grid=(1.9,), d_grid="235")
    assert base(alpha_grid="1.9:1.99:4") == base(alpha_grid=(1.9, 1.93, 1.96, 1.99))


def test_defaults_are_resolved_in_one_record():
    r = base().resolved()
    assert (r.n_samples, r.n_steps, r.T, r.burn_in) == (20_000_000, None, None, None)
    assert base(estimator="assignment").resolved().n_samples == ASSIGNMENT_CAP
    assert base(experiment="dim_sweep", alpha_grid=(1.9,), d_grid=(1, 2, 3)) \
        .resolved().n_samples == 1_000_000
    # the OU transient draws each time's laws exactly and steps nothing
    r = base(experiment="transient", alpha_grid=(1.9,)).resolved()
    assert (r.n_samples, r.n_steps, r.T, r.burn_in) == (4096, None, 8.0, None)
    # tanh with c = 0.5: theta1 = 1.5 shortens the step, theta0 = 0.5 sets the burn-in
    r = base(experiment="transient", drift="custom", alpha_grid=(1.9,), T=2.0).resolved()
    assert (r.n_steps, r.burn_in) == (3000, 20.0)
    r = base(experiment="contraction").resolved()
    assert (r.n_samples, r.n_steps, r.T) == (512, 5000, 5.0)
    r = base(experiment="gradient_check").resolved()
    assert (r.n_samples, r.n_steps, r.T) == (65_536, 1000, None)  # horizon 1, T unread
    assert base(experiment="selftest").resolved() == base(experiment="selftest")
    # explicit values are kept, and resolving twice changes nothing
    r = base(experiment="contraction", n_samples=8, n_steps=10, T=0.5).resolved()
    assert (r.n_samples, r.n_steps, r.T) == (8, 10, 0.5)
    assert r.resolved() == r


def test_default_and_explicit_spellings_are_one_config():
    default = base(experiment="contraction")
    explicit = base(experiment="contraction", n_samples=512, n_steps=5000, T=5.0)
    assert default.config_hash() == explicit.config_hash()
    assert default.key_values() == explicit.key_values()
    # resolution is a view: replacing T recomputes the step count from it
    moved = dataclasses.replace(default, T=2.0)
    built = base(experiment="contraction", T=2.0)
    assert moved.resolved().n_steps == built.resolved().n_steps == 2000
    assert moved.config_hash() == built.config_hash() != default.config_hash()


@pytest.mark.parametrize("kw, error, match", [
    ({"estimator": "assignment", "n_samples": ASSIGNMENT_CAP + 1}, CapacityError,
     "capped at n=4096.*use --estimator sliced"),
    ({"alpha_grid": (1.9, 1.95, 2.0)}, ValueError, "need >= 3 alphas below 2"),
    ({"experiment": "dim_sweep", "alpha_grid": (1.9,), "d_grid": (1, 2)}, ValueError,
     "need >= 3 dimensions"),
    ({"experiment": "dim_sweep", "alpha_grid": (2.0,), "d_grid": (1, 2, 3)}, ValueError,
     "alpha < 2"),
    # a repeated value passed the ">= 3" counts and fitted a line on one x value
    ({"alpha_grid": (1.9, 1.9, 1.9)}, ValueError,
     r"alpha_grid repeats a value: \(1.9, 1.9, 1.9\)"),
    ({"experiment": "dim_sweep", "alpha_grid": (1.9,), "d_grid": (2, 3, 2)}, ValueError,
     r"d_grid repeats a value: \(2, 3, 2\)"),
    # 4096 members x 1e9 default steps (transient steps Euler under
    # drift=custom only; drift_param = 0 is the OU drift), and 512 default
    # members x 1e12 steps
    ({"experiment": "transient", "alpha_grid": (1.9,), "T": 1e6, "drift": "custom",
      "drift_param": 0.0}, CapacityError,
     r"transient Euler work capped at 1e\+09 member-steps.*n_steps=1000000000"),
    ({"experiment": "contraction", "n_steps": 10**12}, CapacityError,
     "contraction Euler work capped.*n_samples=512 x n_steps=1000000000000"),
    # the appended reference would repeat 2.0 and divide it by itself
    ({"experiment": "gradient_check", "alpha_grid": (1.5, 2.0)}, ValueError,
     r"gradient_check adds the alpha = 2 reference itself; leave 2.0 out of alpha_grid, "
     r"got \(1.5, 2.0\)"),
], ids=["assignment_cap", "alpha_sweep_grid", "dim_sweep_dims", "dim_sweep_alpha_two",
        "alpha_grid_repeats", "d_grid_repeats", "transient_euler_work",
        "contraction_euler_work", "gradient_check_alpha_two"])
def test_runs_that_cannot_finish_are_refused_when_built(kw, error, match):
    with pytest.raises(error, match=match):
        base(**kw)


def test_ou_transient_accepts_n_steps_at_its_euler_default_only():
    # configs written when the OU transient stepped Euler spell out T/h;
    # that value is accepted and leaves the record, so the hash is the one
    # of leaving it out, and any other count is refused
    plain = base(experiment="transient", alpha_grid=(1.9,), T=12.0)
    spelled = base(experiment="transient", alpha_grid=(1.9,), T=12.0, n_steps=12_000)
    assert spelled.resolved() == plain.resolved() and spelled.resolved().n_steps is None
    assert spelled.config_hash() == plain.config_hash()
    with pytest.raises(ValueError, match="reads n_steps only under drift=custom"):
        base(experiment="transient", alpha_grid=(1.9,), T=12.0, n_steps=8000)
    # nothing is stepped, so the Euler cap does not apply
    base(experiment="transient", alpha_grid=(1.9,), T=1e6)
    custom = base(experiment="transient", alpha_grid=(1.9,), drift="custom", n_steps=5)
    assert custom.resolved().n_steps == 5
    # the check knows the OU step without building the drift
    assert config._OU_EULER_STEP == euler_step(DriftSpec.ornstein_uhlenbeck(1))


def test_euler_work_cap_is_on_the_product_per_ensemble():
    base(experiment="contraction", n_samples=1, n_steps=MEMBER_STEP_CAP)
    base(experiment="gradient_check", n_samples=MEMBER_STEP_CAP // 1000)  # 1000 steps
    with pytest.raises(CapacityError, match="Euler work capped"):
        base(experiment="contraction", n_samples=1, n_steps=MEMBER_STEP_CAP + 1)
    with pytest.raises(CapacityError, match="Euler work capped"):
        base(experiment="gradient_check", n_samples=MEMBER_STEP_CAP // 1000 + 1)
    # experiments that take no Euler steps are not capped by it
    base(n_samples=MEMBER_STEP_CAP + 1)


def test_seeds_up_to_two_to_the_53_are_kept_exactly():
    assert base(seed=0).seed == 0
    assert base(seed=2**53).seed == base(seed="9007199254740992").seed == 2**53
    assert parse_config_text("seed = 9007199254740992\n")["seed"] == 2**53


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


def test_grid_count_is_capped():
    grid = parse_config_text(f"alpha_grid = 1.5:1.99:{GRID_COUNT_CAP}\n")["alpha_grid"]
    assert len(grid) == GRID_COUNT_CAP
    assert grid[0] == 1.5 and grid[-1] == pytest.approx(1.99)
    with pytest.raises(ValueError, match=f"grid count must lie in \\[1, {GRID_COUNT_CAP}\\], "
                                         f"got {GRID_COUNT_CAP + 1}"):
        parse_config_text(f"alpha_grid = 1.5:1.99:{GRID_COUNT_CAP + 1}\n")


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


@pytest.mark.parametrize("line, message", [
    ("n_samples = abc", "n_samples must be an integer, got 'abc'"),
    ("seed = 1x", "seed must be an integer, got '1x'"),
    ("T = fast", "T must be a number, got 'fast'"),
    ("x_start = 1,5", "x_start must be a number, got '1,5'"),
    ("alpha_grid = 1.8,abc", "alpha values must be numbers, got 'abc'"),
])
def test_text_that_is_no_number_names_its_field(line, message):
    with pytest.raises(ValueError) as exc:
        parse_config_text("experiment = contraction\n" + line + "\n")
    key = line.split("=")[0].strip()
    assert str(exc.value) == f"line 2: bad value for {key}: {message}"


def test_grid_count_reads_integral_float_spellings():
    for count in ("8.0", "8e0", " 8 "):
        assert base(alpha_grid=f"1.5:1.99:{count}") == base(alpha_grid="1.5:1.99:8")
        assert (base(alpha_grid=f"1.5:1.99:{count}").config_hash()
                == base(alpha_grid="1.5:1.99:8").config_hash())
    for count in ("8.5", "eight"):
        with pytest.raises(ValueError, match="grid count must be an integer, got"):
            base(alpha_grid=f"1.5:1.99:{count}")


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
    assert base(alpha_grid=(1.9, 1.95, 1.99)).config_hash() != a.config_hash()


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
