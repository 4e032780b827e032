"""CLI behavior: flag plumbing, exit codes, and output files."""
import time

import numpy as np
import pytest

from conftest import ZeroUniform
from stablegap import ExperimentConfig, RngStream, load_results
import stablegap.experiments as experiments
from stablegap.cli import main


def test_selftest_runs_clean(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "self-test passed" in out
    assert "[FAIL]" not in out
    assert out.count("[ok  ]") >= 10
    assert "negative_control_trips" in out


def test_missing_seed_is_argument_error(capsys):
    assert main(["contraction"]) == 2
    assert "seed is mandatory" in capsys.readouterr().err


def test_bad_alpha_grid_is_argument_error(capsys):
    assert main(["contraction", "--seed", "1", "--alpha", "2.5"]) == 2
    assert "argument error" in capsys.readouterr().err


def test_infinite_horizon_is_argument_error(capsys):
    # refused when the config is built, not by an overflow while resolving n_steps
    assert main(["contraction", "--seed", "1", "--t-max", "inf"]) == 2
    assert "argument error: T must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-5", str(2**53 + 1), str(2**64 - 1000)])
def test_seed_outside_the_exact_range_is_argument_error(seed, capsys):
    # numpy rounds a Philox key with an entry >= 2**63 through float64, so
    # these seeds ran one stream under four config hashes
    assert main(["contraction", "--seed", seed, "--samples", "8", "--t-max", "0.5"]) == 2
    assert f"argument error: seed must lie in [0, 2**53], got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "abc", "n_samples must be an integer, got 'abc'"),
    ("--steps", "1O0", "n_steps must be an integer, got '1O0'"),
    ("--t-max", "long", "T must be a number, got 'long'"),
])
def test_flag_text_that_is_no_number_names_its_field(flag, value, message, capsys):
    assert main(["contraction", "--seed", "1", flag, value]) == 2
    assert capsys.readouterr().err.strip() == f"argument error: {message}"


def test_config_file_text_that_is_no_number_names_its_line_and_field(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nn_samples = abc\n")
    assert main(["contraction", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == \
        "argument error: line 2: bad value for n_samples: n_samples must be an integer, got 'abc'"


def test_grid_count_takes_an_integral_float_spelling(capsys):
    argv = ["alpha-sweep", "--seed", "1", "--samples", "64", "--alpha"]
    assert main(argv + ["1.5:1.99:4.0"]) == 0
    spelled_as_float = capsys.readouterr().out
    assert main(argv + ["1.5:1.99:4"]) == 0
    assert capsys.readouterr().out == spelled_as_float
    assert main(argv + ["1.5:1.99:4.5"]) == 2
    assert "grid count must be an integer, got 4.5" in capsys.readouterr().err


def test_grid_count_above_the_cap_is_refused_at_once(capsys):
    # refused from the count alone: no three-million-value list is built,
    # and the message names the count, not the values
    t0 = time.perf_counter()
    assert main(["contraction", "--seed", "1", "--alpha", "1.5:1.99:3000000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.strip() == "argument error: grid count must lie in [1, 10000], got 3000000"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--seed", "1"])
    assert exc.value.code == 2


def test_invalid_thread_cap_is_argument_error(monkeypatch, capsys):
    monkeypatch.setenv("STABLEGAP_THREADS", "-3")
    assert main(["contraction", "--seed", "1", "--samples", "4",
                 "--t-max", "0.5"]) == 2
    assert "STABLEGAP_THREADS" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "r.csv"
    code = main(["contraction", "--seed", "1", "--samples", "4",
                 "--t-max", "0.5", "--out", str(out)])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_assignment_capacity_is_argument_error(capsys):
    code = main(["alpha-sweep", "--seed", "1", "--estimator", "assignment",
                 "--samples", "8192", "--alpha", "1.8,1.9,1.95"])
    assert code == 2
    assert "sliced" in capsys.readouterr().err  # the error suggests the fallback


def test_overflow_is_invariant_failure(tmp_path, capsys):
    cfg = tmp_path / "blown.cfg"
    cfg.write_text("seed = 1\nx_start = 1e13\nn_samples = 4\nT = 0.5\n")
    code = main(["contraction", "--config", str(cfg)])
    assert code == 1
    assert "invariant failure" in capsys.readouterr().err


def test_zero_kanter_uniform_is_invariant_failure(monkeypatch, capsys):
    # a sampler that cannot evaluate its own draw is a failed run (exit 1),
    # not an argument error (exit 2)
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: ZeroUniform(np.random.Philox(key=[self.seed, self.stream_id])))
    code = main(["alpha-sweep", "--seed", "1", "--alpha", "1.5,1.6,1.7", "--samples", "64"])
    assert code == 1
    assert "U = 0" in capsys.readouterr().err


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nn_samples = 16\nalpha_grid = 1.8\nT = 0.5\n")
    assert main(["contraction", "--config", str(cfg), "--seed", "4"]) == 0
    expected = ExperimentConfig(experiment="contraction", seed=4,
                                alpha_grid=(1.8,), n_samples=16, T=0.5)
    assert expected.config_hash() in capsys.readouterr().out


@pytest.mark.parametrize("argv, match", [
    (["contraction", "--estimator", "assignment"], "contraction does not read estimator"),
    (["gradient-check", "--t-max", "2"], "gradient_check does not read T"),
    (["dim-sweep", "--alpha", "1.9", "--dim", "1:4:3"], "dimensions must be integers"),
])
def test_unread_or_truncated_inputs_are_argument_errors(argv, match, capsys):
    # the same gaps under another config hash, or d = 2.5 run as d = 2,
    # would be a silent change of what the run claims to compute
    assert main(argv + ["--seed", "1", "--samples", "4"]) == 2
    assert match in capsys.readouterr().err


def test_default_and_explicit_spellings_print_one_hash(capsys):
    # --samples 512 and --steps 500 are what the bare run resolves to
    hashes = set()
    for extra in ([], ["--samples", "512"], ["--steps", "500"]):
        assert main(["contraction", "--seed", "1", "--t-max", "0.5"] + extra) == 0
        out = capsys.readouterr().out
        hashes.add(out.split("config ")[1].split()[0])
    assert hashes == {ExperimentConfig(experiment="contraction", seed=1, T=0.5).config_hash()}


def test_short_sweep_is_refused_before_sampling(monkeypatch, capsys):
    # at the default n = 2e7 the fit would fail only after minutes of sampling
    def spy(*args, **kwargs):
        raise AssertionError("sampled before the grid check")

    monkeypatch.setattr(experiments, "ou_stationary_sample", spy)
    assert main(["alpha-sweep", "--seed", "1", "--alpha", "1.9,1.95"]) == 2
    assert ">= 3 alphas below 2" in capsys.readouterr().err


def test_out_csv_carries_config_hash(tmp_path, capsys):
    out = tmp_path / "contraction.csv"
    assert main(["contraction", "--seed", "5", "--samples", "8",
                 "--t-max", "1.0", "--out", str(out)]) == 0
    header, rows = load_results(str(out))
    assert header == ["t", "mean_gap", "config_hash"]
    expected = ExperimentConfig(experiment="contraction", seed=5, n_samples=8,
                                T=1.0, output_path=str(out))
    assert rows and all(r[-1] == expected.config_hash() for r in rows)


def test_steps_and_estimator_flags(capsys):
    # --steps is read by the Euler transient, under --drift custom only
    code = main(["transient", "--seed", "6", "--samples", "32",
                 "--t-max", "1.0", "--steps", "200", "--alpha", "1.9",
                 "--estimator", "radial", "--drift", "custom", "--drift-param", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "transient curve" in out and "plateau" in out


def test_removed_mean_norm_estimator_is_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha-sweep", "--seed", "1", "--alpha", "1.8,1.9,1.95",
              "--samples", "64", "--estimator", "mean-norm"])
    assert exc.value.code == 2
    assert "invalid choice: 'mean-norm'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, valid, sampler, match", [
    (["dim-sweep", "--alpha", "1.9", "--dim", "2,2,2", "--samples", "1000"],
     ["dim-sweep", "--alpha", "1.9", "--dim", "2,3,4", "--samples", "1000"],
     "_radial_draw", "d_grid repeats a value: (2, 2, 2)"),
    (["alpha-sweep", "--alpha", "1.9,1.9,1.9"],
     ["alpha-sweep", "--alpha", "1.9,1.95,1.98"],
     "ou_stationary_sample", "alpha_grid repeats a value: (1.9, 1.9, 1.9)"),
    (["transient", "--alpha", "1.9", "--t-max", "1e6", "--drift", "custom",
      "--drift-param", "0"],
     ["transient", "--alpha", "1.9", "--t-max", "1", "--drift", "custom",
      "--drift-param", "0", "--samples", "64"],
     "integrate_ensemble", "transient Euler work capped at 1e+09 member-steps"),
    (["gradient-check", "--alpha", "1.5,2.0", "--samples", "256"],
     ["gradient-check", "--alpha", "1.5,1.8", "--samples", "256"],
     "integrate_coupled_ensemble", "gradient_check adds the alpha = 2 reference itself"),
], ids=["dim_grid_repeats", "alpha_grid_repeats", "transient_euler_work",
        "gradient_check_alpha_two"])
def test_degenerate_or_unbounded_runs_are_refused_before_work(argv, valid, sampler, match,
                                                               monkeypatch, capsys):
    # the spied call is the run's first draw; a valid config of the same
    # run reaches it (the positive control), so a refusal before it is real
    class Reached(Exception):
        pass

    def spy(*args, **kwargs):
        raise Reached(sampler)

    monkeypatch.setattr(experiments, sampler, spy)
    assert main(argv + ["--seed", "1"]) == 2
    assert match in capsys.readouterr().err
    with pytest.raises(Reached):
        main(valid + ["--seed", "1"])


def test_drift_flag_reaches_config(capsys):
    code = main(["contraction", "--seed", "7", "--samples", "4",
                 "--t-max", "0.5", "--drift", "custom"])
    assert code == 0
    expected = ExperimentConfig(experiment="contraction", seed=7, n_samples=4,
                                T=0.5, drift="custom")
    assert expected.config_hash() in capsys.readouterr().out
