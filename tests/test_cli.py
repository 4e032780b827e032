"""CLI behavior: flag plumbing, exit codes, and output files."""
import numpy as np
import pytest

from conftest import ZeroUniform
from stablegap import ExperimentConfig, RngStream, load_results
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
    code = main(["alpha-sweep", "--seed", "1", "--alpha", "1.5", "--samples", "64"])
    assert code == 1
    assert "U = 0" in capsys.readouterr().err


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nn_samples = 16\nalpha_grid = 1.8,1.9\nT = 0.5\n")
    assert main(["contraction", "--config", str(cfg), "--seed", "4"]) == 0
    expected = ExperimentConfig(experiment="contraction", seed=4,
                                alpha_grid=(1.8, 1.9), n_samples=16, T=0.5)
    assert expected.config_hash() in capsys.readouterr().out


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
    code = main(["transient", "--seed", "6", "--samples", "32",
                 "--t-max", "1.0", "--steps", "200", "--alpha", "1.9",
                 "--estimator", "mean-norm"])
    assert code == 0
    out = capsys.readouterr().out
    assert "transient curve" in out and "plateau" in out


def test_drift_flag_reaches_config(capsys):
    code = main(["contraction", "--seed", "7", "--samples", "4",
                 "--t-max", "0.5", "--drift", "custom"])
    assert code == 0
    expected = ExperimentConfig(experiment="contraction", seed=7, n_samples=4,
                                T=0.5, drift="custom")
    assert expected.config_hash() in capsys.readouterr().out
