"""Command-line entry point.

    stablegap <experiment> [--config FILE] [--seed N] [--out PATH] [...]

A flag's dest is the config field it sets, and its text reaches
`ExperimentConfig` as typed, to be read by `config.field_value` like a
config-file line.  Exit codes: 0 success, 1 invariant or integration
failure, 2 argument error, 3 I/O error.  STABLEGAP_THREADS caps workers.
"""
from __future__ import annotations

import argparse
import sys

from .config import DRIFTS, ESTIMATORS, EXPERIMENTS, ExperimentConfig, load_config
from .errors import IntegrationError, InvariantError
from .experiments import (
    run_alpha_sweep,
    run_contraction,
    run_dim_sweep,
    run_gradient_check,
    run_selftest,
    run_transient,
    worker_count,
)

_SUBCOMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablegap",
        description="Distance experiments between stable-driven and "
        "Brownian-driven SDE laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {_SUBCOMMANDS[name]} experiment")
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--seed", help="PRNG seed (mandatory unless in config)")
        p.add_argument("--out", dest="output_path", help="write results CSV here")
        p.add_argument("--alpha", dest="alpha_grid", help="grid: '1.8,1.9' or 'start:stop:count'")
        p.add_argument("--dim", dest="d_grid", help="dimension grid, same syntax as --alpha")
        p.add_argument("--samples", dest="n_samples", help="sample count per cloud")
        p.add_argument("--steps", dest="n_steps", help="Euler steps over the horizon")
        p.add_argument("--t-max", dest="T", help="time horizon")
        p.add_argument("--estimator", choices=ESTIMATORS)
        p.add_argument("--drift", choices=DRIFTS)
    return parser


def _build_config(args) -> ExperimentConfig:
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return load_config(args.config, dict(overrides, experiment=_SUBCOMMANDS[args.command]))


def _print_fit(label, fit):
    print(f"  {label}: slope {fit.slope:+.4f}  intercept {fit.intercept:+.4f}  "
          f"r^2 {fit.r_squared:.4f}  ({fit.n_points} pts)")


def _run(cfg: ExperimentConfig) -> int:
    if cfg.experiment == "alpha_sweep":
        res = run_alpha_sweep(cfg)
        print(f"alpha sweep  d={cfg.d_grid[0]}  estimator={cfg.estimator}  "
              f"config {res.config_hash}")
        for a, v, s in zip(res.alphas, res.w1, res.stderr):
            print(f"  alpha {a:<8.5f} W1 {v:.6e}  +/- {s:.2e}")
        _print_fit("log(2-alpha) fit        ", res.fit_log_2ma)
        _print_fit("log((2-a)log(1/(2-a)))  ", res.fit_log_2ma_loglog)
    elif cfg.experiment == "dim_sweep":
        res = run_dim_sweep(cfg)
        print(f"dimension sweep  alpha={cfg.alpha_grid[0]}  config {res.config_hash}")
        for i, d in enumerate(res.dims):
            print(f"  d {d:<3d} exact lower {res.lower_exact[i]:.6e}  "
                  f"mean-norm {res.mean_norm[i]:.6e} +/- {res.mean_norm_se[i]:.1e}  "
                  f"sliced {res.sliced[i]:.6e}  radial {res.radial[i]:.6e}")
        _print_fit("growth vs d         ", res.fit_vs_d)
        _print_fit("growth vs d log(1+d)", res.fit_vs_dlogd)
        print(f"  note: {res.note}")
    elif cfg.experiment == "transient":
        res = run_transient(cfg)
        print(f"transient curve  alpha={cfg.alpha_grid[0]}  d={cfg.d_grid[0]}  "
              f"config {res.config_hash}")
        for t, v, s in zip(res.times, res.w1, res.stderr):
            print(f"  t {t:<6.3f} W1 {v:.6e}  +/- {s:.2e}")
        print(f"  plateau    {res.plateau:.6e} +/- {res.plateau_se:.2e}")
        print(f"  stationary {res.stationary_w1:.6e} +/- {res.stationary_se:.2e}")
        if res.decay_rate is not None:
            print(f"  early decay rate {res.decay_rate:.4f}")
    elif cfg.experiment == "contraction":
        res = run_contraction(cfg)
        print(f"synchronous-coupling contraction  alpha={cfg.alpha_grid[0]}  "
              f"config {res.config_hash}")
        for t, g in zip(res.times, res.mean_gap):
            print(f"  t {t:<6.3f} mean gap {g:.6e}")
        print(f"  fitted decay rate {res.rate:.5f}")
    elif cfg.experiment == "gradient_check":
        res = run_gradient_check(cfg)
        print(f"semigroup gradient check  config {res.config_hash}")
        for i, a in enumerate(res.alphas):
            tag = "(reference)" if i == len(res.alphas) - 1 else ""
            print(f"  alpha {a:<6.3f} max |grad| {abs(res.grad[i]).max():.5f}  "
                  f"clipped-norm {abs(res.grad_norm[i]).max():.5f} {tag}")
        print(f"  max ratio vs gaussian reference: {res.max_ratio_vs_gaussian:.4f}")
    else:
        res = run_selftest(cfg)
        print(f"self-test battery  config {res.config_hash}")
        for name, ok, detail in res.checks:
            mark = "ok  " if ok else "FAIL"
            line = f"  [{mark}] {name}"
            if detail:
                line += f"  ({detail})"
            print(line)
        if not res.passed:
            print("self-test FAILED")
            return 1
        print("self-test passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        worker_count()  # validate STABLEGAP_THREADS before any work
        cfg = _build_config(args)
        return _run(cfg)
    except (InvariantError, IntegrationError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
