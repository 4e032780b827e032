"""Experiment configuration: a flat, diff-able record of everything that
determines an experiment's output.

A config can come from a key=value text file, from CLI flags, or from code;
all three meet in ExperimentConfig.  The canonical serialization (sorted
key=value lines) is hashed, and every output row carries the hash, so any
CSV row can be traced back to the exact configuration that produced it.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional, Tuple

EXPERIMENTS = (
    "alpha_sweep",
    "dim_sweep",
    "transient",
    "contraction",
    "gradient_check",
    "selftest",
)

ESTIMATORS = ("assignment", "sliced", "mean-norm")

DRIFTS = ("ou", "custom")

# Default alpha grid for the rate sweep: geometric in u = 2 - alpha from
# 0.025 down to 0.002.  Chosen so that the n-dependent empirical floor at
# the small-u end and the closed-form (2-alpha) signal keep both log-log
# regressions well conditioned at the default sample size.
DEFAULT_ALPHA_GRID = (1.975, 1.98361, 1.98925, 1.99296, 1.99538, 1.99697, 1.998)

DEFAULT_SWEEP_SAMPLES = 20_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, fully determined (seed included).

    n_samples, n_steps, T and burn_in default to None, meaning "use the
    experiment's documented default"; each runner in experiments.py states
    its own resolution rule.  The seed has no default on purpose: runs must
    be reproducible, so wall-clock seeding is not an option.
    """

    experiment: str
    seed: int
    drift: str = "ou"
    drift_param: float = 0.5  # tanh coefficient for the custom drift
    alpha_grid: Tuple[float, ...] = DEFAULT_ALPHA_GRID
    d_grid: Tuple[int, ...] = (1,)
    n_samples: Optional[int] = None
    n_steps: Optional[int] = None
    T: Optional[float] = None
    burn_in: Optional[float] = None
    estimator: str = "sliced"
    n_bootstrap: int = 200
    n_projections: int = 64
    x_start: float = 10.0  # initial separation |x0 - y0| for transient runs
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; choose from {ESTIMATORS}"
            )
        if self.drift not in DRIFTS:
            raise ValueError(f"unknown drift {self.drift!r}; choose from {DRIFTS}")
        if self.seed is None:
            raise ValueError("seed is mandatory; wall-clock seeding is not supported")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "d_grid", tuple(int(d) for d in self.d_grid))
        if not self.alpha_grid or not self.d_grid:
            raise ValueError("alpha_grid and d_grid must be nonempty")
        for a in self.alpha_grid:
            if not 1.0 < a <= 2.0:
                raise ValueError(f"alpha values must lie in (1,2], got {a}")
        for d in self.d_grid:
            if d < 1:
                raise ValueError(f"dimensions must be >= 1, got {d}")
        for name in ("n_samples", "n_steps"):
            v = getattr(self, name)
            if v is not None and int(v) < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        for name in ("T", "burn_in"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.n_bootstrap < 2:
            raise ValueError("n_bootstrap must be >= 2")
        if self.n_projections < 1:
            raise ValueError("n_projections must be >= 1")

    def key_values(self) -> list:
        """Canonical serialization: sorted key=value lines.

        output_path is skipped: where results land does not change what they
        are, and the hash identifies the data-generating process only.
        """
        out = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name == "output_path":
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            out.append(f"{f.name}={v!r}" if isinstance(v, str) else f"{f.name}={v}")
        return out

    def config_hash(self) -> str:
        text = "\n".join(self.key_values())
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_grid(text: str, cast):
    """Grid syntax: either comma-separated values '1.8,1.9,1.95' or an
    inclusive linspace 'start:stop:count' like '1.5:1.99:8'."""
    text = text.strip()
    if not text:
        raise ValueError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        if count == 1:
            vals = [start]
        else:
            step = (stop - start) / (count - 1)
            vals = [start + i * step for i in range(count)]
        return tuple(cast(v) for v in vals)
    return tuple(cast(v) for v in text.split(","))


_FIELD_PARSERS = {
    "experiment": str,
    "seed": int,
    "drift": str,
    "drift_param": float,
    "alpha_grid": lambda s: _parse_grid(s, float),
    "d_grid": lambda s: _parse_grid(s, int),
    "n_samples": int,
    "n_steps": int,
    "T": float,
    "burn_in": float,
    "estimator": str,
    "n_bootstrap": int,
    "n_projections": int,
    "x_start": float,
    "output_path": str,
}


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines; '#' starts a comment, blank lines skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            out[key] = _FIELD_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return out


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        data = parse_config_text(fh.read())
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**data)
