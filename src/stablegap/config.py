"""Experiment configuration: a flat, diff-able record of everything that
determines an experiment's output.

A config can come from a key=value text file, from CLI flags, or from code;
all three meet in ExperimentConfig, and one function, `field_value`, turns
each field's input (a Python value, a file line's text or a flag's text)
into its stored value.  Every default an experiment applies is decided
here, once: `ExperimentConfig.resolved()` fills each field the experiment
reads from the rules in `EXPERIMENTS`, the runners read that record, and
its canonical serialization (sorted key=value lines) is hashed.
Every output row carries the hash, so any CSV row traces back to the one
configuration that produced it, whether a value was given or defaulted.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

from .errors import CapacityError
from .sde import DriftSpec
from .wasserstein import ASSIGNMENT_CAP


class Experiment(NamedTuple):
    """One experiment's row of the config table.

    reads: the fields its runner reads.  "name[0]": the grid's first value
    only, so the grid must hold one value unless it is the default.
    "name?": read under drift=custom only.  Every other field (experiment,
    seed and output_path aside) must keep its default, so no two config
    hashes differ by a value that nothing reads.  One exception: transient
    steps Euler under drift=custom only, and under drift=ou it accepts
    n_steps at its Euler default (the step count the OU runs once took,
    which configs written then spell out) and drops it from the record.
    n_samples: the sample count per cloud when none is given (at most
    ASSIGNMENT_CAP under estimator=assignment).
    horizon: T when none is given, or the fixed horizon of an experiment
    that does not read T.  n_steps defaults to the horizon over the default
    Euler step (`euler_step`), and burn_in to 10/theta0 of the drift.
    """

    reads: str
    n_samples: Optional[int] = None
    horizon: Optional[float] = None


EXPERIMENTS = {
    "alpha_sweep": Experiment("alpha_grid d_grid[0] n_samples estimator n_bootstrap "
                              "n_projections drift drift_param? burn_in?",
                              n_samples=20_000_000),
    "dim_sweep": Experiment("alpha_grid[0] d_grid n_samples n_projections drift "
                            "drift_param? burn_in?", n_samples=1_000_000),
    "transient": Experiment("alpha_grid[0] d_grid[0] n_samples n_steps? T estimator "
                            "n_bootstrap n_projections x_start drift drift_param? burn_in?",
                            n_samples=4096, horizon=8.0),
    "contraction": Experiment("alpha_grid[0] d_grid[0] n_samples n_steps T x_start drift "
                              "drift_param?", n_samples=512, horizon=5.0),
    "gradient_check": Experiment("alpha_grid d_grid[0] n_samples n_steps drift drift_param?",
                                 n_samples=65_536, horizon=1.0),
    "selftest": Experiment(""),
}

# --estimator name -> the wasserstein method tag it runs
ESTIMATORS = {"assignment": "exact_assignment", "sliced": "sliced", "radial": "radial"}

# Euler work cap: n_samples x n_steps of one ensemble, for the experiments
# that read n_steps.  1e9 member-steps is 15x the largest default run
# (gradient_check, 65536 x 1000) and, in d = 1, about 1.5-2 minutes of one
# thread (85-120 ns per member-step at 4096 members and alpha = 1.9 on a
# 2-vCPU x86 VM, whose speed varies with the host's load; 60-70 ns of wall
# time with the draw-ahead helper); a run above it is a mistyped T or
# n_steps, not a measurement.
MEMBER_STEP_CAP = 10**9

DRIFTS = ("ou", "custom")

# Largest count of a start:stop:count grid.  Every experiment runs one task
# per grid value, and the largest grid anyone has run holds tens of values,
# so a count above this is a typo; it is refused before the list is built.
GRID_COUNT_CAP = 10_000

# Largest seed: numpy reads `RngStream`'s Philox key [seed, stream_id] as
# float64 when one entry is >= 2**63 (a negative seed, masked to 64 bits, is),
# and only integers up to 2**53 survive that exactly.
MAX_SEED = 2**53

# Default alpha grid for the rate sweep: geometric in u = 2 - alpha from
# 0.025 down to 0.002.  Chosen so that the n-dependent empirical floor at
# the small-u end and the closed-form (2-alpha) signal keep both log-log
# regressions well conditioned at the default sample size.
DEFAULT_ALPHA_GRID = (1.975, 1.98361, 1.98925, 1.99296, 1.99538, 1.99697, 1.998)


def euler_step(drift: DriftSpec) -> float:
    """The default Euler step: 1e-3, shortened to 1e-3/theta1 for drifts
    whose Lipschitz bound theta1 exceeds 1."""
    return 1e-3 * min(1.0, 1.0 / drift.theta1)


# euler_step of the OU drift (theta1 = 1), known without building the drift:
# a DriftSpec's construction screen loads numpy.random, which building a
# config does not otherwise do
_OU_EULER_STEP = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, fully determined (seed included).

    n_samples, n_steps, T and burn_in default to None, meaning "the
    experiment's default" (the rules of `EXPERIMENTS`); `resolved()` returns
    the record with those values filled in, and the hash is that record's,
    so leaving a field out and giving its default value are one config.
    Every given field is stored as `field_value` reads it, so one value has
    one spelling.  The seed has no default on purpose: runs must be
    reproducible, so wall-clock seeding is not an option; it lies in
    [0, MAX_SEED].
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
                f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}"
            )
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; choose from {tuple(ESTIMATORS)}"
            )
        if self.drift not in DRIFTS:
            raise ValueError(f"unknown drift {self.drift!r}; choose from {DRIFTS}")
        if self.seed is None:
            raise ValueError("seed is mandatory; wall-clock seeding is not supported")
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                object.__setattr__(self, f.name, field_value(f.name, v))
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must lie in [0, 2**53], got {self.seed}")
        if not self.alpha_grid or not self.d_grid:
            raise ValueError("alpha_grid and d_grid must be nonempty")
        for name in ("alpha_grid", "d_grid"):
            grid = getattr(self, name)
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} repeats a value: {grid}")
        for a in self.alpha_grid:
            if not 1.0 < a <= 2.0:
                raise ValueError(f"alpha values must lie in (1,2], got {a}")
        for d in self.d_grid:
            if d < 1:
                raise ValueError(f"dimensions must be >= 1, got {d}")
        for name in ("n_samples", "n_steps"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        for name in ("T", "burn_in"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.n_bootstrap < 2:
            raise ValueError("n_bootstrap must be >= 2")
        if self.n_projections < 1:
            raise ValueError("n_projections must be >= 1")
        self._refuse_unread_fields()
        self._refuse_runs_that_cannot_finish()

    def _refuse_unread_fields(self):
        reads = EXPERIMENTS[self.experiment].reads.split()
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in ("experiment", "seed", "output_path") or value == f.default \
                    or name in reads:
                continue
            if name + "?" in reads:
                if self.drift != "custom" and not (
                        name == "n_steps" and value == self._euler_steps(_OU_EULER_STEP)):
                    raise ValueError(f"{self.experiment} reads {name} only under "
                                     f"drift=custom; got {name}={value!r}")
            elif name + "[0]" in reads:
                if len(value) != 1:
                    raise ValueError(f"{self.experiment} reads the first value of {name} "
                                     f"only; give one value, got {value}")
            else:
                raise ValueError(f"{self.experiment} does not read {name}; leave it at "
                                 f"its default {f.default!r} (got {value!r})")

    def _refuse_runs_that_cannot_finish(self):
        """Refuse, before any sampling, a run whose fit or solver would
        fail only after the work is done, whose Euler work is above
        MEMBER_STEP_CAP, or whose summary would compare a row with itself."""
        if self.estimator == "assignment" and self.n_samples is not None \
                and self.n_samples > ASSIGNMENT_CAP:
            raise CapacityError(f"assignment solver capped at n={ASSIGNMENT_CAP} (got "
                                f"n_samples={self.n_samples}); use --estimator sliced "
                                "for larger clouds")
        if self._reads("n_steps"):
            # resolved() sets both counts, so its record's check does not recurse
            r = self if None not in (self.n_samples, self.n_steps) else self.resolved()
            if r.n_samples * r.n_steps > MEMBER_STEP_CAP:
                raise CapacityError(
                    f"{self.experiment} Euler work capped at {MEMBER_STEP_CAP:.0e} "
                    f"member-steps per ensemble (got n_samples={r.n_samples} x "
                    f"n_steps={r.n_steps}); lower n_samples, n_steps or T")
        if self.experiment == "alpha_sweep" and sum(a < 2.0 for a in self.alpha_grid) < 3:
            raise ValueError("alpha_sweep rate fits need >= 3 alphas below 2, got "
                             f"{self.alpha_grid}")
        if self.experiment == "gradient_check" and 2.0 in self.alpha_grid:
            raise ValueError("gradient_check adds the alpha = 2 reference itself; leave 2.0 "
                             f"out of alpha_grid, got {self.alpha_grid}")
        if self.experiment == "dim_sweep":
            if len(self.d_grid) < 3:
                raise ValueError(f"dim_sweep growth fits need >= 3 dimensions, got {self.d_grid}")
            if not self.alpha_grid[0] < 2.0:
                raise ValueError("dim_sweep needs alpha < 2 (the gap vanishes at 2)")

    def drift_spec(self, d: int) -> DriftSpec:
        """The configured drift in dimension d."""
        return (DriftSpec.ornstein_uhlenbeck(d) if self.drift == "ou"
                else DriftSpec.dissipative_tanh(d, self.drift_param))

    def resolved(self) -> "ExperimentConfig":
        """This config with every field the experiment reads made concrete.

        A field left at None takes its rule from `EXPERIMENTS`: the
        experiment's n_samples (capped at ASSIGNMENT_CAP under
        estimator=assignment) and horizon T, n_steps = T over `euler_step`,
        and burn_in = 10/theta0 under drift=custom.  Fields the experiment
        does not read keep their defaults (an accepted, unread n_steps is
        dropped).  A view, not a fill at
        construction: `replace(cfg, T=2.0)` must recompute n_steps.
        """
        spec = EXPERIMENTS[self.experiment]
        values = {}
        if self._reads("n_samples") and self.n_samples is None:
            n = spec.n_samples
            values["n_samples"] = min(n, ASSIGNMENT_CAP) if self.estimator == "assignment" else n
        if self._reads("T"):
            values["T"] = self.T if self.T is not None else spec.horizon
        if self._reads("n_steps"):
            if self.n_steps is None:
                values["n_steps"] = self._euler_steps()
        elif self.n_steps is not None:  # the Euler default under drift=ou, unread
            values["n_steps"] = None
        if self._reads("burn_in") and self.burn_in is None:
            # theta0 does not depend on the dimension
            values["burn_in"] = 10.0 / self.drift_spec(1).theta0
        return replace(self, **values)

    def _reads(self, name: str) -> bool:
        """Whether this config's experiment reads field `name` (a "name?"
        field under drift=custom only)."""
        reads = EXPERIMENTS[self.experiment].reads.split()
        return name in reads or (name + "?" in reads and self.drift == "custom")

    def _euler_steps(self, step: Optional[float] = None) -> int:
        """The default n_steps: T (or the horizon) over step, by default the
        drift's default Euler step, at least one step."""
        T = self.T if self.T is not None else EXPERIMENTS[self.experiment].horizon
        return max(1, round(T / (step or euler_step(self.drift_spec(1)))))

    def key_values(self) -> list:
        """Canonical serialization of the resolved record: sorted key=value
        lines.

        output_path is skipped: where results land does not change what they
        are, and the hash identifies the data-generating process only.
        """
        cfg = self.resolved()
        out = []
        for f in sorted(fields(cfg), key=lambda f: f.name):
            if f.name == "output_path":
                continue
            v = getattr(cfg, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            out.append(f"{f.name}={v!r}" if isinstance(v, str) else f"{f.name}={v}")
        return out

    def config_hash(self) -> str:
        text = "\n".join(self.key_values())
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def field_value(name: str, v):
    """Field `name`'s stored value for v: a Python value, or the text of a
    config-file line or a flag.  Counts are ints (`_integer`), reals finite
    floats (`_real`), grids grid-syntax text or a sequence cast per element;
    choice and path fields are kept as given.  Input that is no number where
    one is needed is refused with a message that names the field."""
    if name in ("seed", "n_samples", "n_steps", "n_bootstrap", "n_projections"):
        return _integer(v, f"{name} must be an integer")
    if name in ("drift_param", "T", "burn_in", "x_start"):
        x = _real(v, f"{name} must be a number")
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
        return x
    if name in ("alpha_grid", "d_grid"):
        cast = _alpha if name == "alpha_grid" else _dimension
        return _parse_grid(v, cast) if isinstance(v, str) else tuple(cast(x) for x in v)
    return v


def _real(v, message: str) -> float:
    """v as a float, refusing input that is no number."""
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValueError(f"{message}, got {v!r}") from None


def _integer(v, message: str) -> int:
    """v as an int, read exactly from integer text, refusing a non-integral value."""
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    x = _real(v, message)
    if not x.is_integer():
        raise ValueError(f"{message}, got {v}")
    return int(x)


def _alpha(v) -> float:
    return _real(v, "alpha values must be numbers")


def _dimension(v) -> int:
    return _integer(v, "dimensions must be integers")


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
        start = _real(parts[0], "grid start must be a number")
        stop = _real(parts[1], "grid stop must be a number")
        count = _integer(parts[2], "grid count must be an integer")
        if not 1 <= count <= GRID_COUNT_CAP:
            raise ValueError(f"grid count must lie in [1, {GRID_COUNT_CAP}], got {count}")
        if count == 1:
            vals = [start]
        else:
            step = (stop - start) / (count - 1)
            vals = [start + i * step for i in range(count)]
        return tuple(cast(v) for v in vals)
    return tuple(cast(v) for v in text.split(","))


def parse_config_text(text: str) -> dict:
    """Flat key=value lines as field values; '#' starts a comment, blank lines skipped."""
    names = {f.name for f in fields(ExperimentConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in names:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            out[key] = field_value(key, val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return out


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> ExperimentConfig:
    """The config of a key=value file (none if path is empty) with the
    overrides that are not None on top."""
    data = parse_config_text(Path(path).read_text(encoding="utf-8") if path else "")
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    if "seed" not in data:
        raise ValueError("seed is mandatory; pass --seed or put seed= in a config file")
    return ExperimentConfig(**data)
