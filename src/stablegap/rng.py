"""Reproducible random number streams.

A stream is identified by (seed, stream_id).  The same pair always yields the
same sample sequence, and distinct stream_ids give statistically independent
streams from a counter-based generator, so Monte Carlo work can be fanned out
over streams and recombined deterministically.  `worker_count` is the one
cap on the threads that work is fanned out over; results never depend on it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    # Standard 64-bit mixer; decorrelates derived stream ids.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Immutable handle naming one reproducible stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def child(self, i: int) -> "RngStream":
        """A derived stream; children of distinct (stream, i) never collide."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64(int(i) & _MASK64))
        return RngStream(self.seed, mixed)


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a ready Generator; reject anything else."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def worker_count() -> int:
    """Worker cap from STABLEGAP_THREADS (defaults to the CPU count)."""
    raw = os.environ.get("STABLEGAP_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"STABLEGAP_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"STABLEGAP_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1
