import numpy as np
import pytest

from stablegap import RngStream


@pytest.fixture
def stream():
    return RngStream(20240816)


@pytest.fixture
def gen(stream):
    return stream.generator()


def z_score(samples: np.ndarray, target: float) -> float:
    """Distance of the sample mean from the target in standard-error units."""
    samples = np.asarray(samples, dtype=float)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    return float(abs(samples.mean() - target) / se)


class ZeroUniform(np.random.Generator):
    """A generator whose uniform draws all land on the left end point, the
    one value a half-open uniform can return that the Kanter sampler cannot
    take."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.full(size, float(low))
