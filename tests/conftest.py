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


class NanInSecondGaussianDraw(np.random.Generator):
    """A generator whose second standard-normal call returns one NaN: in a
    cloud drawn in row blocks, a non-finite point inside the second block."""

    calls = 0

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        self.calls += 1
        if self.calls == 2:
            out[-1, -1] = np.nan
        return out


class CountingNormals(np.random.Generator):
    """A generator that counts the standard normals it draws."""

    normals = 0

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        self.normals += np.size(out)
        return out


class NanInGammaDraw(np.random.Generator):
    """A generator whose gamma draws end in one NaN: a non-finite norm in
    the tail of a cloud whose norms are drawn from the law of the radius."""

    def standard_gamma(self, *args, **kwargs):
        out = super().standard_gamma(*args, **kwargs)
        out[-1] = np.nan
        return out
