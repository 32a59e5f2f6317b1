import numpy as np
import pytest

from exwave import radiation as rad


def random_smooth_profile(rng, lo=-1.5, hi=1.5):
    """Random C^2 compactly supported profile on [lo, hi] (spline moments)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    c0, c1, c2 = rng.uniform(-1.0, 1.0, size=3).tolist()

    def fn(s):   # a profile function takes a float
        x = (s - mid) / half
        return (1.0 - x * x) ** 3 * (c0 + c1 * x + c2 * x * x) if abs(x) < 1.0 else 0.0

    return rad.RadiationProfile(fn, support=(lo, hi), smooth=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
