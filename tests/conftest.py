import numpy as np
import pytest
import scipy.fft

from gevrey_ns import make_grid, random_spectrum_field, shear_flow, taylor_green

SQRT2_PI = np.pi * np.sqrt(2.0)


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32)


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16)


@pytest.fixture
def tg(grid32):
    return taylor_green(grid32, 1.0)


@pytest.fixture
def shear(grid32):
    return shear_flow(grid32, 1.0)


@pytest.fixture
def unit_mode(grid32):
    """Single-mode field with |xi|^2 = 1 and unit L2 norm."""
    return shear_flow(grid32, 1.0 / SQRT2_PI)


@pytest.fixture
def random_field(grid32):
    return random_spectrum_field(grid32, decay=2.0, k_max=8, seed=7, l2_norm=1.0)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of scipy.fft.irfft2 / rfft2 calls made while the test runs."""
    calls = {"irfft2": 0, "rfft2": 0}
    for name in calls:
        def counted(*args, _name=name, _fft=getattr(scipy.fft, name), **kwargs):
            calls[_name] += 1
            return _fft(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return calls
