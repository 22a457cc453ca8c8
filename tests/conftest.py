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


class FFTCalls(dict):
    """Call counts per transform name; .shapes[name] lists each call's physical plane shape."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.shapes = {name: [] for name in names}


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts and plane shapes of scipy.fft.irfft2 / rfft2 calls made while the test runs."""
    calls = FFTCalls(("irfft2", "rfft2"))
    for name in calls:
        def counted(*args, _name=name, _fft=getattr(scipy.fft, name), **kwargs):
            out = _fft(*args, **kwargs)
            calls[_name] += 1
            physical = out if _name == "irfft2" else args[0]
            calls.shapes[_name].append(np.shape(physical)[-2:])
            return out
        monkeypatch.setattr(scipy.fft, name, counted)
    return calls
