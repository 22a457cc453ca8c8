from collections import Counter

import numpy as np
import pytest

from gevrey_ns import (SpectralVelocity, leray_project, make_grid, mode_energies,
                       random_spectrum_field, shear_flow, spectral, taylor_green, to_physical)

SQRT2_PI = np.pi * np.sqrt(2.0)


# Oracles the package itself does not call; test modules import them from conftest.

def laplacian(v):
    """Lap v: the plane times -|xi|^2."""
    return SpectralVelocity(v.grid, -v.grid.k_sq * v.w)


def synthesize(grid, h, m):
    """Values on the m x m physical grid (m >= n) of coefficient stacks h (..., n, n/2+1),
    by the zero-padded inverse FFT: the reference for spectral.BandDFT.synthesize."""
    pad = np.zeros(h.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    pad[..., grid.freqs % m, : grid.n // 2 + 1] = h
    return spectral.irfft2(pad, m)


def analyze(grid, X):
    """The grid's rfft-half coefficients of real samples X (..., m, m) on an m-grid, m >= n."""
    m = X.shape[-1]
    return spectral.rfft2(X)[..., grid.freqs % m, : grid.n // 2 + 1]


def from_physical(grid, U1, U2):
    """The field of real physical-space velocity samples, through leray_project.

    A gradient part of (U1, U2) is dropped; the result is exactly Hermitian
    by construction, with zero mean and Nyquist modes.
    """
    X = np.stack([np.asarray(U1, dtype=float), np.asarray(U2, dtype=float)])
    return leray_project(grid, analyze(grid, X))


def transform_roundtrip(v):
    """v through physical space and back; reproduces the coefficients to ~1e-15."""
    U1, U2 = to_physical(v)
    return from_physical(v.grid, U1, U2)


def dissipation_integral_exact(u0, t):
    """Closed form of int_0^t |grad l|^2 dtau for the heat flow l of u0, t >= 0."""
    lams, E = mode_energies(u0)
    return float(np.sum(0.5 * E * (1.0 - np.exp(-2.0 * lams * t))))


def stack_identity_defects(stack):
    """(K, 2) defects of the energy and enstrophy equalities at the levels k = 1..K of a stack.

    The dealiased system keeps d/dt |u|^2 = -2 |grad u|^2 and, in 2D,
    d/dt |grad u|^2 = -2 |Lap u|^2 exactly.  Differentiated k - 1 more times,
    in the scaled entries v_j of the stack's table, they read

        sum_{j<=k} (v_j, v_{k-j}) + (t/k) sum_{j<k} (grad v_j, grad v_{k-1-j}) = 0,

    and the same with (grad, grad) on the left and (Lap, Lap) on the right.
    Column 0 is the energy family and column 1 the enstrophy family, each
    level's sum over its largest term, from Parseval pair sums of the table.
    """
    g, w, t = stack.grid, stack.w, stack.t
    pairs = spectral.parseval(g, w[:, None], w[None])  # (v_i, v_j) and (grad v_i, grad v_j)
    lap = spectral.parseval(g, w[:, None], g.k_sq * w[None])[..., 1]  # (Lap v_i, Lap v_j)
    families = ((pairs[..., 0], pairs[..., 1]), (pairs[..., 1], lap))
    defects = np.zeros((stack.depth, 2))
    for k in range(1, stack.depth + 1):
        j, i = np.arange(k + 1), np.arange(k)
        for f, (left, right) in enumerate(families):
            terms = np.concatenate([left[j, k - j], (t / k) * right[i, k - 1 - i]])
            scale = np.max(np.abs(terms))
            defects[k - 1, f] = abs(terms.sum()) / scale if scale > 0 else 0.0
    return defects


def _hermitian_lattice(h):
    n = h.shape[-2]
    full = np.zeros(h.shape[:-1] + (n,), dtype=complex)
    full[..., : n // 2 + 1] = h
    q = np.arange(1, n // 2)
    full[..., n - q] = np.conj(h[..., (-np.arange(n)) % n, :][..., q])
    return full


@pytest.fixture(scope="session")
def hermitian_lattice():
    """h -> the full (..., n, n) lattice of rfft-half coefficients h, completed as
    full[p, -q] = conj h[-p, q] independently of the package."""
    return _hermitian_lattice


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
    """Call counts per transform name; .shapes[name] lists each call's physical plane shape,
    .arrays[name] the shape of its whole physical array."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.shapes = {name: [] for name in names}
        self.arrays = {name: [] for name in names}


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts and plane shapes of spectral.irfft2 / rfft2 calls made while the test runs."""
    calls = FFTCalls(("irfft2", "rfft2"))
    for name in calls:
        def counted(*args, _name=name, _fft=getattr(spectral, name), **kwargs):
            out = _fft(*args, **kwargs)
            calls[_name] += 1
            physical = out if _name == "irfft2" else args[0]
            calls.shapes[_name].append(np.shape(physical)[-2:])
            calls.arrays[_name].append(np.shape(physical))
            return out
        monkeypatch.setattr(spectral, name, counted)
    return calls


class BandCalls(list):
    """One (method, implementation, physical array shape) record per band transform call."""

    def counts(self) -> Counter:
        return Counter(method for method, _, _ in self)


@pytest.fixture
def band_calls(monkeypatch):
    """The advection kernel's band transforms (synthesize / analyze of spectral.BandDFT or
    spectral.BandFFT) made while the test runs; below n = 64 no rfft2 call runs."""
    calls = BandCalls()
    for cls in (spectral.BandDFT, spectral.BandFFT):
        for name in ("synthesize", "analyze"):
            def counted(self, x, *args, _name=name, _fn=getattr(cls, name), **kwargs):
                out = _fn(self, x, *args, **kwargs)
                physical = out if _name == "synthesize" else x
                calls.append((_name, type(self).__name__, np.shape(physical)))
                return out
            monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.fixture
def rayleigh_rows(monkeypatch):
    """The stack height of each verify._rayleigh_batch call made while the test runs; their
    sum is the C0 ascent's row-evaluations."""
    from gevrey_ns import verify
    rows = []

    def counted(g, band, Z, _kernel=verify._rayleigh_batch):
        rows.append(len(Z))
        return _kernel(g, band, Z)
    monkeypatch.setattr(verify, "_rayleigh_batch", counted)
    return rows
