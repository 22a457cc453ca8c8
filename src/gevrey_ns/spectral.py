"""Fourier representation of mean-zero, divergence-free velocity fields on the 2D torus.

The domain is fixed to [0, 2pi)^2.  A field is stored as two complex
coefficient arrays u1hat, u2hat over the integer wavenumber lattice
xi in {-n/2+1, ..., n/2}^2 in standard FFT ordering, with the convention

    u(x) = sum_xi uhat(xi) exp(i xi . x).

The unpaired Nyquist row/column is kept identically zero, so every retained
mode has a conjugate partner and real fields are exactly Hermitian.  With
this convention Parseval reads

    int |u|^2 dx = (2 pi)^2 sum_xi |uhat(xi)|^2.

L2-type norms are evaluated spectrally; the L4 norm is evaluated by
quadrature on a 2x-oversampled physical grid so that quartic products do
not alias.  The quadratic advection term uses the 2/3-rule: inputs and
outputs are truncated to |xi|_inf <= k_cut with 3 k_cut < n, which makes the
retained product modes an exact convolution of the truncated inputs.

Every advection (solver, derivative stacks, public products) ends in one
contraction with Grid.div, built once per grid, which takes the rfft2 planes
(T11, T12, T22) of a product to its dealiased -P div on the rfft layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError, FieldInvariantError, GridMismatchError

TWO_PI = 2.0 * np.pi


def _fft_workers() -> int:
    """Worker count for FFT calls, capped by GEVREY_NS_THREADS (default 1)."""
    raw = os.environ.get("GEVREY_NS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Wavenumber bookkeeping for an n x n spectral grid on [0, 2pi)^2.

    Attributes:
        n: modes per dimension (even, >= 8).
        freqs: integer frequencies in FFT order, shape (n,).
        k1, k2: broadcastable wavenumber arrays, shapes (n, 1) and (1, n).
        k_sq: |xi|^2, shape (n, n).
        inv_k_sq: 1/|xi|^2 with the zero mode set to 0.
        keep: mask that removes the Nyquist row/column.
        dealias: 2/3-rule mask |xi|_inf <= k_cut (Nyquist removed as well).
        k_cut: dealiasing cutoff, the largest k with 3k < n.
        div: (2, 3, n, n/2+1) tensor; (div * T).sum(axis=1) is the dealiased
            -P(xi) i xi . T / n^2 of unnormalised rfft2 planes T = (T11, T12, T22).
    """

    n: int
    freqs: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k_sq: np.ndarray
    inv_k_sq: np.ndarray
    keep: np.ndarray
    dealias: np.ndarray
    k_cut: int
    div: np.ndarray

    def __post_init__(self):
        for name in ("freqs", "k1", "k2", "k_sq", "inv_k_sq", "keep", "dealias", "div"):
            _readonly(getattr(self, name))

    # Derived layouts used by the rfft fast path and oversampled quadrature.

    @property
    def half_cols(self) -> int:
        return self.n // 2 + 1

    def half(self, a: np.ndarray) -> np.ndarray:
        """Non-negative-frequency columns of a full coefficient array."""
        return a[:, : self.half_cols]

    def full_from_half(self, h: np.ndarray) -> np.ndarray:
        """Rebuild the full Hermitian lattice from (..., n, n/2+1) rfft-layout coefficients.

        Entry (p, -q) is conj h[-p, q]: two strided conjugations, no copy of h.
        """
        hc = self.half_cols
        full = np.empty(h.shape[:-1] + (self.n,), dtype=complex)
        full[..., :hc] = h
        mirror = h[..., hc - 2:0:-1]
        np.conjugate(mirror[..., :1, :], out=full[..., :1, hc:])
        np.conjugate(mirror[..., :0:-1, :], out=full[..., 1:, hc:])
        return full

    def oversample_rows(self, m: int) -> np.ndarray:
        """Row indices embedding this grid's frequencies into an m-point grid."""
        return self.freqs % m


def _leray(k1, k2, inv_k_sq, u1, u2):
    """P(xi) u = u - xi (xi . u) / |xi|^2 on broadcastable wavenumber arrays."""
    s = (k1 * u1 + k2 * u2) * inv_k_sq
    return u1 - k1 * s, u2 - k2 * s


def make_grid(n: int) -> Grid:
    """Build the wavenumber lattice for n modes per dimension.

    Raises ConfigurationError unless n is an even integer >= 8.
    """
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n % 2 != 0 or n < 8:
        raise ConfigurationError(f"grid size must be even and >= 8, got {n}")
    freqs = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    k1 = freqs.astype(float).reshape(n, 1)
    k2 = freqs.astype(float).reshape(1, n)
    k_sq = k1 * k1 + k2 * k2
    inv = np.zeros_like(k_sq)
    nz = k_sq > 0
    inv[nz] = 1.0 / k_sq[nz]
    nyq = n // 2
    keep = np.ones((n, n), dtype=bool)
    keep[nyq, :] = False
    keep[:, nyq] = False
    k_cut = (n - 1) // 3
    dealias = (np.abs(k1) <= k_cut) & (np.abs(k2) <= k_cut) & keep
    hc, k2h = n // 2 + 1, k2[:, : n // 2 + 1]
    c = -1j * dealias[:, :hc] / (float(n) * n)
    div = np.empty((2, 3, n, hc), dtype=complex)
    # -P i xi . T for unit T11, T12 (both off-diagonal slots) and T22
    for j, (a1, a2) in enumerate(((k1, 0.0), (k2h, k1), (0.0, k2h))):
        div[:, j] = _leray(k1, k2h, inv[:, :hc], c * a1, c * a2)
    return Grid(n=n, freqs=freqs, k1=k1, k2=k2, k_sq=k_sq, inv_k_sq=inv, keep=keep,
                dealias=dealias, k_cut=k_cut, div=div)


@dataclass(frozen=True)
class SpectralVelocity:
    """Mean-zero, divergence-free velocity field as Fourier coefficients.

    Instances are immutable; arithmetic returns new fields on the same grid.
    Construction does not validate; use validate_field for the invariant
    check (Hermitian symmetry, zero mean, zero divergence, zero Nyquist).
    """

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        _readonly(self.u1)
        _readonly(self.u2)

    def __add__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, c: float) -> "SpectralVelocity":
        return SpectralVelocity(self.grid, self.u1 * c, self.u2 * c)

    __rmul__ = __mul__

    def max_amplitude(self) -> float:
        return max(float(np.max(np.abs(self.u1))), float(np.max(np.abs(self.u2))))


def _require_same_grid(a: SpectralVelocity, b: SpectralVelocity) -> None:
    if a.grid.n != b.grid.n:
        raise GridMismatchError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")


def _clean(grid: Grid, u1: np.ndarray, u2: np.ndarray) -> SpectralVelocity:
    """Construct a field with the zero-mean and Nyquist constraints applied."""
    u1 = np.where(grid.keep, u1, 0.0 + 0.0j)
    u2 = np.where(grid.keep, u2, 0.0 + 0.0j)
    u1[0, 0] = 0.0
    u2[0, 0] = 0.0
    return SpectralVelocity(grid, u1, u2)


def mirror_coefficients(a: np.ndarray) -> np.ndarray:
    """Return conj(a(-xi)), the Hermitian mirror of a full coefficient array."""
    return np.conj(np.roll(a[::-1, ::-1], 1, axis=(0, 1)))


def hermitian_defect(a: np.ndarray) -> float:
    """Max absolute deviation of a from its Hermitian mirror."""
    return float(np.max(np.abs(a - mirror_coefficients(a))))


def divergence_defect(v: SpectralVelocity) -> float:
    """Max |xi . uhat(xi)| over the lattice."""
    g = v.grid
    return float(np.max(np.abs(g.k1 * v.u1 + g.k2 * v.u2)))


def validate_field(v: SpectralVelocity, hermitian_tol: float = 1e-12,
                   div_tol: float = 1e-10) -> None:
    """Check the structural invariants; raise FieldInvariantError on failure.

    Hermitian symmetry is relative to the largest coefficient amplitude,
    the mean must vanish exactly, the Nyquist row/column must be exactly
    zero, and the divergence must satisfy |xi.uhat| <= div_tol * max|uhat|.
    """
    g = v.grid
    scale = max(v.max_amplitude(), 1e-300)
    for name, a in (("u1", v.u1), ("u2", v.u2)):
        if a.shape != (g.n, g.n):
            raise FieldInvariantError(f"{name} has shape {a.shape}, expected {(g.n, g.n)}")
        if a[0, 0] != 0:
            raise FieldInvariantError(f"{name} mean mode is {a[0, 0]!r}, must be exactly 0")
        nyq = g.n // 2
        if np.any(a[nyq, :] != 0) or np.any(a[:, nyq] != 0):
            raise FieldInvariantError(f"{name} has nonzero Nyquist modes")
        defect = hermitian_defect(a)
        if defect > hermitian_tol * scale:
            raise FieldInvariantError(
                f"{name} Hermitian defect {defect:.3e} exceeds {hermitian_tol:.1e} * {scale:.3e}")
    div = divergence_defect(v)
    if div > div_tol * scale:
        raise FieldInvariantError(
            f"divergence defect {div:.3e} exceeds {div_tol:.1e} * {scale:.3e}")


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def to_physical(v: SpectralVelocity, oversample: int = 1) -> np.ndarray:
    """Evaluate the velocity on an (oversample*n)^2 physical grid as a (2, m, m) array.

    Valid for Hermitian fields (the rfft half-spectrum path is used).
    """
    g = v.grid
    n = g.n
    if oversample == 1:
        U = sfft.irfft2(np.stack([g.half(v.u1), g.half(v.u2)]), s=(n, n), workers=_fft_workers())
        return U * (float(n) * n)
    m = oversample * n
    pad = np.zeros((2, m, m // 2 + 1), dtype=complex)
    pad[:, g.oversample_rows(m), : g.half_cols] = np.stack([g.half(v.u1), g.half(v.u2)])
    return sfft.irfft2(pad, s=(m, m), workers=_fft_workers()) * (float(m) * m)


def from_physical(grid: Grid, U1: np.ndarray, U2: np.ndarray) -> SpectralVelocity:
    """Transform real physical-space samples to a coefficient field.

    The result is exactly Hermitian by construction; the mean and Nyquist
    modes are zeroed.  Divergence-freeness is the caller's responsibility
    (use leray_project when unsure).
    """
    n = grid.n
    w = _fft_workers()
    h1 = sfft.rfft2(np.asarray(U1, dtype=float), workers=w) / (float(n) * n)
    h2 = sfft.rfft2(np.asarray(U2, dtype=float), workers=w) / (float(n) * n)
    return _clean(grid, grid.full_from_half(h1), grid.full_from_half(h2))


def transform_roundtrip(v: SpectralVelocity) -> SpectralVelocity:
    """Physical-space roundtrip; reproduces the coefficients to ~1e-15."""
    U1, U2 = to_physical(v)
    return from_physical(v.grid, U1, U2)


# ---------------------------------------------------------------------------
# Projection, norms, advection
# ---------------------------------------------------------------------------

def leray_project(grid: Grid, u1: np.ndarray, u2: np.ndarray) -> SpectralVelocity:
    """Modewise orthogonal projection onto divergence-free fields.

    P(xi) = I - xi xi^T / |xi|^2 and P(0) = 0, so the output is mean-zero
    and divergence-free; gradients are annihilated and divergence-free
    inputs are fixed.
    """
    return _clean(grid, *_leray(grid.k1, grid.k2, grid.inv_k_sq, u1, u2))


def leray(v: SpectralVelocity) -> SpectralVelocity:
    return leray_project(v.grid, v.u1, v.u2)


def laplacian(v: SpectralVelocity) -> SpectralVelocity:
    return SpectralVelocity(v.grid, -v.grid.k_sq * v.u1, -v.grid.k_sq * v.u2)


def norm_l2(v: SpectralVelocity) -> float:
    """L2 norm via Parseval."""
    s = np.sum(np.abs(v.u1) ** 2) + np.sum(np.abs(v.u2) ** 2)
    return TWO_PI * float(np.sqrt(s))


def norm_grad_l2(v: SpectralVelocity) -> float:
    """L2 norm of the gradient: (2pi)^2 sum |xi|^2 |uhat|^2, square-rooted."""
    s = np.sum(v.grid.k_sq * (np.abs(v.u1) ** 2 + np.abs(v.u2) ** 2))
    return TWO_PI * float(np.sqrt(s))


def norm_l4(v: SpectralVelocity) -> float:
    """L4 norm by quadrature on a 2x-oversampled physical grid."""
    U1, U2 = to_physical(v, oversample=2)
    m = 2 * v.grid.n
    q = U1 * U1 + U2 * U2
    integral = float(np.sum(q * q)) * (TWO_PI / m) ** 2
    return integral ** 0.25


def inner_l2(a: SpectralVelocity, b: SpectralVelocity) -> float:
    """Parseval inner product int a . b dx."""
    _require_same_grid(a, b)
    s = np.sum(np.conj(a.u1) * b.u1 + np.conj(a.u2) * b.u2)
    return (TWO_PI ** 2) * float(np.real(s))


def _scrub(d: np.ndarray, product_scale: float) -> np.ndarray:
    """Zero coefficients at the FFT roundoff floor of the product transform.

    Amplitudes below 1e-12 of the largest product coefficient are pure
    rounding noise (the transforms are accurate to ~1e-15 relative); left in
    place they sit at high wavenumbers and get amplified by |xi|^2 per level
    of the derivative recursion, which would destroy the closed-form flows.
    Scrubbing is positively homogeneous, so bilinearity holds exactly under
    scaling and to 1e-12 relative under addition.  It runs once after each
    contraction with Grid.div: the solver and the public products scrub once
    per product, derivative stacks once per level against the largest
    coefficient of the level's summed products.
    """
    if product_scale > 0.0:
        d[np.abs(d) < 1e-12 * product_scale] = 0.0
    return d


def _project_products(grid: Grid, T: np.ndarray) -> np.ndarray:
    """-P div of a product tensor from its unnormalised rfft2 planes, rfft layout.

    T[:3] = (T11, T12, T22) contracts with grid.div, bit for bit as
    (grid.div * T[:3]).sum(axis=1) but without its six-plane temporary.  An
    optional T[3] is the antisymmetric part A12 = -A21, whose divergence
    (-d2 A12, d1 A12) is already divergence-free: it needs only the
    derivative and the mask.  One scrub against max|T| / n^2 follows.
    """
    n_sq = float(grid.n) * grid.n
    div = grid.div
    d = div[:, 0] * T[0]
    d += div[:, 1] * T[1]
    d += div[:, 2] * T[2]
    if len(T) == 4:
        hc = grid.half_cols
        curl = (1j / n_sq) * grid.dealias[:, :hc] * T[3]
        d[0] += grid.k2[:, :hc] * curl
        d[1] -= grid.k1 * curl
    return _scrub(d, float(np.max(np.abs(T))) / n_sq)


def _advect_same(grid: Grid, uh):
    """-P div(u (x) u) from a (2, n, hc) rfft-layout stack, dealiased and scaled by n^2."""
    n = grid.n
    w = _fft_workers()
    U = sfft.irfft2(uh, s=(n, n), axes=(-2, -1), workers=w)
    P = np.empty((3, n, n))
    np.multiply(U[0], U, out=P[:2])  # (U1 U1, U1 U2)
    np.multiply(U[1], U[1], out=P[2])
    return _project_products(grid, sfft.rfft2(P, axes=(-2, -1), workers=w))


def _advect_pair(grid: Grid, abh):
    """-P div(a (x) b) from the (4, n, hc) stack (a, b), dealiased and scaled by n^2.

    The planes are the symmetric part of a (x) b and its antisymmetric part (a1 b2 - a2 b1) / 2.
    """
    n = grid.n
    w = _fft_workers()
    A1, A2, B1, B2 = sfft.irfft2(abh, s=(n, n), axes=(-2, -1), workers=w)
    cross, swap = A1 * B2, A2 * B1
    P = np.stack([A1 * B1, 0.5 * (cross + swap), A2 * B2, 0.5 * (cross - swap)])
    return _project_products(grid, sfft.rfft2(P, axes=(-2, -1), workers=w))


def _masked_half_stack(v: SpectralVelocity) -> np.ndarray:
    """The rfft half of v cut to the dealias band and scaled by n^2, ready for irfft2."""
    g = v.grid
    h = np.stack([g.half(v.u1), g.half(v.u2)])
    h *= g.dealias[:, :g.half_cols] * (float(g.n) * g.n)
    return h


def _field_from_half_stack(g: Grid, h: np.ndarray) -> SpectralVelocity:
    """The field whose rfft half is the (2, n, hc) stack h, with the mean mode zeroed."""
    full = g.full_from_half(h)
    full[:, 0, 0] = 0.0
    return SpectralVelocity(g, full[0], full[1])


def nonlinear_term(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """Leray-projected advection -P div(a (x) b) with 2/3-rule dealiasing.

    Products are formed in physical space on the n-grid; with inputs
    truncated to |xi|_inf <= k_cut and 3 k_cut < n, the retained output
    modes are the exact convolution of the truncated inputs.  Bilinear in
    (a, b); the output is divergence-free.  Raises GridMismatchError if the
    grids differ.
    """
    _require_same_grid(a, b)
    g = a.grid
    if b is a:
        d = _advect_same(g, _masked_half_stack(a))
    else:
        d = _advect_pair(g, np.concatenate([_masked_half_stack(a), _masked_half_stack(b)]))
    return _field_from_half_stack(g, d)


def nonlinear_symmetric(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """-P div(a (x) b + b (x) a); equals nonlinear_term(a,b) + nonlinear_term(b,a)."""
    _require_same_grid(a, b)
    return nonlinear_level(a.grid, [dealiased_physical(a), dealiased_physical(b)])


def dealiased_physical(v: SpectralVelocity) -> np.ndarray:
    """The 2/3-truncated field on the n-grid as a (2, n, n) array; one inverse transform."""
    n = v.grid.n
    return sfft.irfft2(_masked_half_stack(v), s=(n, n), axes=(-2, -1), workers=_fft_workers())


def nonlinear_level(grid: Grid, phys: list[np.ndarray]) -> SpectralVelocity:
    """-P div sum_{j=0}^{k-1} e_j (x) e_{k-1-j} from k dealiased_physical entries.

    The summed tensor is symmetric: each pair j < k-1-j enters once, doubled
    on the diagonal and as A1 B2 + A2 B1 off it, and a middle term enters
    once.  Since the inputs are truncated, the sum of products is still an
    exact convolution on the retained modes, so the level costs one forward
    transform and one scrub.
    """
    n = grid.n
    top = len(phys) - 1
    P = np.zeros((3, n, n))
    diag = P[0::2]  # (T11, T22)
    for j in range((top + 1) // 2):
        a, b = phys[j], phys[top - j]
        diag += 2.0 * (a * b)
        P[1] += a[0] * b[1] + a[1] * b[0]
    if top % 2 == 0:
        a = phys[top // 2]
        diag += a * a
        P[1] += a[0] * a[1]
    T = sfft.rfft2(P, axes=(-2, -1), workers=_fft_workers())
    return _field_from_half_stack(grid, _project_products(grid, T))


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def physical_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(n) * (TWO_PI / n)
    return np.meshgrid(x, x, indexing="ij")


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralVelocity:
    """The vortex A (sin x cos y, -cos x sin y); its advection is a pure gradient.

    Coefficients are placed analytically (exact zeros off the four corner
    modes), so derivative stacks built on this field stay clean.
    """
    if amplitude <= 0:
        raise ConfigurationError("taylor_green amplitude must be positive")
    n = grid.n
    u1 = np.zeros((n, n), dtype=complex)
    u2 = np.zeros((n, n), dtype=complex)
    q = 0.25j * amplitude
    for s1 in (1, -1):
        for s2 in (1, -1):
            u1[s1 % n, s2 % n] = -q * s1
            u2[s1 % n, s2 % n] = q * s2
    return SpectralVelocity(grid, u1, u2)


def shear_flow(grid: Grid, amplitude: float = 1.0) -> SpectralVelocity:
    """The single-mode shear A (sin y, 0); u.grad u vanishes identically."""
    if amplitude <= 0:
        raise ConfigurationError("shear amplitude must be positive")
    n = grid.n
    u1 = np.zeros((n, n), dtype=complex)
    u2 = np.zeros((n, n), dtype=complex)
    u1[0, 1] = -0.5j * amplitude
    u1[0, -1 % n] = 0.5j * amplitude
    return SpectralVelocity(grid, u1, u2)


def random_spectrum_field(grid: Grid, decay: float, k_max: float, seed: int,
                          l2_norm: float | None = None) -> SpectralVelocity:
    """Random divergence-free field with |uhat(xi)| ~ |xi|^-decay up to |xi| <= k_max.

    Complex Gaussian amplitudes are Hermitian-symmetrized, Leray-projected,
    and optionally rescaled to a requested L2 norm.  Deterministic for a
    fixed seed.
    """
    if k_max < 1:
        raise ConfigurationError("random_spectrum needs k_max >= 1")
    rng = np.random.default_rng(seed)
    n = grid.n
    raw = rng.standard_normal((4, n, n))
    g1 = raw[0] + 1j * raw[1]
    g2 = raw[2] + 1j * raw[3]
    g1 = 0.5 * (g1 + mirror_coefficients(g1))
    g2 = 0.5 * (g2 + mirror_coefficients(g2))
    r = np.sqrt(grid.k_sq)
    with np.errstate(divide="ignore"):
        amp = np.where((r > 0) & (r <= k_max), r ** (-float(decay)), 0.0)
    v = leray_project(grid, g1 * amp, g2 * amp)
    if l2_norm is not None:
        base = norm_l2(v)
        if base == 0.0:
            raise ConfigurationError("random field is identically zero, cannot rescale")
        v = v * (float(l2_norm) / base)
    return v


_INITIAL_DATA_KEYS = {
    "taylor_green": {"amplitude"},
    "shear": {"amplitude"},
    "random_spectrum": {"decay", "k_max", "seed", "l2_norm"},
}


def make_initial_data(grid: Grid, spec: dict) -> SpectralVelocity:
    """Build initial data from a declarative description.

    spec is a dict with key "kind" in {taylor_green, shear, random_spectrum}
    plus that generator's parameters; unknown kinds or keys are rejected.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"initial data spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind not in _INITIAL_DATA_KEYS:
        raise ConfigurationError(f"unknown initial data kind {kind!r}")
    extra = set(spec) - _INITIAL_DATA_KEYS[kind] - {"kind"}
    if extra:
        raise ConfigurationError(f"unknown keys for {kind}: {sorted(extra)}")
    if kind == "taylor_green":
        return taylor_green(grid, float(spec.get("amplitude", 1.0)))
    if kind == "shear":
        return shear_flow(grid, float(spec.get("amplitude", 1.0)))
    missing = {"decay", "k_max", "seed"} - set(spec)
    if missing:
        raise ConfigurationError(f"random_spectrum needs keys {sorted(missing)}")
    l2 = spec.get("l2_norm")
    return random_spectrum_field(grid, float(spec["decay"]), float(spec["k_max"]),
                                 int(spec["seed"]), None if l2 is None else float(l2))


def mode_energies(v: SpectralVelocity) -> tuple[np.ndarray, np.ndarray]:
    """Energy (2pi)^2 |uhat|^2 grouped by the integer eigenvalue |xi|^2.

    Returns (lams, energies) with lams the sorted distinct |xi|^2 > 0 that
    carry energy.  Shells below 1e-28 of the total are rounding noise from
    physical-space construction and are dropped, so sum(energies) matches
    norm_l2(v)^2 to that relative accuracy.
    """
    lam = np.rint(v.grid.k_sq).astype(np.int64).ravel()
    e = (TWO_PI ** 2) * (np.abs(v.u1) ** 2 + np.abs(v.u2) ** 2).ravel()
    acc = np.bincount(lam, weights=e)
    floor = 1e-28 * float(np.sum(acc))
    lams = np.nonzero(acc > floor)[0]
    lams = lams[lams > 0]
    return lams.astype(float), acc[lams.astype(np.int64)]
