"""Fourier representation of mean-zero, divergence-free velocity fields on the 2D torus.

The domain is fixed to [0, 2pi)^2, with the convention

    u(x) = sum_xi uhat(xi) exp(i xi . x),   xi in {-n/2+1, ..., n/2}^2.

In 2D such a field is exactly its scalar vorticity omegahat = i (k1 uhat2 -
k2 uhat1), and a field stores only that: one complex (n, n/2+1) plane, the
rfft half-spectrum with rows in FFT order and columns 0..n/2.  Only this
module knows that layout.  Grid.lift takes the plane to the velocity
coefficients, derived on demand for physical-space work; leray_project is
the one way in from velocity coefficients, so divergence-freeness is
structural.  The omegahat(-xi) = conj omegahat(xi) partner of every stored
mode is implicit except on columns 0 and n/2, which hold both members of
each conjugate pair, so validate_field checks Hermitian symmetry there; the
unpaired Nyquist row and column are kept identically zero.  Parseval on the
full lattice,

    int |u|^2 dx = (2 pi)^2 sum_xi |omegahat(xi)|^2 / |xi|^2,
    int |grad u|^2 dx = (2 pi)^2 sum_xi |omegahat(xi)|^2,

is one weighted sum over the half, where every column other than 0 and n/2
also stands for its conjugate and weighs 2.  parseval evaluates both, and
every L2-type norm reads it.  l4_quadrature is the one L4 norm: a Riemann
sum on a BandDFT's physical grid, fine enough that the quartic does not
alias; norm_l4 (on the 2n x 2n grid) and the C0 ascent both read it.

The quadratic advection term uses the 2/3-rule: inputs and outputs are
truncated to |xi|_inf <= k_cut with 3 k_cut < n, which makes the retained
product modes an exact convolution of the truncated inputs.  The trace of a
symmetric product tensor T is a gradient, which the projection removes, so
advection reads only the two traceless planes A = T12 and B = T22 - T11.
Their band coefficients contract with a band curl table to the vorticity of
the dealiased -P div T.  (A product of two different fields also has an
antisymmetric part, whose vorticity is |xi|^2 times its coefficients;
nonlinear_term alone forms one.)  Advection therefore works on the band
alone: pack takes the band of a plane to one contiguous (2 k_cut + 1,
k_cut + 1) plane, rows |k1| <= k_cut in FFT order and columns 0..k_cut, and
unpack writes it back; the solver steps and the stacks recurse on packed
planes.  A Workspace holds the planes of that kernel and has one entry per
job: level loads a packed plane as a stack entry and contracts the level's
summed products, and contract analyzes the two planes, contracts them on the
band and scrubs the roundoff.  Both read planes and views bound when the
Workspace is built, so a solver run or a stack allocates them once, and a
solver stage or a stack level is one level call that allocates no plane.

Every transform maps coefficients to grid values, sum_xi uhat(xi) exp(i xi . x),
and m x m samples back with the factor 1/m^2: band_dft's matrices carry it, and
rfft2 and irfft2 pass norm="forward" to both 1-D passes, so no caller scales.

The kernel maps the band to the n x n grid and back in one of two ways,
chosen by n alone.  Below n = 64 it is a BandDFT on the n-grid: dense
matrix products on the band, each below OpenBLAS's one-thread size.  From
n = 64 up it is a BandFFT, the maps of band_dft(grid, n, k_cut): rfft2 and
irfft2 with their column pass run on the k_cut + 1 retained columns only.
_band_kernel alone builds the band tables, and the dense matrices, once per n.
Every FFT goes through rfft2 and irfft2 and runs on the n x n grid; a
BandDFT also serves norm_l4 on the 2n x 2n grid and the C0 ascent's small
cap grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import check_initial_data
from .errors import ConfigurationError, FieldInvariantError, GridMismatchError

TWO_PI = 2.0 * np.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Wavenumber bookkeeping for an n x n spectral grid on [0, 2pi)^2.

    Every mode array has the rfft half shape (n, n/2+1) of a field plane.

    Attributes:
        n: modes per dimension (even, >= 8).
        freqs: integer frequencies in FFT order, shape (n,).
        k1, k2: broadcastable wavenumbers, shapes (n, 1) and (1, n/2+1); the
            Nyquist column carries -n/2.
        k_sq: |xi|^2.
        keep: mask that removes the Nyquist row/column.
        dealias: 2/3-rule mask |xi|_inf <= k_cut (Nyquist removed as well).
        k_cut: dealiasing cutoff, the largest k with 3k < n.
        lift: (2, n, n/2+1) multiplier (i k2, -i k1) / |xi|^2 taking a vorticity
            plane to its velocity (0 at xi = 0).
        parseval_w: (2, N) weights on the N floats of a plane's flattened float
            view: row 0 gives |u|^2, row 1 |grad u|^2 (see parseval).
        shells: the eigenvalue |xi|^2 of each of the N floats, as integers.
    """

    n: int
    freqs: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k_sq: np.ndarray
    keep: np.ndarray
    dealias: np.ndarray
    k_cut: int
    lift: np.ndarray
    parseval_w: np.ndarray
    shells: np.ndarray

    def __post_init__(self):
        for name in "freqs k1 k2 k_sq keep dealias lift parseval_w shells".split():
            _readonly(getattr(self, name))


def make_grid(n: int) -> Grid:
    """Build the wavenumber lattice for n modes per dimension.

    Raises ConfigurationError unless n is an even integer >= 8.
    """
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n % 2 != 0 or n < 8:
        raise ConfigurationError(f"grid size must be even and >= 8, got {n}")
    freqs = (np.arange(n) + n // 2) % n - n // 2  # FFT order: 0..n/2-1, then -n/2..-1
    hc = n // 2 + 1
    k1 = freqs.astype(float).reshape(n, 1)
    k2 = freqs[:hc].astype(float).reshape(1, hc)
    k_sq = k1 * k1 + k2 * k2
    inv = np.zeros_like(k_sq)
    nz = k_sq > 0
    inv[nz] = 1.0 / k_sq[nz]
    keep = np.ones((n, hc), dtype=bool)
    keep[n // 2, :] = False
    keep[:, -1] = False
    k_cut = (n - 1) // 3
    dealias = (np.abs(k1) <= k_cut) & (np.abs(k2) <= k_cut) & keep
    col_w = np.full(hc, 2.0)
    col_w[[0, -1]] = 1.0  # the self-conjugate columns; every other one stands for two
    w = TWO_PI ** 2 * col_w * np.stack([inv, np.ones_like(k_sq)])
    return Grid(n=n, freqs=freqs, k1=k1, k2=k2, k_sq=k_sq, keep=keep,
                dealias=dealias, k_cut=k_cut, lift=np.stack([1j * k2 * inv, -1j * k1 * inv]),
                parseval_w=np.repeat(w, 2, axis=-1).reshape(2, -1),
                shells=np.repeat(np.rint(k_sq).astype(np.int64), 2, axis=-1).ravel())


@dataclass(frozen=True)
class SpectralVelocity:
    """Mean-zero, divergence-free velocity field stored as its vorticity plane.

    w is the read-only (n, n/2+1) plane of omegahat = i (k1 uhat2 - k2 uhat1);
    uh = grid.lift * w, shape (2, n, n/2+1), is derived, read-only, on each
    access.  Instances are immutable; arithmetic returns new fields on the
    same grid.  Construction checks only the shape of w (FieldInvariantError
    otherwise); validate_field checks the rest (Hermitian symmetry, zero
    mean, zero Nyquist).
    """

    grid: Grid
    w: np.ndarray

    def __post_init__(self):
        if np.shape(self.w) != self.grid.k_sq.shape:
            raise FieldInvariantError(f"vorticity plane has shape {np.shape(self.w)}, "
                                      f"expected {self.grid.k_sq.shape}")
        _readonly(self.w)

    @property
    def uh(self) -> np.ndarray:
        return _readonly(self.grid.lift * self.w)

    def __add__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.w + other.w)

    def __sub__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.w - other.w)

    def __mul__(self, c) -> "SpectralVelocity":
        """Scalar or modewise multiplier (an array broadcasting against the plane)."""
        return SpectralVelocity(self.grid, self.w * c)

    __rmul__ = __mul__

    def max_amplitude(self) -> float:
        """The largest vorticity coefficient amplitude max |omegahat|."""
        return float(np.max(np.abs(self.w)))


def _require_same_grid(a: SpectralVelocity, b: SpectralVelocity) -> None:
    if a.grid.n != b.grid.n:
        raise GridMismatchError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")


def _clean(grid: Grid, h: np.ndarray) -> np.ndarray:
    """Zero the Nyquist and mean modes of coefficient stacks h (..., n, n/2+1) in place."""
    np.copyto(h, 0.0, where=~grid.keep)
    h[..., 0, 0] = 0.0
    return h


def xi_cross(grid: Grid, c: np.ndarray) -> np.ndarray:
    """k1 c2 - k2 c1, the curl over i, of velocity coefficient stacks c (..., 2, n, n/2+1)."""
    return grid.k1 * c[..., 1, :, :] - grid.k2 * c[..., 0, :, :]


def leray_project(grid: Grid, uh: np.ndarray) -> SpectralVelocity:
    """The divergence-free part of velocity coefficients uh (2, n, n/2+1) as a field.

    Its vorticity is i xi_cross(grid, uh), with the mean and Nyquist modes
    zeroed; its lift is P(xi) uh with P(xi) = I - xi xi^T / |xi|^2 and
    P(0) = 0, so gradients are annihilated and divergence-free inputs fixed.
    """
    return SpectralVelocity(grid, _clean(grid, 1j * xi_cross(grid, uh)))


def from_lattice(grid: Grid, u: np.ndarray) -> SpectralVelocity:
    """The field of Hermitian full-lattice velocity coefficients u, shape (2, n, n) in FFT order.

    u goes through leray_project, so a divergent part is dropped.
    """
    return leray_project(grid, u[..., : grid.n // 2 + 1])


def mirror_coefficients(a: np.ndarray) -> np.ndarray:
    """Return conj(a(-xi)), the Hermitian mirror of full-lattice (..., n, n) coefficients."""
    return np.conj(np.roll(a[..., ::-1, ::-1], 1, axis=(-2, -1)))


def hermitian_defect(a: np.ndarray) -> float:
    """Max |a(p, q) - conj a(-p, q)| over the columns q = 0 and n/2 of rfft-half coefficients.

    Those columns hold both members of each conjugate pair; every other
    stored mode's partner is implicit, so this is the whole Hermitian defect.
    """
    c = a[..., [0, -1]]
    return float(np.max(np.abs(c - np.conj(np.roll(c[..., ::-1, :], 1, axis=-2)))))


def validate_field(v: SpectralVelocity) -> None:
    """Check the structural invariants of v.w; raise FieldInvariantError on failure.

    The Hermitian defect must be at most 1e-12 of the largest coefficient
    amplitude, and the mean and the Nyquist row/column exactly zero.  Zero
    divergence holds by construction.
    """
    w = v.w
    if w[0, 0] != 0:
        raise FieldInvariantError(f"vorticity mean mode is {w[0, 0]!r}, must be exactly 0")
    if np.any(w[~v.grid.keep] != 0):
        raise FieldInvariantError("vorticity has nonzero Nyquist modes")
    scale = max(v.max_amplitude(), 1e-300)
    defect = hermitian_defect(w)
    if defect > 1e-12 * scale:
        raise FieldInvariantError(
            f"vorticity Hermitian defect {defect:.3e} exceeds 1.0e-12 * {scale:.3e}")


# ---------------------------------------------------------------------------
# The dealiased band
# ---------------------------------------------------------------------------

def band_shape(grid: Grid) -> tuple[int, int]:
    """(2 k_cut + 1, k_cut + 1), the shape of a packed band plane."""
    return 2 * grid.k_cut + 1, grid.k_cut + 1


def pack(grid: Grid, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The band |xi|_inf <= k_cut of planes a (..., n, n/2+1) as contiguous packed planes.

    A packed plane has shape band_shape(grid): rows k1 = 0..k_cut, then
    -k_cut..-1 (FFT order), and columns k2 = 0..k_cut.  It is the support of
    grid.dealias.  out, if given, receives the result.
    """
    k = grid.k_cut
    if out is None:
        out = np.empty(a.shape[:-2] + band_shape(grid), dtype=a.dtype)
    out[..., : k + 1, :] = a[..., : k + 1, : k + 1]
    out[..., k + 1 :, :] = a[..., grid.n - k :, : k + 1]
    return out


def unpack(grid: Grid, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write packed band planes b into the band of planes out (..., n, n/2+1); the rest of
    out is left as it is."""
    k = grid.k_cut
    out[..., : k + 1, : k + 1] = b[..., : k + 1, :]
    out[..., grid.n - k :, : k + 1] = b[..., k + 1 :, :]
    return out


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def rfft2(x: np.ndarray, out: np.ndarray | None = None, cols: int | None = None) -> np.ndarray:
    """Coefficients of real planes over the last two axes, as two norm="forward" 1-D passes.

    Every forward FFT in the package goes through this function, on the n x n
    grid, and no other module calls numpy.fft.  numpy.fft.rfft2 computes the
    same two passes, but its wrapper costs more per call than a small
    transform.  With cols, the column pass runs on the first cols columns
    only and the others hold the row pass alone.  out, if given, receives
    the result.
    """
    h = np.fft.rfft(x, axis=-1, norm="forward", out=out)
    c = h[..., :cols]
    np.fft.fft(c, axis=-2, norm="forward", out=c)
    return h


def irfft2(h: np.ndarray, n: int, out: np.ndarray | None = None,
           cols: int | None = None) -> np.ndarray:
    """Inverse of rfft2: the values on the n x n grid of coefficients h; every inverse goes
    through it.

    h is overwritten: the first pass runs in place, because a fresh complex
    temporary per call costs more than the pass itself at n = 128.  With
    cols, that pass runs on the first cols columns only, so the others must
    be zero.  out, if given, receives the real planes.
    """
    c = h[..., :cols]
    np.fft.ifft(c, axis=-2, norm="forward", out=c)
    return np.fft.irfft(h, n, axis=-1, norm="forward", out=out)


@dataclass(frozen=True)
class BandDFT:
    """Exact dense DFT between a grid's band |xi|_inf <= k and an m x m physical grid, m >= n.

    The band is held as packed planes (..., R, k+1): rows |k1| <= k in FFT
    order (R = 2k+1, or all n rows when k = n/2, the whole rfft half), and
    columns 0..k.  synthesize gives the values on the m x m grid of such
    coefficient stacks, the irfft2 of their zero-padded m-grid spectrum;
    analyze takes m x m samples to the band's coefficients, the band of
    their rfft2.  Each is two matrix products, to rounding.  synthesize
    runs rows (m, R) on the rows of the band, then cols (2k+2, m) on the
    float view of each band row; the weights 1 on column 0 and 2 on the
    others give the real irfft output.  analyze runs cols_a (m, 2k+2),
    scaled by 1/m^2, then rows_a (R, m).  A Nyquist row or
    column has zero weight both ways, so it is ignored on input and exactly
    zero on output.  A stack (..., m, m) is multiplied plane by plane against
    the shared matrix, so each BLAS call stays far below OpenBLAS's threading
    threshold.  tmp, if given, receives the intermediate product (see
    scratch), and out the result.
    """

    m: int
    rows: np.ndarray
    cols: np.ndarray
    cols_a: np.ndarray
    rows_a: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.cols_a, self.rows_a):
            _readonly(a)

    def synthesize(self, h: np.ndarray, out: np.ndarray | None = None,
                   tmp: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(np.matmul(self.rows, h, out=tmp).view(float), self.cols, out=out)

    def analyze(self, X: np.ndarray, out: np.ndarray | None = None,
                tmp: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self.rows_a, np.matmul(X, self.cols_a, out=tmp).view(complex), out=out)

    def scratch(self, inverse: int, forward: int) -> tuple[np.ndarray, np.ndarray]:
        """tmp buffers of synthesize and analyze for stacks of that many planes."""
        width = len(self.cols)
        return (np.empty((inverse, self.m, width // 2), dtype=complex),
                np.empty((forward, self.m, width)))


def band_dft(grid: Grid, m: int, k: int | None = None) -> BandDFT:
    """The BandDFT of grid's band |xi|_inf <= k (default n/2: the whole rfft half) on the
    m x m physical grid (m >= n)."""
    n, x = grid.n, np.arange(m)
    k = n // 2 if k is None else k
    p, q = grid.freqs[np.abs(grid.freqs) <= k], grid.freqs[: k + 1]
    rows = np.exp(1j * (TWO_PI / m) * (np.outer(x, p) % m))
    rows[:, np.abs(p) == n // 2] = 0.0
    angle = (TWO_PI / m) * (np.outer(q, x) % m)
    wave = np.stack([np.cos(angle), -np.sin(angle)], axis=1).reshape(2 * k + 2, m)
    wave[np.repeat(np.abs(q) == n // 2, 2)] = 0.0  # the Nyquist column
    w = np.full(2 * k + 2, 2.0)
    w[:2] = 1.0  # column 0 is self-conjugate; every other one stands for two
    return BandDFT(m=m, rows=rows, cols=w[:, None] * wave,
                   cols_a=np.ascontiguousarray(wave.T) / (float(m) * m),
                   rows_a=np.ascontiguousarray(np.conj(rows.T)))


@dataclass(frozen=True)
class BandFFT:
    """A grid's dealiased band and its n x n physical grid by pruned FFTs.

    synthesize takes packed band planes to irfft2 of the zero-padded half
    plane and analyze takes n x n planes to the band of their rfft2: the
    maps of band_dft(grid, n, k_cut).  Both run the column pass on the
    k_cut + 1 retained columns only, and give the bits of the unpruned
    rfft2/irfft2 there.  tmp (see scratch) is a half plane per plane;
    synthesize's must start zero, and only the band's columns are written
    to it.
    """

    grid: Grid

    def synthesize(self, h: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        g, k = self.grid, self.grid.k_cut
        unpack(g, h, tmp)
        tmp[..., k + 1 : g.n - k, : k + 1] = 0.0  # the rows the last column pass filled
        return irfft2(tmp, g.n, out=out, cols=k + 1)

    def analyze(self, X: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        return pack(self.grid, rfft2(X, out=tmp, cols=self.grid.k_cut + 1), out=out)

    def scratch(self, inverse: int, forward: int) -> tuple[np.ndarray, np.ndarray]:
        """tmp buffers of synthesize and analyze for stacks of that many planes."""
        half = (self.grid.n, self.grid.n // 2 + 1)
        return (np.zeros((inverse,) + half, dtype=complex),
                np.empty((forward,) + half, dtype=complex))


DENSE_BELOW = 64  # grids below this size run the advection kernel on a BandDFT


@functools.cache
def _band_kernel(n: int, dense: bool) -> tuple:
    """(BandDFT or None, lift, curl) of the advection kernel on the n-grid, built once per n.

    The one builder of band tables.  The transform is band_dft(grid, n, k_cut)
    when dense, else a BandFFT with the same maps.  lift (2, R, C) is Grid.lift
    on the dealiased band.  curl (3, R, C) is (k1^2 - k2^2, k1 k2, |xi|^2) on
    the band, real but stored complex so that no product casts:
    (curl * F).sum(axis=0) is the vorticity of -P div T for the band
    coefficients F = (T12, T22 - T11, A12) of T, A12 = -A21 its
    antisymmetric part.  The kernel contracts the first two rows, and the
    third is the band |xi|^2.  No grid is kept.
    """
    grid = make_grid(n)
    k1, k2, mask = grid.k1, grid.k2, grid.dealias
    # curl of -P(xi) i xi . T = (k1^2 - k2^2) T12 + k1 k2 (T22 - T11) + |xi|^2 A12
    curl = pack(grid, mask * np.stack([k1 * k1 - k2 * k2, k1 * k2, grid.k_sq]))
    return (band_dft(grid, n, grid.k_cut) if dense else None,
            _readonly(pack(grid, grid.lift * mask)), _readonly(curl.astype(complex)))


def to_physical(v: SpectralVelocity) -> np.ndarray:
    """Evaluate the velocity on the n x n physical grid as a (2, n, n) array."""
    return irfft2(v.grid.lift * v.w, v.grid.n)


# ---------------------------------------------------------------------------
# Norms, advection
# ---------------------------------------------------------------------------

def parseval(grid: Grid, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Full-lattice Parseval sums of vorticity planes of shape (..., n, n/2+1), as (..., 2).

    [..., 0] is int u_a . u_b dx and [..., 1] is int grad u_a : grad u_b dx
    for the fields of planes a and b, with b defaulting to a, so
    parseval(grid, a) is (|u|^2, |grad u|^2).  Both are dot products of the
    float views' product with grid.parseval_w, which weights each mode by
    1/|xi|^2 or 1 and each column by how many lattice columns it stands for.
    Each field gets its own dot products, so its sums do not depend on the
    batch it rides in; the three-operand einsum forms them in one pass
    without a temporary and, unlike a BLAS dot, on the calling thread alone.
    """
    x = a.view(float).reshape(a.shape[:-2] + (-1,))
    y = x if b is None else b.view(float).reshape(b.shape[:-2] + (-1,))
    return np.einsum("...i,...i,ji->...j", x, y, grid.parseval_w)


def norm_l2(v: SpectralVelocity) -> float:
    """L2 norm via Parseval."""
    return float(np.sqrt(parseval(v.grid, v.w)[0]))


def norm_grad_l2(v: SpectralVelocity) -> float:
    """L2 norm of the gradient: (2pi)^2 sum |omegahat|^2, square-rooted."""
    return float(np.sqrt(parseval(v.grid, v.w)[1]))


def l4_quadrature(band: BandDFT, grid: Grid,
                  w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, q, |u|_{L4}^2) of the fields of vorticity planes w (..., n, n/2+1) on band's m-grid.

    U (..., 2, m, m) is the velocity there, q (..., m, m) is |u|^2 and the
    last entry, shape (...), is sqrt(int |u|^4 dx) by the m x m Riemann sum,
    which is exact once m exceeds four times the band's largest frequency
    (|u|^4 then has no alias on the mean).  This is the one L4 quadrature:
    norm_l4 and the C0 ascent read it.
    """
    U = band.synthesize(grid.lift * w[..., None, :, :])
    q = np.einsum("...kij,...kij->...ij", U, U)
    return U, q, np.sqrt(np.sum(q * q, axis=(-2, -1))) * (TWO_PI / band.m)


def norm_l4(v: SpectralVelocity) -> float:
    """L4 norm by l4_quadrature on the 2n x 2n physical grid."""
    return float(np.sqrt(l4_quadrature(band_dft(v.grid, 2 * v.grid.n), v.grid, v.w)[2]))


def inner_l2(a: SpectralVelocity, b: SpectralVelocity) -> float:
    """Parseval inner product int a . b dx."""
    _require_same_grid(a, b)
    return float(parseval(a.grid, a.w, b.w)[0])


class Workspace:
    """The planes of the advection kernel on one grid, allocated once per solver run or stack.

    It has one entry per job, and both read and write packed band planes (see
    pack), transformed with the grid size's band kernel (see DENSE_BELOW).
    level(k, b, out) loads the packed vorticity plane b as entry k - 1 (its
    dealiased physical velocity planes go into phys[k - 1]), sums the
    products of phys[:k] as a stack level and hands them to contract.
    contract(P, out) analyzes the two traceless product planes, contracts
    them with the first two rows of the band curl table and scrubs the
    result.  Every plane and view the two touch is bound when the Workspace
    is built, so a solver stage or a stack level is one call and allocates no
    plane.  lift, curl and k_sq (its third row, the band |xi|^2, as complex)
    are _band_kernel's tables, shared by every Workspace on the n.
    """

    def __init__(self, grid: Grid, depth: int = 1):
        n, dense = grid.n, grid.n < DENSE_BELOW
        dft, self.lift, self.curl = _band_kernel(n, dense)
        self.k_sq = self.curl[2]
        self.transform = dft if dense else BandFFT(grid)
        band = band_shape(grid)
        self.phys = np.empty((depth, 2, n, n))
        P, S = np.empty((2, n, n)), np.empty((3, n, n))
        F, mod = np.empty((2,) + band, dtype=complex), np.empty((2,) + band)
        tmp_in, tmp_out = self.transform.scratch(2, 2)
        # level k: entry k - 1, then each pair (e_j, e_{k-1-j}) with j <= k-1-j as its
        # velocity planes, the two planes it writes (P for j = 0, then S[:2]), whether
        # its entries differ and whether it is summed into P
        levels = [None]
        for k in range(1, depth + 1):
            levels.append((self.phys[k - 1], [
                (*self.phys[j], *self.phys[k - 1 - j], *(S[:2] if j else P), 2 * j < k - 1, j > 0)
                for j in range((k - 1) // 2 + 1)]))
        coef = np.empty((2,) + band, dtype=complex)
        self._level = (self.transform.synthesize, *self.lift, coef, *coef, tmp_in, levels, P,
                       S[:2], S[2])
        self._contract = (self.transform.analyze, *self.curl[:2], F, *F, tmp_out, mod, mod[0],
                          np.empty(band, dtype=bool))

    def level(self, k: int, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = the vorticity of -P div sum_{j<k} e_j (x) e_{k-1-j}, dealiased, with e_{k-1} the
        field of the packed vorticity plane b and e_0..e_{k-2} as earlier calls loaded them.

        b's dealiased physical velocity planes go into phys[k - 1].  The level
        is summed into P = (A, B) = (T12, T22 - T11): each pair j < k-1-j
        enters once, as A += a1 b2 + a2 b1 and B += 2 (a2 b2 - a1 b1), and a
        middle entry once, as a1 a2 and a2^2 - a1^2.  The first pair is
        written into P and the rest summed through the scratch planes S.
        """
        synthesize, lift1, lift2, coef, u1, u2, tmp_in, levels, P, S, S2 = self._level
        entry, pairs = levels[k]
        np.multiply(b, lift1, out=u1)  # plane by plane: a broadcast b would be buffered
        np.multiply(b, lift2, out=u2)
        synthesize(coef, out=entry, tmp=tmp_in)
        for a1, a2, b1, b2, A, B, distinct, summed in pairs:
            np.multiply(a1, b2, out=A)
            np.multiply(a2, b2, out=B)
            np.multiply(a1, b1, out=S2)
            B -= S2
            if distinct:
                np.multiply(a2, b1, out=S2)
                A += S2
                B *= 2.0
            if summed:
                P += S
        return self.contract(P, out)

    def contract(self, P: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = the packed vorticity of the dealiased -P div T of physical planes P.

        P holds the planes (T12, T22 - T11) of a symmetric product tensor T.
        Their band coefficients F are contracted with the band curl table, and
        then every coefficient of out below 1e-12 of max |F| is zeroed:
        amplitudes below that are rounding noise of the transforms (accurate to
        ~1e-15 relative), which the derivative recursion would amplify by
        |xi|^2 per level and so destroy the closed-form flows.  Scrubbing is
        positively homogeneous, so bilinearity holds exactly under scaling and
        to 1e-12 relative under addition.
        """
        analyze, c0, c1, F, F0, F1, tmp, mod, m0, small = self._contract
        analyze(P, out=F, tmp=tmp)
        np.abs(F, out=mod)
        floor = 1e-12 * float(mod.max())
        np.multiply(c1, F1, out=F1)
        np.multiply(c0, F0, out=out)
        out += F1
        if floor > 0.0:
            np.abs(out, out=m0)
            np.less(m0, floor, out=small)
            np.copyto(out, 0.0, where=small)
        return out


def _products(a: SpectralVelocity, b: SpectralVelocity) -> tuple[Workspace, np.ndarray]:
    """A Workspace with a and b loaded as entries 0 and 1 by level, and the packed plane
    of the two-entry level, -P div(a (x) b + b (x) a)."""
    _require_same_grid(a, b)
    g = a.grid
    ws, out = Workspace(g, 2), np.empty(band_shape(g), dtype=complex)
    ws.level(1, pack(g, a.w), out)
    return ws, ws.level(2, pack(g, b.w), out)


def _field(grid: Grid, b: np.ndarray) -> SpectralVelocity:
    """The field of the packed vorticity plane b, zero outside the band."""
    return SpectralVelocity(grid, unpack(grid, b, np.zeros(grid.k_sq.shape, dtype=complex)))


def nonlinear_term(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """Leray-projected advection -P div(a (x) b) with 2/3-rule dealiasing.

    Products are formed in physical space on the n-grid; with inputs
    truncated to |xi|_inf <= k_cut and 3 k_cut < n, the retained output
    modes are the exact convolution of the truncated inputs.  Bilinear in
    (a, b).  The symmetric part of a (x) b is half the two-entry level of the
    solver's and the stacks' kernel, Workspace.level; its antisymmetric part
    (a1 b2 - a2 b1) / 2 is analyzed here and adds |xi|^2 times its band
    coefficients.  For a = b that plane is exactly zero, so the result has
    the bits of the one-entry level.  Raises GridMismatchError if the grids
    differ.
    """
    ws, out = _products(a, b)
    (A1, A2), (B1, B2) = ws.phys
    out += ws.k_sq * ws.transform.analyze(A1 * B2 - A2 * B1, out=None, tmp=None)
    out *= 0.5
    return _field(a.grid, out)


def nonlinear_symmetric(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """-P div(a (x) b + b (x) a); equals nonlinear_term(a,b) + nonlinear_term(b,a)."""
    return _field(a.grid, _products(a, b)[1])


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralVelocity:
    """The vortex A (sin x cos y, -cos x sin y); its advection is a pure gradient.

    Its vorticity 2A sin x sin y is placed analytically (exact zeros off the
    four corner modes (+-1, +-1), two of which are stored), so derivative
    stacks built on this field stay clean.
    """
    if amplitude <= 0:
        raise ConfigurationError("taylor_green amplitude must be positive")
    w = np.zeros(grid.k_sq.shape, dtype=complex)
    for s1 in (1, -1):
        w[s1 % grid.n, 1] = -0.5 * s1 * amplitude
    return SpectralVelocity(grid, w)


def shear_flow(grid: Grid, amplitude: float = 1.0) -> SpectralVelocity:
    """The single-mode shear A (sin y, 0), vorticity -A cos y; u.grad u vanishes identically."""
    if amplitude <= 0:
        raise ConfigurationError("shear amplitude must be positive")
    w = np.zeros(grid.k_sq.shape, dtype=complex)
    w[0, 1] = -0.5 * amplitude
    return SpectralVelocity(grid, w)


def random_spectrum_field(grid: Grid, decay: float, k_max: float, seed: int,
                          l2_norm: float | None = None) -> SpectralVelocity:
    """Random divergence-free field with |uhat(xi)| ~ |xi|^-decay up to |xi| <= k_max.

    Complex Gaussian amplitudes are drawn and Hermitian-symmetrized on the
    full lattice, then Leray-projected on the stored half and optionally
    rescaled to a requested L2 norm.  Deterministic for a fixed seed.
    """
    if k_max < 1:
        raise ConfigurationError("random_spectrum needs k_max >= 1")
    rng = np.random.default_rng(seed)
    n = grid.n
    raw = rng.standard_normal((4, n, n))
    g = raw[0::2] + 1j * raw[1::2]
    g = 0.5 * (g + mirror_coefficients(g))
    r = np.sqrt(grid.k_sq)
    with np.errstate(divide="ignore"):
        amp = np.where((r > 0) & (r <= k_max), r ** (-float(decay)), 0.0)
    v = leray_project(grid, g[..., : n // 2 + 1] * amp)
    if l2_norm is not None:
        base = norm_l2(v)
        if base == 0.0:
            raise ConfigurationError("random field is identically zero, cannot rescale")
        v = v * (float(l2_norm) / base)
    return v


def make_initial_data(grid: Grid, spec: dict) -> SpectralVelocity:
    """Build initial data from a declarative description.

    spec is a dict with key "kind" in {taylor_green, shear, random_spectrum}
    plus that generator's parameters; config.check_initial_data rejects
    unknown kinds or keys and malformed values, and data whose Parseval sums
    |u|^2, |grad u|^2 leave the double range (are not finite, or underflow
    below the smallest normal double) is refused here.
    """
    check_initial_data(spec)
    kind = spec["kind"]
    if kind == "random_spectrum":
        l2 = spec.get("l2_norm")
        u = random_spectrum_field(grid, float(spec["decay"]), float(spec["k_max"]),
                                  spec["seed"], None if l2 is None else float(l2))
    else:
        make = taylor_green if kind == "taylor_green" else shear_flow
        u = make(grid, float(spec.get("amplitude", 1.0)))
    sums = parseval(grid, u.w)
    if not np.all(np.isfinite(sums)):
        raise ConfigurationError(f"{kind} data leaves the double range: "
                                 "|u|^2 or |grad u|^2 is not finite")
    if np.any(sums < np.finfo(float).tiny):
        raise ConfigurationError(f"{kind} data leaves the double range: "
                                 "|u|^2 or |grad u|^2 underflows")
    return u


def mode_energies(v: SpectralVelocity) -> tuple[np.ndarray, np.ndarray]:
    """Energy (2pi)^2 |omegahat|^2 / |xi|^2 grouped by the integer eigenvalue |xi|^2.

    Returns (lams, energies) with lams the sorted distinct |xi|^2 > 0 that
    carry energy: the Parseval sum of norm_l2, split by grid.shells.  Shells
    below 1e-28 of the total are rounding noise from physical-space
    construction and are dropped, so sum(energies) matches norm_l2(v)^2 to
    that relative accuracy.
    """
    x = v.w.view(float).ravel()
    acc = np.bincount(v.grid.shells, weights=v.grid.parseval_w[0] * (x * x))
    floor = 1e-28 * float(np.sum(acc))
    lams = np.nonzero(acc > floor)[0]
    lams = lams[lams > 0]
    return lams.astype(float), acc[lams]
