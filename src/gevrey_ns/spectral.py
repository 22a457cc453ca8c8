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
advection reads only the two traceless planes A = T12 and B = T22 - T11
(and, for a product of two different fields, its antisymmetric part).  Their
rfft2 contract with Grid.curl to the vorticity of the dealiased -P div T.  A
Workspace holds the planes of that kernel, so a solver run or a stack
allocates them once and no stage or level allocates a plane.

Every FFT goes through rfft2 and irfft2, and every one runs on the n x n
grid.  The 2n x 2n grid belongs to BandDFT alone: it maps the retained band
there and back by dense matrix products, for norm_l4 and for the C0
ascent's small cap grid.
"""

from __future__ import annotations

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
        curl: (3, n, n/2+1) table dealias (k1^2 - k2^2, k1 k2, |xi|^2) / n^2;
            (curl * F).sum(axis=0) is the vorticity of the dealiased -P div T / n^2
            of the unnormalised rfft2 planes F = (T12, T22 - T11[, A12]) of a
            tensor T with symmetric part (T12, T22 - T11) and antisymmetric part
            A12 = -A21.  Its values are real; it is stored complex so that the
            product needs no cast.
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
    curl: np.ndarray
    parseval_w: np.ndarray
    shells: np.ndarray

    def __post_init__(self):
        for name in ("freqs", "k1", "k2", "k_sq", "keep", "dealias", "lift", "curl", "parseval_w",
                     "shells"):
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
    freqs = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
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
    # curl of -P(xi) i xi . T = (k1^2 - k2^2) T12 + k1 k2 (T22 - T11) + |xi|^2 A12
    curl = dealias * np.stack([k1 * k1 - k2 * k2, k1 * k2, k_sq]) / (float(n) * n)
    col_w = np.full(hc, 2.0)
    col_w[[0, -1]] = 1.0  # the self-conjugate columns; every other one stands for two
    w = TWO_PI ** 2 * col_w * np.stack([inv, np.ones_like(k_sq)])
    return Grid(n=n, freqs=freqs, k1=k1, k2=k2, k_sq=k_sq, keep=keep,
                dealias=dealias, k_cut=k_cut, lift=np.stack([1j * k2 * inv, -1j * k1 * inv]),
                curl=curl.astype(complex), parseval_w=np.repeat(w, 2, axis=-1).reshape(2, -1),
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
# Transforms
# ---------------------------------------------------------------------------

def rfft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised real 2-D transform over the last two axes, as two 1-D passes.

    Every forward FFT in the package goes through this function, on the n x n
    grid, and no other module calls numpy.fft (the 2n grid uses BandDFT).
    numpy.fft.rfft2 computes the same two passes, but its wrapper costs more
    per call than a small transform.  out, if given, receives the result.
    """
    h = np.fft.rfft(x, axis=-1, out=out)
    return np.fft.fft(h, axis=-2, out=h)


def irfft2(h: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of rfft2 onto n x n planes (scaled by 1/n^2); every inverse goes through it.

    h is overwritten: the first pass runs in place, because a fresh complex
    temporary per call costs more than the pass itself at n = 128.  out, if
    given, receives the real planes.
    """
    return np.fft.irfft(np.fft.ifft(h, axis=-2, out=h), n, axis=-1, out=out)


@dataclass(frozen=True)
class BandDFT:
    """Exact dense DFT between a grid's band and an m x m physical grid, m >= n.

    synthesize gives the values on the m x m grid of coefficient stacks
    (..., n, n/2+1), the irfft2 of their zero-padded m-grid spectrum scaled
    by m^2; analyze takes m x m samples to the grid's coefficients, the band
    of their rfft2 scaled by 1/m^2.  Each is two matrix products, to
    rounding.  synthesize runs rows (m, n) on the rows of the half-spectrum,
    then cols (n+2, m) on the float view of each half row; the weights 1 on
    column 0 and 2 on the others give the real irfft output.  analyze runs
    cols_a (m, n+2), scaled by 1/m^2, then rows_a (n, m).  The Nyquist row
    and column have zero weight both ways, so they are ignored on input and
    exactly zero on output.  A stack (..., m, m) is multiplied plane by
    plane against the shared matrix, so each BLAS call stays far below
    OpenBLAS's threading threshold.
    """

    m: int
    rows: np.ndarray
    cols: np.ndarray
    cols_a: np.ndarray
    rows_a: np.ndarray

    def synthesize(self, h: np.ndarray) -> np.ndarray:
        return (self.rows @ h).view(float) @ self.cols

    def analyze(self, X: np.ndarray) -> np.ndarray:
        return self.rows_a @ (X @ self.cols_a).view(complex)


def band_dft(grid: Grid, m: int) -> BandDFT:
    """The BandDFT of grid's rfft-half band on the m x m physical grid (m >= n)."""
    n, x = grid.n, np.arange(m)
    rows = np.exp(1j * (TWO_PI / m) * (np.outer(x, grid.freqs) % m))
    rows[:, n // 2] = 0.0
    angle = (TWO_PI / m) * (np.outer(grid.freqs[: n // 2 + 1], x) % m)
    wave = np.stack([np.cos(angle), -np.sin(angle)], axis=1).reshape(n + 2, m)
    wave[-2:] = 0.0  # the Nyquist column
    w = np.full(n + 2, 2.0)
    w[:2] = 1.0  # column 0 is self-conjugate; every other one stands for two
    return BandDFT(m=m, rows=rows, cols=w[:, None] * wave,
                   cols_a=np.ascontiguousarray(wave.T) / (float(m) * m),
                   rows_a=np.ascontiguousarray(np.conj(rows.T)))


def to_physical(v: SpectralVelocity) -> np.ndarray:
    """Evaluate the velocity on the n x n physical grid as a (2, n, n) array."""
    n = v.grid.n
    return irfft2(v.grid.lift * v.w, n) * (float(n) * n)


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


def _scrub(d: np.ndarray, floor: float, mod: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Zero the coefficients of d below floor, the FFT roundoff floor of the product transform.

    The floor is 1e-12 of the largest product coefficient: amplitudes below
    it are pure rounding noise (the transforms are accurate to ~1e-15
    relative); left in place they sit at high wavenumbers and get amplified
    by |xi|^2 per level of the derivative recursion, which would destroy the
    closed-form flows.  Scrubbing is positively homogeneous, so bilinearity
    holds exactly under scaling and to 1e-12 relative under addition.  It runs
    once after each contraction: the solver and the public products scrub
    once per product, derivative stacks once per level against the largest
    coefficient of the level's summed products.  mod and small, of d's shape,
    receive |d| and the mask.
    """
    if floor > 0.0:
        np.abs(d, out=mod)
        np.less(mod, floor, out=small)
        np.copyto(d, 0.0, where=small)
    return d


def _traceless(phys, P: np.ndarray, S: np.ndarray) -> None:
    """P = (A, B) = (T12, T22 - T11) of T = sum_{j<k} e_j (x) e_{k-1-j} from k physical entries.

    Each pair j < k-1-j enters once, as A += a1 b2 + a2 b1 and
    B += 2 (a2 b2 - a1 b1), and a middle entry once, as a1 a2 and
    a2^2 - a1^2.  The first term is written into P and the rest summed
    through the three scratch planes S, so no temporary is allocated.
    """
    top = len(phys) - 1
    for j in range(top // 2 + 1):
        a, b = phys[j], phys[top - j]
        T = P if j == 0 else S[:2]
        np.multiply(a[0], b[1], out=T[0])
        np.multiply(a[1], b[1], out=T[1])
        np.multiply(a[0], b[0], out=S[2])
        T[1] -= S[2]
        if j < top - j:
            np.multiply(a[1], b[0], out=S[2])
            T[0] += S[2]
            T[1] *= 2.0
        if j > 0:
            P += S[:2]


def _contract(grid: Grid, F: np.ndarray, floor: float, out: np.ndarray, mod: np.ndarray,
              small: np.ndarray) -> np.ndarray:
    """out = (grid.curl * F).sum(axis=0), then one scrub against floor.

    F holds the unnormalised rfft2 planes (T12, T22 - T11) of a product
    tensor, optionally followed by its antisymmetric part A12, and is
    overwritten; out (n, n/2+1) receives the vorticity of the dealiased
    -P div T / n^2.  mod and small, of out's shape, are the scrub's scratch.
    """
    curl = grid.curl
    np.multiply(curl[1], F[1], out=F[1])
    np.multiply(curl[0], F[0], out=out)
    out += F[1]
    if len(F) == 3:
        F[2] *= curl[2]
        out += F[2]
    return _scrub(out, floor, mod, small)


class Workspace:
    """The planes of the advection kernel on one grid, allocated once per solver run or stack.

    load puts an entry's dealiased physical velocity planes into phys[k];
    level sums the products of phys[:k] as a stack level, forward-transforms
    the two traceless planes and contracts them into a caller's vorticity
    plane.  Neither allocates a plane.
    """

    def __init__(self, grid: Grid, depth: int = 1):
        n, hc = grid.n, grid.n // 2 + 1
        self.grid = grid
        # lift, 2/3 mask and irfft2's n^2 scale in one complex multiplier, since a
        # real one is cast through a temporary per call
        self.lift = grid.lift * (grid.dealias * (float(n) * n))
        self.coef = np.empty((2, n, hc), dtype=complex)
        self.phys = np.empty((depth, 2, n, n))
        self.planes = np.empty((2, n, n))
        self.scratch = np.empty((3, n, n))
        self.fwd = np.empty((2, n, hc), dtype=complex)
        self.mod = np.empty((2, n, hc))
        self.small = np.empty((n, hc), dtype=bool)

    def load(self, k: int, w: np.ndarray) -> None:
        """phys[k] = the dealiased physical velocity planes of the vorticity plane w."""
        np.multiply(w, self.lift, out=self.coef)
        irfft2(self.coef, self.grid.n, out=self.phys[k])

    def level(self, k: int, out: np.ndarray) -> np.ndarray:
        """out = the vorticity of -P div sum_{j<k} e_j (x) e_{k-1-j}, dealiased, from phys[:k].

        The scrub floor is 1e-12 max |fwd| / n^2 of the level's summed products.
        """
        _traceless(self.phys[:k], self.planes, self.scratch)
        F = rfft2(self.planes, out=self.fwd)
        np.abs(F, out=self.mod)
        floor = 1e-12 * (float(self.mod.max()) / (float(self.grid.n) * self.grid.n))
        return _contract(self.grid, F, floor, out, self.mod[0], self.small)


def nonlinear_term(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """Leray-projected advection -P div(a (x) b) with 2/3-rule dealiasing.

    Products are formed in physical space on the n-grid; with inputs
    truncated to |xi|_inf <= k_cut and 3 k_cut < n, the retained output
    modes are the exact convolution of the truncated inputs.  Bilinear in
    (a, b).  The planes are T12 and T22 - T11 of the symmetric part of a (x) b
    and its antisymmetric part (a1 b2 - a2 b1) / 2 (zero for a = b); stacks and
    the solver run Workspace.level instead.  Raises GridMismatchError if the grids differ.
    """
    _require_same_grid(a, b)
    g = a.grid
    ws = Workspace(g, 2)
    ws.load(0, a.w)
    ws.load(1, b.w)
    (A1, A2), (B1, B2) = ws.phys
    cross, swap = A1 * B2, A2 * B1
    F = rfft2(np.stack([0.5 * (cross + swap), A2 * B2 - A1 * B1, 0.5 * (cross - swap)]))
    floor = 1e-12 * (float(np.max(np.abs(F))) / (float(g.n) * g.n))
    return SpectralVelocity(g, _contract(g, F, floor, np.empty_like(a.w), ws.mod[0], ws.small))


def nonlinear_symmetric(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """-P div(a (x) b + b (x) a); equals nonlinear_term(a,b) + nonlinear_term(b,a)."""
    _require_same_grid(a, b)
    ws = Workspace(a.grid, 2)
    ws.load(0, a.w)
    ws.load(1, b.w)
    return SpectralVelocity(a.grid, ws.level(2, np.empty_like(a.w)))


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
    |u|^2, |grad u|^2 leave the double range is refused here.
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
    if not np.all(np.isfinite(parseval(grid, u.w))):
        raise ConfigurationError(f"{kind} data leaves the double range: "
                                 "|u|^2 or |grad u|^2 is not finite")
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
