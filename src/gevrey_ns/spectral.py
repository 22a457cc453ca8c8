"""Fourier representation of mean-zero, divergence-free velocity fields on the 2D torus.

The domain is fixed to [0, 2pi)^2, with the convention

    u(x) = sum_xi uhat(xi) exp(i xi . x),   xi in {-n/2+1, ..., n/2}^2.

A real field is Hermitian, uhat(-xi) = conj uhat(xi), so a field stores only
its rfft half-spectrum: one complex (2, n, n/2+1) array, both components on
rows in FFT order and columns 0..n/2.  Only this module knows that layout.
The unpaired Nyquist row and column are kept identically zero; columns 0 and
n/2 hold both members of each conjugate pair, so validate_field checks
Hermitian symmetry there.  Parseval on the full lattice,

    int |u|^2 dx = (2 pi)^2 sum_xi |uhat(xi)|^2,

is one weighted sum over the half, where every column other than 0 and n/2
also stands for its conjugate and weighs 2.  parseval evaluates it, with its
|xi|^2-weighted twin for the gradient, and every L2-type norm reads it.  The
L4 norm is evaluated by quadrature on a 2x-oversampled physical grid so that
quartic products do not alias.  The quadratic advection term uses the
2/3-rule: inputs and outputs are truncated to |xi|_inf <= k_cut with
3 k_cut < n, which makes the retained product modes an exact convolution of
the truncated inputs.

In 2D a field is also its scalar vorticity omegahat = i (k1 uhat2 - k2 uhat1),
one (n, n/2+1) plane, and Grid.lift takes it back to the velocity.  The
trace of a symmetric product tensor T is a gradient, which P removes, so
advection reads only the two traceless planes A = T12 and B = T22 - T11.
Their rfft2 contract with Grid.curl to the vorticity of the dealiased
-P div T, and with Grid.div = lift (x) curl to its velocity.  A Workspace
holds the planes of that kernel, so a solver run or a stack allocates them
once and no stage or level allocates a plane.

Every FFT goes through rfft2 and irfft2.  The C0 ascent's cap grid is too
small for them to pay: there a BandDFT maps the retained band to the
oversampled physical grid and back by dense matrix products.
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
        kvec: (2, n, n/2+1) wavenumber vector (k1, k2) of every mode.
        k_sq: |xi|^2.
        inv_k_sq: 1/|xi|^2 with the zero mode set to 0.
        keep: mask that removes the Nyquist row/column.
        dealias: 2/3-rule mask |xi|_inf <= k_cut (Nyquist removed as well).
        k_cut: dealiasing cutoff, the largest k with 3k < n.
        lift: (2, n, n/2+1) multiplier (i k2, -i k1) / |xi|^2 taking a vorticity
            plane to its velocity (0 at xi = 0).
        curl: (2, n, n/2+1) table dealias (k1^2 - k2^2, k1 k2) / n^2; (curl * F).sum(axis=0)
            is the vorticity of the dealiased -P div T / n^2 of the unnormalised
            rfft2 planes F = (T12, T22 - T11) of a symmetric T.  Its values are
            real; it is stored complex so that the product needs no cast.
        div: (2, 2, n, n/2+1) table lift[:, None] * curl; (div * F).sum(axis=1) is
            that -P div T / n^2 itself.
        parseval_w: (2, N) weights on the N floats of a field's flattened
            float view: row 0 gives |u|^2, row 1 |grad u|^2 (see parseval).
        vort_w: (2, N / 2) weights on the floats of a vorticity plane, giving the
            same two sums (see vorticity_parseval).
        shells: the eigenvalue |xi|^2 of each of the N floats, as integers.
    """

    n: int
    freqs: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    kvec: np.ndarray
    k_sq: np.ndarray
    inv_k_sq: np.ndarray
    keep: np.ndarray
    dealias: np.ndarray
    k_cut: int
    lift: np.ndarray
    curl: np.ndarray
    div: np.ndarray
    parseval_w: np.ndarray
    vort_w: np.ndarray
    shells: np.ndarray

    def __post_init__(self):
        for name in ("freqs", "k1", "k2", "kvec", "k_sq", "inv_k_sq", "keep", "dealias", "lift",
                     "curl", "div", "parseval_w", "vort_w", "shells"):
            _readonly(getattr(self, name))

    def oversample_rows(self, m: int) -> np.ndarray:
        """Row indices embedding this grid's frequencies into an m-point grid."""
        return self.freqs % m


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
    # -P(xi) i xi . T = (i k2, -i k1) ((k1^2 - k2^2) T12 + k1 k2 (T22 - T11)) / |xi|^2
    lift = np.stack([1j * k2 * inv, -1j * k1 * inv])
    curl = (dealias * np.stack([k1 * k1 - k2 * k2, k1 * k2]) / (float(n) * n)).astype(complex)
    col_w = np.full(hc, 2.0)
    col_w[[0, -1]] = 1.0  # the self-conjugate columns; every other one stands for two

    def flat(a):  # per-mode values repeated over (real, imag) of one plane
        return np.repeat(a, 2, axis=-1).reshape(a.shape[:-2] + (-1,))

    w = TWO_PI ** 2 * col_w * np.stack([np.ones_like(k_sq), k_sq, inv])
    return Grid(n=n, freqs=freqs, k1=k1, k2=k2, kvec=np.stack(np.broadcast_arrays(k1, k2)),
                k_sq=k_sq, inv_k_sq=inv, keep=keep, dealias=dealias, k_cut=k_cut, lift=lift,
                curl=curl, div=lift[:, None] * curl,
                parseval_w=np.tile(flat(w[:2]), 2), vort_w=flat(w[::-2]),
                shells=np.tile(flat(np.rint(k_sq).astype(np.int64)), 2))


@dataclass(frozen=True)
class SpectralVelocity:
    """Mean-zero, divergence-free velocity field as rfft half-spectrum coefficients.

    uh has shape (2, n, n/2+1); u1 and u2 are views of its two planes.
    Instances are immutable; arithmetic returns new fields on the same grid.
    Construction does not validate; use validate_field for the invariant
    check (Hermitian symmetry, zero mean, zero divergence, zero Nyquist).
    """

    grid: Grid
    uh: np.ndarray

    def __post_init__(self):
        _readonly(self.uh)

    @property
    def u1(self) -> np.ndarray:
        return self.uh[0]

    @property
    def u2(self) -> np.ndarray:
        return self.uh[1]

    def __add__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.uh + other.uh)

    def __sub__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.uh - other.uh)

    def __mul__(self, c) -> "SpectralVelocity":
        """Scalar or modewise multiplier (an array broadcasting against one plane)."""
        return SpectralVelocity(self.grid, self.uh * c)

    __rmul__ = __mul__

    def max_amplitude(self) -> float:
        return float(np.max(np.abs(self.uh)))


def _require_same_grid(a: SpectralVelocity, b: SpectralVelocity) -> None:
    if a.grid.n != b.grid.n:
        raise GridMismatchError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")


def from_lattice(grid: Grid, u: np.ndarray) -> SpectralVelocity:
    """The field of Hermitian full-lattice coefficients u, shape (2, n, n) in FFT order."""
    return SpectralVelocity(grid, np.array(u[..., : grid.n // 2 + 1], dtype=complex))


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
    shape = (2,) + g.k_sq.shape
    if v.uh.shape != shape:
        raise FieldInvariantError(f"coefficients have shape {v.uh.shape}, expected {shape}")
    scale = max(v.max_amplitude(), 1e-300)
    for name, a in (("u1", v.u1), ("u2", v.u2)):
        if a[0, 0] != 0:
            raise FieldInvariantError(f"{name} mean mode is {a[0, 0]!r}, must be exactly 0")
        if np.any(a[~g.keep] != 0):
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

def rfft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised real 2-D transform over the last two axes, as two 1-D passes.

    Every forward FFT in the package goes through this function, and no
    other module calls numpy.fft (the C0 ascent's cap grid uses BandDFT).
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


def _synthesize(grid: Grid, h: np.ndarray, m: int) -> np.ndarray:
    """Values on the m x m physical grid (m >= n) of coefficient stacks h (..., n, n/2+1)."""
    pad = np.zeros(h.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    pad[..., grid.oversample_rows(m), : grid.n // 2 + 1] = h
    return irfft2(pad, m) * (float(m) * m)


def _analyze(grid: Grid, X: np.ndarray) -> np.ndarray:
    """The grid's rfft-half coefficients of real samples X (..., m, m) on an m-grid, m >= n."""
    m = X.shape[-1]
    return rfft2(X)[..., grid.oversample_rows(m), : grid.n // 2 + 1] / (float(m) * m)


@dataclass(frozen=True)
class BandDFT:
    """Exact dense DFT between a grid's band and an m x m physical grid, m >= n.

    synthesize is _synthesize and analyze is _analyze, to rounding, as two
    small matrix products each: rows (m, n) on the rows of the half-spectrum,
    then cols (n+2, m) on the float view of each half row, whose weights 1 on
    column 0 and 2 on the others give the real irfft output; analyze runs
    cols_a (m, n+2), scaled by 1/m^2, and rows_a (n, m).  The Nyquist row and
    column have zero weight both ways, so they are ignored on input and
    exactly zero on output.  A stack (..., m, m) is multiplied plane by plane
    against the shared matrix, so each BLAS call stays far below OpenBLAS's
    threading threshold.  out and mid, if given, receive the result and the
    (..., m, n/2+1) complex intermediate.
    """

    m: int
    rows: np.ndarray
    cols: np.ndarray
    cols_a: np.ndarray
    rows_a: np.ndarray

    def synthesize(self, h: np.ndarray, out: np.ndarray | None = None,
                   mid: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(np.matmul(self.rows, h, out=mid).view(float), self.cols, out=out)

    def analyze(self, X: np.ndarray, out: np.ndarray | None = None,
                mid: np.ndarray | None = None) -> np.ndarray:
        if mid is None:
            mid = np.empty(X.shape[:-1] + (len(self.cols) // 2,), dtype=complex)
        np.matmul(X, self.cols_a, out=mid.view(float))
        return np.matmul(self.rows_a, mid, out=out)


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


def to_physical(v: SpectralVelocity, oversample: int = 1) -> np.ndarray:
    """Evaluate the velocity on an (oversample*n)^2 physical grid as a (2, m, m) array."""
    return _synthesize(v.grid, v.uh, oversample * v.grid.n)


def from_physical(grid: Grid, U1: np.ndarray, U2: np.ndarray) -> SpectralVelocity:
    """Transform real physical-space samples to a coefficient field.

    The result is exactly Hermitian by construction; the mean and Nyquist
    modes are zeroed.  Divergence-freeness is the caller's responsibility
    (use leray_project when unsure).
    """
    X = np.stack([np.asarray(U1, dtype=float), np.asarray(U2, dtype=float)])
    return SpectralVelocity(grid, _clean(grid, _analyze(grid, X)))


def transform_roundtrip(v: SpectralVelocity) -> SpectralVelocity:
    """Physical-space roundtrip; reproduces the coefficients to ~1e-15."""
    U1, U2 = to_physical(v)
    return from_physical(v.grid, U1, U2)


# ---------------------------------------------------------------------------
# Projection, norms, advection
# ---------------------------------------------------------------------------

def _clean(grid: Grid, h: np.ndarray) -> np.ndarray:
    """Zero the Nyquist and mean modes of coefficient stacks h (..., n, n/2+1) in place."""
    np.copyto(h, 0.0, where=~grid.keep)
    h[..., 0, 0] = 0.0
    return h


def _project(grid: Grid, h: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """P h, cleaned, for coefficient stacks h of shape (..., 2, n, n/2+1).

    P(xi) u = u - xi s with s = (xi . u) / |xi|^2, each as one pass over both
    components.  out (not h) receives the result and holds s on the way;
    tmp, of h's shape, is scratch.  Fresh arrays are used where not given.
    """
    out = np.empty_like(h) if out is None else out
    tmp = np.empty_like(h) if tmp is None else tmp
    s = out[..., :1, :, :]
    np.multiply(grid.kvec, h, out=tmp)
    np.add(tmp[..., :1, :, :], tmp[..., 1:, :, :], out=s)
    s *= grid.inv_k_sq
    np.multiply(grid.kvec, s, out=tmp)
    np.subtract(h, tmp, out=out)
    return _clean(grid, out)


def leray_project(grid: Grid, uh: np.ndarray) -> SpectralVelocity:
    """Modewise orthogonal projection of coefficients uh (2, n, n/2+1) onto divergence-free fields.

    P(xi) = I - xi xi^T / |xi|^2 and P(0) = 0, so the output is mean-zero
    and divergence-free; gradients are annihilated and divergence-free
    inputs are fixed.
    """
    return SpectralVelocity(grid, _project(grid, uh))


def leray(v: SpectralVelocity) -> SpectralVelocity:
    return leray_project(v.grid, v.uh)


def laplacian(v: SpectralVelocity) -> SpectralVelocity:
    return SpectralVelocity(v.grid, -v.grid.k_sq * v.uh)


def parseval(grid: Grid, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Full-lattice Parseval sums of coefficient stacks of shape (..., 2, n, n/2+1), as (..., 2).

    [..., 0] is int a . b dx and [..., 1] is int grad a : grad b dx, with b
    defaulting to a, so parseval(grid, a) is (|a|^2, |grad a|^2).  Both are
    dot products of the float views' product with grid.parseval_w, which
    weights each column by how many lattice columns it stands for.  Each
    field gets its own dot products, so its sums do not depend on the batch
    it rides in; einsum forms them in one pass and, unlike a BLAS dot, on
    the calling thread alone.
    """
    x = a.view(float)
    p = x * x if b is None else x * b.view(float)
    return np.einsum("...i,ji->...j", p.reshape(a.shape[:-3] + (-1,)), grid.parseval_w)


def norm_l2(v: SpectralVelocity) -> float:
    """L2 norm via Parseval."""
    return float(np.sqrt(parseval(v.grid, v.uh)[0]))


def norm_grad_l2(v: SpectralVelocity) -> float:
    """L2 norm of the gradient: (2pi)^2 sum |xi|^2 |uhat|^2, square-rooted."""
    return float(np.sqrt(parseval(v.grid, v.uh)[1]))


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
    return float(parseval(a.grid, a.uh, b.uh)[0])


def vorticity(v: SpectralVelocity) -> np.ndarray:
    """The vorticity coefficients i (k1 uhat2 - k2 uhat1) of v, one (n, n/2+1) plane."""
    g = v.grid
    return 1j * (g.k1 * v.u2 - g.k2 * v.u1)


def from_vorticity(grid: Grid, w: np.ndarray) -> SpectralVelocity:
    """The mean-zero, divergence-free field with vorticity coefficients w: grid.lift * w."""
    return SpectralVelocity(grid, grid.lift * w)


def vorticity_parseval(grid: Grid, w: np.ndarray) -> np.ndarray:
    """(|u|^2, |grad u|^2) of the field with vorticity coefficients w (..., n, n/2+1), as (..., 2).

    |grad u|^2 = (2pi)^2 sum |omegahat|^2 and |u|^2 = (2pi)^2 sum |omegahat|^2 / |xi|^2 over
    the lattice, weighted by grid.vort_w.  The three-operand einsum squares
    and sums in one pass without a temporary.
    """
    x = w.view(float).reshape(w.shape[:-2] + (-1,))
    return np.einsum("...i,...i,ji->...j", x, x, grid.vort_w)


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


def _project_products(grid: Grid, F: np.ndarray, floor: float, out: np.ndarray,
                      ws: Workspace) -> np.ndarray:
    """-P div of a product tensor from its unnormalised rfft2 planes F, into out (2, n, n/2+1).

    F[:2] = (T12, T22 - T11) of the symmetric part contract with grid.div, bit
    for bit as (grid.div * F[:2]).sum(axis=1).  An optional F[2] is the
    antisymmetric part A12 = -A21, whose divergence (-d2 A12, d1 A12) is
    already divergence-free: it needs only the derivative and the mask.  One
    scrub against floor follows and the mean mode is set to 0; ws.coef,
    ws.mod and ws.small serve as scratch.
    """
    div = grid.div
    np.multiply(div[:, 0], F[0], out=out)
    np.multiply(div[:, 1], F[1], out=ws.coef)
    out += ws.coef
    if len(F) == 3:
        curl = (1j / (float(grid.n) * grid.n)) * grid.dealias * F[2]
        out[0] += grid.k2 * curl
        out[1] -= grid.k1 * curl
    _scrub(out, floor, ws.mod, ws.small)
    out[:, 0, 0] = 0.0
    return out


class Workspace:
    """The planes of the advection kernel on one grid, allocated once per solver run or stack.

    load puts an entry's dealiased physical planes into phys[k]; level and
    curl_level sum the products of phys[:k] as a stack level, forward-
    transform the two traceless planes and contract them into a caller's
    array.  None of them allocates a plane.
    """

    def __init__(self, grid: Grid, depth: int = 1):
        n, hc = grid.n, grid.n // 2 + 1
        self.grid = grid
        # the 2/3 mask and irfft2's n^2 scale; complex, like every multiplier of a
        # complex plane here, since a real one is cast through a temporary per call
        self.band = grid.dealias * complex(float(n) * n)
        self.coef = np.empty((2, n, hc), dtype=complex)
        self.phys = np.empty((depth, 2, n, n))
        self.planes = np.empty((2, n, n))
        self.scratch = np.empty((3, n, n))
        self.fwd = np.empty((2, n, hc), dtype=complex)
        self.mod = np.empty((2, n, hc))
        self.small = np.empty((2, n, hc), dtype=bool)

    def load(self, k: int, h: np.ndarray, mult: np.ndarray) -> None:
        """phys[k] = the physical planes of h * mult, whose mult carries the mask and n^2.

        mult is band for a field's coefficients and band * grid.lift for a
        vorticity plane.
        """
        np.multiply(h, mult, out=self.coef)
        irfft2(self.coef, self.grid.n, out=self.phys[k])

    def _forward(self, k: int) -> float:
        """fwd = rfft2 of level k's traceless planes; returns the scrub floor 1e-12 max|fwd| / n^2."""
        _traceless(self.phys[:k], self.planes, self.scratch)
        rfft2(self.planes, out=self.fwd)
        np.abs(self.fwd, out=self.mod)
        return 1e-12 * (float(self.mod.max()) / (float(self.grid.n) * self.grid.n))

    def level(self, k: int, out: np.ndarray) -> np.ndarray:
        """out = -P div sum_{j<k} e_j (x) e_{k-1-j}, dealiased, from phys[:k]."""
        return _project_products(self.grid, self.fwd, self._forward(k), out, self)

    def curl_level(self, k: int, out: np.ndarray) -> np.ndarray:
        """out = the vorticity (n, n/2+1) of level(k): grid.curl contracted, then one scrub."""
        floor = self._forward(k)
        curl, F = self.grid.curl, self.fwd
        np.multiply(curl[1], F[1], out=F[1])
        np.multiply(curl[0], F[0], out=out)
        out += F[1]
        return _scrub(out, floor, self.mod[0], self.small[0])


def _level(grid: Grid, coefs: list[np.ndarray]) -> np.ndarray:
    """-P div sum_{j<k} e_j (x) e_{k-1-j} of k fields' coefficients, in a workspace of its own."""
    ws = Workspace(grid, len(coefs))
    for j, h in enumerate(coefs):
        ws.load(j, h, ws.band)
    return ws.level(len(coefs), np.empty_like(coefs[0]))


def _advect_pair(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-P div(a (x) b) of two fields' coefficients, dealiased.

    The planes are T12 and T22 - T11 of the symmetric part of a (x) b and its
    antisymmetric part (a1 b2 - a2 b1) / 2.
    """
    ws = Workspace(grid, 2)
    ws.load(0, a, ws.band)
    ws.load(1, b, ws.band)
    (A1, A2), (B1, B2) = ws.phys
    cross, swap = A1 * B2, A2 * B1
    F = rfft2(np.stack([0.5 * (cross + swap), A2 * B2 - A1 * B1, 0.5 * (cross - swap)]))
    floor = 1e-12 * (float(np.max(np.abs(F))) / (float(grid.n) * grid.n))
    return _project_products(grid, F, floor, np.empty_like(a), ws)


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
        return SpectralVelocity(g, _level(g, [a.uh]))
    return SpectralVelocity(g, _advect_pair(g, a.uh, b.uh))


def nonlinear_symmetric(a: SpectralVelocity, b: SpectralVelocity) -> SpectralVelocity:
    """-P div(a (x) b + b (x) a); equals nonlinear_term(a,b) + nonlinear_term(b,a)."""
    _require_same_grid(a, b)
    return SpectralVelocity(a.grid, _level(a.grid, [a.uh, b.uh]))


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def physical_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(n) * (TWO_PI / n)
    return np.meshgrid(x, x, indexing="ij")


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralVelocity:
    """The vortex A (sin x cos y, -cos x sin y); its advection is a pure gradient.

    Coefficients are placed analytically (exact zeros off the four corner
    modes (+-1, +-1), two of which are stored), so derivative stacks built on
    this field stay clean.
    """
    if amplitude <= 0:
        raise ConfigurationError("taylor_green amplitude must be positive")
    uh = np.zeros((2,) + grid.k_sq.shape, dtype=complex)
    q = 0.25j * amplitude
    for s1 in (1, -1):
        uh[:, s1 % grid.n, 1] = (-q * s1, q)
    return SpectralVelocity(grid, uh)


def shear_flow(grid: Grid, amplitude: float = 1.0) -> SpectralVelocity:
    """The single-mode shear A (sin y, 0); u.grad u vanishes identically."""
    if amplitude <= 0:
        raise ConfigurationError("shear amplitude must be positive")
    uh = np.zeros((2,) + grid.k_sq.shape, dtype=complex)
    uh[0, 0, 1] = -0.5j * amplitude
    return SpectralVelocity(grid, uh)


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
    unknown kinds or keys and malformed values.
    """
    check_initial_data(spec)
    kind = spec["kind"]
    if kind == "taylor_green":
        return taylor_green(grid, float(spec.get("amplitude", 1.0)))
    if kind == "shear":
        return shear_flow(grid, float(spec.get("amplitude", 1.0)))
    l2 = spec.get("l2_norm")
    return random_spectrum_field(grid, float(spec["decay"]), float(spec["k_max"]),
                                 spec["seed"], None if l2 is None else float(l2))


def mode_energies(v: SpectralVelocity) -> tuple[np.ndarray, np.ndarray]:
    """Energy (2pi)^2 |uhat|^2 grouped by the integer eigenvalue |xi|^2.

    Returns (lams, energies) with lams the sorted distinct |xi|^2 > 0 that
    carry energy: the Parseval sum of norm_l2, split by grid.shells.  Shells
    below 1e-28 of the total are rounding noise from physical-space
    construction and are dropped, so sum(energies) matches norm_l2(v)^2 to
    that relative accuracy.
    """
    x = v.uh.view(float).ravel()
    acc = np.bincount(v.grid.shells, weights=v.grid.parseval_w[0] * (x * x))
    floor = 1e-28 * float(np.sum(acc))
    lams = np.nonzero(acc > floor)[0]
    lams = lams[lams > 0]
    return lams.astype(float), acc[lams]
