"""Core spectral representation: grids, transforms, projection, advection, norms."""

import numpy as np
import pytest
import scipy.fft as sfft
from conftest import analyze, from_physical, synthesize, transform_roundtrip

from gevrey_ns import (ConfigurationError, FieldInvariantError, GridMismatchError,
                       SpectralVelocity, from_lattice, hermitian_defect,
                       inner_l2, leray_project, make_grid, make_initial_data, mode_energies,
                       nonlinear_symmetric, nonlinear_term, norm_grad_l2, norm_l2, norm_l4,
                       parseval, random_spectrum_field, shear_flow, spectral, taylor_green,
                       to_physical, validate_field)
from gevrey_ns.spectral import Workspace

SQRT2_PI = np.pi * np.sqrt(2.0)


class TestGrid:
    def test_lattice_n8(self):
        grid = make_grid(8)
        assert sorted(grid.freqs.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]
        # Nyquist row/column masked everywhere
        assert not grid.keep[4, :].any()
        assert not grid.keep[:, 4].any()

    def test_lattice_n32(self):
        grid = make_grid(32)
        assert grid.k_sq.shape == (32, 17)  # the rfft half layout of a field plane
        assert grid.freqs.max() == 15 or grid.freqs.max() == 16
        assert grid.k_cut == 10

    @pytest.mark.parametrize("bad", [7, 6, 0, -4, 33])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ConfigurationError):
            make_grid(bad)

    def test_dealias_cutoff_avoids_boundary_aliasing(self):
        # 3 * k_cut must stay strictly below n for alias-free products
        for n in (8, 24, 32, 36, 48, 64):
            grid = make_grid(n)
            assert 3 * grid.k_cut < n


class TestTransforms:
    @pytest.mark.parametrize("planes", [2, 3])
    @pytest.mark.parametrize("n", [32, 36, 64, 128])
    def test_transform_pair_matches_scipy(self, n, planes):
        X = np.random.default_rng(n + planes).standard_normal((planes, n, n))
        h = spectral.rfft2(X)
        # bit for bit two 1-D passes, each divided by its length; scipy's 2-D transform
        # divides once by n^2, which is the same bits only where n is a power of two
        passes = sfft.fft(sfft.rfft(X, axis=-1, norm="forward"), axis=-2, norm="forward")
        assert np.array_equal(h, passes)
        ref = sfft.rfft2(X, axes=(-2, -1), norm="forward")
        assert np.max(np.abs(h - ref)) <= 1e-15 * np.max(np.abs(ref))
        ref = sfft.irfft2(h, s=(n, n), axes=(-2, -1), norm="forward")
        back = spectral.irfft2(h, n)  # overwrites h
        assert np.max(np.abs(back - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, m", [(18, 36), (16, 48), (32, 32)])
    def test_band_dft_matches_the_padded_fft_pair(self, n, m):
        # random Hermitian batches against the padded FFT pair: synthesis against the oracle
        # synthesize, analysis against the oracle analyze with its Nyquist row and column
        # exactly zero
        grid = make_grid(n)
        band = spectral.band_dft(grid, m)
        rng = np.random.default_rng(n + m)
        h = spectral._clean(grid, analyze(grid, rng.standard_normal((3, 2, n, n))))
        ref = synthesize(grid, h, m)
        U = band.synthesize(h)
        assert U.shape == ref.shape and U.dtype == float
        assert np.max(np.abs(U - ref)) <= 1e-14 * np.max(np.abs(ref))
        X = rng.standard_normal((3, 2, m, m))
        ref = analyze(grid, X) * grid.keep
        H = band.analyze(X)
        assert H.shape == ref.shape
        assert np.all(H[..., n // 2, :] == 0.0) and np.all(H[..., -1] == 0.0)
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))
        # a stack is transformed plane by plane: each plane alone gives the same bits
        assert np.array_equal(band.synthesize(h[1]), U[1])
        assert np.array_equal(band.analyze(X[1]), H[1])

    @pytest.mark.parametrize("n, m", [(16, 16), (32, 32), (62, 62), (18, 36)])
    def test_band_dft_on_the_dealiased_band_matches_the_padded_fft_pair(self, n, m):
        # the kernel's dense transform: packed band planes, |xi|_inf <= k_cut, against the
        # padded FFT pair restricted to the band
        grid = make_grid(n)
        band = spectral.band_dft(grid, m, grid.k_cut)
        rng = np.random.default_rng(n + m)
        h = spectral._clean(grid, analyze(grid, rng.standard_normal((3, 2, n, n))))
        h *= grid.dealias
        ref = synthesize(grid, h, m)
        U = band.synthesize(spectral.pack(grid, h))
        assert np.max(np.abs(U - ref)) <= 1e-14 * np.max(np.abs(ref))
        X = rng.standard_normal((3, 2, m, m))
        ref = spectral.pack(grid, analyze(grid, X))
        H = band.analyze(X)
        assert H.shape == ref.shape
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_dense_band_products_stay_on_one_blas_thread(self):
        # OpenBLAS runs a gemm on one thread while M N K <= 4 * 65536; every product of the
        # dense kernel, per plane, must stay there on each grid below the switch, so that a
        # later move of spectral.DENSE_BELOW cannot wake a second thread on the hot path
        one_thread = 4 * 65536
        for n in range(8, spectral.DENSE_BELOW, 2):
            band = spectral.Workspace(make_grid(n)).transform
            assert isinstance(band, spectral.BandDFT)
            (m, r), (c2, _) = band.rows.shape, band.cols.shape
            assert band.cols_a.shape == (m, c2) and band.rows_a.shape == (r, m)
            products = {"synthesize rows": m * r * (c2 // 2), "synthesize cols": m * c2 * m,
                        "analyze cols": m * m * c2, "analyze rows": r * m * (c2 // 2)}
            assert max(products.values()) <= one_thread, (n, products)
        assert isinstance(spectral.Workspace(make_grid(spectral.DENSE_BELOW)).transform,
                          spectral.BandFFT)

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_band_kernel_is_built_once_per_grid_size(self, n):
        a, b = spectral.Workspace(make_grid(n)), spectral.Workspace(make_grid(n), 3)
        assert a.lift is b.lift and a.curl is b.curl
        assert (a.transform is b.transform) == (n < spectral.DENSE_BELOW)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_the_kernel_transforms_are_one_map(self, n):
        # BandFFT, to_physical and band_dft share one normalisation: coefficients to grid
        # values and back, with no factor left for a caller to apply
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        dft, fft = spectral.band_dft(grid, n, grid.k_cut), spectral.BandFFT(grid)
        h = spectral._clean(grid, analyze(grid, rng.standard_normal((2, n, n))))
        h = spectral.pack(grid, h)
        tmp_in, tmp_out = fft.scratch(2, 2)
        U, ref = fft.synthesize(h, np.empty((2, n, n)), tmp_in), dft.synthesize(h)
        assert np.max(np.abs(U - ref)) <= 1e-14 * np.max(np.abs(ref))
        X = rng.standard_normal((2, n, n))
        H, ref = fft.analyze(X, np.empty_like(h), tmp_out), dft.analyze(X)
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))
        v = random_spectrum_field(grid, 1.0, n // 2, seed=n, l2_norm=1.0)
        ref = spectral.band_dft(grid, n).synthesize(grid.lift * v.w)
        assert np.max(np.abs(to_physical(v) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 62, 64, 96])
    def test_pack_and_unpack_the_dealiased_band(self, n):
        grid = make_grid(n)
        h = np.random.default_rng(n).standard_normal((3,) + grid.k_sq.shape) + 0j
        b = spectral.pack(grid, h)
        k = grid.k_cut
        assert b.shape == (3, 2 * k + 1, k + 1) == (3,) + spectral.band_shape(grid)
        rows = grid.freqs[np.abs(grid.freqs) <= k]
        assert np.array_equal(b, h[:, rows % n, : k + 1])
        assert np.array_equal(spectral.unpack(grid, b, np.zeros_like(h)), h * grid.dealias)

    def test_single_mode_roundtrip(self, grid32):
        u1 = np.zeros((32, 32), dtype=complex)
        u1[0, 1] = 0.5
        u1[0, -1] = 0.5
        v = from_lattice(grid32, np.stack([u1, np.zeros_like(u1)]))
        rt = transform_roundtrip(v)
        assert (rt - v).max_amplitude() < 1e-15

    def test_random_roundtrip(self, random_field):
        rt = transform_roundtrip(random_field)
        scale = random_field.max_amplitude()
        assert (rt - random_field).max_amplitude() <= 1e-12 * scale

    def test_zero_field(self, grid32):
        z = from_lattice(grid32, np.zeros((2, 32, 32)))
        assert (transform_roundtrip(z)).max_amplitude() == 0.0

    def test_parseval(self, random_field):
        U1, U2 = to_physical(random_field)
        n = random_field.grid.n
        phys = np.sqrt(np.sum(U1 ** 2 + U2 ** 2) * (2 * np.pi / n) ** 2)
        spec = norm_l2(random_field)
        assert abs(phys - spec) <= 1e-12 * spec


class TestLerayProjection:
    def test_annihilates_gradients(self, grid32):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((32, 17)) + 1j * rng.standard_normal((32, 17))
        p = leray_project(grid32, np.stack([1j * grid32.k1 * phi, 1j * grid32.k2 * phi]))
        assert np.max(np.abs(p.uh)) <= 1e-14 * np.max(np.abs(phi))

    def test_fixes_divergence_free(self, random_field):
        again = leray_project(random_field.grid, random_field.uh)
        assert (again - random_field).max_amplitude() <= 1e-14 * random_field.max_amplitude()

    def test_single_mode_example(self, grid32):
        # e = (1, 1) at xi = (1, 0): P e = e - xi (xi.e)/|xi|^2 = (0, 1)
        uh = np.zeros((2, 32, 17), complex)
        uh[:, 1, 0] = 1.0
        uh[:, -1, 0] = 1.0
        p = leray_project(grid32, uh)
        assert abs(p.uh[0][1, 0]) < 1e-15
        assert abs(p.uh[1][1, 0] - 1.0) < 1e-15

    def test_idempotent_and_self_adjoint(self, grid32):
        rng = np.random.default_rng(3)
        def rand_field():
            return rng.standard_normal((2, 32, 17)) + 1j * rng.standard_normal((2, 32, 17))
        a, b = rand_field(), rand_field()
        pa = leray_project(grid32, a)
        pb = leray_project(grid32, b)
        ppa = leray_project(grid32, pa.uh)
        assert (ppa - pa).max_amplitude() <= 1e-14 * pa.max_amplitude()
        # self-adjoint on the raw arrays: <Pa, b> = <a, Pb> in the half-spectrum
        # inner product, each column weighted by the lattice columns it stands for
        col_w = np.full(17, 2.0)
        col_w[[0, -1]] = 1.0

        def dot(x, y):
            return float(np.sum(col_w * (np.conj(x) * y).real))

        lhs = dot(pa.uh, b)
        rhs = dot(a, pb.uh)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestNonlinearTerm:
    def test_taylor_green_is_pure_gradient(self, tg):
        out = nonlinear_term(tg, tg)
        assert norm_l2(out) <= 1e-12 * norm_l2(tg) ** 2

    def test_shear_self_advection_vanishes(self, shear):
        out = nonlinear_term(shear, shear)
        assert norm_l2(out) == 0.0

    def test_zero_factor(self, grid32, random_field):
        z = from_lattice(grid32, np.zeros((2, 32, 32)))
        assert norm_l2(nonlinear_term(z, random_field)) == 0.0
        assert norm_l2(nonlinear_term(random_field, z)) == 0.0

    def test_grid_mismatch(self, grid16, random_field):
        other = shear_flow(grid16, 1.0)
        with pytest.raises(GridMismatchError):
            nonlinear_term(random_field, other)

    def test_bilinearity(self, grid32):
        a = random_spectrum_field(grid32, 2.0, 6, seed=1, l2_norm=0.5)
        b = random_spectrum_field(grid32, 2.0, 6, seed=2, l2_norm=0.5)
        c = random_spectrum_field(grid32, 2.0, 6, seed=3, l2_norm=0.5)
        lhs = nonlinear_term(a, b + c)
        rhs = nonlinear_term(a, b) + nonlinear_term(a, c)
        assert (lhs - rhs).max_amplitude() <= 1e-11 * lhs.max_amplitude()
        two = nonlinear_term(2.0 * a, b)
        assert (two - 2.0 * nonlinear_term(a, b)).max_amplitude() \
            <= 1e-12 * two.max_amplitude()

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_self_product_is_the_one_entry_level(self, n):
        # for a = b the antisymmetric plane is exactly zero, so the pair path gives
        # the bits of the one-entry level that the solver and the stacks run
        g = make_grid(n)
        for v in (random_spectrum_field(g, 2.0, 8, seed=3, l2_norm=5.0),
                  taylor_green(g, 1.3), shear_flow(g, 0.7)):
            ref = spectral.unpack(g, Workspace(g).level(1, spectral.pack(g, v.w),
                                                        np.empty(spectral.band_shape(g), complex)),
                                  np.zeros_like(v.w))
            assert nonlinear_term(v, v).w.tobytes() == ref.tobytes()

    def test_output_divergence_free(self, random_field):
        out = nonlinear_term(random_field, random_field)
        validate_field(out)

    def test_energy_neutral_transport(self, random_field):
        out = nonlinear_term(random_field, random_field)
        ip = inner_l2(random_field, out)
        scale = norm_l2(random_field) ** 2 * norm_grad_l2(random_field)
        assert abs(ip) <= 1e-10 * scale

    def test_matches_exact_convolution_on_fine_grid(self, grid32, hermitian_lattice):
        # band-limited inputs; reference on a 2x grid has no aliasing at all
        a = random_spectrum_field(grid32, 1.5, grid32.k_cut, seed=5, l2_norm=1.0)
        b = random_spectrum_field(grid32, 1.5, grid32.k_cut, seed=6, l2_norm=1.0)
        out = nonlinear_term(a, b)

        m = 64
        rows = grid32.freqs % m

        def embed(h):
            full = np.zeros((m, m), dtype=complex)
            full[np.ix_(rows, rows)] = h
            return full

        A = [sfft.ifft2(embed(c)) * m * m for c in hermitian_lattice(a.uh)]
        B = [sfft.ifft2(embed(c)) * m * m for c in hermitian_lattice(b.uh)]
        ref = {}
        for i, Bi in enumerate(B):
            T1 = sfft.fft2(A[0] * Bi) / (m * m)
            T2 = sfft.fft2(A[1] * Bi) / (m * m)
            kx = np.rint(np.fft.fftfreq(m, 1 / m)).reshape(m, 1)
            ky = np.rint(np.fft.fftfreq(m, 1 / m)).reshape(1, m)
            ref[i] = -1j * (kx * T1 + ky * T2)
        # Leray-project the reference on the fine lattice, then compare low modes
        kx = np.rint(np.fft.fftfreq(m, 1 / m)).reshape(m, 1)
        ky = np.rint(np.fft.fftfreq(m, 1 / m)).reshape(1, m)
        ksq = kx ** 2 + ky ** 2
        inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
        s = (kx * ref[0] + ky * ref[1]) * inv
        ref1 = ref[0] - kx * s
        ref2 = ref[1] - ky * s
        scale = max(np.max(np.abs(ref1)), np.max(np.abs(ref2)))
        kc = grid32.k_cut
        for out_c, ref_c in zip(hermitian_lattice(out.uh), (ref1, ref2)):
            for p in range(-kc, kc + 1):
                for q in range(-kc, kc + 1):
                    assert abs(out_c[p % 32, q % 32] - ref_c[p % m, q % m]) <= 1e-10 * scale


class TestAdvectionTensor:
    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_contraction_is_dealiased_projected_divergence(self, n):
        grid = make_grid(n)
        hc = n // 2 + 1
        rng = np.random.default_rng(n)
        # (T11, S12, T22, A12) of a tensor with symmetric part S and antisymmetric
        # part A; the kernel reads the traceless planes and A12
        T = rng.standard_normal((4, n, hc)) + 1j * rng.standard_normal((4, n, hc))
        F = np.stack([T[1], T[2] - T[0], T[3]])
        k1, k2 = grid.k1, grid.k2
        mask = grid.dealias
        inv = np.divide(1.0, grid.k_sq, out=np.zeros_like(grid.k_sq), where=grid.k_sq > 0)
        # the band curl table, which only the kernel builds, is the packing of this full one
        curl = mask * np.stack([k1 * k1 - k2 * k2, k1 * k2, k1 * k1 + k2 * k2]) + 0j
        ws = Workspace(grid)
        assert np.array_equal(ws.curl, spectral.pack(grid, curl))
        assert np.array_equal(ws.k_sq, spectral.pack(grid, grid.k_sq)) and ws.k_sq.dtype == complex
        for planes in (2, 3):  # the symmetric product, then with its antisymmetric row
            w = (curl[:planes] * F[:planes]).sum(axis=0)
            d = grid.lift * w
            # explicit -P(i xi . T) * mask with T12 = S12 + A12, T21 = S12 - A12
            A = T[3] if planes == 3 else 0.0
            a1 = 1j * (k1 * T[0] + k2 * (T[1] - A))
            a2 = 1j * (k1 * (T[1] + A) + k2 * T[2])
            s = (k1 * a1 + k2 * a2) * inv
            ref = -np.stack([a1 - k1 * s, a2 - k2 * s]) * mask
            assert np.max(np.abs(d - ref)) <= 1e-14 * np.max(np.abs(ref))
            # zero at xi = 0, on the Nyquist row and column and beyond k_cut
            assert np.all(w[~mask] == 0) and w[0, 0] == 0
            assert np.all(w[n // 2, :] == 0) and np.all(w[:, hc - 1] == 0)
            assert not mask[np.abs(grid.freqs) > grid.k_cut].any()
            assert np.max(np.abs(k1 * d[0] + k2 * d[1])) <= 1e-14 * grid.k_cut * np.max(np.abs(d))
        # Workspace.contract is the two-row contraction bit for bit on the packed band
        # coefficients of two physical planes, then the roundoff scrub
        X = rng.standard_normal((2, n, n))
        band = ws.transform.analyze(X, np.empty((2,) + spectral.band_shape(grid), complex),
                                    ws.transform.scratch(0, 2)[1])
        ref = (ws.curl[:2] * band).sum(axis=0)
        ref[np.abs(ref) < 1e-12 * np.max(np.abs(band))] = 0.0
        out = ws.contract(X, np.empty_like(ref))
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_div_is_lift_times_curl(self, n):
        grid = make_grid(n)
        k1, k2 = np.broadcast_arrays(grid.k1, grid.k2)
        k_sq = k1 * k1 + k2 * k2
        inv = np.divide(1.0, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0)
        lift = np.stack([1j * k2 * inv, -1j * k1 * inv])
        curl = grid.dealias * np.stack([k1 * k1 - k2 * k2, k1 * k2, k_sq])
        assert np.max(np.abs(grid.lift - lift)) <= 1e-15 * np.max(np.abs(lift))
        band_curl = Workspace(grid).curl  # the kernel's table is the packing of this one
        assert np.array_equal(band_curl, spectral.pack(grid, curl))
        # the velocity table lift (x) curl contracts to the lift of the vorticity, which is
        # zero off the band
        F = np.random.default_rng(n).standard_normal((3, n, n // 2 + 1)) + 0j
        div = (lift[:, None] * curl * F).sum(axis=1)
        assert np.all(div[:, ~grid.dealias] == 0)
        div = spectral.pack(grid, div)
        d = spectral.pack(grid, grid.lift) * (band_curl * spectral.pack(grid, F)).sum(axis=0)
        assert np.max(np.abs(d - div)) <= 1e-15 * np.max(np.abs(div))

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_velocity_to_vorticity_and_back(self, n):
        grid = make_grid(n)
        u = random_spectrum_field(grid, 1.0, n // 2, seed=n, l2_norm=1.0)
        assert u.w.shape == grid.k_sq.shape
        uh = u.uh
        assert uh.shape == (2,) + grid.k_sq.shape and not uh.flags.writeable
        assert np.max(np.abs(grid.k1 * uh[0] + grid.k2 * uh[1])) <= 1e-15 * np.max(np.abs(uh))
        back = leray_project(grid, uh)  # the curl of the lift is the identity
        assert (back - u).max_amplitude() <= 1e-15 * u.max_amplitude()
        validate_field(back)

    def test_pair_splits_into_symmetric_and_antisymmetric_parts(self, grid32):
        a = random_spectrum_field(grid32, 1.5, 10, seed=8, l2_norm=2.0)
        b = random_spectrum_field(grid32, 1.5, 10, seed=9, l2_norm=2.0)
        ab, ba = nonlinear_term(a, b), nonlinear_term(b, a)
        sym = nonlinear_symmetric(a, b)
        assert (ab + ba - sym).max_amplitude() <= 1e-13 * sym.max_amplitude()
        validate_field(ab)
        assert (ab - ba).max_amplitude() > 1e-3 * sym.max_amplitude()


class TestParseval:
    @pytest.mark.parametrize("n", [8, 32, 36, 64, 128])
    def test_matches_the_full_lattice_sum(self, n):
        # reference: (2 pi)^2 sum over the whole lattice of numpy.fft.fft2 of physical
        # vorticities, |omegahat|^2 / |xi|^2 for |u|^2 and |omegahat|^2 for |grad u|^2
        grid = make_grid(n)
        W = np.random.default_rng(n).standard_normal((3, n, n))
        full = np.fft.fft2(W) / (n * n)
        k = np.fft.fftfreq(n, 1.0 / n)
        k_sq = k[:, None] ** 2 + k[None, :] ** 2
        inv = np.divide(1.0, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0)
        sq = np.abs(full) ** 2
        ref = (2.0 * np.pi) ** 2 * np.stack([np.sum(inv * sq, axis=(1, 2)),
                                             np.sum(sq, axis=(1, 2))], axis=-1)
        H = np.fft.rfft2(W) / (n * n)  # a batched (3, n, n/2+1) stack of planes
        sums = parseval(grid, H)
        assert sums.shape == (3, 2)
        assert sums == pytest.approx(ref, rel=1e-14)
        for s in range(3):  # a field's sums do not depend on the batch it rides in
            assert np.array_equal(parseval(grid, H[s]), sums[s])
        cross = (2.0 * np.pi) ** 2 * np.sum(inv * (np.conj(full[0]) * full[1]).real)
        scale = np.sqrt(ref[0, 0] * ref[1, 0])
        assert abs(parseval(grid, H[0], H[1])[0] - cross) <= 1e-14 * scale

    def test_every_norm_reads_the_same_sums(self, random_field, tg):
        v = random_field
        l2_sq, grad_sq = parseval(v.grid, v.w)
        assert norm_l2(v) == np.sqrt(l2_sq) and norm_grad_l2(v) == np.sqrt(grad_sq)
        assert inner_l2(v, v) == l2_sq
        assert inner_l2(v, tg) == parseval(v.grid, v.w, tg.w)[0]
        lams, E = mode_energies(v)
        assert np.sum(E) == pytest.approx(l2_sq, rel=1e-14)
        assert np.sum(lams * E) == pytest.approx(grad_sq, rel=1e-14)


class TestNorms:
    def test_shear_closed_forms(self, grid32):
        v = shear_flow(grid32, 2.5)
        assert abs(norm_l2(v) - 2.5 * SQRT2_PI) < 1e-12
        assert abs(norm_grad_l2(v) - 2.5 * SQRT2_PI) < 1e-12
        # integral of sin^4 is 3pi/4 per period, times 2pi in x
        assert abs(norm_l4(shear_flow(grid32, 1.0)) - (1.5 * np.pi ** 2) ** 0.25) < 1e-12

    def test_taylor_green_l2(self, tg):
        assert abs(norm_l2(tg) - SQRT2_PI) < 1e-12
        assert abs(norm_grad_l2(tg) - np.sqrt(2.0) * SQRT2_PI) < 1e-12

    def test_zero_field(self, grid32):
        z = from_lattice(grid32, np.zeros((2, 32, 32)))
        assert norm_l2(z) == 0.0
        assert norm_grad_l2(z) == 0.0
        assert norm_l4(z) == 0.0

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_l4_is_a_band_dft_quadrature_matching_the_padded_fft(self, n, fft_calls):
        # the 2n grid is BandDFT's alone: no FFT runs, and the quadrature agrees with
        # the zero-padded inverse FFT on the same grid
        v = random_spectrum_field(make_grid(n), decay=1.0, k_max=n // 3, seed=n, l2_norm=1.0)
        l4 = norm_l4(v)
        assert fft_calls == {"irfft2": 0, "rfft2": 0}
        m = 2 * n
        U1, U2 = synthesize(v.grid, v.uh, m)
        q = U1 * U1 + U2 * U2
        ref = (float(np.sum(q * q)) * (2 * np.pi / m) ** 2) ** 0.25
        assert abs(l4 - ref) <= 1e-14 * ref


class TestInitialData:
    def test_shear_norm(self, grid32):
        v = make_initial_data(grid32, {"kind": "shear", "amplitude": 1.0})
        assert abs(norm_l2(v) - SQRT2_PI) < 1e-12

    def test_taylor_green_norm(self, grid32):
        v = make_initial_data(grid32, {"kind": "taylor_green", "amplitude": 1.0})
        assert abs(norm_l2(v) - SQRT2_PI) < 1e-12

    def test_random_rescale_contract(self, grid32):
        v = make_initial_data(grid32, {"kind": "random_spectrum", "decay": 2.0,
                                       "k_max": 8, "seed": 7, "l2_norm": 0.01})
        assert abs(norm_l2(v) - 0.01) <= 1e-12

    def test_random_deterministic(self, grid32):
        a = random_spectrum_field(grid32, 2.0, 8, seed=11)
        b = random_spectrum_field(grid32, 2.0, 8, seed=11)
        assert (a - b).max_amplitude() == 0.0

    def test_random_spectrum_is_the_half_of_the_full_hermitian_draw(self, grid32):
        # rebuilt here on the full lattice from the same Gaussian draws
        n, seed, decay, k_max = 32, 5, 1.5, 9
        raw = np.random.default_rng(seed).standard_normal((4, n, n))
        g = raw[0::2] + 1j * raw[1::2]
        minus = (-np.arange(n)) % n
        g = 0.5 * (g + np.conj(g[:, minus][:, :, minus]))
        k = np.fft.fftfreq(n, 1.0 / n)
        k1, k2 = k[:, None], k[None, :]
        k_sq = k1 * k1 + k2 * k2
        r = np.sqrt(k_sq)
        with np.errstate(divide="ignore"):
            u = g * np.where((r > 0) & (r <= k_max), r ** -decay, 0.0)
        inv = np.where(k_sq > 0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
        w = 1j * (k1 * u[1] - k2 * u[0])
        w[n // 2, :] = 0.0
        w[:, n // 2] = 0.0
        w[0, 0] = 0.0
        field = random_spectrum_field(grid32, decay, k_max, seed)
        assert np.array_equal(field.w, w[:, : n // 2 + 1])
        s = (k1 * u[0] + k2 * u[1]) * inv
        u = np.stack([u[0] - k1 * s, u[1] - k2 * s])
        u[:, n // 2, :] = 0.0
        u[:, :, n // 2] = 0.0
        u[:, 0, 0] = 0.0
        half = u[..., : n // 2 + 1]
        assert np.max(np.abs(field.uh - half)) <= 1e-15 * np.max(np.abs(half))
        scaled = random_spectrum_field(grid32, decay, k_max, seed, l2_norm=2.0)
        c = 2.0 / (2.0 * np.pi * np.sqrt(np.sum(np.abs(u) ** 2)))
        assert np.max(np.abs(scaled.w - c * w[:, : n // 2 + 1])) <= 1e-15 * c * np.max(np.abs(w))

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_closed_forms_lift_to_their_exact_velocity_coefficients(self, n):
        # the vorticity is placed so that the lift gives the analytic coefficients exactly
        grid = make_grid(n)
        for A in (1.0, 0.37, 2.5):
            q = 0.25j * A
            ref = np.zeros((2, n, n // 2 + 1), dtype=complex)
            for s1 in (1, -1):
                ref[:, s1 % n, 1] = (-q * s1, q)
            assert np.array_equal(taylor_green(grid, A).uh, ref)
            ref = np.zeros_like(ref)
            ref[0, 0, 1] = -0.5j * A
            assert np.array_equal(shear_flow(grid, A).uh, ref)

    def test_random_spectrum_cutoff(self, grid32):
        v = random_spectrum_field(grid32, 2.0, 5, seed=1)
        r = np.sqrt(grid32.k_sq)
        assert np.all(v.uh[0][r > 5.0] == 0)
        assert np.all(v.uh[1][r > 5.0] == 0)

    @pytest.mark.parametrize("bad", [
        {"kind": "vortex_sheet"},
        {"kind": "shear", "amplitude": -1.0},
        {"kind": "random_spectrum", "decay": 2.0},
        {"kind": "shear", "bogus": 1},
        "not a dict",
    ])
    def test_invalid_specs(self, grid32, bad):
        with pytest.raises(ConfigurationError):
            make_initial_data(grid32, bad)

    @pytest.mark.parametrize("spec", [
        {"kind": "taylor_green", "amplitude": 1.0},
        {"kind": "shear", "amplitude": 0.3},
        {"kind": "random_spectrum", "decay": 2.0, "k_max": 8, "seed": 0, "l2_norm": 1.0},
    ])
    def test_all_generators_satisfy_invariants(self, grid32, spec):
        validate_field(make_initial_data(grid32, spec))


class TestValidation:
    @staticmethod
    def broken(shear, index, value):
        w = shear.w.copy()
        w[index] = value
        return SpectralVelocity(shear.grid, w)

    def test_detects_nonzero_mean(self, shear):
        with pytest.raises(FieldInvariantError, match="mean"):
            validate_field(self.broken(shear, (0, 0), 1e-3))

    def test_detects_nyquist(self, shear):
        with pytest.raises(FieldInvariantError, match="Nyquist"):
            validate_field(self.broken(shear, (16, 3), 1e-3))  # Nyquist row

    def test_detects_nyquist_column(self, shear):
        with pytest.raises(FieldInvariantError, match="Nyquist"):
            validate_field(self.broken(shear, (5, 16), 1e-3))

    def test_detects_hermitian_break(self, shear):
        # column 0 stores both (2, 0) and its partner (-2, 0): the one place
        # where the half layout can break symmetry
        with pytest.raises(FieldInvariantError, match="Hermitian"):
            validate_field(self.broken(shear, (2, 0), 0.7))

    def test_rejects_a_full_lattice_shape(self, grid32):
        with pytest.raises(FieldInvariantError, match="shape"):
            SpectralVelocity(grid32, np.zeros((32, 32), complex))

    def test_rejects_velocity_coefficients(self, grid32, shear):
        # a (2, n, n/2+1) velocity array would broadcast through every plane operation
        with pytest.raises(FieldInvariantError, match=r"shape \(2, 32, 17\), expected \(32, 17\)"):
            SpectralVelocity(grid32, shear.uh.copy())
        with pytest.raises(FieldInvariantError, match="shape"):
            shear * grid32.lift

    def test_defect_helpers(self, random_field):
        assert hermitian_defect(random_field.w) <= 1e-13 * random_field.max_amplitude()
        uh = random_field.uh
        scale = np.max(np.abs(uh))
        assert hermitian_defect(uh) <= 1e-13 * scale
        assert np.max(np.abs(random_field.grid.k1 * uh[0] + random_field.grid.k2 * uh[1])) \
            <= 1e-13 * scale


def test_from_physical_custom_field(grid32):
    # an analytic divergence-free field defined on the collocation grid
    x = np.arange(32) * (2 * np.pi / 32)
    X, Y = np.meshgrid(x, x, indexing="ij")
    U1 = np.sin(2 * Y) + 0.3 * np.sin(X) * np.cos(3 * Y)
    U2 = -0.1 * np.cos(X) * np.sin(3 * Y)
    v = from_physical(grid32, U1, U2)
    validate_field(v)
    V1, V2 = to_physical(v)
    # the field was divergence-free, so the projection changed nothing; re-projecting is a no-op
    assert np.max(np.abs(V1 - U1)) <= 1e-14 and np.max(np.abs(V2 - U2)) <= 1e-14
    w = leray_project(grid32, v.uh)
    assert (w - v).max_amplitude() <= 1e-14 * v.max_amplitude()
    assert abs(np.mean(V1)) < 1e-14 and abs(np.mean(V2)) < 1e-14
