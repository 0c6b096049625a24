"""Grid construction, discrete complex Hessian, and density primitives.

Expected Hessians are derived independently with sympy (symbolic
differentiation of the defining formula H_{jk} = d^2 u / dz_j dzbar_k in
real coordinates) so the stencil code is checked against an oracle rather
than against itself.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cmasolve.grids import (
    Box,
    Grid,
    GridError,
    ScalarField,
    _det_and_eigenvalues,
    _hessian_entries,
    build_grid,
    ma_density,
    ma_normalization,
    mixed_difference,
    read_field_bin,
    read_field_csv,
    second_difference,
    unit_box,
    write_field_bin,
    write_field_csv,
)

COEFF = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


def hessian_matrix(u):
    """The n x n complex Hessian matrix at every interior node, the lower
    triangle the conjugate mirror of the upper one, from the real entries
    _hessian_entries gives the solvers."""
    grid = u.grid
    entries = _hessian_entries(u.values, grid.spacing)
    H = np.zeros(grid.interior_shape + (grid.n, grid.n), dtype=np.complex128)
    H[..., 0, 0] = entries[0]
    if grid.n == 2:
        H[..., 1, 1] = entries[1]
        H[..., 0, 1] = entries[2] + 1j * entries[3]
        H[..., 1, 0] = np.conj(H[..., 0, 1])
    return H


def symbolic_hessian(u_expr, n, syms):
    """Oracle: H_{jk} via real partial derivatives of u.

    d/dz_j = (d/dx_j - i d/dy_j)/2 and d/dzbar_k = (d/dx_k + i d/dy_k)/2,
    so H_{jk} = ((u_xjxk + u_yjyk) + i (u_xjyk - u_yjxk))/4.
    """
    H = sp.zeros(n, n)
    for j in range(n):
        for k in range(n):
            xj, yj = syms[2 * j], syms[2 * j + 1]
            xk, yk = syms[2 * k], syms[2 * k + 1]
            H[j, k] = (sp.diff(u_expr, xj, xk) + sp.diff(u_expr, yj, yk)
                       + sp.I * (sp.diff(u_expr, xj, yk)
                                 - sp.diff(u_expr, yj, xk))) / 4
    return H


class TestGridConstruction:
    def test_default_box_resolution_5(self):
        g = build_grid(unit_box(1), 5)
        assert g.num_nodes == 25
        assert int(g.interior_mask().sum()) == 9
        assert g.spacing == (0.25, 0.25)

    def test_node_count_4d(self):
        g = build_grid(unit_box(2), 17)
        assert g.num_nodes == 83521
        assert g.interior_shape == (15, 15, 15, 15)

    def test_degenerate_box_rejected(self):
        with pytest.raises(GridError, match="degenerate box"):
            Box(lo=(0.0, 0.0), hi=(0.0, 1.0))

    def test_overflowing_extent_rejected(self):
        # each corner is finite, but hi - lo is not: the spacing would be inf
        with pytest.raises(GridError, match="extent overflows on axis 1"):
            Box(lo=(0.0, -1e308), hi=(1.0, 1e308))

    def test_thin_resolution_rejected(self):
        with pytest.raises(GridError, match="too thin"):
            build_grid(unit_box(1), 4)

    def test_ball_domain_rejected(self):
        # a ball is a radius, as configs give it, not a Box
        with pytest.raises(GridError, match="radial"):
            build_grid({"radius": 1.0}, 9)

    def test_spacing_exact(self):
        g = build_grid(Box(lo=(-1.0, 0.0), hi=(1.0, 3.0)), (9, 7))
        assert g.spacing == (0.25, 0.5)
        assert g.axes[0][0] == -1.0 and g.axes[0][-1] == 1.0

    def test_field_shape_and_finiteness_enforced(self):
        g = build_grid(unit_box(1), 5)
        with pytest.raises(GridError):
            ScalarField(g, np.zeros((5, 4)))
        bad = np.zeros((5, 5))
        bad[2, 2] = np.nan
        with pytest.raises(GridError, match="non-finite"):
            ScalarField(g, bad)


class TestComplexHessian:
    def test_squared_norm_gives_identity(self):
        g = build_grid(unit_box(2), 7)
        u = ScalarField.from_function(g, lambda p: (p ** 2).sum(axis=-1))
        H = hessian_matrix(u)
        eye = np.broadcast_to(np.eye(2), H.shape)
        assert np.abs(H - eye).max() <= 1e-12

    def test_pluriharmonic_re_z1_squared(self):
        # Re(z1^2) = x1^2 - y1^2 has identically zero complex Hessian.
        g = build_grid(unit_box(2), 7)
        u = ScalarField.from_function(g, lambda p: p[..., 0] ** 2 - p[..., 1] ** 2)
        H = hessian_matrix(u)
        assert np.abs(H).max() <= 1e-10

    def test_pluriharmonic_cross_terms(self):
        # Re(z1 z2) and Im(z1^2) are also annihilated.
        g = build_grid(unit_box(2), 7)
        for fn in (lambda p: p[..., 0] * p[..., 2] - p[..., 1] * p[..., 3],
                   lambda p: 2 * p[..., 0] * p[..., 1]):
            H = hessian_matrix(ScalarField.from_function(g, fn))
            assert np.abs(H).max() <= 1e-10

    def test_product_of_squared_moduli_against_sympy(self):
        # u = |z1|^2 |z2|^2: quartic, but separable with degree <= 2 per
        # variable, so the stencils are still exact.
        syms = sp.symbols("x1 y1 x2 y2", real=True)
        x1, y1, x2, y2 = syms
        u_expr = (x1 ** 2 + y1 ** 2) * (x2 ** 2 + y2 ** 2)
        H_oracle = symbolic_hessian(u_expr, 2, syms)
        fns = {
            (j, k): sp.lambdify(syms, H_oracle[j, k], "numpy")
            for j in range(2) for k in range(2)
        }
        g = build_grid(unit_box(2), 7)
        pts = g.points()[g.interior]
        u = ScalarField.from_function(
            g, lambda p: (p[..., 0] ** 2 + p[..., 1] ** 2)
            * (p[..., 2] ** 2 + p[..., 3] ** 2))
        H = hessian_matrix(u)
        for (j, k), fn in fns.items():
            expected = np.asarray(fn(pts[..., 0], pts[..., 1],
                                     pts[..., 2], pts[..., 3]),
                                  dtype=np.complex128)
            expected = np.broadcast_to(expected, H[..., j, k].shape)
            assert np.abs(H[..., j, k] - expected).max() <= 1e-12
        # and the determinant degenerates: det H = 0 identically
        det = _det_and_eigenvalues(_hessian_entries(u.values, g.spacing))[0]
        assert np.abs(det).max() <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.lists(COEFF, min_size=10, max_size=10))
    def test_quadratic_exactness_against_sympy(self, coeffs):
        syms = sp.symbols("x1 y1 x2 y2", real=True)
        mons = [syms[a] * syms[b] for a in range(4) for b in range(a, 4)]
        u_expr = sum(c * m for c, m in zip(coeffs, mons))
        H_oracle = symbolic_hessian(u_expr, 2, syms)

        g = build_grid(unit_box(2), 5)
        pts = g.points()
        mon_vals = [pts[..., a] * pts[..., b]
                    for a in range(4) for b in range(a, 4)]
        vals = sum(c * m for c, m in zip(coeffs, mon_vals))
        H = hessian_matrix(ScalarField(g, np.asarray(vals)))
        scale = max(1.0, max(abs(c) for c in coeffs))
        for j in range(2):
            for k in range(2):
                expected = complex(H_oracle[j, k])
                assert np.abs(H[..., j, k] - expected).max() <= 1e-12 * scale

    def test_hermitian_mirror_bit_exact(self):
        # the entries describe a Hermitian matrix exactly, and the closed
        # form the solvers take its eigenvalues by is that matrix's
        g = build_grid(unit_box(2), 6)
        rng = np.random.default_rng(7)
        u = ScalarField(g, rng.standard_normal(g.shape))
        H = hessian_matrix(u)
        assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))
        _, lam1, lam2 = _det_and_eigenvalues(
            _hessian_entries(u.values, g.spacing))
        eig = np.linalg.eigvalsh(H)
        scale = np.abs(eig).max()
        assert np.abs(lam1 - eig[..., 0]).max() <= 1e-14 * scale
        assert np.abs(lam2 - eig[..., 1]).max() <= 1e-14 * scale


def complex_matrix_hessian(u):
    """Reference: the n x n complex matrix of the defining formula
    H_jk = ((u_xjxk + u_yjyk) + i (u_xjyk - u_yjxk)) / 4, each real
    derivative a centred second or nested mixed difference."""
    grid, v, h = u.grid, u.values, u.grid.spacing

    def d2(a, b):
        if a == b:
            return second_difference(v, a, h[a])
        return mixed_difference(v, a, b, h[a], h[b])

    n = grid.n
    H = np.zeros(grid.interior_shape + (n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            re = d2(2 * j, 2 * k) + d2(2 * j + 1, 2 * k + 1)
            im = d2(2 * j, 2 * k + 1) - d2(2 * j + 1, 2 * k)
            H[..., j, k] = 0.25 * (re + 1j * im)
    return H


def hessian_entries_of(H):
    """The real entries _hessian_entries gives, read off the matrix."""
    if H.shape[-1] == 1:
        return (H[..., 0, 0].real,)
    return (H[..., 0, 0].real, H[..., 1, 1].real, H[..., 0, 1].real,
            H[..., 0, 1].imag)


def matrix_det_and_eigenvalues(H):
    """det H and its smallest and largest eigenvalues, from the matrix."""
    a = H[..., 0, 0].real
    if H.shape[-1] == 1:
        return a, a, a
    d = H[..., 1, 1].real
    off = np.abs(H[..., 0, 1]) ** 2
    disc = np.sqrt(0.25 * (a - d) ** 2 + off)
    return a * d - off, 0.5 * (a + d) - disc, 0.5 * (a + d) + disc


class TestHessianKernel:
    GRIDS = [
        (unit_box(1), 17),
        (unit_box(2), 7),
        (Box(lo=(-0.5, -1.0, -0.3, -0.7), hi=(0.5, 1.0, 0.6, 0.2)),
         (7, 9, 6, 8)),
    ]

    @pytest.mark.parametrize("box,res", GRIDS)
    def test_matches_complex_matrix_formula(self, box, res):
        g = build_grid(box, res)
        rng = np.random.default_rng(11)
        u = ScalarField(g, rng.standard_normal(g.shape))
        ref = complex_matrix_hessian(u)
        H = hessian_matrix(u)
        assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()

        ref_det, ref_lam, ref_top = matrix_det_and_eigenvalues(ref)
        ref_dens = np.maximum(ma_normalization(g.n) * ref_det, 0.0)
        dens, defect = ma_density(u)
        assert (np.abs(dens - ref_dens).max()
                <= 1e-14 * np.abs(ref_dens).max())
        ref_defect = max(0.0, -float(ref_lam.min()))
        assert abs(defect - ref_defect) <= 1e-14 * np.abs(ref_lam).max()
        # the entries and eigenvalues the Newton solver runs on
        det, lam1, lam2 = _det_and_eigenvalues(
            _hessian_entries(u.values, g.spacing))
        assert (np.abs(det - ref_det).max()
                <= 1e-14 * np.abs(ref_det).max())
        assert (np.abs(lam1 - ref_lam).max()
                <= 1e-14 * np.abs(ref_lam).max())
        assert (np.abs(lam2 - ref_top).max()
                <= 1e-14 * np.abs(ref_top).max())

    @staticmethod
    def random_box_grid(n, data):
        """An anisotropic box with a resolution of its own per axis."""
        lo = data.draw(st.lists(st.floats(-1.0, 0.0), min_size=2 * n,
                                max_size=2 * n))
        width = data.draw(st.lists(st.floats(0.2, 2.0), min_size=2 * n,
                                   max_size=2 * n))
        res = data.draw(st.lists(st.integers(5, 9), min_size=2 * n,
                                 max_size=2 * n))
        box = Box(lo=tuple(lo), hi=tuple(a + w for a, w in zip(lo, width)))
        return build_grid(box, tuple(res))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1), st.data())
    def test_fused_kernel_is_the_composed_stencils(self, n, seed, data):
        g = self.random_box_grid(n, data)
        u = ScalarField(g, np.random.default_rng(seed).standard_normal(
            g.shape))
        ref = complex_matrix_hessian(u)
        assert np.abs(hessian_matrix(u) - ref).max() \
            <= 1e-14 * np.abs(ref).max()
        # the Newton correction's operator runs the kernel in float32: the
        # entries stay float32 and carry float32 rounding only (the worst
        # of 300 random grids read 1.5 eps)
        single = _hessian_entries(u.values.astype(np.float32), g.spacing)
        assert {e.dtype for e in single} == {np.dtype(np.float32)}
        for got, want in zip(single, hessian_entries_of(ref)):
            assert np.abs(got - want).max() \
                <= 8 * np.finfo(np.float32).eps * np.abs(ref).max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_fused_kernel_overflow_reads_inf(self, seed, data):
        # 1e300 (|x|^2 + noise): det H and (h11 - h22)^2 overflow at every
        # node, and no floating-point warning escapes ma_density
        g = self.random_box_grid(2, data)
        noise = np.random.default_rng(seed).standard_normal(g.shape)
        r2 = (g.points() ** 2).sum(axis=-1)
        dens, defect = ma_density(ScalarField(g, 1e300 * (r2 + 1e-6 * noise)))
        assert np.all(dens == np.inf) and defect == np.inf

    def test_n3_grid_rejected(self):
        g = build_grid(unit_box(3), 5)
        u = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(GridError, match="n in"):
            _hessian_entries(u.values, g.spacing)
        with pytest.raises(GridError, match="n in"):
            ma_density(u)


class TestMaDensity:
    def test_constant_density_n2(self):
        g = build_grid(unit_box(2), 7)
        u = ScalarField.from_function(g, lambda p: (p ** 2).sum(axis=-1) - 1.0)
        dens, defect = ma_density(u)
        assert np.abs(dens - 32.0).max() <= 1e-10
        assert defect <= 1e-12

    def test_constant_density_n1(self):
        g = build_grid(unit_box(1), 9)
        u = ScalarField.from_function(g, lambda p: (p ** 2).sum(axis=-1))
        dens, defect = ma_density(u)
        assert np.abs(dens - 4.0).max() <= 1e-12
        assert defect <= 1e-12

    def test_degenerate_product_density_zero(self):
        g = build_grid(unit_box(2), 7)
        u = ScalarField.from_function(
            g, lambda p: (p[..., 0] ** 2 + p[..., 1] ** 2)
            * (p[..., 2] ** 2 + p[..., 3] ** 2))
        dens, defect = ma_density(u)
        assert np.abs(dens).max() <= 1e-12
        assert defect <= 1e-12

    def test_n1_reduction_matches_five_point_laplacian(self):
        g = build_grid(unit_box(1), 11)
        rng = np.random.default_rng(3)
        base = rng.standard_normal(g.shape)
        # make it discretely subharmonic by adding a big multiple of |z|^2
        pts = g.points()
        vals = 50.0 * (pts ** 2).sum(axis=-1) + 0.05 * base
        u = ScalarField(g, vals)
        h = g.spacing[0]
        lap = ((vals[2:, 1:-1] - 2 * vals[1:-1, 1:-1] + vals[:-2, 1:-1])
               + (vals[1:-1, 2:] - 2 * vals[1:-1, 1:-1] + vals[1:-1, :-2])) / h ** 2
        dens, _ = ma_density(u)
        assert np.abs(dens - lap).max() <= 1e-9

    def test_psh_defect_reported(self):
        g = build_grid(unit_box(1), 9)
        u = ScalarField.from_function(g, lambda p: -(p ** 2).sum(axis=-1))
        dens, defect = ma_density(u)
        assert np.abs(dens).max() == 0.0  # clamped
        assert defect == pytest.approx(1.0, rel=1e-10)

    def test_overflow_reads_inf(self):
        # a density too large for floating point is +inf, not an error, and
        # a Hessian that overflows (inf - inf in its eigenvalues) has psh
        # defect inf: subsolution_check and the stability cap rely on both
        g = build_grid(unit_box(2), 7)
        r2 = (g.points() ** 2).sum(axis=-1)
        dens, defect = ma_density(ScalarField(g, 1e160 * r2))
        assert np.all(dens == np.inf) and defect == 0.0
        dens, defect = ma_density(ScalarField(g, 1e307 * r2))
        assert np.all(dens == np.inf) and defect == np.inf

    @pytest.mark.parametrize("n,levels", [(1, (9, 17, 33)), (2, (7, 13, 25))])
    def test_consistency_order_h2(self, n, levels):
        # u = exp(x1) + |z|^2 against its analytic density.
        errors = []
        for res in levels:
            g = build_grid(unit_box(n), res)
            pts = g.points()
            u = ScalarField(g, np.exp(pts[..., 0]) + (pts ** 2).sum(axis=-1))
            dens, _ = ma_density(u)
            x1 = pts[g.interior][..., 0]
            if n == 1:
                exact = np.exp(x1) + 4.0
            else:
                exact = 32.0 * (1.0 + np.exp(x1) / 4.0)
            errors.append(np.abs(dens - exact).max())
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert all(1.7 <= r <= 2.3 for r in rates), rates


class TestIntegrateAndDumps:
    def test_csv_round_trip_bit_identical(self, tmp_path):
        g = build_grid(unit_box(1), 7)
        rng = np.random.default_rng(5)
        u = ScalarField(g, rng.standard_normal(g.shape))
        path = tmp_path / "u.csv"
        write_field_csv(u, path)
        back = read_field_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("box, res", [
        (Box((-0.3, 0.1), (0.7, 1.9)), (9, 13)),
        (unit_box(2), 7),
        (Box((-0.3, 0.1, -1.0, 0.2), (0.7, 1.9, 0.1, 0.5)), (6, 7, 5, 8)),
    ], ids=["n1-anisotropic", "n2", "n2-anisotropic"])
    def test_csv_rows_match_per_row_format(self, tmp_path, box, res):
        # one row per node in storage order: repr of every coordinate, of
        # the value, and the interior flag as 0/1
        g = build_grid(box, res)
        rng = np.random.default_rng(17)
        u = ScalarField(g, 1e3 * rng.standard_normal(g.shape))
        pts = g.points().reshape(-1, g.ndim)
        vals = u.values.ravel()
        mask = g.interior_mask().ravel()
        rows = [",".join(repr(float(c)) for c in pts[i])
                + f",{float(vals[i])!r},{int(mask[i])}\n"
                for i in range(vals.size)]
        path = tmp_path / "u.csv"
        write_field_csv(u, path)
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == "".join(rows).encode()

    def test_csv_header_names(self, tmp_path):
        g = build_grid(unit_box(2), 5)
        u = ScalarField(g, np.zeros(g.shape))
        path = tmp_path / "u.csv"
        write_field_csv(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,y1,x2,y2,value,interior"

    def test_bin_round_trip_bit_identical(self, tmp_path):
        g = build_grid(unit_box(2), 5)
        rng = np.random.default_rng(9)
        u = ScalarField(g, rng.standard_normal(g.shape))
        path = tmp_path / "u.bin"
        write_field_bin(u, path)
        back = read_field_bin(path)
        assert back.grid == g
        assert np.array_equal(back.values, u.values)
