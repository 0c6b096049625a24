"""Kernels of the matrix-free linear solvers: the fused Hermitian-form
operator, the sine-basis inverse of the Laplacian and the preconditioned
Krylov solve of the Newton corrections."""

import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import bicgstab as scipy_bicgstab

from cmasolve.grids import (
    Box,
    build_grid,
    mixed_difference,
    second_difference,
    unit_box,
)
from cmasolve import linsolve
from cmasolve.linsolve import (
    LinearSolveError,
    _sine_eigenvalues,
    _sine_matrix,
    hermitian_form_apply,
    laplacian_apply,
    make_sine_preconditioner,
    solve_hermitian_system,
    solve_poisson_system,
)

ANISOTROPIC = Box((0.0, 0.0, 0.0, 0.0), (0.5, 0.3, 0.7, 0.4))


def reference_form(full, h, a, g, br, bi):
    """The operator tr(C H[v]) term by term from the grid's own stencils:
    each entry of H is a quarter of the real derivatives' sum."""
    out = a * (second_difference(full, 0, h[0])
               + second_difference(full, 1, h[1]))
    out += g * (second_difference(full, 2, h[2])
                + second_difference(full, 3, h[3]))
    out += (2.0 * br) * (mixed_difference(full, 0, 2, h[0], h[2])
                         + mixed_difference(full, 1, 3, h[1], h[3]))
    out += (2.0 * bi) * (mixed_difference(full, 0, 3, h[0], h[3])
                         - mixed_difference(full, 1, 2, h[1], h[2]))
    return 0.25 * out


class TestHermitianFormApply:
    @pytest.mark.parametrize("box, res", [(unit_box(2), 9),
                                          (ANISOTROPIC, 9),
                                          (ANISOTROPIC, (7, 9, 8, 6))],
                             ids=["unit", "anisotropic", "mixed-res"])
    def test_matches_stencil_reference(self, box, res):
        grid = build_grid(box, res)
        rng = np.random.default_rng(3)
        full = rng.standard_normal(grid.shape)
        a, g = (rng.random(grid.interior_shape) + 0.1 for _ in range(2))
        br, bi = (rng.standard_normal(grid.interior_shape) for _ in range(2))
        got = hermitian_form_apply(full, grid.spacing, a, g, br, bi)
        want = reference_form(full, grid.spacing, a, g, br, bi)
        assert got.shape == grid.interior_shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_leaves_its_inputs_alone(self):
        grid = build_grid(ANISOTROPIC, 7)
        rng = np.random.default_rng(4)
        full = rng.standard_normal(grid.shape)
        coeffs = [rng.random(grid.interior_shape) for _ in range(4)]
        before = [full.copy()] + [c.copy() for c in coeffs]
        first = hermitian_form_apply(full, grid.spacing, *coeffs)
        second = hermitian_form_apply(full, grid.spacing, *coeffs)
        assert first is not second
        assert np.array_equal(first, second)
        for old, new in zip(before, [full] + coeffs):
            assert np.array_equal(old, new)


class TestSineBasis:
    @pytest.mark.parametrize("m", [1, 2, 7, 15, 127, 255])
    def test_matrix_is_orthonormal_and_self_inverse(self, m):
        s = _sine_matrix(m)
        assert np.array_equal(s, s.T)
        assert np.abs(s @ s - np.eye(m)).max() < 4e-15

    @pytest.mark.parametrize("box, res", [
        (unit_box(1), 129),
        (unit_box(2), 17),
        (Box((-0.3, 0.1), (0.7, 1.9)), (33, 17)),
        (ANISOTROPIC, (9, 7, 11, 8)),
    ], ids=["n1-res129", "n2-res17", "n1-anisotropic", "n2-anisotropic"])
    def test_unit_coefficients_invert_the_laplacian(self, box, res):
        grid = build_grid(box, res)
        inverse = make_sine_preconditioner(grid, (1.0,) * grid.n)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal(grid.interior_shape)
        full = np.zeros(grid.shape)
        full[grid.interior] = inverse(rhs)
        back = laplacian_apply(full, grid.spacing)
        assert np.abs(back - rhs).max() <= 1e-11 * np.abs(rhs).max()
        # and the other way round: the inverse of lap v is v
        v = np.zeros(grid.shape)
        v[grid.interior] = rng.standard_normal(grid.interior_shape)
        again = inverse(laplacian_apply(v, grid.spacing))
        assert np.abs(again - v[grid.interior]).max() <= (
            1e-11 * np.abs(v).max())

    def test_surrogate_coefficients_scale_each_pair(self):
        # with s_pairs (s1, s2) the inverse is that of s1 lap_1 + s2 lap_2
        grid = build_grid(ANISOTROPIC, 8)
        s1, s2 = 3.0, 0.25
        inverse = make_sine_preconditioner(grid, (s1, s2))
        rng = np.random.default_rng(8)
        v = np.zeros(grid.shape)
        v[grid.interior] = rng.standard_normal(grid.interior_shape)
        h = grid.spacing
        op = s1 * (second_difference(v, 0, h[0]) + second_difference(v, 1, h[1]))
        op += s2 * (second_difference(v, 2, h[2])
                    + second_difference(v, 3, h[3]))
        assert np.abs(inverse(op) - v[grid.interior]).max() <= 1e-12

    def test_cached_tables_are_read_only(self):
        # one table per size serves every preconditioner: writing into it
        # would change them all
        h = build_grid(unit_box(2), 9).spacing[0]
        assert _sine_matrix(7) is _sine_matrix(7)
        assert _sine_eigenvalues(7, h) is _sine_eigenvalues(7, h)
        for table in (_sine_matrix(7), _sine_eigenvalues(7, h)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                table *= 2.0

    def test_preconditioners_on_one_grid_share_no_state(self):
        # two preconditioners built from the shared tables act as if each
        # had been built from fresh ones
        grid = build_grid(ANISOTROPIC, (9, 7, 11, 8))
        r = np.random.default_rng(10).standard_normal(grid.interior_shape)
        pairs = ((3.0, 0.25), (0.5, 2.0))
        fresh = []
        for s_pairs in pairs:
            _sine_matrix.cache_clear()
            _sine_eigenvalues.cache_clear()
            fresh.append(make_sine_preconditioner(grid, s_pairs)(r))
        shared = [make_sine_preconditioner(grid, s_pairs)
                  for s_pairs in pairs]
        for _ in range(2):
            for inverse, expected in zip(shared, fresh):
                assert np.array_equal(inverse(r), expected)

    def test_input_is_not_modified(self):
        grid = build_grid(unit_box(2), 9)
        inverse = make_sine_preconditioner(grid, (1.0, 2.0))
        r = np.random.default_rng(9).standard_normal(grid.interior_shape)
        kept = r.copy()
        inverse(r)
        assert np.array_equal(r, kept)


class TestHermitianSolve:
    """solve_hermitian_system on a cofactor-like system: positive diagonal
    coefficients and off-diagonal ones small enough for a psd matrix."""

    def system(self, seed=11):
        grid = build_grid(ANISOTROPIC, 9)
        rng = np.random.default_rng(seed)
        a, g = (rng.random(grid.interior_shape) + 0.5 for _ in range(2))
        br, bi = (0.3 * rng.uniform(-1.0, 1.0, grid.interior_shape)
                  for _ in range(2))
        rhs = rng.standard_normal(grid.interior_shape)
        return grid, (a, g, br, bi), rhs

    def relative_residual(self, grid, coeffs, rhs, x):
        full = np.zeros(grid.shape)
        full[grid.interior] = x
        r = rhs - hermitian_form_apply(full, grid.spacing, *coeffs)
        return float(np.linalg.norm(r) / np.linalg.norm(rhs))

    def test_converged_solve_applies_the_operator_only_in_bicgstab(
            self, monkeypatch):
        grid, coeffs, rhs = self.system()
        calls = {"inside": 0, "outside": 0}
        infos = []
        running = [False]
        bicgstab = linsolve.bicgstab

        def counting_apply(*args, **kwargs):
            calls["inside" if running[0] else "outside"] += 1
            return hermitian_form_apply(*args, **kwargs)

        def tracked_bicgstab(*args, **kwargs):
            running[0] = True
            try:
                x, info = bicgstab(*args, **kwargs)
            finally:
                running[0] = False
            infos.append(info)
            return x, info

        monkeypatch.setattr(linsolve, "hermitian_form_apply", counting_apply)
        monkeypatch.setattr(linsolve, "bicgstab", tracked_bicgstab)
        monkeypatch.setattr(linsolve, "CORRECTION_RTOL", 1e-8)
        solve_hermitian_system(grid, coeffs, rhs)
        assert infos == [0]
        assert calls["inside"] > 0
        assert calls["outside"] == 0

    @pytest.mark.parametrize("rtol, accept_rtol", [(1e-3, 1e-2),
                                                   (1e-8, 1e-4)])
    def test_true_residual_within_accept_rtol(self, monkeypatch, rtol,
                                              accept_rtol):
        grid, coeffs, rhs = self.system()
        monkeypatch.setattr(linsolve, "CORRECTION_RTOL", rtol)
        monkeypatch.setattr(linsolve, "CORRECTION_ACCEPT_RTOL", accept_rtol)
        x = solve_hermitian_system(grid, coeffs, rhs)
        assert x.shape == grid.interior_shape
        assert self.relative_residual(grid, coeffs, rhs, x) <= accept_rtol

    def test_iteration_cap_raises_with_the_achieved_residual(
            self, monkeypatch):
        grid, coeffs, rhs = self.system()
        monkeypatch.setattr(linsolve, "CORRECTION_RTOL", 1e-14)
        monkeypatch.setattr(linsolve, "CORRECTION_MAXITER", 1)
        monkeypatch.setattr(linsolve, "CORRECTION_ACCEPT_RTOL", 1e-14)
        with pytest.raises(LinearSolveError, match="did not converge") as exc:
            solve_hermitian_system(grid, coeffs, rhs)
        assert 1e-14 < exc.value.residual < 1.0
        assert f"{exc.value.residual:.3e}" in str(exc.value)


class TestBicgstab:
    """linsolve.bicgstab is scipy.sparse.linalg.bicgstab (atol 0) bit for
    bit, in x and in info, on the correction solve's own operator and
    preconditioner, in float64 and in the float32 the correction solve
    runs in."""

    CASES = pytest.mark.parametrize("rtol, maxiter, zero, want_info", [
        (1e-3, 500, False, 0),
        (1e-8, 500, False, 0),
        (1e-3, 1, False, 1),
        (1e-3, 500, True, 0),
    ], ids=["rtol1e-3", "rtol1e-8", "capped-miss", "zero-rhs"])

    def operators(self, grid, coeffs, dtype):
        coeffs = [c.astype(dtype) for c in coeffs]
        a, g, br, bi = coeffs
        work = np.zeros(grid.shape, dtype)
        inverse = make_sine_preconditioner(
            grid, (0.25 * float(a.mean()), 0.25 * float(g.mean())), dtype)

        def matvec(v):
            work[grid.interior] = v.reshape(grid.interior_shape)
            return hermitian_form_apply(work, grid.spacing,
                                        *coeffs).ravel()

        def psolve(v):
            return inverse(v.reshape(grid.interior_shape)).ravel()

        return matvec, psolve

    def reproduces_scipy(self, rtol, maxiter, zero, want_info, dtype):
        grid, coeffs, rhs = TestHermitianSolve().system()
        if zero:
            rhs = np.zeros_like(rhs)
        matvec, psolve = self.operators(grid, coeffs, dtype)
        b = rhs.ravel().astype(dtype)
        n = b.size
        want, info = scipy_bicgstab(
            LinearOperator((n, n), matvec=matvec, dtype=dtype),
            b.copy(), rtol=rtol, atol=0.0, maxiter=maxiter,
            M=LinearOperator((n, n), matvec=psolve, dtype=dtype))
        assert info == want_info
        assert want.dtype == dtype
        kept = b.copy()
        got, got_info = linsolve.bicgstab(matvec, psolve, b, rtol=rtol,
                                          maxiter=maxiter)
        assert got_info == info
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        # b is only read: it is the shadow residual
        assert np.array_equal(b, kept)

    @CASES
    def test_reproduces_scipy(self, rtol, maxiter, zero, want_info):
        self.reproduces_scipy(rtol, maxiter, zero, want_info, np.float64)

    @CASES
    def test_reproduces_scipy_in_single_precision(self, rtol, maxiter, zero,
                                                  want_info):
        self.reproduces_scipy(rtol, maxiter, zero, want_info, np.float32)


def held_arrays(fn):
    """Every array a closure holds, through nested closures, lists and
    tuples."""
    found, todo, seen = [], [fn], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


class TestSinglePrecision:
    """The Newton correction solve runs in float32 and returns float64;
    the Poisson solve stays in float64."""

    def recorded(self, monkeypatch):
        """Patch the operator, the Hessian entries it contracts and the
        preconditioner; returns the list of every array they are given,
        return or hold."""
        seen = []
        apply = linsolve.hermitian_form_apply
        entries = linsolve._hessian_entries
        make = linsolve.make_sine_preconditioner

        def recorded_apply(full, spacing, *args):
            out = apply(full, spacing, *args)
            seen.extend([full, *args, out])
            return out

        def recorded_entries(full, spacing):
            out = entries(full, spacing)
            seen.extend(out)
            return out

        def recorded_make(*args, **kwargs):
            inverse = make(*args, **kwargs)
            seen.extend(held_arrays(inverse))

            def recorded_inverse(r):
                z = inverse(r)
                seen.extend([r, z])
                return z

            return recorded_inverse

        monkeypatch.setattr(linsolve, "hermitian_form_apply", recorded_apply)
        monkeypatch.setattr(linsolve, "_hessian_entries", recorded_entries)
        monkeypatch.setattr(linsolve, "make_sine_preconditioner",
                            recorded_make)
        return seen

    def test_correction_solve_runs_in_float32(self, monkeypatch):
        grid, coeffs, rhs = TestHermitianSolve().system()
        seen = self.recorded(monkeypatch)
        x = solve_hermitian_system(grid, coeffs, rhs)
        # the operator's 6 arrays and the 4 Hessian entries per call, and
        # the preconditioner's tables, inputs and outputs
        assert len(seen) > 10
        assert {a.dtype for a in seen} == {np.dtype(np.float32)}
        assert x.dtype == np.float64

    def test_poisson_solve_stays_float64(self, monkeypatch):
        grid = build_grid(unit_box(2), 9)
        rhs = np.random.default_rng(12).standard_normal(grid.interior_shape)
        seen = self.recorded(monkeypatch)
        u = solve_poisson_system(grid, rhs, np.zeros(grid.shape))
        assert len(seen) > 2
        assert {a.dtype for a in seen} == {np.dtype(np.float64)}
        assert u.dtype == np.float64

    def test_handed_over_coefficients_are_let_go(self):
        grid, coeffs, rhs = TestHermitianSolve().system()
        handed = list(coeffs)
        x = solve_hermitian_system(grid, handed, rhs)
        assert handed == []
        assert np.array_equal(
            x, solve_hermitian_system(grid, coeffs, rhs))

    @pytest.mark.parametrize("c_shift, b_shift", [
        (140, 0), (-140, 0), (0, 140), (0, -140), (140, -140), (-140, 140),
    ])
    def test_power_of_two_scaling_is_exact(self, c_shift, b_shift):
        # data far outside float32's range (about 2^+-126 to 2^128) are
        # scaled into it exactly, and the correction scaled back
        solve = TestHermitianSolve()
        grid, coeffs, rhs = solve.system()
        x = solve_hermitian_system(grid, coeffs, rhs)
        coeffs_s = tuple(np.ldexp(c, c_shift) for c in coeffs)
        rhs_s = np.ldexp(rhs, b_shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x_s = solve_hermitian_system(grid, coeffs_s, rhs_s)
        assert np.array_equal(x_s, np.ldexp(x, b_shift - c_shift))
        achieved = solve.relative_residual(grid, coeffs, rhs, x)
        assert achieved <= linsolve.CORRECTION_ACCEPT_RTOL
        assert solve.relative_residual(grid, coeffs_s, rhs_s, x_s) \
            == pytest.approx(achieved, rel=1e-12)
