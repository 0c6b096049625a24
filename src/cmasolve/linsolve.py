"""Matrix-free linear solvers on grid interiors.

Two systems arise.  Constant-coefficient Laplacian problems (the n = 1
equation and Newton initialization in any dimension) are solved directly:
the Dirichlet Laplacian diagonalizes in the sine basis, so the orthonormal
DST-I (a symmetric, self-inverse matrix per axis), a division by the
eigenvalues and the DST-I again invert it, in the manner of the fast
Poisson solvers of Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7, 1970).
The transform is applied as one dense matrix product per axis: at the
interior sizes of the n = 2 grids (tens of nodes per axis) that beats an
FFT-based DST on one thread; on the larger n = 1 grids it is slightly
slower, and one transform serves both.  Each axis is one matmul on a
reshaped C-order view, so no axis is transposed or copied, and the DST-I
matrices and eigenvalue vectors are built once per size and shared,
read-only, by every preconditioner.  The Newton correction systems
for n = 2 carry variable coefficients and mixed second derivatives, so
those are solved with BiCGStab preconditioned by the same sine-basis
inverse of a constant-coefficient surrogate; their operator contracts
the Hessian entries the Newton residual reads (grids._hessian_entries),
so the module has no complex-Hessian stencil of its own.  The BiCGStab is
the module's own: scipy.sparse.linalg.bicgstab's recurrences, breakdown
tests and operation order, so its iterates are scipy's bit for bit, but
it holds only the vectors its recurrences need, reads the right-hand side
as the shadow residual, and lets each vector go before the operator forms
the next.

The correction solves run in single precision; the Poisson solves stay in
double.  A Newton correction is only asked for a 1e-3 relative residual
(an inexact Newton step, Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982), four orders of magnitude above float32's round-off,
while the residual that decides convergence is formed in float64 by the
Newton loop (Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  The stencil
and the sine transforms are bound by memory traffic, so float32 halves
the bytes every Krylov iteration moves.  Coefficients and right-hand side
are scaled by powers of two into float32's range, which is exact.  The
Poisson solve is a direct solve refined to about 1e-13, which float32
cannot reach.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SolverError
from .grids import Grid, _hessian_entries, second_difference


class LinearSolveError(SolverError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def laplacian_apply(full: np.ndarray, spacing) -> np.ndarray:
    """Sum of per-axis second differences onto the interior block."""
    out = second_difference(full, 0, spacing[0])
    for a in range(1, full.ndim):
        out += second_difference(full, a, spacing[a])
    return out


# refinement sweeps after the direct solve: each reapplies the exact inverse
# to the true residual, whose round-off floor (of order cond(lap) * eps
# relative) is reached within one or two, so a few bound the work
_MAX_SWEEPS = 3


def solve_poisson_system(grid: Grid, rhs: np.ndarray, boundary: np.ndarray,
                         tol: float = 1e-10) -> np.ndarray:
    """Solve the discrete Dirichlet problem lap(u) = rhs on the grid.

    rhs is interior-shaped; boundary supplies the Dirichlet ring (interior
    entries of it are ignored).  Returns the full solution array with the
    boundary ring copied bit-exactly.  The interior Laplacian is inverted
    directly in the sine basis, followed by refinement sweeps on the true
    residual that stop once its sup-norm drops below tol or a sweep fails
    to halve it (the round-off floor can sit above a tight tol).
    """
    core = grid.interior
    inverse = make_sine_preconditioner(grid, (1.0,) * grid.n)
    u = np.array(boundary, dtype=np.float64)
    u[core] = 0.0
    # with a zero interior the residual carries the ring's contribution
    resid = rhs - laplacian_apply(u, grid.spacing)
    rsup = float(np.abs(resid).max())
    for _ in range(1 + _MAX_SWEEPS):
        if rsup < tol or not np.isfinite(rsup):
            break
        u[core] += inverse(resid)
        resid = rhs - laplacian_apply(u, grid.spacing)
        previous, rsup = rsup, float(np.abs(resid).max())
        if not rsup <= 0.5 * previous:
            break
    if not np.isfinite(rsup):
        raise LinearSolveError("poisson solve produced a non-finite "
                               "residual", rsup)
    return u


# ---------------------------------------------------------------------------
# Variable-coefficient Hermitian-form operator for n = 2 Newton steps:
#
#   L v = tr(C H[v]) = a H11 + g H22 + 2 (br Re H12 + bi Im H12)
#
# where H[v] is the discrete complex Hessian and (a, g, br + i bi) are the
# entries of a Hermitian psd coefficient matrix C per interior node (the
# cofactor of the current complex Hessian).

def hermitian_form_apply(full: np.ndarray, spacing,
                         a, g, br, bi) -> np.ndarray:
    """L v on the interior block, for v given on the full grid: the
    entries of _hessian_entries, in full's dtype, contracted in place."""
    out, h22, re12, im12 = _hessian_entries(full, spacing)
    out *= a
    h22 *= g
    out += h22
    re12 *= br
    im12 *= bi
    re12 += im12
    re12 *= 2.0
    out += re12
    return out


# a process meets a handful of interior sizes and spacings; the bound only
# keeps a long-lived process sweeping resolutions from holding them all
@functools.lru_cache(maxsize=64)
def _sine_eigenvalues(m: int, h: float) -> np.ndarray:
    """Eigenvalues of the m-node Dirichlet second difference at spacing h;
    cached per (m, h) and read-only."""
    k = np.arange(1, m + 1)
    lam = (2.0 * np.cos(k * np.pi / (m + 1)) - 2.0) / h ** 2
    lam.setflags(write=False)
    return lam


@functools.lru_cache(maxsize=64)
def _sine_matrix(m: int, dtype: type = np.float64) -> np.ndarray:
    """Orthonormal DST-I matrix: symmetric and its own inverse; cached per
    size and dtype, and read-only.  A float32 matrix is the float64 one
    rounded.

    The phase j k pi / (m + 1) is reduced modulo 2 pi in integers first:
    sin of the unreduced phase (up to about m pi) carries an absolute error
    of order m eps, which left the matrix orthogonal only to about m eps.
    """
    if np.dtype(dtype) != np.float64:
        mat = _sine_matrix(m, np.float64).astype(dtype)
        mat.setflags(write=False)
        return mat
    k = np.arange(1, m + 1)
    phase = np.outer(k, k) % (2 * (m + 1))
    mat = np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))
    mat.setflags(write=False)
    return mat


def make_sine_preconditioner(grid: Grid, s_pairs,
                             dtype: type = np.float64) -> "callable":
    """Inverse of sum_j s_j (d2/dx_j^2 + d2/dy_j^2) on the interior.

    s_pairs holds one positive coefficient per complex coordinate.  With
    every coefficient 1 this is the exact inverse of the interior Dirichlet
    Laplacian (solve_poisson_system); otherwise it is a spectral
    preconditioner for the Hermitian-form operator with the mixed terms
    dropped and coefficients averaged.  The sine basis is applied as one
    matmul per axis on a C-order view of shape (pre, m, post): the
    symmetric matrix multiplies the last axis from the right and any other
    from the left, so the axes never move.  Its tables are in dtype, the
    dtype of the arrays it is applied to: the eigenvalue sums are formed
    in float64 and rounded once.
    """
    interior = grid.interior_shape
    denom = np.zeros(interior)
    for a, m in enumerate(interior):
        lam = s_pairs[a // 2] * _sine_eigenvalues(m, grid.spacing[a])
        denom = denom + lam.reshape((1,) * a + (m,) + (1,) * (len(interior) - a - 1))
    inv_denom = (1.0 / denom).astype(dtype, copy=False)
    views = [(_sine_matrix(m, dtype), (math.prod(interior[:a]), m,
                                       math.prod(interior[a + 1:])))
             for a, m in enumerate(interior)]

    def transform(r: np.ndarray) -> np.ndarray:
        for mat, (pre, m, post) in views[:-1]:
            r = mat @ r.reshape(pre, m, post)
        mat, (pre, m, _) = views[-1]
        return (r.reshape(pre, m) @ mat).reshape(interior)

    def apply(r: np.ndarray) -> np.ndarray:
        rhat = transform(r)
        rhat *= inv_denom
        return transform(rhat)

    return apply


def bicgstab(matvec, psolve, b: np.ndarray, rtol: float,
             maxiter: int) -> tuple:
    """Solve A x = b from x = 0 by right-preconditioned BiCGStab; returns
    (x, info).

    scipy.sparse.linalg.bicgstab with atol 0: the same recurrences,
    breakdown tests and operation order, so x and info are scipy's bit for
    bit (info 0 when converged, maxiter on a miss, -10 or -11 on a rho or
    omega breakdown; a zero b is returned as x).  It runs in b's dtype,
    from which it takes, like scipy, its breakdown tolerance eps**2.  b is
    only read, and serves as the shadow residual; s is r itself, since
    scipy's s is a copy of r that is read before r moves on.  matvec and
    psolve return new arrays, which it owns: each vector is let go as soon
    as it is spent, before the operator or psolve forms the next, and a
    vector whose last use is a scaled update is scaled in place first.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b, 0
    atol = rtol * float(bnorm)
    breakdown = np.finfo(b.dtype).eps ** 2
    x = np.zeros_like(b)
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(b, r)
        if np.abs(rho) < breakdown:
            return x, -10
        if iteration == 0:
            p = r.copy()
        else:
            if np.abs(omega) < breakdown:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            v *= omega
            p -= v
            del v
            p *= beta
            p += r
        phat = psolve(p)
        v = matvec(phat)
        rv = np.dot(b, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        # x is read nowhere before scipy adds alpha phat and omega shat in
        # turn, so alpha phat goes in now and phat is let go
        phat *= alpha
        x += phat
        del phat
        if np.linalg.norm(r) < atol:
            return x, 0
        shat = psolve(r)
        t = matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        shat *= omega
        x += shat
        t *= omega
        r -= t
        del shat, t
        rho_prev = rho
    return x, maxiter


# the Newton correction solves are inexact: a correction only needs to
# beat the line search's damping granularity, and the Newton loop measures
# the true nonlinear residual anyway, so a 1e-3 relative solve changes
# nothing but the Krylov iteration count
CORRECTION_RTOL = 1e-3
CORRECTION_MAXITER = 500
CORRECTION_ACCEPT_RTOL = 1e-2


def _exponent(arrays) -> int:
    """The e with max |x| over the arrays in [2^(e-1), 2^e): 2^-e brings
    that max into [1/2, 1).  0 for zero or non-finite data."""
    top = max(max(float(x.max()), -float(x.min())) for x in arrays)
    return math.frexp(top)[1]


def _single(x: np.ndarray, shift: int) -> np.ndarray:
    """x 2^shift in float32, rounded once and formed without a float64
    temporary: the power of two is exact."""
    out = np.empty(x.shape, np.float32)
    np.ldexp(x, shift, out=out, casting="same_kind")
    return out


def solve_hermitian_system(grid: Grid, coeffs, rhs: np.ndarray
                           ) -> np.ndarray:
    """Solve L v = rhs with zero Dirichlet data; returns interior values.

    coeffs = (a, g, br, bi) per interior node, and rhs, in float64; the
    correction is returned in float64.  The solve runs in float32
    (coefficients, equilibration, preconditioner tables and every Krylov
    vector; see the module docstring).  The coefficients and rhs are each
    scaled by a power of two to max-abs near 1 before they are rounded,
    and the correction scaled back: the scaling is exact, and data beyond
    float32's range cannot overflow.

    rhs is only read.  A list of coefficients is handed over: it is
    emptied once they are rounded, so a caller holding no other reference
    lets the float64 arrays go before the Krylov iterations start.

    The module's BiCGStab with the sine preconditioner, to CORRECTION_RTOL
    within CORRECTION_MAXITER steps; the scaled rhs is the shadow
    residual.  A solve that BiCGStab reports converged is returned as is;
    only when it reports a miss is the true relative residual formed (one
    more operator application, in float32), and the solve raises if that
    residual is above CORRECTION_ACCEPT_RTOL.
    """
    core = grid.interior
    interior = grid.interior_shape
    if not rhs.any():
        return np.zeros(interior)
    # L is linear in the coefficients: scaling them by 2^-c_exp and rhs by
    # 2^-b_exp solves for the correction times 2^(c_exp - b_exp)
    c_exp = _exponent(coeffs)
    b_exp = _exponent((rhs,))
    a, g, br, bi = [_single(c, -c_exp) for c in coeffs]
    if isinstance(coeffs, list):
        coeffs.clear()
    b = _single(rhs, -b_exp).ravel()
    # H_jj is a quarter of the pair Laplacian d2/dx_j^2 + d2/dy_j^2, so the
    # surrogate is (a/4) lap_1 + (g/4) lap_2 with a and g averaged
    s_pairs = (0.25 * max(float(a.mean()), 1e-300),
               0.25 * max(float(g.mean()), 1e-300))
    precond = make_sine_preconditioner(grid, s_pairs, np.float32)
    # diagonal equilibration wrapped around the spectral solve: the sine
    # basis inverts a constant-coefficient surrogate, so whiten the local
    # coefficient scale first (A ~ S L S with S the square root of the
    # diagonal ratio); reduces to the plain spectral solve for constant
    # coefficients.  Every weight is a Python float, so nothing is
    # promoted to float64
    h = [float(hk) for hk in grid.spacing]
    w01 = 1.0 / h[0] ** 2 + 1.0 / h[1] ** 2
    w23 = 1.0 / h[2] ** 2 + 1.0 / h[3] ** 2
    dconst = s_pairs[0] * w01 + s_pairs[1] * w23
    inv_s = 1.0 / np.sqrt(0.25 * (a * w01 + g * w23) / dconst)
    work = np.zeros(grid.shape, np.float32)

    def matvec(v: np.ndarray) -> np.ndarray:
        work[core] = v.reshape(interior)
        return hermitian_form_apply(work, grid.spacing, a, g, br,
                                    bi).ravel()

    def psolve(v: np.ndarray) -> np.ndarray:
        z = precond(v.reshape(interior) * inv_s)
        z *= inv_s
        return z.ravel()

    x, info = bicgstab(matvec, psolve, b, rtol=CORRECTION_RTOL,
                       maxiter=CORRECTION_MAXITER)
    if info != 0:
        achieved = float(np.linalg.norm(b - matvec(x)) / np.linalg.norm(b))
        if achieved > CORRECTION_ACCEPT_RTOL:
            raise LinearSolveError("newton correction solve did not "
                                   "converge", achieved)
    x = x.reshape(interior).astype(np.float64)
    return np.ldexp(x, b_exp - c_exp, out=x)
