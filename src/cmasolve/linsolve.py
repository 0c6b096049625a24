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
inverse of a constant-coefficient surrogate; their operator is applied by
one fused stencil kernel that accumulates in place.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab

from .errors import SolverError
from .grids import Grid, _cross_views, _shift, second_difference


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
#   L v = scale * [ a (v_x1x1 + v_y1y1) + g (v_x2x2 + v_y2y2)
#                   + 2 br (v_x1x2 + v_y1y2) + 2 bi (v_x1y2 - v_y1x2) ]
#
# where (a, g, br + i bi) are the entries of a Hermitian psd coefficient
# matrix per interior node (the cofactor of the current complex Hessian)
# and scale = 4^n n! / 4.

def hermitian_form_apply(full: np.ndarray, spacing, a, g, br, bi,
                         scale: float) -> np.ndarray:
    """L v on the interior block, for v given on the full grid.

    Accumulates in place into interior-sized buffers: each pair of second
    differences shares one centre term, and the four mixed terms come from
    two first differences, along axes 0 and 1, each shared by the two mixed
    derivatives it enters.  scale and the spacings are folded into scalar
    weights, so no per-node weight array is formed.
    """
    h = spacing
    c = [scale / (hk * hk) for hk in h]
    core = _shift(full, {})
    out = np.empty(core.shape)
    acc = np.empty(core.shape)
    tmp = np.empty(core.shape)
    # a (v_x1x1 + v_y1y1) + g (v_x2x2 + v_y2y2)
    for coef, axes, dst in ((a, (0, 1), out), (g, (2, 3), acc)):
        np.multiply(core, -2.0 * (c[axes[0]] + c[axes[1]]), out=dst)
        for ax in axes:
            np.add(_shift(full, {ax: 1}), _shift(full, {ax: -1}), out=tmp)
            tmp *= c[ax]
            dst += tmp
        dst *= coef
    out += acc
    # 2 br (v_x1x2 + v_y1y2) + 2 bi (v_x1y2 - v_y1x2).  A mixed derivative
    # is a centred difference of a first difference over 4 h_j h_k, so with
    # the factor 2 its weight is scale / (2 h_j h_k).  br pairs axes (0, 2)
    # with (1, 3) and bi pairs (0, 3) with -(1, 2): the axis-0 terms go in
    # first, relative to the weight of their axis-1 partner, so the axis-1
    # first difference can reuse the buffer and be added in place.
    terms = ((acc, 2, scale / (2.0 * h[1] * h[3]), br),
             (tmp, 3, -scale / (2.0 * h[1] * h[2]), bi))
    d = np.subtract(full[2:, 1:-1], full[:-2, 1:-1])
    for part, p, weight, _ in terms:
        np.subtract(*_cross_views(d, p), out=part)
        part *= scale / (2.0 * h[0] * h[p]) / weight
    np.subtract(full[1:-1, 2:], full[1:-1, :-2], out=d)
    for part, p, weight, coef in terms:
        plus, minus = _cross_views(d, 5 - p)
        part += plus
        part -= minus
        part *= weight
        part *= coef
        out += part
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
def _sine_matrix(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix: symmetric and its own inverse; cached per
    size and read-only.

    The phase j k pi / (m + 1) is reduced modulo 2 pi in integers first:
    sin of the unreduced phase (up to about m pi) carries an absolute error
    of order m eps, which left the matrix orthogonal only to about m eps.
    """
    k = np.arange(1, m + 1)
    phase = np.outer(k, k) % (2 * (m + 1))
    mat = np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))
    mat.setflags(write=False)
    return mat


def make_sine_preconditioner(grid: Grid, s_pairs) -> "callable":
    """Inverse of sum_j s_j (d2/dx_j^2 + d2/dy_j^2) on the interior.

    s_pairs holds one positive coefficient per complex coordinate.  With
    every coefficient 1 this is the exact inverse of the interior Dirichlet
    Laplacian (solve_poisson_system); otherwise it is a spectral
    preconditioner for the Hermitian-form operator with the mixed terms
    dropped and coefficients averaged.  The sine basis is applied as one
    matmul per axis on a C-order view of shape (pre, m, post): the
    symmetric matrix multiplies the last axis from the right and any other
    from the left, so the axes never move.
    """
    interior = grid.interior_shape
    denom = np.zeros(interior)
    for a, m in enumerate(interior):
        lam = s_pairs[a // 2] * _sine_eigenvalues(m, grid.spacing[a])
        denom = denom + lam.reshape((1,) * a + (m,) + (1,) * (len(interior) - a - 1))
    inv_denom = 1.0 / denom
    views = [(_sine_matrix(m), (math.prod(interior[:a]), m,
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


# the Newton correction solves are inexact: a correction only needs to
# beat the line search's damping granularity, and the Newton loop measures
# the true nonlinear residual anyway, so a 1e-3 relative solve changes
# nothing but the Krylov iteration count (1e-12 requests hit the cap on
# degenerate regularization rungs and fell back to ~1e-4 quality
# regardless)
CORRECTION_RTOL = 1e-3
CORRECTION_MAXITER = 500
CORRECTION_ACCEPT_RTOL = 1e-2


def solve_hermitian_system(grid: Grid, coeffs, rhs: np.ndarray,
                           scale: float) -> np.ndarray:
    """Solve L v = rhs with zero Dirichlet data; returns interior values.

    coeffs = (a, g, br, bi) per interior node.  BiCGStab with the sine
    preconditioner, to CORRECTION_RTOL within CORRECTION_MAXITER steps.
    A solve that BiCGStab reports converged is returned as is; only when
    it reports a miss is the true relative residual formed (one more
    operator application), and the solve raises if that residual is
    above CORRECTION_ACCEPT_RTOL.
    """
    a, g, br, bi = coeffs
    core = grid.interior
    interior = grid.interior_shape
    size = int(np.prod(interior))
    s_pairs = (scale * max(float(a.mean()), 1e-300),
               scale * max(float(g.mean()), 1e-300))
    precond = make_sine_preconditioner(grid, s_pairs)
    # diagonal equilibration wrapped around the spectral solve: the sine
    # basis inverts a constant-coefficient surrogate, so whiten the local
    # coefficient scale first (A ~ S L S with S the square root of the
    # diagonal ratio); reduces to the plain spectral solve for constant
    # coefficients
    h = grid.spacing
    w01 = 1.0 / h[0] ** 2 + 1.0 / h[1] ** 2
    w23 = 1.0 / h[2] ** 2 + 1.0 / h[3] ** 2
    dconst = s_pairs[0] * w01 + s_pairs[1] * w23
    inv_s = 1.0 / np.sqrt(scale * (a * w01 + g * w23) / dconst)
    work = np.zeros(grid.shape)

    def matvec(v: np.ndarray) -> np.ndarray:
        work[core] = v.reshape(interior)
        return hermitian_form_apply(work, grid.spacing, a, g, br, bi,
                                    scale).ravel()

    def psolve(v: np.ndarray) -> np.ndarray:
        z = precond(v.reshape(interior) * inv_s)
        z *= inv_s
        return z.ravel()

    A = LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    M = LinearOperator((size, size), matvec=psolve, dtype=np.float64)
    b = rhs.ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(interior)
    x, info = bicgstab(A, b, rtol=CORRECTION_RTOL, atol=0.0,
                       maxiter=CORRECTION_MAXITER, M=M)
    if info != 0:
        achieved = float(np.linalg.norm(b - matvec(x)) / bnorm)
        if achieved > CORRECTION_ACCEPT_RTOL:
            raise LinearSolveError("newton correction solve did not "
                                   "converge", achieved)
    return x.reshape(interior)
