"""Matrix-free linear solvers on grid interiors.

Two systems arise.  Constant-coefficient Laplacian problems (the n = 1
equation and Newton initialization in any dimension) are solved directly:
the Dirichlet Laplacian diagonalizes in the sine basis, so one pair of
DST-I transforms (orthonormal scaling, self-inverse) and a division by its
eigenvalues invert it, in the manner of the fast Poisson solvers of
Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7, 1970).  The Newton
correction systems for n = 2 carry variable coefficients and mixed second
derivatives, so those are solved with BiCGStab preconditioned by the same
sine-basis inverse of a constant-coefficient surrogate.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dstn
from scipy.sparse.linalg import LinearOperator, bicgstab

from .errors import SolverError
from .grids import Grid, mixed_difference, second_difference


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
    out = a * (second_difference(full, 0, spacing[0])
               + second_difference(full, 1, spacing[1]))
    out += g * (second_difference(full, 2, spacing[2])
                + second_difference(full, 3, spacing[3]))
    out += (2.0 * br) * (mixed_difference(full, 0, 2, spacing[0], spacing[2])
                         + mixed_difference(full, 1, 3, spacing[1], spacing[3]))
    out += (2.0 * bi) * (mixed_difference(full, 0, 3, spacing[0], spacing[3])
                         - mixed_difference(full, 1, 2, spacing[1], spacing[2]))
    out *= scale
    return out


def _sine_eigenvalues(m: int, h: float) -> np.ndarray:
    k = np.arange(1, m + 1)
    return (2.0 * np.cos(k * np.pi / (m + 1)) - 2.0) / h ** 2


def make_sine_preconditioner(grid: Grid, s_pairs) -> "callable":
    """Inverse of sum_j s_j (d2/dx_j^2 + d2/dy_j^2) on the interior.

    s_pairs holds one positive coefficient per complex coordinate.  With
    every coefficient 1 this is the exact inverse of the interior Dirichlet
    Laplacian (solve_poisson_system); otherwise it is a spectral
    preconditioner for the Hermitian-form operator with the mixed terms
    dropped and coefficients averaged.
    """
    interior = grid.interior_shape
    denom = np.zeros(interior)
    for a, m in enumerate(interior):
        lam = s_pairs[a // 2] * _sine_eigenvalues(m, grid.spacing[a])
        denom = denom + lam.reshape((1,) * a + (m,) + (1,) * (len(interior) - a - 1))

    def apply(r: np.ndarray) -> np.ndarray:
        rhat = dstn(r, type=1, norm="ortho")
        rhat /= denom
        return dstn(rhat, type=1, norm="ortho")

    return apply


def solve_hermitian_system(grid: Grid, coeffs, rhs: np.ndarray, scale: float,
                           rtol: float = 1e-12, maxiter: int = 500,
                           accept_rtol: float = 1e-4) -> np.ndarray:
    """Solve L v = rhs with zero Dirichlet data; returns interior values.

    coeffs = (a, g, br, bi) per interior node.  BiCGStab with the sine
    preconditioner; raises if even accept_rtol relative reduction is out of
    reach within the iteration cap.
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
    s_rel = np.sqrt(scale * (a * w01 + g * w23) / dconst)
    work = np.zeros(grid.shape)

    def matvec(v: np.ndarray) -> np.ndarray:
        work[core] = v.reshape(interior)
        return hermitian_form_apply(work, grid.spacing, a, g, br, bi,
                                    scale).ravel()

    def psolve(v: np.ndarray) -> np.ndarray:
        r = v.reshape(interior) / s_rel
        return (precond(r) / s_rel).ravel()

    A = LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    M = LinearOperator((size, size), matvec=psolve, dtype=np.float64)
    b = rhs.ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(interior)
    x, info = bicgstab(A, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=M)
    achieved = float(np.linalg.norm(b - matvec(x)) / bnorm)
    if info != 0 and achieved > accept_rtol:
        raise LinearSolveError("newton correction solve did not converge",
                               achieved)
    return x.reshape(interior)
