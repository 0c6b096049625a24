"""Tensor-product grids and discrete pluripotential operators.

Coordinates are the real and imaginary parts of z in C^n, ordered
(x1, y1, ..., xn, yn), so a grid over a box in C^n is a 2n-dimensional
tensor product of uniform 1-D meshes.  Fields are stored as C-ordered
ndarrays over the full node set (scalar data) or over the interior node
block (Hessians, densities).

The normalization is dd^c = 2i ddbar, under which

    (dd^c u)^n = 4^n n! det(H[u]) dV,      H[u]_{jk} = d^2 u / dz_j dzbar_k,

with dV the Lebesgue measure on R^{2n}.  For n = 1 the density reduces to
the ordinary Laplacian of u.  The complex Hessian is assembled from real
second differences via

    H_{jk} = ((u_{x_j x_k} + u_{y_j y_k}) + i (u_{x_j y_k} - u_{y_j x_k})) / 4,

using centered stencils: the classical 3-point formula on the diagonal and
the nested 4-point cross formula for mixed terms.  Both are exact on
quadratics, which makes every polynomial of degree <= 2 a useful oracle.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial
from typing import Callable, NamedTuple, Sequence

import numpy as np


# nodes per axis a grid needs so every interior node has its full stencil
MIN_RESOLUTION = 5


class GridError(ValueError):
    """Raised for malformed domains, resolutions, or field data."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-coordinate bounds (length 2n each)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise GridError("box bounds must be nonempty and of equal length")
        if len(lo) % 2 != 0:
            raise GridError("box dimension must be even (pairs x_j, y_j)")
        for a, (l, h) in enumerate(zip(lo, hi)):
            if not (np.isfinite(l) and np.isfinite(h)):
                raise GridError("box bounds must be finite")
            if l >= h:
                raise GridError(f"degenerate box: lo >= hi on axis {a}")
            if not np.isfinite(h - l):
                raise GridError(f"box extent overflows on axis {a}")


def unit_box(n: int) -> Box:
    """The default domain [-1/2, 1/2]^{2n} for problems in C^n."""
    return Box(lo=(-0.5,) * (2 * n), hi=(0.5,) * (2 * n))


class Grid:
    """Uniform node-centered grid over a Box.

    Nodes on the topological boundary of the box carry Dirichlet data;
    every interior node has all axis and diagonal neighbors inside the
    node set, so the full Hessian stencil applies at each of them.  A
    scalar resolution applies to every axis.
    """

    def __init__(self, domain: Box, resolution: int | Sequence[int]):
        if not isinstance(domain, Box):
            raise GridError("grid construction requires a Box domain "
                            "(ball problems use a 1-D radial mesh)")
        if isinstance(resolution, (int, np.integer)):
            resolution = (resolution,) * len(domain.lo)
        res = tuple(int(r) for r in resolution)
        if len(res) != len(domain.lo):
            raise GridError("resolution length must match box dimension")
        for a, r in enumerate(res):
            if r < MIN_RESOLUTION:
                raise GridError(
                    f"resolution {r} on axis {a} leaves the interior too thin "
                    f"(need >= {MIN_RESOLUTION} nodes per axis)")
        self.domain = domain
        self.resolution = res
        self.ndim = len(res)
        self.n = self.ndim // 2
        self.spacing = tuple(
            (domain.hi[a] - domain.lo[a]) / (res[a] - 1) for a in range(self.ndim))
        self.shape = res
        self.axes = tuple(
            np.linspace(domain.lo[a], domain.hi[a], res[a]) for a in range(self.ndim))
        for ax in self.axes:
            ax.setflags(write=False)

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(r - 2 for r in self.resolution)

    @property
    def interior(self) -> tuple[slice, ...]:
        return (slice(1, -1),) * self.ndim

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.resolution))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.interior] = True
        return mask

    def points(self) -> np.ndarray:
        """All node coordinates, shape (*shape, 2n), C storage order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Grid)
                and self.domain == other.domain
                and self.resolution == other.resolution)

    def __hash__(self):
        return hash((self.domain, self.resolution))

    def __repr__(self):
        return f"Grid(n={self.n}, resolution={self.resolution})"


def build_grid(domain: Box, resolution: int | Sequence[int]) -> Grid:
    """Construct a grid; a scalar resolution applies to every axis."""
    return Grid(domain, resolution)


def _as_locked(values: np.ndarray, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """Real values at every node of a grid.  Immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _as_locked(self.values, np.float64)
        if vals.shape != self.grid.shape:
            raise GridError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray]):
        """Evaluate fn on the (*shape, 2n) coordinate array."""
        vals = np.asarray(fn(grid.points()), dtype=np.float64)
        return cls(grid, np.broadcast_to(vals, grid.shape))

    def interior_values(self) -> np.ndarray:
        return self.values[self.grid.interior]


@dataclass(frozen=True)
class HermitianField:
    """An n x n complex Hessian matrix at every interior node."""

    grid: Grid
    values: np.ndarray  # shape (*interior_shape, n, n), complex128

    def __post_init__(self):
        vals = _as_locked(self.values, np.complex128)
        n = self.grid.n
        expected = self.grid.interior_shape + (n, n)
        if vals.shape != expected:
            raise GridError(f"hermitian field shape {vals.shape} != {expected}")
        if not np.all(np.isfinite(vals)):
            raise GridError("hermitian field contains non-finite values")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DensityField:
    """Nonnegative measure density at interior nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _as_locked(self.values, np.float64)
        if vals.shape != self.grid.interior_shape:
            raise GridError(
                f"density shape {vals.shape} != interior {self.grid.interior_shape}")
        if not np.all(np.isfinite(vals)):
            raise GridError("density contains non-finite values")
        if vals.size and vals.min() < 0:
            raise GridError("density must be nonnegative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "DensityField":
        return cls(grid, np.full(grid.interior_shape, float(value)))


def _shift(values: np.ndarray, offsets: dict[int, int]) -> np.ndarray:
    """View of `values` shifted by `offsets` and cropped to the interior block."""
    ndim = values.ndim
    sl = [slice(1, values.shape[a] - 1) for a in range(ndim)]
    for a, o in offsets.items():
        sl[a] = slice(1 + o, values.shape[a] - 1 + o)
    return values[tuple(sl)]


def second_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered d^2/da^2 onto the interior block."""
    return (_shift(values, {axis: 1}) - 2.0 * _shift(values, {})
            + _shift(values, {axis: -1})) / (h * h)


def mixed_difference(values: np.ndarray, ax_a: int, ax_b: int,
                     h_a: float, h_b: float) -> np.ndarray:
    """Nested centered d^2/da db onto the interior block (4-point cross)."""
    return (_shift(values, {ax_a: 1, ax_b: 1}) - _shift(values, {ax_a: 1, ax_b: -1})
            - _shift(values, {ax_a: -1, ax_b: 1})
            + _shift(values, {ax_a: -1, ax_b: -1})) / (4.0 * h_a * h_b)


def _hessian_entries(vals: np.ndarray, h) -> tuple:
    """Real entries of H on the interior block: (H11,) for n = 1 and
    (H11, H22, Re H12, Im H12) for n = 2; grids carry no other n."""
    if vals.ndim not in (2, 4):
        raise GridError("complex Hessians are implemented for n in {1, 2}")
    h11 = 0.25 * (second_difference(vals, 0, h[0])
                  + second_difference(vals, 1, h[1]))
    if vals.ndim == 2:
        return (h11,)
    h22 = 0.25 * (second_difference(vals, 2, h[2])
                  + second_difference(vals, 3, h[3]))
    re12 = 0.25 * (mixed_difference(vals, 0, 2, h[0], h[2])
                   + mixed_difference(vals, 1, 3, h[1], h[3]))
    im12 = 0.25 * (mixed_difference(vals, 0, 3, h[0], h[3])
                   - mixed_difference(vals, 1, 2, h[1], h[2]))
    return h11, h22, re12, im12


def _det_and_eigenvalues(entries) -> tuple:
    """(det H, smallest eigenvalue, largest eigenvalue) from
    _hessian_entries' output."""
    if len(entries) == 1:
        return entries[0], entries[0], entries[0]
    h11, h22, re12, im12 = entries
    off = re12 ** 2 + im12 ** 2
    det = h11 * h22 - off
    disc = np.sqrt(0.25 * (h11 - h22) ** 2 + off)
    mean = 0.5 * (h11 + h22)
    return det, mean - disc, mean + disc


def complex_hessian(u: ScalarField) -> HermitianField:
    """Discrete complex Hessian H[u] at every interior node, n in {1, 2}.

    The lower triangle is the conjugate mirror of the upper one, so
    Hermitian symmetry holds exactly rather than to rounding.
    """
    grid = u.grid
    entries = _hessian_entries(u.values, grid.spacing)
    H = np.zeros(grid.interior_shape + (grid.n, grid.n), dtype=np.complex128)
    H[..., 0, 0] = entries[0]
    if grid.n == 2:
        H[..., 1, 1] = entries[1]
        H[..., 0, 1] = entries[2] + 1j * entries[3]
        H[..., 1, 0] = np.conj(H[..., 0, 1])
    return HermitianField(grid, H)


def ma_normalization(n: int) -> float:
    """The constant 4^n n! relating det H to the Monge-Ampere density."""
    return float(4 ** n) * factorial(n)


class MaDensity(NamedTuple):
    density: DensityField
    psh_defect: float


def ma_density(u: ScalarField) -> MaDensity:
    """Monge-Ampere density 4^n n! det H[u], clamped below at zero.

    Negative determinant values are clamped so the result is a usable
    measure density, and the departure from plurisubharmonicity is
    surfaced as psh_defect = max over nodes of max(0, -lambda_min(H)).
    """
    dens, defect = _density_or_inf(u)
    return MaDensity(DensityField(u.grid, dens), defect)


def _density_or_inf(u: ScalarField) -> tuple:
    """ma_density as (array, psh defect) with a value that overflows (inf,
    or the NaN of inf - inf) set to +inf instead of rejected; a NaN
    eigenvalue makes the psh defect inf.

    Where a density need only dominate data, as a subsolution's or a
    control cap's does, a density too large for floating point does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det, lam, _ = _det_and_eigenvalues(_hessian_entries(u.values,
                                                           u.grid.spacing))
        dens = _clamped_density(det, u.grid.n)
    dens[~np.isfinite(dens)] = np.inf
    return dens, _psh_defect(lam)


def _psh_defect(lam: np.ndarray) -> float:
    """max over nodes of max(0, -lambda_min), or inf when an eigenvalue
    is NaN: an overflowed Hessian (inf - inf) cannot be certified psh."""
    if not lam.size:
        return 0.0
    if np.isnan(lam).any():
        return np.inf
    return float(max(0.0, -lam.min()))


def _clamped_density(det: np.ndarray, n: int) -> np.ndarray:
    """4^n n! det, clamped below at zero."""
    dens = ma_normalization(n) * det
    return np.maximum(dens, 0.0, out=dens)


def integrate(d: DensityField) -> float:
    """Nodal quadrature: sum of interior values times the cell volume.

    numpy's pairwise summation keeps the result deterministic and stable;
    the rule is exact for constants on the interior block.
    """
    return float(d.values.sum()) * d.grid.cell_volume


# ---------------------------------------------------------------------------
# Dump formats.  CSV is one row per node in storage order with shortest
# round-trip float formatting; the binary format is a one-line JSON header
# followed by the raw little-endian float64 payload in storage order.

def _csv_header(n: int) -> str:
    coords = []
    for j in range(1, n + 1):
        coords += [f"x{j}", f"y{j}"]
    return ",".join(coords + ["value", "interior"])


def write_field_csv(field: ScalarField, path) -> None:
    grid = field.grid
    coords = [[repr(float(c)) for c in axis] for axis in grid.axes]
    # storage order is lexicographic in the axes, the order product yields;
    # values and flags are listed one slab of the first axis at a time, so
    # no Python list of the whole field is held
    prefixes = map(",".join, itertools.product(*coords))
    values = itertools.chain.from_iterable(
        slab.ravel().tolist() for slab in field.values)
    flags = itertools.chain.from_iterable(
        slab.ravel().tolist() for slab in grid.interior_mask())
    with open(path, "w") as fh:
        fh.write(_csv_header(grid.n) + "\n")
        fh.writelines(f"{prefix},{value!r},{flag:d}\n"
                      for prefix, value, flag in zip(prefixes, values, flags))


def read_field_csv(path, grid: Grid | None = None) -> ScalarField:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        ndim = len(header) - 2
        coords = []
        vals = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            coords.append([float(p) for p in parts[:ndim]])
            vals.append(float(parts[ndim]))
    coords = np.asarray(coords)
    vals = np.asarray(vals)
    if grid is None:
        axes = []
        for a in range(ndim):
            # storage order is lexicographic, so per-axis node values repeat
            # in runs; unique() recovers the sorted axis.
            axes.append(np.unique(coords[:, a]))
        res = tuple(len(ax) for ax in axes)
        box = Box(lo=tuple(ax[0] for ax in axes), hi=tuple(ax[-1] for ax in axes))
        grid = Grid(box, res)
    if vals.size != grid.num_nodes:
        raise GridError("csv row count does not match grid")
    return ScalarField(grid, vals.reshape(grid.shape))


def write_field_bin(field: ScalarField, path) -> None:
    grid = field.grid
    header = {
        "format": "cmasolve-field",
        "kind": "scalar",
        "lo": list(grid.domain.lo),
        "hi": list(grid.domain.hi),
        "resolution": list(grid.resolution),
        "dtype": "<f8",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field_bin(path) -> ScalarField:
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl].decode("utf-8"))
    if header.get("format") != "cmasolve-field":
        raise GridError("not a cmasolve field dump")
    grid = Grid(Box(lo=tuple(header["lo"]), hi=tuple(header["hi"])),
                tuple(header["resolution"]))
    vals = np.frombuffer(raw[nl + 1:], dtype=header["dtype"]).astype(np.float64)
    if vals.size != grid.num_nodes:
        raise GridError("binary payload size does not match grid")
    return ScalarField(grid, vals.reshape(grid.shape))
