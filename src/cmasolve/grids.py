"""Tensor-product grids and discrete pluripotential operators.

Coordinates are the real and imaginary parts of z in C^n, ordered
(x1, y1, ..., xn, yn), so a grid over a box in C^n is a 2n-dimensional
tensor product of uniform 1-D meshes.  A ScalarField holds C-ordered
values at every node; Hessian entries and densities are plain arrays over
the interior node block, and a density is checked where it is consumed
(solvers._frozen_density, rhs._spatial_factor).

The normalization is dd^c = 2i ddbar, under which

    (dd^c u)^n = 4^n n! det(H[u]) dV,      H[u]_{jk} = d^2 u / dz_j dzbar_k,

with dV the Lebesgue measure on R^{2n}.  For n = 1 the density reduces to
the ordinary Laplacian of u.  The complex Hessian is assembled from real
second differences via

    H_{jk} = ((u_{x_j x_k} + u_{y_j y_k}) + i (u_{x_j y_k} - u_{y_j x_k})) / 4,

using centered stencils: the classical 3-point formula on the diagonal and
the nested 4-point cross formula for mixed terms.  Both are exact on
quadratics, which makes every polynomial of degree <= 2 a useful oracle.

second_difference and mixed_difference give those stencils one at a
time, for the Poisson Laplacian and as the tests' reference.
_hessian_entries, the one complex-Hessian kernel, which Newton's
residual, the correction operator, ma_density and the checks all read,
fuses them and accumulates in place: each diagonal pair of second
differences shares one centre term, the four mixed terms come from two
first differences, along axes 0 and 1, each entering two of them, and the
factor 1/4 and the spacings fold into scalar weights.  Beyond its four
outputs, in its input's dtype, it holds one scratch array and the
first-difference buffer, and it agrees with the composed stencils to
rounding.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class ScalarField:
    """Real values at every node of a grid (or of a radial.BallMesh).
    Immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, order="C", copy=True)
        vals.setflags(write=False)
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


def _cross_views(d: np.ndarray, axis: int):
    """The two views whose difference centres `d` along `axis` (2 or 3).

    `d` is a first difference along axis 0 or 1, already cut to the
    interior of axes 0 and 1 and spanning axes 2 and 3 in full; both views
    are cut to the interior block."""
    plus = [slice(None), slice(None), slice(1, -1), slice(1, -1)]
    minus = list(plus)
    plus[axis], minus[axis] = slice(2, None), slice(None, -2)
    return d[tuple(plus)], d[tuple(minus)]


def _hessian_entries(vals: np.ndarray, h) -> tuple:
    """Real entries of H on the interior block: (H11,) for n = 1 and
    (H11, H22, Re H12, Im H12) for n = 2; grids carry no other n.

    The fused kernel of the module docstring: second_difference and
    mixed_difference composed by the formula there, to rounding.
    """
    if vals.ndim not in (2, 4):
        raise GridError("complex Hessians are implemented for n in {1, 2}")
    core = _shift(vals, {})
    # scratch in vals' dtype: float32 input forms no float64 array
    tmp = np.empty(core.shape, vals.dtype)
    entries = []
    for a, b in ((0, 1), (2, 3))[:vals.ndim // 2]:
        # 0.25 (u_aa + u_bb) = c [(u_+a + u_-a) + r (u_+b + u_-b)
        # - 2 (1 + r) u] with c = 1 / (4 h_a^2) and r = h_a^2 / h_b^2: one
        # centre term for the pair
        r = (h[a] * h[a]) / (h[b] * h[b])
        out = np.add(_shift(vals, {a: 1}), _shift(vals, {a: -1}))
        np.add(_shift(vals, {b: 1}), _shift(vals, {b: -1}), out=tmp)
        tmp *= r
        out += tmp
        np.multiply(core, 2.0 * (1.0 + r), out=tmp)
        out -= tmp
        out *= 0.25 / (h[a] * h[a])
        entries.append(out)
    if vals.ndim == 2:
        return tuple(entries)
    # Re H12 = (u_02 + u_13) / 4 and Im H12 = (u_03 - u_12) / 4.  Each mixed
    # term is a centred difference of a first difference over 4 h_j h_k;
    # the axis-0 terms go in first, relative to the weight of their axis-1
    # partner, so the axis-1 first difference reuses the buffer and is
    # added in place.  The scratch array ends as Im H12
    re12 = np.empty(core.shape, vals.dtype)
    d = np.subtract(vals[2:, 1:-1], vals[:-2, 1:-1])
    for part, p, q in ((re12, 2, 3), (tmp, 3, 2)):
        np.subtract(*_cross_views(d, p), out=part)
        part *= (h[1] * h[q]) / (h[0] * h[p])
    np.subtract(vals[1:-1, 2:], vals[1:-1, :-2], out=d)
    plus, minus = _cross_views(d, 3)
    re12 += plus
    re12 -= minus
    re12 *= 0.25 / (4.0 * h[1] * h[3])
    plus, minus = _cross_views(d, 2)
    tmp -= plus
    tmp += minus
    tmp *= 0.25 / (4.0 * h[1] * h[2])
    return entries[0], entries[1], re12, tmp


def _det_and_eigenvalues(entries) -> tuple:
    """(det H, smallest eigenvalue, largest eigenvalue) from
    _hessian_entries' output."""
    if len(entries) == 1:
        return entries[0], entries[0], entries[0]
    h11, h22, re12, im12 = entries
    # in place, in the operation order of det = h11 h22 - |H12|^2 and
    # mean -+ sqrt(0.25 (h11 - h22)^2 + |H12|^2), so every bit, overflow
    # included, is that of the formula; off's buffer ends as lambda_max
    off = np.multiply(re12, re12)
    disc = np.multiply(im12, im12)
    off += disc
    det = np.multiply(h11, h22)
    det -= off
    np.subtract(h11, h22, out=disc)
    disc *= disc
    disc *= 0.25
    disc += off
    np.sqrt(disc, out=disc)
    np.add(h11, h22, out=off)
    off *= 0.5
    lam1 = np.subtract(off, disc)
    off += disc
    return det, lam1, off


def ma_normalization(n: int) -> float:
    """The constant 4^n n! relating det H to the Monge-Ampere density."""
    return float(4 ** n) * factorial(n)


def ma_density(u: ScalarField) -> tuple[np.ndarray, float]:
    """(density, psh defect) of u: the Monge-Ampere density 4^n n! det H[u]
    at the interior nodes, clamped below at zero, and max over nodes of
    max(0, -lambda_min(H)).

    A density value that overflows (inf, or the NaN of inf - inf) is +inf,
    and a NaN eigenvalue makes the psh defect inf: where a density need
    only dominate data, as a subsolution's or a control cap's does, a
    density too large for floating point does.
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
    # rows are formatted and written one slab of the first axis at a time,
    # so no Python list of the whole field is held.  Each slab takes its
    # own count of the shared prefixes: an unbounded zip would draw, and
    # drop, one more at the end of every slab
    prefixes = map(",".join, itertools.product(*coords))
    with open(path, "w") as fh:
        fh.write(_csv_header(grid.n) + "\n")
        for slab, inner in zip(field.values, grid.interior_mask()):
            rows = zip(itertools.islice(prefixes, slab.size),
                       map(repr, slab.ravel().tolist()),
                       map("01".__getitem__, inner.ravel().tolist()))
            fh.write("\n".join(map(",".join, rows)) + "\n")


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
