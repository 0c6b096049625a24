"""Output checks computed apart from cmasolve.

Every check returns a list of problems, empty when the output is right.
They use numpy and the file formats the CLI documents, never cmasolve's
own readers or stencils, so a fault in those cannot hide a wrong answer.
The references are closed-form solutions or properties the method must
have (second-order convergence, monotone profiles, falling stability
errors), not stored copies of earlier output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ORDER_BAND = (1.7, 2.3)


def read_field_bin(path):
    """(axes, values) of a binary field dump: JSON header line + <f8."""
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl].decode("utf-8"))
    shape = tuple(int(m) for m in header["resolution"])
    axes = [np.linspace(lo, hi, m)
            for lo, hi, m in zip(header["lo"], header["hi"], shape)]
    values = np.frombuffer(raw[nl + 1:], dtype="<f8").astype(np.float64)
    if values.size != math.prod(shape):
        raise ValueError("binary payload size does not match its header")
    return axes, values.reshape(shape)


def read_table(path):
    """Header names and float rows of a CSV table ('exact'/'' read as nan)."""
    with open(path, encoding="ascii") as fh:
        names = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows.append([float(c) if c not in ("", "exact") else math.nan
                         for c in cells])
    return names, np.array(rows, dtype=float).reshape(-1, len(names))


def _sq_radius(axes):
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return sum(m ** 2 for m in mesh)


def field_files(bin_path, csv_path, exact_fn):
    """The two dumps of one field agree bit for bit and match exact_fn.

    exact_fn maps the squared radius to the closed-form solution; the
    tolerance is max(1e-6, 10 h^2) with h the largest grid spacing.
    """
    problems = []
    axes, u = read_field_bin(bin_path)
    ndim = len(axes)
    # loadtxt parses in C: a Python parse of the dump would hold more
    # memory than the solve and show in the process's peak RSS
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (u.size, ndim + 2):
        return [f"csv dump has {table.shape} cells for a grid of {u.shape}"]
    if not np.array_equal(table[:, ndim], u.ravel()):
        problems.append("csv and binary dumps hold different values")
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    if not np.allclose(table[:, :ndim], points.reshape(-1, ndim),
                       rtol=0.0, atol=1e-14):
        problems.append("csv node coordinates are not the grid's nodes")
    h = max(float(ax[1] - ax[0]) for ax in axes)
    tol = max(1e-6, 10.0 * h * h)
    err = float(np.abs(u - exact_fn(_sq_radius(axes))).max())
    if not err <= tol:
        problems.append(f"field error {err:.3e} exceeds {tol:.3e}")
    return problems


def _interior(u, offsets):
    sl = tuple(slice(1 + offsets.get(a, 0), u.shape[a] - 1 + offsets.get(a, 0))
               for a in range(u.ndim))
    return u[sl]


def _d2(u, a, h):
    return (_interior(u, {a: 1}) - 2.0 * _interior(u, {})
            + _interior(u, {a: -1})) / (h[a] * h[a])


def _dxy(u, a, b, h):
    return (_interior(u, {a: 1, b: 1}) - _interior(u, {a: 1, b: -1})
            - _interior(u, {a: -1, b: 1})
            + _interior(u, {a: -1, b: -1})) / (4.0 * h[a] * h[b])


def ma_residual_n2(bin_path, density_fn, bound):
    """sup |32 det H[u] - G(u, z)| of an n = 2 field dump is <= bound.

    H is the complex Hessian assembled from centred differences,
    H_jk = ((u_xjxk + u_yjyk) + i (u_xjyk - u_yjxk)) / 4; density_fn
    maps (interior u, interior squared radius) to G.
    """
    axes, u = read_field_bin(bin_path)
    if len(axes) != 4:
        return [f"expected an n = 2 field, got {len(axes)} real axes"]
    h = [float(ax[1] - ax[0]) for ax in axes]
    h11 = 0.25 * (_d2(u, 0, h) + _d2(u, 1, h))
    h22 = 0.25 * (_d2(u, 2, h) + _d2(u, 3, h))
    re12 = 0.25 * (_dxy(u, 0, 2, h) + _dxy(u, 1, 3, h))
    im12 = 0.25 * (_dxy(u, 0, 3, h) - _dxy(u, 1, 2, h))
    det = h11 * h22 - (re12 ** 2 + im12 ** 2)
    r2 = _sq_radius([ax[1:-1] for ax in axes])
    resid = float(np.abs(32.0 * det - density_fn(_interior(u, {}), r2)).max())
    if not resid <= bound:
        return [f"recomputed Monge-Ampere residual {resid:.3e} exceeds "
                f"the reported tol_outer_residual {bound:.3e}"]
    return []


def radial_profile(csv_path, exact_fn, coeff=2.0):
    """An (r, v) profile is nondecreasing and within coeff h^2 of exact."""
    names, table = read_table(csv_path)
    if names != ["r", "v"] or table.shape[0] < 3:
        return [f"profile csv has columns {names} and {table.shape[0]} rows"]
    r, v = table[:, 0], table[:, 1]
    problems = []
    h = float(r[1] - r[0])
    tol = coeff * h * h
    err = float(np.abs(v - exact_fn(r)).max())
    if not err <= tol:
        problems.append(f"profile error {err:.3e} exceeds {tol:.3e}")
    drop = float(np.diff(v).min())
    if drop < -1e-12:
        problems.append(f"profile decreases by {-drop:.3e} between nodes")
    return problems


def refinement_orders(csv_path, rows_expected):
    """Observed orders recomputed from (h, err_sup) lie in ORDER_BAND."""
    names, table = read_table(csv_path)
    if names != ["resolution", "h", "err_sup", "err_l2", "order"]:
        return [f"study csv has columns {names}"]
    if table.shape[0] != rows_expected:
        return [f"study csv has {table.shape[0]} rows, "
                f"expected {rows_expected}"]
    h, err, reported = table[:, 1], table[:, 2], table[:, 4]
    problems = []
    for k in range(1, len(h)):
        order = math.log(err[k - 1] / err[k]) / math.log(h[k - 1] / h[k])
        if not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
            problems.append(f"observed order {order:.3f} at row {k} lies "
                            f"outside {ORDER_BAND}")
        if not abs(order - reported[k]) <= 1e-3:
            problems.append(f"row {k} reports order {reported[k]} but its "
                            f"errors give {order:.3f}")
    return problems


def stability_ladder(csv_path, deltas):
    """Errors fall strictly as the perturbation shrinks along deltas."""
    names, table = read_table(csv_path)
    if names != ["delta", "dist_l1", "err_sup"]:
        return [f"stability csv has columns {names}"]
    if table.shape[0] != len(deltas) or not np.array_equal(
            table[:, 0], np.asarray(deltas, dtype=float)):
        return ["stability csv rows do not follow the requested deltas"]
    err = table[:, 2]
    if not np.all(np.diff(err) < 0.0):
        return [f"stability errors do not fall as the perturbation "
                f"shrinks: {err.tolist()}"]
    if not np.all(np.diff(table[:, 1]) < 0.0):
        return ["density distances do not fall with the perturbation"]
    return []


def flags(out: dict, names) -> list[str]:
    """Each named boolean in a JSON summary is true."""
    return [f"{name} is {out.get(name)!r}" for name in names
            if out.get(name) is not True]
