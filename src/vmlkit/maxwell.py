"""Spectral electromagnetic fields, the field-particle coupling, and constraints.

E and B are stored spectrally (canonical representation); curl and
divergence are exact Fourier multipliers, so d(div B)/dt = 0 holds to
round-off in the linear update and the Gauss-law drift is purely a
time-splitting effect.

The reformulated field equations driven by the perturbation pair are

    dE/dt =  curl B - int v mu^(1/2) (f_+ - f_-) dv
    dB/dt = -curl E

with the compatibility constraints div E = a_+ - a_- and div B = 0.  On
the torus the zero mode of the charge a_+ - a_- must vanish (no periodic
solution of Gauss's law exists for a net charge), which the initializer
enforces.

All four coupling terms between f and (E, B) live here: on the field side
the charge a_+ - a_- (``charge_density``) and the current (``current_density``);
on the kinetic side, for q0 = diag(1, -1) and q1 = [1, -1], the source
E . v mu^(1/2) q1, whose species are ``source_profile`` and its negative,
and, in nonlinear mode, the force -q0 (E + v x B) . grad_v f + (q0/2)
E . v f, which ``nonlinear_terms`` adds to Gamma(f, f) point by point.
The source and the current are linear and local in x, so each takes
physical arrays or spectra alike; the stepper calls them on the Hermitian
half spectra of E and f.  The Lorentz force is a product in x and takes
physical fields only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import landau
from .phase_grid import SpatialGrid, VelocityGrid


@dataclass
class EMField:
    """Electromagnetic pair in spectral representation, shapes (3, *grid.shape)."""

    e_spec: np.ndarray
    b_spec: np.ndarray

    def copy(self) -> "EMField":
        return EMField(self.e_spec.copy(), self.b_spec.copy())

    def e_phys(self, grid: SpatialGrid) -> np.ndarray:
        return grid.inverse(self.e_spec).real

    def b_phys(self, grid: SpatialGrid) -> np.ndarray:
        return grid.inverse(self.b_spec).real

    @staticmethod
    def zero(grid: SpatialGrid) -> "EMField":
        shape = (3,) + grid.shape
        return EMField(np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex))


def _xi_components(grid: SpatialGrid):
    return [grid.xi_component(axis) for axis in range(3)]


def curl_spec(grid: SpatialGrid, x: np.ndarray) -> np.ndarray:
    xi = _xi_components(grid)
    out = np.empty_like(x)
    out[0] = 1j * (xi[1] * x[2] - xi[2] * x[1])
    out[1] = 1j * (xi[2] * x[0] - xi[0] * x[2])
    out[2] = 1j * (xi[0] * x[1] - xi[1] * x[0])
    return out


def div_spec(grid: SpatialGrid, x: np.ndarray) -> np.ndarray:
    xi = _xi_components(grid)
    return 1j * (xi[0] * x[0] + xi[1] * x[1] + xi[2] * x[2])


def charge_density(vgrid: VelocityGrid, f: np.ndarray) -> np.ndarray:
    """a_+ - a_- source: int mu^(1/2) (f_+ - f_-) dv on the x grid."""
    mu_half = vgrid.mu_half()
    return vgrid.integrate((f[0] - f[1]) * mu_half)


def current_density(vgrid: VelocityGrid, f: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """j = int v mu^(1/2) (f_+ - f_-) dv; shape (3, *x_shape).

    Local in x: ``f`` may be physical or a spectrum of it, and j is then
    the same spectrum of the current.  ``work`` (C-contiguous, one species'
    shape and dtype) holds f_+ - f_- in place of a new array.
    """
    rows = vgrid.v_mu_half.reshape(3, -1)
    diff = np.subtract(f[0], f[1], out=work).reshape(-1, rows.shape[1])
    # einsum, not a BLAS GEMM: a threaded GEMM leaves BLAS threads spinning
    # against the collision operator's thread pool that runs next
    return vgrid.cell_volume * np.einsum("xv,av->ax", diff, rows).reshape(
        (3,) + f.shape[1:-3])


def source_profile(vgrid: VelocityGrid, e: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """E . v mu^(1/2), shape (*x, n, n, n): the first species of the source E . v mu^(1/2) q1.

    Local in x, like the source.  E . v is a sum of rank-one products,
    formed by broadcasting (no BLAS call, as in ``current_density``); it
    reaches its full shape only with its last term, which goes to ``out``
    if given, and is then scaled by mu^(1/2) in place.
    """
    v, xv = vgrid.axes(), (Ellipsis, None, None, None)
    ev = 0.0 + e[0][xv] * v[0] + e[1][xv] * v[1]
    ev = np.add(ev, e[2][xv] * v[2], out=out)
    ev *= vgrid.mu_half()
    return ev


def source_current(vgrid: VelocityGrid, e: np.ndarray) -> np.ndarray:
    """The current of the source: ``current_density`` of E . v mu^(1/2) q1.

    The source is E . v mu^(1/2) q1, so its current is 2 h^3 G E with the
    3 x 3 Gram matrix G_ab = sum_v v_a v_b mu of the weight rows; the
    source itself is never formed.  Local in x, like both.
    """
    rows = vgrid.v_mu_half.reshape(3, -1)
    gram = 2.0 * vgrid.cell_volume * np.einsum("av,bv->ab", rows, rows)
    return np.einsum("ab,a...->b...", gram, e)


def _lorentz_force(fd4: np.ndarray, v: tuple, f: np.ndarray, e_phys: np.ndarray,
                   b_phys: np.ndarray, out: np.ndarray) -> None:
    """out += -q0 (E + v x B) . grad_v f + (q0/2) E . v f  (nonlinear mode only).

    grad_v is the fourth-order stencil ``fd4`` (the grid's kept
    ``gradient_o4``) and v the grid's axes.  f is a pair (2, ..., n, n, n)
    and E, B are (3, ...) on the same x points: one point, in a job of
    ``nonlinear_terms``.  Private, as a pool job may call only private
    functions (``landau._on_points``).
    """
    v1, v2, v3 = v
    grad = [landau._apply_axis(fd4, f, j - 3) for j in range(3)]

    def xavv(field_a):
        return field_a[..., None, None, None]

    wx = [
        xavv(e_phys[0]) + v2 * xavv(b_phys[2]) - v3 * xavv(b_phys[1]),
        xavv(e_phys[1]) + v3 * xavv(b_phys[0]) - v1 * xavv(b_phys[2]),
        xavv(e_phys[2]) + v1 * xavv(b_phys[1]) - v2 * xavv(b_phys[0]),
    ]
    adv = wx[0] * grad[0] + wx[1] * grad[1] + wx[2] * grad[2]
    ev = xavv(e_phys[0]) * v1 + xavv(e_phys[1]) * v2 + xavv(e_phys[2]) * v3
    q0 = np.array([1.0, -1.0]).reshape((2,) + (1,) * (f.ndim - 1))
    out += -q0 * adv + 0.5 * q0 * ev * f


def nonlinear_terms(tables: landau.CollisionTables, f: np.ndarray, e_phys: np.ndarray,
                    b_phys: np.ndarray) -> np.ndarray:
    """The force -q0 (E + v x B) . grad_v f + (q0/2) E . v f plus Gamma(f, f).

    On physical f, E and B (nonlinear mode only).  Both are local in x and
    run one x point per job of the convolution pool: ``landau.apply_Gamma``
    writes Gamma into the force array, and a second round of jobs
    (``landau._on_points``) adds each point's Lorentz force
    (``_lorentz_force``) into it, so neither term has a whole-batch
    intermediate.
    """
    force = landau.apply_Gamma(tables, f, f)
    vgrid = tables.grid
    fd4, v = vgrid.gradient_o4(), vgrid.axes()
    e, b = (x.reshape(3, -1) for x in (e_phys, b_phys))
    fp, op = (x.reshape((2, -1) + vgrid.shape) for x in (f, force))
    landau._on_points(lambda a: _lorentz_force(fd4, v, fp[:, a], e[:, a], b[:, a], op[:, a]),
                      fp.shape[1])
    return force


def field_rhs(grid: SpatialGrid, em: EMField, current_spec: np.ndarray):
    """(dE/dt, dB/dt) in spectral space from the current source."""
    if current_spec.shape != em.e_spec.shape:
        raise ValueError("current and field shapes do not match the grid")
    de = curl_spec(grid, em.b_spec) - current_spec
    db = -curl_spec(grid, em.e_spec)
    return de, db


def gauss_residual(grid: SpatialGrid, em: EMField, rho_spec: np.ndarray) -> float:
    """L2 norm of div E - (a_+ - a_-)."""
    res = div_spec(grid, em.e_spec) - rho_spec
    return float(np.sqrt(np.sum(np.abs(res) ** 2)))


def div_b_norm(grid: SpatialGrid, em: EMField) -> float:
    return float(np.sqrt(np.sum(np.abs(div_spec(grid, em.b_spec)) ** 2)))


def make_compatible(grid: SpatialGrid, em_guess: EMField, rho_spec: np.ndarray) -> EMField:
    """Project a field guess onto the Gauss-law and div B = 0 constraints.

    The longitudinal part of E is replaced mode-by-mode by the Poisson
    solution -i xi rho / |xi|^2; B loses its longitudinal component.  A
    charge zero mode above 1e-10 of the largest (or of 1) is rejected: the
    torus requires global neutrality.
    """
    zero_idx = (0,) * grid.n_active
    rho0 = abs(rho_spec[zero_idx])
    scale = max(float(np.max(np.abs(rho_spec))), 1.0)
    if rho0 > 1e-10 * scale:
        raise ValueError(
            f"net charge mode {rho0:.3e} violates torus neutrality; "
            "shift the species densities before initializing fields"
        )

    xi = _xi_components(grid)
    xin2 = np.zeros(grid.shape)
    for m in xi:
        xin2 = xin2 + m * m
    safe = np.where(xin2 > 0.0, xin2, 1.0)

    e = em_guess.e_spec.copy()
    xi_dot_e = xi[0] * e[0] + xi[1] * e[1] + xi[2] * e[2]
    for a in range(3):
        long_old = xi[a] * xi_dot_e / safe
        long_new = -1j * xi[a] * rho_spec / safe
        e[a] = np.where(xin2 > 0.0, e[a] - long_old + long_new, e[a])

    b = em_guess.b_spec.copy()
    xi_dot_b = xi[0] * b[0] + xi[1] * b[1] + xi[2] * b[2]
    for a in range(3):
        b[a] = np.where(xin2 > 0.0, b[a] - xi[a] * xi_dot_b / safe, b[a])

    return EMField(e, b)


def field_energy(em: EMField) -> float:
    """||E||^2 + ||B||^2 (Plancherel, spectral sum)."""
    return float(np.sum(np.abs(em.e_spec) ** 2) + np.sum(np.abs(em.b_spec) ** 2))
