"""Macro-micro decomposition: projection onto collision invariants and moments.

The orthogonal projection P maps a species pair onto the six-dimensional
collision-invariant subspace

    span{ [1,0] mu^(1/2), [0,1] mu^(1/2), [v_i, v_i] mu^(1/2),
          [|v|^2 - 3, |v|^2 - 3] mu^(1/2) }

under the discrete quadrature inner product.  The macroscopic fields
(a_+, a_-, b, c) are the coefficients of P f in the analytic basis,
obtained through the 6x6 Gram solve, so P is exactly idempotent and
self-adjoint regardless of quadrature error in the analytic
normalizations; on exact Gaussian moments the coefficients coincide with
the textbook integrals

    a_pm = int mu^(1/2) f_pm dv
    b_i  = 1/2 int v_i mu^(1/2) (f_+ + f_-) dv
    c    = 1/6 int (|v|^2 - 3) mu^(1/2) (f_+ + f_-) dv.

Higher moment functions (applied to the species sum h = f_+ + f_-):

    A_mj(h) = int (v_m v_j - 1) mu^(1/2) h dv
    B_j(h)  = 1/10 int (|v|^2 - 5) v_j mu^(1/2) h dv

and G = <v mu^(1/2), {I-P}f . q1> with q1 = [1, -1] is the microscopic
part of the current density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .phase_grid import SpatialGrid, VelocityGrid


@dataclass
class MacroFields:
    """Collision-invariant coefficients on the spatial grid."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    b: np.ndarray   # shape (3, ...) over the batch/space shape
    c: np.ndarray

    def charge(self) -> np.ndarray:
        return self.a_plus - self.a_minus

    def mean_density(self) -> np.ndarray:
        return 0.5 * (self.a_plus + self.a_minus)


@dataclass
class MomentSet:
    """Second/third moment functions of a pair plus the micro current G."""

    A: np.ndarray    # (3, 3, ...)
    Bv: np.ndarray   # (3, ...)
    G: np.ndarray    # (3, ...)


class MacroProjector:
    """Discrete orthogonal projection onto the collision-invariant subspace."""

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        mu_half = grid.mu_half()
        zero = np.zeros_like(mu_half)
        en = (grid.vsq() - 3.0) * mu_half
        v_mu = grid.v_mu_half
        # basis rows per species (2, 6, n^3): ``coefficients`` and
        # ``assemble`` are one batched GEMM each against them
        self._rows = np.stack([np.stack([mu_half, zero, *v_mu, en]),
                               np.stack([zero, mu_half, *v_mu, en])]).reshape(2, 6, -1)
        self.gram = grid.cell_volume * np.sum(self._rows @ self._rows.transpose(0, 2, 1),
                                              axis=0)
        self._gram_cho = sla.cho_factor(self.gram)

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """Gram-corrected basis coefficients; shape (6, *batch)."""
        batch_shape = f.shape[1:-3]
        flat = f.reshape(2, -1, self.grid.n_v ** 3)
        mom = self.grid.cell_volume * (self._rows @ flat.transpose(0, 2, 1)).sum(axis=0)
        beta = sla.cho_solve(self._gram_cho, mom)
        return beta.reshape((6,) + batch_shape)

    def assemble(self, beta: np.ndarray) -> np.ndarray:
        """Pair field from basis coefficients (inverse of ``coefficients`` on range P)."""
        batch_shape = beta.shape[1:]
        flat = beta.reshape(6, -1).T @ self._rows
        return flat.reshape((2,) + batch_shape + self.grid.shape)

    def macro_fields(self, beta: np.ndarray) -> MacroFields:
        return MacroFields(a_plus=beta[0], a_minus=beta[1], b=beta[2:5], c=beta[5])

    def project(self, f: np.ndarray):
        """Return (P f, MacroFields).  f shape (2, *batch, n, n, n)."""
        beta = self.coefficients(f)
        return self.assemble(beta), self.macro_fields(beta)

    def micro_part(self, f: np.ndarray) -> np.ndarray:
        """{I - P} f."""
        pf, _ = self.project(f)
        return f - pf


def moments(f: np.ndarray, projector: MacroProjector) -> MomentSet:
    """A, B moments of the species sum and the microscopic current G."""
    grid = projector.grid
    v1, v2, v3 = grid.axes()
    mu_half = grid.mu_half()
    vsq = grid.vsq()
    vcomp = [v1 + 0 * vsq, v2 + 0 * vsq, v3 + 0 * vsq]
    n3 = grid.n_v ** 3
    batch_shape = f.shape[1:-3]

    s = (f[0] + f[1]).reshape((-1, n3))
    a = np.empty((3, 3) + (s.shape[0],))
    bv = np.empty((3,) + (s.shape[0],))
    for m in range(3):
        for j in range(m, 3):
            wgt = ((vcomp[m] * vcomp[j] - 1.0) * mu_half).reshape(n3)
            a[m, j] = a[j, m] = grid.cell_volume * (s @ wgt)
        wgt = (0.1 * (vsq - 5.0) * vcomp[m] * mu_half).reshape(n3)
        bv[m] = grid.cell_volume * (s @ wgt)

    micro = projector.micro_part(f)
    diff = (micro[0] - micro[1]).reshape((-1, n3))
    g = np.empty((3,) + (diff.shape[0],))
    for j in range(3):
        wgt = (vcomp[j] * mu_half).reshape(n3)
        g[j] = grid.cell_volume * (diff @ wgt)

    return MomentSet(
        A=a.reshape((3, 3) + batch_shape),
        Bv=bv.reshape((3,) + batch_shape),
        G=g.reshape((3,) + batch_shape),
    )


# ---------------------------------------------------------------------------
# fluid-type residuals on solver histories
# ---------------------------------------------------------------------------


@dataclass
class MacroSnapshot:
    """Per-time macroscopic record used by the fluid residual checks."""

    t: float
    macro: MacroFields
    mom: MomentSet
    b_micro: np.ndarray | None = None    # B_j({I-P}f . [1,1]) fields (3, ...)
    b_source: np.ndarray | None = None   # B_j of the transport/collision source


@dataclass
class FluidResiduals:
    """L2 residuals of the macroscopic conservation laws.

    ``continuity`` and ``charge_continuity`` are the two thresholded
    equations d_t (a_+ + a_-)/2 + div b = 0 and d_t (a_+ - a_-) + div G = 0;
    ``b_equation`` is the reported (not thresholded) third-moment balance,
    evaluated against its source when the history carries one.
    """

    continuity: float
    charge_continuity: float
    b_equation: float | None
    per_time: dict


def _time_derivative(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Second-order time differences along axis 0 (one-sided at endpoints)."""
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-10, atol=1e-14):
        raise ValueError("fluid residuals require uniformly spaced history")
    h = dt[0]
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * h)
    out[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * h)
    out[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * h)
    return out


def fluid_residuals(snaps: list, sgrid: SpatialGrid) -> FluidResiduals:
    """Residuals of the fluid-type conservation laws on a saved history."""
    if len(snaps) < 3:
        raise ValueError("need at least 3 consecutive snapshots for time differencing")
    times = np.array([s.t for s in snaps])

    dens = np.stack([s.macro.mean_density() for s in snaps])
    chg = np.stack([s.macro.charge() for s in snaps])
    bb = np.stack([s.macro.b for s in snaps])        # (T, 3, ...)
    gg = np.stack([s.mom.G for s in snaps])          # (T, 3, ...)

    ddens = _time_derivative(dens, times)
    dchg = _time_derivative(chg, times)

    def div(vec):
        out = np.zeros(vec.shape[1:])
        for axis in range(3):
            out = out + sgrid.derivative(vec[axis], axis)
        return out

    res_c = np.array([np.sqrt(sgrid.norm2(ddens[k] + div(bb[k])))
                      for k in range(len(snaps))])
    res_q = np.array([np.sqrt(sgrid.norm2(dchg[k] + div(gg[k])))
                      for k in range(len(snaps))])

    res_b = None
    per_time = {"continuity": res_c, "charge_continuity": res_q}
    if snaps[0].b_micro is not None:
        bm = np.stack([s.b_micro for s in snaps])
        cc = np.stack([s.macro.c for s in snaps])
        dbm = _time_derivative(bm, times)
        vals = []
        for k in range(len(snaps)):
            lhs = 0.5 * dbm[k] + np.stack(
                [sgrid.derivative(cc[k], axis) for axis in range(3)])
            if snaps[k].b_source is not None:
                lhs = lhs - 0.5 * snaps[k].b_source
            vals.append(np.sqrt(sum(sgrid.norm2(lhs[a]) for a in range(3))))
        res_b_arr = np.array(vals)
        per_time["b_equation"] = res_b_arr
        res_b = float(res_b_arr[1:-1].max()) if len(vals) > 2 else float(res_b_arr.max())

    interior = slice(1, -1)
    return FluidResiduals(
        continuity=float(res_c[interior].max()),
        charge_continuity=float(res_q[interior].max()),
        b_equation=res_b,
        per_time=per_time,
    )
