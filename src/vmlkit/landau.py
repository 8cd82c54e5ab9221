"""Landau collision kernel, linearized operator, and anisotropic norms.

The bilinear Landau operator in divergence form, with the first argument
the transported (field) distribution and the second the background:

    Q(F, G)(v) = sum_ij d/dv_i int Phi^ij(v - v*) { G(v*) d_j F(v)
                                                  - (d_j G)(v*) F(v) } dv*

Phi^ij(u) = (delta_ij - u_i u_j / |u|^2) |u|^(gamma+2) is the soft-potential
kernel, gamma in [-3, -2), gamma = -3 the Coulomb case.  ``phi_kernel`` is
its one evaluation: the padded table behind the FFT convolutions and the
difference table behind ``dense_K`` both call it and fix up only the
self-cell.

Linearizing F_pm = mu + mu^(1/2) f_pm about the global Maxwellian gives the
species-pair operator

    L_pm f = 2 A f_pm + K (f_plus + f_minus)

where A is the Maxwellian-background diffusion part and K the convolution
(field-particle) part.  Both are discretized with the exponentially
weighted stencil D_j = mu^(1/2) d/dv_j mu^(-1/2) folded into bounded
coefficients:

    A h = sum_ij D_i^T [ sigma^ij (D_j h) ]
    K h = -sum_ij D_i^T [ mu^(1/2) Phi^ij * (mu^(1/2) D_j h) ]

with sigma^ij = Phi^ij * mu computed by the *same* discrete convolution.
Because the underlying difference stencils are exact on quadratics and
D annihilates mu^(1/2) exactly, the discrete operator is symmetric
positive semidefinite and kills the six collision invariants
span{[1,0], [0,1], [v_i, v_i], [|v|^2, |v|^2]} * mu^(1/2) to round-off,
not merely to truncation order.

Convolutions are evaluated by real FFTs on the zero-padded (2n)^3 box,
with the singular self-cell replaced by the analytic ball average of
|u|^(gamma+2) times the angular mean (2/3) I of the projector.  The
transforms are pruned (``_forward``, ``_inverse``): the forward one never
transforms a line that holds only padding, and the inverse one computes
only the lines that the crop to n^3 keeps.

The matrix-free operators are local in x, and each runs one x point per
job (``_on_points``) on a pool of ``_WORKERS`` threads built on first use:
a job computes the whole operator at its point and writes it into the
point's slice of the result, so at most ``_WORKERS`` points are in flight
and no intermediate spans the batch.  A K job forms D_j, mu^(1/2), the
contracted convolution, mu^(1/2) and D_i^T; a Gamma (or Q) job both
convolutions of its background, Phi^ij * g and sum_j Phi^ij * d_j g, in
one fused kernel, then the y_i products and D_i^T for both species
(``maxwell.nonlinear_terms`` then adds the Lorentz force into Gamma in a
second round of per-point jobs).  ``apply_L`` runs K's jobs and adds the
diffusion part A, which stays a whole-batch call in the caller: its
stencils are small GEMMs, and split over the pool it was slower.  The
stencil GEMMs of a point stay below OpenBLAS's threading size, and numpy's
pocketfft transforms every line the same way whatever the batch, so the
jobs' results are bit-identical to one call over all points.  A single
point (the sigma table, a field with no x axes) is one call in the caller.

The sigma norm here is the unweighted one; the weighted norms of the
functionals integrate the same ``sigma_density`` in
``diagnostics.SpectralSnapshot``.  The dense assemblies build any
selection of rows with numpy alone: A from the stencil planes through each
node, K from windows of the difference table filtered by the stencils.  The direct propagator takes
only the rows at the orbit representatives of the axis permutations, from
which ``PermutationBlocks`` builds the operator's symmetry blocks.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phase_grid import Scratch, VelocityGrid, fd_gradient_matrix

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# threads of the pool that runs the matrix-free operators' x points (read at
# call time, so it may be lowered)
_WORKERS = min(4, _usable_cpus())


def phi_kernel(u1, u2, u3, gamma: float) -> np.ndarray:
    """Landau kernel Phi^ij(u) from the broadcastable components of u.

    Returns shape (3, 3, *u.shape), evaluated one component at a time:
    Phi^ij = |u|^(gamma+2) (delta_ij - u_i u_j / |u|^2).  u = 0 is a genuine
    singularity of the kernel and is rejected; the convolution tables treat
    that cell by its ball average instead (``_phi_regularized``).
    """
    usq = u1 * u1 + u2 * u2 + u3 * u3
    if np.any(usq == 0.0):
        raise ValueError("phi_kernel is singular at u = 0")
    scale = usq ** (0.5 * (gamma + 2.0))
    u = (u1, u2, u3)
    out = np.empty((3, 3) + np.shape(usq))
    for i in range(3):
        for j in range(i, 3):
            # in place, so no table-sized temporaries: (delta_ij - u_i u_j/|u|^2) scale
            phi = out[i, j, ...]
            np.multiply(u[i], u[j], out=phi)
            phi /= usq
            np.subtract(1.0 if i == j else 0.0, phi, out=phi)
            phi *= scale
            out[j, i] = phi
    return out


def _phi_regularized(u1, u2, u3, gamma: float, h: float) -> np.ndarray:
    """``phi_kernel`` on a node table, with the self-cell ball average at u = 0.

    Returns shape (3, 3, *u.shape).  The u = 0 entry is
    (2/3) I * (4 pi / (gamma+5)) r_c^(gamma+5) / h^3 with r_c the radius of
    the ball of volume h^3: the exact cell mean of |u|^(gamma+2) times the
    angular average of the projector.
    """
    sing = (u1 == 0.0) & (u2 == 0.0) & (u3 == 0.0)
    # move the self-cell off the singularity, then overwrite it
    out = phi_kernel(np.where(sing, 1.0, u1), u2, u3, gamma)
    out[:, :, sing] = 0.0
    r_c = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    self_cell = (2.0 / 3.0) * (4.0 * np.pi / (gamma + 5.0)) * r_c ** (gamma + 5.0) / h ** 3
    for i in range(3):
        out[i, i][sing] = self_cell
    return out


@dataclass
class CollisionTables:
    """Precomputed collision data for matrix-free operator application.

    sigma        : (3, 3, n, n, n) Landau collision frequency Phi^ij * mu
    kernel_hat   : rfft of the padded kernel difference table times the cell
                   volume, indexed [i][j] (symmetric entries shared)
    dmat / dtmat : n x n weighted first-derivative stencils per axis,
                   dmat ~ mu^(1/2) d mu^(-1/2), dtmat ~ mu^(-1/2) d mu^(1/2)
    fd           : plain second-order stencil (also the sigma norms' and the
                   diagnostics snapshot's velocity gradient)
    """

    grid: VelocityGrid
    gamma: float
    sigma: np.ndarray
    kernel_hat: list
    dmat: np.ndarray
    dtmat: np.ndarray
    fd: np.ndarray
    mu_half: np.ndarray = field(repr=False)
    bracket_perp: np.ndarray = field(repr=False)  # <v>^((gamma+2)/2)
    vpar: np.ndarray = field(repr=False)          # (3, n, n, n), v/<v>
    pad: int

    @property
    def n(self) -> int:
        return self.grid.n_v


def check_quadrature(n_v: int) -> None:
    """Reject a velocity grid too coarse for the collision quadrature."""
    if n_v < 8:
        raise ValueError(
            f"n_v = {n_v} is too coarse for the collision quadrature (need >= 8)"
        )


def build_collision_tables(grid: VelocityGrid, gamma: float) -> CollisionTables:
    """Assemble kernel FFT tables, collision frequency fields, and stencils.

    The collision frequency is produced by the same padded-FFT convolution
    later used inside the operator, which is what makes the discrete
    cancellation between the diffusion and convolution halves exact on the
    collision invariants.
    """
    check_quadrature(grid.n_v)
    if not (-3.0 <= gamma < -2.0):
        raise ValueError(f"gamma must lie in [-3, -2), got {gamma}")

    n = grid.n_v
    h = grid.spacing
    p = 2 * n
    idx = np.arange(p)
    off = np.where(idx < n, idx, idx - p) * h     # the padded box's offsets
    u1 = off[:, None, None]
    u2 = off[None, :, None]
    u3 = off[None, None, :]
    kern = _phi_regularized(u1, u2, u3, gamma, h) * grid.cell_volume

    kernel_hat = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            # rfft along v_3, then fft along v_1 before v_2 (numpy's default
            # takes v_2 first): the order tests/data and benchmarks/reference
            # were recorded in, so the tables reproduce them bit for bit
            khat = np.fft.rfftn(kern[i, j], axes=(1, 0, 2))
            kernel_hat[i][j] = khat
            kernel_hat[j][i] = khat

    fd = fd_gradient_matrix(grid.nodes_1d)
    g1d = grid.mu_half_1d()
    ratio = g1d[:, None] / g1d[None, :]
    bracket_par = grid.bracket(0.5 * gamma)
    bracket_perp = grid.bracket(0.5 * (gamma + 2.0))
    vn = grid.vnorm()
    vhat = [np.divide(v, vn, out=np.zeros_like(vn), where=vn > 0.0) for v in grid.axes()]
    # the direction of sigma_density's parallel square: v_hat scaled by
    # (1 - b_par^2 / b_perp^2)^(1/2), that is v/<v>
    scale = np.sqrt(1.0 - bracket_par ** 2 / bracket_perp ** 2)
    tables = CollisionTables(
        grid=grid, gamma=gamma, sigma=np.empty((3, 3) + grid.shape), kernel_hat=kernel_hat,
        dmat=fd * ratio,          # mu^(1/2) FD mu^(-1/2)
        dtmat=fd / ratio,         # mu^(-1/2) FD mu^(1/2)
        fd=fd, mu_half=grid.mu_half(), bracket_perp=bracket_perp,
        vpar=np.stack([scale * u for u in vhat]), pad=p)
    _components_kernel(tables, [grid.mu()], tables.sigma)
    return tables


# ---------------------------------------------------------------------------
# convolution and stencil primitives
# ---------------------------------------------------------------------------


def _apply_axis(mat: np.ndarray, arr: np.ndarray, axis: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Contract a stencil matrix along one of the last three (velocity) axes.

    Without ``out`` the result is a new array.  ``out`` (arr's shape and
    dtype) receives it in place instead; arr and out must then be real and
    C-contiguous, and the contraction runs as one GEMM along the last axis
    and one GEMM per leading index along the other two, however many fields
    arr stacks (``diagnostics.SpectralSnapshot``'s derivative tree).
    """
    if out is None:
        return np.moveaxis(np.moveaxis(arr, axis, -1) @ mat.T, -1, axis)
    n = arr.shape[axis]
    if axis == -1:
        np.matmul(arr.reshape(-1, n), mat.T, out=out.reshape(-1, n))
    else:
        lines = (-1, n, math.prod(arr.shape[axis + 1:]))
        np.matmul(mat, arr.reshape(lines), out=out.reshape(lines))
    return out


def _forward(arr: np.ndarray, p: int) -> np.ndarray:
    """rfftn of ``arr`` zero-padded to (p, p, p), without transforming the zeros.

    rfft along the last axis over the n x n data lines only, then fft along
    axis -2 over the n data planes, then along axis -3 (a pruned transform:
    Sorensen and Burrus, IEEE Trans. Signal Process. 41, 1993).  The lines
    are zero-padded by writing them into a zeroed spectrum, which both fft
    passes then transform in place: numpy pads a strided axis more slowly.
    """
    n = arr.shape[-1]
    spec = np.zeros(arr.shape[:-3] + (p, p, p // 2 + 1), dtype=complex)
    planes = spec[..., :n, :, :]
    planes[..., :n, :] = np.fft.rfft(arr, n=p, axis=-1)
    np.fft.fft(planes, axis=-2, out=planes)
    return np.fft.fft(spec, axis=-3, out=spec)


def _inverse(spec: np.ndarray, n: int) -> np.ndarray:
    """The [:n, :n, :n] corner of irfftn(spec), computing only the lines kept.

    ifft along axis -3, keep n planes; ifft along axis -2, keep n rows;
    irfft of the n x n kept lines.  ``spec`` is overwritten.
    """
    p = spec.shape[-3]
    np.fft.ifft(spec, axis=-3, out=spec)
    planes = spec[..., :n, :, :]
    np.fft.ifft(planes, axis=-2, out=planes)
    return np.fft.irfft(planes[..., :n, :], n=p, axis=-1)[..., :n]


def _components_kernel(tables: CollisionTables, w: list, out: np.ndarray) -> None:
    """out[i, j] = Phi^ij * w[0]; ``out`` is (3, 3, *lead, n, n, n)."""
    what = _forward(w[0], tables.pad)
    for i in range(3):
        for j in range(i, 3):
            out[i, j] = _inverse(tables.kernel_hat[i][j] * what, tables.n)
            out[j, i] = out[i, j]


def _contracted_kernel(tables: CollisionTables, w: list, out: np.ndarray) -> None:
    """out[i] = sum_j Phi^ij * w[j]; ``out`` is (3, *lead, n, n, n)."""
    what = [_forward(wj, tables.pad) for wj in w]
    for i in range(3):
        acc = tables.kernel_hat[i][0] * what[0]
        acc += tables.kernel_hat[i][1] * what[1]
        acc += tables.kernel_hat[i][2] * what[2]
        out[i] = _inverse(acc, tables.n)


def _bilinear_kernel(tables: CollisionTables, w: list, out: np.ndarray) -> None:
    """Both convolutions of a Landau bilinear term, w = [g, dg_0, dg_1, dg_2].

    out[:9] holds Phi^ij * g as (3, 3) and out[9:] sum_j Phi^ij * dg_j;
    ``out`` is (12, *lead, n, n, n).
    """
    _components_kernel(tables, w[:1], out[:9].reshape((3, 3) + out.shape[1:]))
    _contracted_kernel(tables, w[1:], out[9:])


_POOLS: dict = {}


def _pool():
    """The convolution thread pool of ``_WORKERS`` threads, built on first use."""
    pool = _POOLS.get(_WORKERS)
    if pool is None:
        # imported here: concurrent.futures also loads logging and queue
        # (about 0.7 MB and 5 ms), and a direct run never builds the pool
        from concurrent.futures import ThreadPoolExecutor
        pool = _POOLS[_WORKERS] = ThreadPoolExecutor(
            _WORKERS, thread_name_prefix="vmlkit-conv")
    return pool


def _on_points(job, m: int) -> None:
    """Run ``job(a)`` for the x points a = 0..m-1, one point per job.

    On the pool, so at most ``_WORKERS`` points are in flight and no
    intermediate grows with the number of points; in the caller for one
    point or one worker.  Each job writes only its own point's slice of the
    result, and calls no public function or method of the package: the
    benchmark's tracer (``benchmarks/worker.py``) wraps those with one span
    stack, which a pool thread would corrupt.  numpy's pocketfft transforms
    every line the same way whatever the batch, and a point's stencils are
    the same small GEMMs as in a batch (none reaches OpenBLAS's threading
    size), so the result is bit-identical to one call over all points.
    """
    if m < 2 or _WORKERS < 2:
        for a in range(m):
            job(a)
        return
    pool = _pool()
    for done in [pool.submit(job, a) for a in range(m)]:
        done.result()


def _by_point(arr: np.ndarray, head: int = 0) -> np.ndarray:
    """arr (*head, *x, n, n, n) as (*head, points, n, n, n); a view of a C-contiguous arr."""
    return arr.reshape(arr.shape[:head] + (-1,) + arr.shape[-3:])


def apply_A(tables: CollisionTables, h: np.ndarray) -> np.ndarray:
    """Diffusion half: A h = sum_ij D_i^T [sigma^ij D_j h]; symmetric PSD."""
    xi = [_apply_axis(tables.dmat, h, j - 3) for j in range(3)]
    out = np.zeros_like(h)
    for i in range(3):
        t_i = tables.sigma[i, 0] * xi[0]
        t_i += tables.sigma[i, 1] * xi[1]
        t_i += tables.sigma[i, 2] * xi[2]
        out += _apply_axis(tables.dmat.T, t_i, i - 3)
    return out


def _k_point(tables: CollisionTables, h: np.ndarray, out: np.ndarray) -> None:
    """out = K h for one x point: D_j, mu^(1/2), the contracted convolution, mu^(1/2), D_i^T."""
    m = tables.mu_half
    w = [m * _apply_axis(tables.dmat, h, j - 3) for j in range(3)]
    s = np.empty((3,) + h.shape)
    _contracted_kernel(tables, w, s)
    out[...] = 0.0
    for i in range(3):
        out -= _apply_axis(tables.dmat.T, m * s[i], i - 3)


def apply_K(tables: CollisionTables, h: np.ndarray) -> np.ndarray:
    """Convolution half: K h = -sum_ij D_i^T [mu^(1/2) Phi^ij * (mu^(1/2) D_j h)].

    One x point per job (``_on_points``), each the whole of K at its point.
    """
    out = np.empty(h.shape)
    hp, op = _by_point(h), _by_point(out)
    _on_points(lambda a: _k_point(tables, hp[a], op[a]), len(hp))
    return out


def apply_L(tables: CollisionTables, f: np.ndarray) -> np.ndarray:
    """Linearized collision operator on a species pair.

    f has shape (2, ..., n, n, n); returns L f = [2 A f_+ + K s, 2 A f_- + K s]
    with s = f_+ + f_-.  Symmetric and positive semidefinite on pairs, with
    the six-dimensional collision-invariant null space annihilated exactly.
    K s runs in ``apply_K``'s per-point jobs.
    """
    ks = apply_K(tables, f[0] + f[1])
    out = np.empty(f.shape)
    for sp in range(2):
        np.multiply(apply_A(tables, f[sp]), 2.0, out=out[sp])
        out[sp] += ks
    return out


def _flux_divergence(outer: np.ndarray, conv: np.ndarray, flux: np.ndarray,
                     grads: list, h: np.ndarray, out: np.ndarray) -> None:
    """out = -sum_i outer_i [sum_j conv^ij grads_j - flux_i h], outer_i along v_i.

    The divergence form of a Landau bilinear term at one point, from its
    two convolutions (``_bilinear_kernel``).
    """
    out[...] = 0.0
    for i in range(3):
        y_i = conv[i, 0] * grads[0]
        y_i += conv[i, 1] * grads[1]
        y_i += conv[i, 2] * grads[2]
        y_i -= flux[i] * h
        out -= _apply_axis(outer, y_i, i - 3)


def _bilinear_point(tables: CollisionTables, g: np.ndarray, dg: list) -> tuple:
    """Phi^ij * g as (3, 3, ...) and sum_j Phi^ij * dg_j at one point, one job."""
    conv = np.empty((12,) + g.shape)
    _bilinear_kernel(tables, [g, *dg], conv)
    return conv[:9].reshape((3, 3) + g.shape), conv[9:]


def apply_Q(F: np.ndarray, G: np.ndarray, tables: CollisionTables) -> np.ndarray:
    """Bilinear Landau operator Q(F, G); F transported, G background.

    Conservative divergence form: the outer derivative is the negative
    transpose of the gradient stencil, so the velocity integral of the
    output vanishes to round-off for any inputs.  Momentum and energy
    moments of the symmetrized pair Q(F, G) + Q(G, F) also vanish to
    round-off thanks to the pointwise identity Phi(u) u = 0.  One x point
    per job, as ``apply_Gamma``.
    """
    shape = np.broadcast_shapes(F.shape, G.shape)
    out = np.empty(shape)
    fp, gp = (_by_point(np.broadcast_to(x, shape)) for x in (F, G))
    op, fd = _by_point(out), tables.fd

    def job(a):
        conv, flux = _bilinear_point(tables, gp[a], [_apply_axis(fd, gp[a], j - 3)
                                                     for j in range(3)])
        grads = [_apply_axis(fd, fp[a], j - 3) for j in range(3)]
        _flux_divergence(fd.T, conv, flux, grads, fp[a], op[a])

    _on_points(job, len(op))
    return out


def apply_Gamma(tables: CollisionTables, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Nonlinear collision term Gamma(f, g) on species pairs.

    Gamma_pm(f, g) = mu^(-1/2) Q(mu^(1/2) f_pm, mu^(1/2)(g_+ + g_-)), with
    every mu^(+-1/2) factor folded into bounded stencil coefficients; the
    result is algebraically identical to the unweighted conservative Q, so
    the species mass moments vanish to round-off and the momentum/energy
    moments of Gamma(f, f) do as well.

    One x point per job (``_on_points``): a job forms both convolutions of
    g_+ + g_-, the y_i products and D_i^T for both species, written into
    its point's slice of the result.
    """
    out = np.empty(f.shape)
    fp, gp, op = _by_point(f, 1), _by_point(g, 1), _by_point(out, 1)
    m = tables.mu_half

    def job(a):
        sg = gp[0, a] + gp[1, a]
        # D^t_j = (d/dv_j - v_j/2) = mu^(-1/2) d_j mu^(1/2), the folded stencil
        conv, flux = _bilinear_point(tables, m * sg, [m * _apply_axis(tables.dtmat, sg, j - 3)
                                                      for j in range(3)])
        for sp in range(2):
            h = fp[sp, a]
            grads = [_apply_axis(tables.dtmat, h, j - 3) for j in range(3)]
            _flux_divergence(tables.dmat.T, conv, flux, grads, h, op[sp, a])

    _on_points(job, fp.shape[1])
    return out


# ---------------------------------------------------------------------------
# anisotropic sigma norms
# ---------------------------------------------------------------------------


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise, without a square root for complex input."""
    if not np.iscomplexobj(z):
        return z * z
    out = z.real * z.real
    out += z.imag * z.imag
    return out


def sigma_density(tables: CollisionTables, sq: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise integrand of the unweighted anisotropic norm of h, from its squares.

        <v>^(gamma+2) (|h|^2 + |g_perp|^2) + <v>^gamma |g_par|^2

    with g = grad_v h split as g_par = g . v_hat and g_perp = g - g_par v_hat,
    v_hat = v/|v| and v_hat = 0 at the v = 0 node (where the whole gradient
    counts as transverse).  |g_perp|^2 = |g|^2 - |g_par|^2 wherever
    |v_hat| = 1 and g_par = 0 at the origin, and b_par^2 - b_perp^2 =
    -b_perp^2 (1 - b_par^2 / b_perp^2), so the density is exactly

        b_perp^2 (|h|^2 + sum_j |g_j|^2 - |g . u|^2),  u = ``tables.vpar``,

    with b_perp = <v>^((gamma+2)/2), b_par = <v>^(gamma/2) and
    u = v_hat (1 - b_par^2 / b_perp^2)^(1/2) = v/<v>.  ``sq`` is the bracket
    |h|^2 + sum_j |g_j|^2 - |g . u|^2, or any sum of such brackets: the
    density is linear in the squares, so ``sigma_norm_sq`` applies it per
    point and ``diagnostics.SpectralSnapshot`` once to its mode-contracted
    sums.  ``out`` (sq's shape) receives the density.
    """
    return np.multiply(sq, tables.bracket_perp ** 2, out=out)


def sigma_norm_sq(f: np.ndarray, tables: CollisionTables) -> np.ndarray:
    """Squared unweighted anisotropic norm |f|_sigma^2 per leading batch element.

    |f|^2 = int [ <v>^(gamma+2) f^2 + <v>^gamma (par grad)^2
                  + <v>^(gamma+2) |perp grad|^2 ] dv

    the integral of ``sigma_density``, with the finite-difference gradient.
    The weighted norms of the functionals are the snapshot's
    (``diagnostics.SpectralSnapshot.weighted``).
    """
    grad = [_apply_axis(tables.fd, f, j - 3) for j in range(3)]
    sq = _abs2(f) + sum(_abs2(g) for g in grad)
    sq -= _abs2(sum(u * g for u, g in zip(tables.vpar, grad)))
    return tables.grid.integrate(sigma_density(tables, sq, out=sq))


def sigma_norm(f: np.ndarray, tables: CollisionTables) -> float:
    """Anisotropic norm of a v-field or species pair (summed over batch)."""
    return float(np.sqrt(np.sum(sigma_norm_sq(f, tables))))


def pair_inner(tables: CollisionTables, f: np.ndarray, g: np.ndarray) -> float:
    """Quadrature inner product over species and velocity."""
    return float(tables.grid.cell_volume * np.sum(f * g))


# ---------------------------------------------------------------------------
# coercivity measurement
# ---------------------------------------------------------------------------


@dataclass
class CoercivityReport:
    min_ratio: float
    median_ratio: float
    ratios: np.ndarray
    argmin_sample: int
    offending: np.ndarray | None = None


def smooth_sample_basis(grid: VelocityGrid) -> np.ndarray:
    """Monomials of total degree <= 3 times mu^(1/2); coercivity samples.

    Smooth resolved functions make the sampled spectral gap a grid-stable
    surrogate of the continuum constant; node-level white noise instead
    probes stencil artifacts that drift with resolution.
    """
    v1, v2, v3 = grid.axes()
    mu_half = grid.mu_half()
    out = []
    for p in range(4):
        for q in range(4 - p):
            for r in range(4 - p - q):
                out.append((v1 ** p * v2 ** q * v3 ** r + 0.0 * mu_half) * mu_half)
    return np.stack(out)


def coercivity_gap(tables: CollisionTables, projector,
                   n_samples: int = 100) -> CoercivityReport:
    """Sampled spectral gap min <L f, f> / |{I-P} f|_sigma^2 over random micro f.

    ``projector`` maps a species pair to its microscopic part (see
    MacroProjector.micro_part).  Standard-normal coefficient vectors over the
    smooth polynomial-Maxwellian basis are drawn with a fixed seed,
    projected to the microscopic subspace, and the Rayleigh-type ratio is
    recorded.  A nonpositive minimum also records the offending sample
    (``offending``), for the caller that checks ``min_ratio > 0``.
    """
    rng = np.random.default_rng(2202)
    basis = smooth_sample_basis(tables.grid)
    nb = basis.shape[0]
    ratios = np.empty(n_samples)
    coeffs = rng.standard_normal((n_samples, 2, nb))
    for k in range(n_samples):
        f = np.einsum("sb,bxyz->sxyz", coeffs[k], basis)
        fm = projector(f)
        denom = float(np.sum(sigma_norm_sq(fm, tables)))
        if denom <= 0.0:
            raise ValueError("sample projected to zero; pure-macro input rejected")
        num = pair_inner(tables, apply_L(tables, fm), fm)
        ratios[k] = num / denom
    imin = int(np.argmin(ratios))
    report = CoercivityReport(
        min_ratio=float(ratios[imin]),
        median_ratio=float(np.median(ratios)),
        ratios=ratios,
        argmin_sample=imin,
    )
    if report.min_ratio <= 0.0:
        report.offending = projector(
            np.einsum("sb,bxyz->sxyz", coeffs[imin], basis))
    return report


# ---------------------------------------------------------------------------
# dense assembly (small grids: oracle and eigenstudies)
# ---------------------------------------------------------------------------

def dense_A(tables: CollisionTables, rows: np.ndarray | None = None) -> np.ndarray:
    """Rows of the dense A = sum_ij D_i^T sigma^ij D_j, from the stencil planes.

    ``rows`` selects flat velocity indices (all of them by default).  Row a
    is A e_a (A is symmetric), and D_j e_a lives on the axis-j line through
    a: the (i, j) term is dmat[a_i, :] x (sigma^ij dmat[:, a_j] on that
    line) on the i-j plane through a, the (i, i) term the line
    dmat^T (sigma^ii dmat[:, a_i]).  Per cyclic pair (i, j), the (i, j) and
    (j, i) terms and the axis-i line (times e_(a_j)) are one rank-3 product,
    added to the zeroed rows in one scatter.
    """
    n, dmat = tables.n, tables.dmat
    rows = np.arange(n ** 3) if rows is None else np.asarray(rows)
    a, t = np.unravel_index(rows, (n, n, n)), np.arange(n)

    def line(i, j):
        """sigma^ij on the axis-j line through each row's node, times dmat[:, a_j]."""
        on_line = tuple(t if m == j else a[m][:, None] for m in range(3))
        return tables.sigma[i, j][on_line] * dmat.T[a[j]]

    out = np.zeros((len(rows), n, n, n))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        plane = np.matmul(np.stack([dmat[a[i]], line(j, i), line(i, i) @ dmat], axis=2),
                          np.stack([line(i, j), dmat[a[j]], t == a[j][:, None]], axis=1))
        at = tuple(a[m] if m == 3 - i - j else slice(None) for m in range(3))
        out[(np.arange(len(rows)), *at)] += plane if i < j else plane.transpose(0, 2, 1)
    return out.reshape(len(rows), n ** 3)


def dense_K(tables: CollisionTables, rows: np.ndarray | None = None) -> np.ndarray:
    """Rows of the dense K = -sum_ij S_i^T C_ij S_j with S_j = mu^(1/2) D_j.

    ``rows`` selects flat velocity indices (all of them by default).  With
    C_ij[a, b] = T_ij(v_a - v_b) from the (2n-1)^3 difference table and
    g = mu^(1/2) dmat mu^(-1/2) on one axis, K[a, c] = -mu^(1/2)(a) mu^(1/2)(c)
    sum_ij sum g[beta, a_i] g[delta, c_j] T_ij(b - d), b (d) being a (c)
    with beta (delta) on axis i (j).  Per cyclic pair (i, j), the (i, j),
    (j, i) and (i, i) terms are one filtered table P[a_i, c_i, a_j, c_j, o_k],
    and row a is the sum of three n^3 windows P[a_i, :, a_j, :, a_k - c_k].
    """
    grid = tables.grid
    n, h, m = grid.n_v, grid.spacing, 2 * grid.n_v - 1
    rows = np.arange(n ** 3) if rows is None else np.asarray(rows)
    d = np.arange(-(n - 1), n) * h
    table = _phi_regularized(d[:, None, None], d[None, :, None], d[None, None, :],
                             tables.gamma, h) * grid.cell_volume
    g1d = grid.mu_half_1d()
    g = tables.dmat * (g1d[:, None] / g1d[None, :])
    # one table axis (index u: offset u + 1 - n) as (u, a, c) maps: row side
    # fi[u, a, c] = g[u + c + 1 - n, a], column side fj[u, a, c] = fi[m-1-u, c, a],
    # both sides fi g, and the plain read [u = a - c + n - 1]
    t, u = np.arange(n), np.arange(m)[:, None, None]
    beta = u + t - (n - 1)
    fi = np.where((beta >= 0) & (beta < n), g.T[t[:, None], np.clip(beta, 0, n - 1)], 0.0)
    fj = fi[::-1].transpose(0, 2, 1)
    row_side = np.stack([fi, fj, fi @ g]).reshape(3, 1, m, n * n).transpose(0, 1, 3, 2)
    col_side = np.concatenate([fj, fi, u == t[:, None] - t + (n - 1)])
    col_side = col_side.reshape(3 * m, n, n).transpose(1, 2, 0)
    windows = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        k = 3 - i - j
        tij, tii = (np.moveaxis(table[p, q], (j, i, k), (0, 1, 2)) for p, q in ((i, j), (i, i)))
        # axis i per (u_j, o_k), then axis j per (a_i c_i, a_j): at n <= 16 GEMMs
        # small enough to run on the calling thread, as a threaded one stalls on
        # a busy host and leaves BLAS threads spinning against the inversion next
        x = np.matmul(row_side, np.stack([tij, tij, tii]))
        x = x.reshape(3 * m, n * n, m).transpose(1, 0, 2)[:, None]
        pair = np.matmul(col_side, x).reshape(n, n, n, n, m)   # (a_i, c_i, a_j, c_j, o_k)
        # (a_i, a_j, c or o per axis), the offsets reversed, so the window of
        # row a starts at n - 1 - a_k
        ax = [{i: 1, j: 3, k: 4}[q] for q in range(3)]
        view = sliding_window_view(pair[..., ::-1].transpose([0, 2] + ax), n, axis=2 + k)
        windows.append((np.moveaxis(view, (2 + k, -1), (2, 3 + k)), (i, j, k)))
    a = np.unravel_index(rows, (n, n, n))
    out = np.empty((len(rows), n, n, n))
    step = max(1, 2 ** 18 // n ** 3)          # rows per chunk: 2 MB of output
    for lo in range(0, len(rows), step):
        sl = slice(lo, lo + step)
        chunk = out[sl]
        chunk[...] = sum(view[a[i][sl], a[j][sl], n - 1 - a[k][sl]]
                         for view, (i, j, k) in windows)
        chunk *= -tables.mu_half.ravel()[rows[sl], None, None, None]
        chunk *= tables.mu_half
    return out.reshape(len(rows), n ** 3)


def dense_L(tables: CollisionTables) -> np.ndarray:
    """Full dense pair operator [[2A+K, K], [K, 2A+K]], (2 n_v^3)^2 doubles."""
    k = dense_K(tables)
    diag = 2.0 * dense_A(tables) + k
    return np.block([[diag, k], [k, diag]])


# ---------------------------------------------------------------------------
# axis-permutation blocks of the dense operators
# ---------------------------------------------------------------------------

_PERMS = list(itertools.permutations(range(3)))
# orthonormal basis of the plane orthogonal to (1, 1, 1): the standard
# representation of the axis permutations is D(g) = W^T P(g) W
_W = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])


class PermutationBlocks:
    """Orthonormal basis of velocity fields adapted to the permutations of (v1, v2, v3).

    The grid is the same on every axis, so A and K commute with the six
    axis permutations.  The orbit of a node under them has 1, 3 or 6 nodes;
    its representative is the sorted index triple.  Each orbit carries one
    fixed small orthogonal transform to the irreducible representations
    (Fassler and Stiefel, Group Theoretical Methods and Their Applications,
    1992):

    - 1 node: trivial;
    - 3 nodes, listed by the position of the odd index: trivial + standard;
    - 6 nodes, listed as g(rep) over the permutations g: trivial + sign +
      twice the standard, with coefficients sqrt(d/6) D(g) of the
      irreducible matrices D.

    Every standard vector transforms by the same matrices D(g), so by
    Schur's lemma an invariant operator is block diagonal in this basis:
    a trivial block (one vector per orbit), a sign block (one per 6-node
    orbit), and two equal standard blocks, one per row of the 2-d
    representation.  ``forward`` returns a batch's coordinates in the
    blocks as [trivial, sign, standard] arrays, the standard one with both
    rows stacked, so each block acts by one GEMM; ``inverse`` maps them
    back.  ``block_matrices`` builds the blocks of an invariant operator
    from its rows at ``reps`` alone: every other row is a column
    permutation of its representative's.
    """

    def __init__(self, n: int):
        self.size = n ** 3
        idx = np.indices((n, n, n)).reshape(3, -1)
        rep = idx[:, (idx[0] <= idx[1]) & (idx[1] <= idx[2])]
        eq01, eq12 = rep[0] == rep[1], rep[1] == rep[2]
        place = np.array([n * n, n, 1])     # flat index = place @ index triple
        one, two, six = (rep[:, eq01 & eq12], rep[:, eq01 != eq12],
                         rep[:, ~eq01 & ~eq12])
        self.orbits = (one.shape[1], two.shape[1], six.shape[1])
        self.reps = np.concatenate([place @ one, place @ two, place @ six])
        # a 3-node orbit (p, p, o) or (o, p, p): node m has o at position m,
        # so the permutations act on its nodes as on the positions
        odd_at = np.where(eq01[eq01 != eq12], 2, 0)
        pair, odd = two[1], np.where(odd_at == 2, two[2], two[0])
        nodes3 = pair * place.sum() + (odd - pair) * place[:, None]
        nodes6 = np.stack([place[list(g)] @ six for g in _PERMS])
        self._order = np.concatenate([self.reps[:one.shape[1]], nodes3.ravel(),
                                      nodes6.ravel()])
        self._unorder = np.argsort(self._order)
        # rows: trivial, then the standard rows 0 and 1
        self._t3 = np.vstack([np.full(3, 3.0 ** -0.5), _W.T])
        # rows: trivial, sign, then the standard (row p, copy q) at 2 + 2p + q
        self._t6 = np.empty((6, 6))
        for c, g in enumerate(_PERMS):
            p = np.zeros((3, 3))
            p[list(g), range(3)] = 1.0
            d = _W.T @ p @ _W
            self._t6[:, c] = [1.0, np.linalg.det(p), *(np.sqrt(2.0) * d.ravel())]
        self._t6 /= np.sqrt(6.0)
        # a 3-node orbit's standard vectors are sqrt(2/3) D(g) u with the
        # unit u = sqrt(3/2) W[m]: the row of its representative's node m
        self._w_rep = _W[odd_at]

    def forward(self, x: np.ndarray, scratch: Scratch) -> list:
        """Block coordinates of the rows of x (m, n^3): [(m, n_t), (m, n_s), (2m, n_std)].

        The standard coordinates of row i are rows 2i and 2i + 1, one per
        row of the representation.  They are views of ``scratch``'s "triv",
        "c6" and "std"; the rows in orbit order are its "y", the 3-node
        orbit coordinates its "c3".
        """
        m = x.shape[0]
        n1, n2, n6 = self.orbits
        # mode="wrap" writes straight into out; the indices are in range
        y = np.take(x, self._order, axis=1, out=scratch.array("y", (m, self.size)), mode="wrap")
        c3 = np.matmul(self._t3, y[:, n1:n1 + 3 * n2].reshape(m, 3, n2),
                       out=scratch.array("c3", (m, 3, n2)))
        c6 = np.matmul(self._t6, y[:, n1 + 3 * n2:].reshape(m, 6, n6),
                       out=scratch.array("c6", (m, 6, n6)))
        std = scratch.array("std", (m, 2, n2 + 2 * n6))
        std[:, :, :n2] = c3[:, 1:]
        std[:, :, n2:] = c6[:, 2:].reshape(m, 2, 2 * n6)
        triv = np.concatenate([y[:, :n1], c3[:, 0], c6[:, 0]], axis=1,
                              out=scratch.array("triv", (m, n1 + n2 + n6)))
        return [triv, c6[:, 1], std.reshape(2 * m, -1)]

    def inverse(self, blocks: list, out: np.ndarray, scratch: Scratch) -> np.ndarray:
        """The rows (m, n^3) whose ``forward`` is ``blocks``, written into ``out``.

        ``scratch``'s "c3", "c6" and "y" are overwritten, so ``blocks``
        must not be views of them.
        """
        triv, sign, std = blocks
        m = triv.shape[0]
        n1, n2, n6 = self.orbits
        std = std.reshape(m, 2, -1)
        c3, c6 = scratch.array("c3", (m, 3, n2)), scratch.array("c6", (m, 6, n6))
        y = scratch.array("y", (m, self.size))
        c3[:, 0] = triv[:, n1:n1 + n2]
        c3[:, 1:] = std[:, :, :n2]
        c6[:, 0] = triv[:, n1 + n2:]
        c6[:, 1] = sign
        c6[:, 2:].reshape(m, 2, 2 * n6)[...] = std[:, :, n2:]
        y[:, :n1] = triv[:, :n1]
        np.matmul(self._t3.T, c3, out=y[:, n1:n1 + 3 * n2].reshape(m, 3, n2))
        np.matmul(self._t6.T, c6, out=y[:, n1 + 3 * n2:].reshape(m, 6, n6))
        return np.take(y, self._unorder, axis=1, out=out, mode="wrap")

    def block_matrices(self, rows: np.ndarray) -> list:
        """[trivial, sign, standard] blocks of an invariant operator from its ``reps`` rows.

        The block entry of basis vectors e (orbit o) and e' is
        sqrt(|o|/d) sum_p u_p (R_o . e'_p): R_o is the row at o's
        representative, e'_p the row-p partner of e', d the dimension of
        the representation and u the unit vector with which e's
        coefficients are sqrt(d/|o|) D(g) u.
        """
        n1, n2, n6 = self.orbits
        n = n1 + n2 + n6
        triv, sign, std = self.forward(rows, Scratch())
        two, six = slice(n1, n1 + n2), slice(n1 + n2, n)
        size = np.repeat([1.0, 3.0, 6.0], self.orbits)
        rows0, rows1 = std[0::2], std[1::2]
        std = np.concatenate([1.5 * (self._w_rep[:, :1] * rows0[two]
                                     + self._w_rep[:, 1:] * rows1[two]),
                              np.sqrt(3.0) * rows0[six], np.sqrt(3.0) * rows1[six]])
        return [np.sqrt(size)[:, None] * triv, np.sqrt(6.0) * sign[six], std]
