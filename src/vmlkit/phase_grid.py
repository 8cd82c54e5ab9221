"""Truncated phase-space discretization and spectral machinery.

Velocity space is a uniform tensor grid on [-v_max, v_max)^3 with node
coordinates t_i = -v_max + i*h, h = 2*v_max/n_v.  For even n_v the grid
contains v = 0 and is symmetric under v -> -v up to a one-cell offset
(the -v_max layer has no +v_max partner); all quadratures use the uniform
cell measure h^3, which on Maxwell-weighted integrands agrees with the
trapezoidal rule to below the Maxwellian tail mass.

Position space is a periodic torus of period ``box_length`` per axis.
Fields vary only along ``active_axes``; derivatives along inactive axes
vanish identically.  The discrete transform pair is normalized so that
the L^2(dx) Plancherel identity holds without extra factors:

    sum_k |fhat(k)|^2 = (L/n_x)^d * sum_x |f(x)|^2,   xi_k = 2*pi*k/L.

A real array also has a half-spectrum transform pair with the same scale
(``forward_half``/``inverse_half``, numpy's rfftn/irfftn): only the modes
whose last active index is <= n_x // 2 are kept, the others being the
complex conjugates of their partners -xi.  The Strang step and the
diagnostics run on it, and read its layout from ``SpatialGrid`` alone: the
orbit weights, the Nyquist masks and the half/full expansions.

Fractional powers |xi|^s act as Fourier multipliers; the xi = 0 mode is
zeroed for negative exponents (torus surrogate of the homogeneous
negative-order Sobolev norm) and its content is reported separately by
the diagnostics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

TWO_PI = 2.0 * np.pi


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _memoized(method):
    """Keep a grid method's table per instance and arguments, read-only."""
    @wraps(method)
    def table(self, *args, **kwargs):
        memo = self.__dict__.setdefault("_tables", {})
        key = (method.__name__, args, tuple(sorted(kwargs.items())))
        if key not in memo:
            memo[key] = _read_only(method(self, *args, **kwargs))
        return memo[key]
    return table


class Scratch:
    """Work arrays kept by name: one float64 buffer each, grown to the largest size asked for.

    ``array(name, shape)`` is a view of the buffer of ``name`` in ``shape``.
    A view stays valid until its name is asked for again, which may return
    the same memory, so a caller holds one live view per name.
    """

    def __init__(self):
        self._buffers: dict = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the time-velocity weight <v>^(-(gamma+2)*ell) * exp(q<v>^2/(1+t)^theta).

    gamma : kernel exponent, soft-potential range [-3, -2)
    ell   : polynomial weight order (the per-derivative order ell - |beta|
            is handled by the caller)
    q     : exponential strength, 0 <= q <= 0.1 (q = 0 is the degenerate
            weightless limit used in collapse tests)
    theta : time exponent; must satisfy theta <= s/2 for s in [1/2, 1]
            and theta <= s/2 - 1/2 for s in (1, 3/2)
    """

    gamma: float = -3.0
    ell: float = 0.0
    q: float = 0.0
    theta: float = 0.25

    def __post_init__(self):
        if not (-3.0 <= self.gamma < -2.0):
            raise ValueError(f"gamma must lie in [-3, -2), got {self.gamma}")
        if not (0.0 <= self.q <= 0.1):
            raise ValueError(f"q must lie in [0, 0.1], got {self.q}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")

    def validate_for_s(self, s_exp: float) -> None:
        """Check the admissibility bracket tying theta to s, which must lie in [1/2, 3/2)."""
        if self.q == 0.0:
            return
        cap = 0.5 * s_exp if s_exp <= 1.0 else 0.5 * s_exp - 0.5
        if self.theta > cap + 1e-12:
            raise ValueError(
                f"theta={self.theta} violates the bracket theta <= {cap} for s={s_exp}"
            )


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform tensor velocity grid on [-v_max, v_max)^3 with cell quadrature."""

    v_max: float = 6.0
    n_v: int = 24

    def __post_init__(self):
        if self.n_v < 4:
            raise ValueError("n_v must be at least 4")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.v_max / self.n_v

    @property
    def nodes_1d(self) -> np.ndarray:
        return -self.v_max + self.spacing * np.arange(self.n_v)

    @property
    def shape(self) -> tuple:
        return (self.n_v,) * 3

    @property
    def cell_volume(self) -> float:
        return self.spacing ** 3

    # --- kept tensor fields (per grid and arguments, read-only) ----------------
    def axes(self):
        """Broadcastable per-axis coordinate arrays (v1, v2, v3)."""
        t = self.nodes_1d
        return (
            t[:, None, None],
            t[None, :, None],
            t[None, None, :],
        )

    @_memoized
    def vsq(self) -> np.ndarray:
        v1, v2, v3 = self.axes()
        return v1 * v1 + v2 * v2 + v3 * v3

    def vnorm(self) -> np.ndarray:
        return np.sqrt(self.vsq())

    @_memoized
    def bracket(self, power: float = 1.0) -> np.ndarray:
        """<v>^power on the grid."""
        return (1.0 + self.vsq()) ** (0.5 * power)

    @_memoized
    def mu(self) -> np.ndarray:
        """The normalized global Maxwellian (2 pi)^(-3/2) exp(-|v|^2/2) on the grid."""
        return (TWO_PI) ** (-1.5) * np.exp(-0.5 * self.vsq())

    @_memoized
    def mu_half(self) -> np.ndarray:
        return (TWO_PI) ** (-0.75) * np.exp(-0.25 * self.vsq())

    @cached_property
    def v_mu_half(self) -> np.ndarray:
        """The rows v_j mu^(1/2), shape (3, n, n, n): the current weights.

        Built once per grid and shared, so the array is read-only.
        """
        mu_half = self.mu_half()
        return _read_only(np.stack([(v + 0 * mu_half) * mu_half for v in self.axes()]))

    @_memoized
    def gradient_o4(self) -> np.ndarray:
        """``fd_gradient_matrix_o4`` on the grid's nodes: the Lorentz force's stencil."""
        return fd_gradient_matrix_o4(self.nodes_1d)

    def mu_half_1d(self) -> np.ndarray:
        t = self.nodes_1d
        return (TWO_PI) ** (-0.25) * np.exp(-0.25 * t * t)

    def integrate(self, f: np.ndarray) -> np.ndarray:
        """Cell-measure quadrature over the last three axes."""
        return self.cell_volume * np.sum(f, axis=(-3, -2, -1))

    def weight_field(self, params: WeightParams, t: float) -> np.ndarray:
        """Time-velocity weight w_ell(t, v) on the grid; t must be nonnegative."""
        if t < 0:
            raise ValueError("the weight requires t >= 0")
        bsq = 1.0 + self.vsq()
        poly = bsq ** (-0.5 * (params.gamma + 2.0) * params.ell)
        if params.q == 0.0:
            return poly
        return poly * np.exp(params.q * bsq / (1.0 + t) ** params.theta)


def fd_gradient_matrix(nodes: np.ndarray) -> np.ndarray:
    """Second-order first-derivative matrix on a uniform 1-D grid.

    Central differences inside, one-sided three-point stencils at the two
    boundary rows.  Both stencil families are exact on quadratics, which
    the collision operator exploits to annihilate its null space to
    round-off.  Functions are treated as zero outside the grid only
    through the transpose (divergence) pairing.
    """
    n = len(nodes)
    h = nodes[1] - nodes[0]
    m = np.zeros((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = -0.5 / h
        m[i, i + 1] = 0.5 / h
    m[0, 0], m[0, 1], m[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    m[-1, -1], m[-1, -2], m[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
    return m


def fd_gradient_matrix_o4(nodes: np.ndarray) -> np.ndarray:
    """Fourth-order first-derivative matrix, zero extension at the boundary.

    Used for the Lorentz-force velocity gradient where Maxwell-weighted
    decay makes the truncation at the box edge subdominant.
    """
    n = len(nodes)
    h = nodes[1] - nodes[0]
    m = np.zeros((n, n))
    c1, c2 = 8.0 / (12.0 * h), 1.0 / (12.0 * h)
    idx = np.arange(n)
    for off, c in ((-2, c2), (-1, -c1), (1, c1), (2, -c2)):
        rows = idx[(idx + off >= 0) & (idx + off < n)]
        m[rows, rows + off] = c
    return m


# ---------------------------------------------------------------------------
# spatial torus grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic torus grid; fields vary along ``active_axes`` only.

    The wavevector table is integer-indexed with xi = 2*pi*k/box_length,
    matching the exp(2*pi*i*k*x/L) transform convention, so spatial
    derivatives are multiplication by i*xi and |xi| feeds every fractional
    multiplier.
    """

    box_length: float = TWO_PI * 10.0
    n_x: int = 64
    active_axes: tuple = (0,)

    def __post_init__(self):
        if self.n_x < 2:
            raise ValueError("n_x must be at least 2")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")
        if len(self.active_axes) < 1 or any(a not in (0, 1, 2) for a in self.active_axes):
            raise ValueError("active_axes must be a nonempty subset of (0, 1, 2)")
        if len(set(self.active_axes)) != len(self.active_axes):
            raise ValueError("active_axes must not repeat")

    @property
    def n_active(self) -> int:
        return len(self.active_axes)

    @property
    def shape(self) -> tuple:
        return (self.n_x,) * self.n_active

    @property
    def dx(self) -> float:
        return self.box_length / self.n_x

    @property
    def cell_measure(self) -> float:
        return self.dx ** self.n_active

    def _per_axis(self, line: np.ndarray) -> list:
        """An (n_x,) array shaped to broadcast along each active axis in turn."""
        return [line.reshape([self.n_x if j == i else 1 for j in range(self.n_active)])
                for i in range(self.n_active)]

    def coords(self):
        """Broadcastable physical coordinates along each active axis."""
        return self._per_axis(self.dx * np.arange(self.n_x))

    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices along one active axis (fft order)."""
        return np.fft.fftfreq(self.n_x, d=1.0 / self.n_x).astype(int)

    def xi_1d(self) -> np.ndarray:
        return TWO_PI * self.mode_numbers() / self.box_length

    def xi_mesh(self):
        """Broadcastable xi arrays, one per active axis."""
        return self._per_axis(self.xi_1d())

    def xi_norm(self) -> np.ndarray:
        mesh = self.xi_mesh()
        acc = np.zeros(self.shape)
        for m in mesh:
            acc = acc + m * m
        return np.sqrt(acc)

    @_memoized
    def xi_component(self, axis: int) -> np.ndarray:
        """xi along a *global* axis index; zero array if the axis is inactive.

        Kept per grid and axis, read-only (the curl and divergence read it
        on every call).
        """
        if axis in self.active_axes:
            return np.broadcast_to(
                self.xi_mesh()[self.active_axes.index(axis)], self.shape
            ).copy()
        return np.zeros(self.shape)

    # --- transforms -----------------------------------------------------------
    def _x_axes(self, arr: np.ndarray, x_axes) -> tuple:
        if x_axes is None:
            return tuple(range(arr.ndim - self.n_active, arr.ndim))
        return tuple(x_axes)

    def forward(self, arr: np.ndarray, x_axes=None) -> np.ndarray:
        """Unitary (Plancherel with the dx measure) forward transform."""
        axes = self._x_axes(arr, x_axes)
        scale = (np.sqrt(self.box_length) / self.n_x) ** len(axes)
        return np.fft.fftn(arr, axes=axes) * scale

    def inverse(self, arr: np.ndarray, x_axes=None) -> np.ndarray:
        axes = self._x_axes(arr, x_axes)
        scale = (self.n_x / np.sqrt(self.box_length)) ** len(axes)
        return np.fft.ifftn(arr, axes=axes) * scale

    @property
    def half_shape(self) -> tuple:
        """Shape of the Hermitian half spectrum: the last active axis halved."""
        return self.shape[:-1] + (self.n_x // 2 + 1,)

    @cached_property
    def half_mesh(self) -> tuple:
        """(xi, Nyquist mask) per active axis, each broadcasting over ``half_shape``.

        The mask marks the axis's Nyquist mode, which has no partner -xi
        along it; for odd n_x it is all False.
        """
        half, nyq = self.n_x // 2 + 1, 2 * self.mode_numbers() == -self.n_x
        return tuple((_read_only(xi[..., :half]),
                      _read_only(nyq.reshape(xi.shape)[..., :half])) for xi in self.xi_mesh())

    @cached_property
    def orbit_weight(self) -> np.ndarray:
        """Modes a half-spectrum entry stands for, by its last active index.

        2 on interior modes, whose partner -xi lies outside the half; 1 on
        the self-conjugate planes, last index 0 and, for even n_x, n_x / 2.
        """
        last = np.arange(self.n_x // 2 + 1)
        return _read_only(np.where((last == 0) | (2 * last == self.n_x), 1.0, 2.0))

    def forward_half(self, arr: np.ndarray, x_axes=None) -> np.ndarray:
        """``forward`` of a real array, kept on the half spectrum ``half_shape``.

        The modes whose last active index is <= n_x // 2; the others are the
        complex conjugates of their partners -xi.
        """
        axes = self._x_axes(arr, x_axes)
        scale = (np.sqrt(self.box_length) / self.n_x) ** len(axes)
        spec = np.fft.rfftn(arr, axes=axes)
        spec *= scale
        return spec

    def inverse_half(self, spec: np.ndarray, x_axes=None) -> np.ndarray:
        """The real array whose ``forward_half`` is ``spec``.

        On the planes of last index 0 and n_x / 2, which hold both partners
        xi and -xi, only the Hermitian part (see ``hermitian_half``) enters,
        as in the real part of ``inverse``.
        """
        axes = self._x_axes(spec, x_axes)
        scale = (self.n_x / np.sqrt(self.box_length)) ** len(axes)
        out = np.fft.irfftn(spec, s=(self.n_x,) * len(axes), axes=axes)
        out *= scale
        return out

    def hermitian_half(self, spec: np.ndarray) -> np.ndarray:
        """(spec(xi) + conj spec(-xi)) / 2 on the half spectrum.

        Equal to ``forward_half(inverse(spec).real)``, without a transform.
        """
        axes = self._x_axes(spec, None)
        both = spec + np.roll(np.flip(spec, axes), 1, axes).conj()
        return 0.5 * np.take(both, np.arange(self.n_x // 2 + 1), axis=axes[-1])

    def full_spectrum(self, half: np.ndarray) -> np.ndarray:
        """The full spectrum of a half spectrum, the reverse of ``hermitian_half``.

        Equal to ``forward(inverse_half(half))``, without a transform: each
        mode enters at half its ``orbit_weight`` and its partner -xi takes
        the conjugate, so the self-conjugate planes keep their Hermitian
        part, as in ``inverse_half``.
        """
        axes = self._x_axes(half, None)
        weight = self._mult_view(0.5 * self.orbit_weight, half.ndim, axes[-1:])
        shape = list(half.shape)
        shape[axes[-1]] = self.n_x
        full = np.zeros(shape, dtype=np.result_type(half, weight))
        kept = (slice(None),) * axes[-1] + (slice(0, half.shape[axes[-1]]),)
        np.multiply(half, weight, out=full[kept])
        return full + np.roll(np.flip(full, axes), 1, axes).conj()

    def _mult_view(self, mult: np.ndarray, arr_ndim: int, axes: tuple) -> np.ndarray:
        """Reshape an x-shaped multiplier to broadcast against ``arr``."""
        sh = [1] * arr_ndim
        for i, ax in enumerate(axes):
            sh[ax] = mult.shape[i]
        return mult.reshape(sh)

    def apply_multiplier(self, spec: np.ndarray, mult: np.ndarray, x_axes=None) -> np.ndarray:
        axes = self._x_axes(spec, x_axes)
        return spec * self._mult_view(np.asarray(mult), spec.ndim, axes)

    def derivative(self, arr: np.ndarray, axis: int, x_axes=None) -> np.ndarray:
        """d/dx_axis for a global axis index; identically zero off the active set."""
        if axis not in self.active_axes:
            return np.zeros_like(arr)
        axes = self._x_axes(arr, x_axes)
        out = self.apply_multiplier(self.forward(arr, axes), 1j * self.xi_component(axis), axes)
        return self.inverse(out, axes).real

    # --- fractional multipliers (run constants: kept per grid, read-only) -------
    @_memoized
    def lambda_multiplier(self, s_exp: float) -> np.ndarray:
        """|xi|^s table with the documented xi = 0 policy."""
        xin = self.xi_norm()
        mult = np.zeros(self.shape)
        nz = xin > 0
        mult[nz] = xin[nz] ** s_exp
        if s_exp == 0.0:
            mult[~nz] = 1.0  # identity passes the mean through
        return mult

    @_memoized
    def band_multiplier(self, jmin: int, jmax: int,
                        frac_top: float | None = None) -> np.ndarray:
        """Multiplier sum_{j=jmin..jmax} |xi|^{2j} (+|xi|^{2*frac_top})."""
        xin2 = self.xi_norm() ** 2
        out = np.zeros(self.shape)
        acc = np.ones(self.shape)
        for j in range(0, jmax + 1):
            if j >= jmin:
                out = out + acc
            acc = acc * xin2
        if frac_top is not None and frac_top > jmax:
            out = out + self.lambda_multiplier(2.0 * frac_top)
        return out

    def lambda_s_apply(self, f: np.ndarray, s_exp: float) -> np.ndarray:
        """Apply the fractional operator |xi|^s as a Fourier multiplier."""
        out = self.apply_multiplier(self.forward(f), self.lambda_multiplier(s_exp))
        return self.inverse(out).real

    # --- norms ------------------------------------------------------------------
    def spec_weighted_norm2(self, spec: np.ndarray, mult: np.ndarray | None = None) -> float:
        """sum over everything of mult * |spec|^2, mult on the trailing x axes."""
        p = np.abs(spec) ** 2
        if mult is not None:
            p = p * self._mult_view(np.asarray(mult), spec.ndim, self._x_axes(spec, None))
        return float(np.sum(p))

    def norm2(self, arr: np.ndarray) -> float:
        """Physical-space L^2 squared norm with the dx measure."""
        return float(np.sum(np.abs(arr) ** 2)) * self.cell_measure
