"""Time integration of the perturbative two-species system.

The reformulated equations advanced here, for f = [f_+, f_-], q0 =
diag(1, -1), q1 = [1, -1]:

    d_t f + v . grad_x f + q0 (E + v x B) . grad_v f - E . v mu^(1/2) q1
        + L f = (q0/2) E . v f + Gamma(f, f)
    d_t E = curl B - int v mu^(1/2) (f_+ - f_-) dv
    d_t B = -curl E

In linearized mode the force and quadratic terms ((E+vxB).grad_v f,
(q0/2) E.v f, Gamma) are dropped.

One step is the Strang palindrome

    transport(dt/2) field+force(dt/2) collision(dt) field+force(dt/2)
    transport(dt/2)

with an exact spectral phase shift for transport, explicit midpoint for
the field/force stage, and implicit trapezoid for the collision substep.

The step runs on the Hermitian half spectrum of f along the active x axes
(``SpatialGrid.forward_half``, an rfft with the last active axis halved):
one forward transform of the physical f at its start, one inverse at its
end.  Transport, the field coupling and L are each diagonal in xi or local
in x, so in between:

- each transport half is one multiply by a precomputed half-spectrum
  phase, the product over the axes, with the cosine phase on every axis's
  Nyquist mode;
- the field/force stage forms the source E . v mu^(1/2) q1 from the
  Hermitian half of the E spectrum and the current as a v-moment of the
  f spectrum, expanded to E's full spectrum without a transform
  (``SpatialGrid.hermitian_half`` and ``full_spectrum``); both are
  linear, so the midpoint's current is assembled from currents already at
  hand and its f is formed only in nonlinear mode, where the force and
  Gamma need physical f (one inverse transform in, one forward back);
- the direct collision propagator acts on the real and imaginary rows of
  the spectrum, one GEMM per symmetry block; the matrix-free CG runs on
  physical f, again one transform each way.

The forward transform's spectrum is the step's working array.  Each
transport half multiplies it in place, the field stage adds tau S(E) into
it, and the direct collision substep writes its result back into it.  The
current, the source and the collision's basis changes and GEMM products
use arrays that, with the direct solver, the ``Stepper`` and the
``CollisionStepper`` size once from the grids and keep.  So a linearized
direct step allocates only the spectrum and the new f, and its speed does
not depend on how the allocator returns freed memory.  The arithmetic is
that of the allocating form, so the state is bit-identical to it.

A matrix-free step keeps no buffers; it bounds its working set instead.
The nonlinear force and Gamma(f, f) (``maxwell.nonlinear_terms``, with
either solver) run one x point per job of the convolution pool: Gamma's
jobs write it into one force array, and a second round adds each point's
Lorentz force into it.  K runs one x point per job in the CG too.  The CG (``CollisionStepper._pcg``) updates
its solution, residual and direction in place.  So no whole-batch
intermediate of these exists beyond the CG's few vectors, and the
arithmetic is again the allocating form's.

The trapezoid system (I + dt/2 L) f' = (I - dt/2 L) f is solved either by
flexible preconditioned conjugate gradients (matrix-free, any resolution;
the sum system preconditioned by an inner solve of its diffusion part) or by a
cached propagator (n_v <= ``DIRECT_MAX_NV``).  Since L is symmetric positive
semidefinite, M = I + dt/2 L is symmetric positive definite: the
propagator is P = M^-1 (I - dt/2 L) = 2 M^-1 - I, with M^-1 from block
Schur complements over Cholesky-factored leaves (``_spd_inverse``), and
the trapezoid update never increases ||f||^2, which is what the per-step
Lyapunov monitor leans on.

The field/force stage takes its coupling terms (the source E . v mu^(1/2)
q1, the Lorentz force and the current) and dE/dt, dB/dt from ``maxwell``.

The direct solver holds P, A + K and A as the blocks of the axis
permutations of v (``landau.PermutationBlocks``), 1.4 MB per operator at
n_v = 10 and 22.6 MB at n_v = 16, never an n_v^3 x n_v^3 array.  ``run``
hands the collision stepper to the diagnostics: with the direct solver a
recorded state's collision power is a quadratic form on those blocks
(``CollisionStepper.quadratic_form``), with no L f formed, so a direct run
never applies the matrix-free operators.

The species sum s = f_+ + f_- and difference d = f_+ - f_- diagonalize L
(L s = 2(A+K)s, L d = 2A d), so the collision solve runs on two decoupled
scalar systems batched over space.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import diagnostics as diag
from . import landau, macro_micro, maxwell
from .phase_grid import Scratch, SpatialGrid, VelocityGrid, WeightParams

CKPT_MAGIC = b"VMLCKPT1"
CKPT_VERSION = 1

LINEARIZED = "linearized"
NONLINEAR = "nonlinear"

PRESETS = ("zero", "relaxation", "vacuum-maxwell", "broadband")

# the largest n_v of the direct collision solver; at n_v = 20 its blocked
# operators would hold about 86 MB, so past this the substep runs the CG
DIRECT_MAX_NV = 16


class StateError(ValueError):
    """A checkpoint that cannot be read, or a state that does not fit the grids."""


class RunAbort(RuntimeError):
    """A run stopped at ``step`` (time ``t``) before reaching t_end.

    Carries the last good state and its step index ``good_step``.
    """

    def __init__(self, reason: str, step: int, t: float, last_good, good_step: int):
        super().__init__(f"{reason} at step {step}, t = {t:.6g}")
        self.step = step
        self.t = t
        self.last_good = last_good
        self.good_step = good_step


class NanAbort(RunAbort):
    """Non-finite values appeared; for a non-finite initial state, the last
    good state is the initial state itself."""

    def __init__(self, step: int, t: float, last_good, good_step: int):
        super().__init__("non-finite state detected", step, t, last_good, good_step)


class CGNotConverged(RuntimeError):
    """A collision CG, outer at ``cg_tol`` or inner, did not converge within its cap."""


@dataclass
class RunConfig:
    """Fully resolved run parameters (the manifest mirrors this flat set)."""

    # grids
    n_x: int = 64
    box_length: float = 2.0 * math.pi * 100.0
    active_axes: tuple = (0,)
    n_v: int = 16
    v_max: float = 6.0
    # physics
    gamma: float = -3.0
    s_exp: float = 0.5
    q: float = 0.01
    theta: float = 0.25
    ell: float = 5.0          # weight order l of the big weighted family
    ell0: float = 2.0         # weight order l_0 of the top-index family
    lprime: float = 1.0       # free auxiliary order l'; l* = l' + (n0-1)/2
    eps0: float = 0.1         # free exponent (> 0) of the a priori functional
    # integrator
    dt: float = 0.05
    t_end: float = 5.0
    mode: str = LINEARIZED
    collision_solver: str = "auto"   # auto | direct | cg
    cg_tol: float = 1e-12
    # initial data
    preset: str = "broadband"
    amplitude: float = 1e-3
    seed: int = 7             # own PCG64 stream = default_rng(seed).uniform
    n_modes: int = 20
    asym_fraction: float = 0.15  # species-asymmetric (charge/current) content
    micro_fraction: float = 0.2   # microscopic v-shape content
    b_fraction: float = 0.05      # magnetic seed relative to the f amplitude
    couple_fields: bool = True   # False: pure Maxwell sub-integrator (vacuum tests)
    # diagnostics
    n_max: int = 3            # N of the unweighted energy family
    n0: int = 3               # N_0 of the top-index family
    k_max: int = 1            # E^k reported for k = 0..k_max
    beta_max: int = 2         # velocity-derivative depth of weighted sums
    report_every: int = 10    # steps between full functional reports
    monitor_every: int = 1    # steps between lightweight Lyapunov rows (0 = off)
    checkpoint_every: int = 0  # steps between checkpoints (0 = final only)

    @property
    def lstar(self) -> float:
        return self.lprime + 0.5 * (self.n0 - 1)

    def weight_params(self, ell: float | None = None) -> WeightParams:
        return WeightParams(gamma=self.gamma, ell=self.ell if ell is None else ell,
                            q=self.q, theta=self.theta)

    def validate(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{item.name} must be finite, got {value}")
        # the grid, collision-table and direct-solver checks, here so that
        # a bad value is a configuration error, not a failure deep in set-up
        self.grids()
        landau.check_quadrature(self.n_v)
        _collision_method(self.collision_solver, self.n_v)
        if self.mode not in (LINEARIZED, NONLINEAR):
            raise ValueError(f"mode must be linearized or nonlinear, got {self.mode!r}")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ValueError(f"t_end = {self.t_end:g} is not a whole number of steps "
                             f"of dt = {self.dt:g} (t_end / dt = {steps:.10g})")
        if not (0.5 <= self.s_exp < 1.5):
            raise ValueError(f"s_exp must lie in [1/2, 3/2), got {self.s_exp}")
        # weight and derivative orders, step intervals, the seed and the fractions
        for key in ("ell", "ell0", "lprime", "n0", "n_max", "k_max", "beta_max", "seed",
                    "monitor_every", "checkpoint_every", "asym_fraction",
                    "micro_fraction", "b_fraction"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative, got {getattr(self, key)}")
        if self.k_max > max(self.n0 - 2, 0):
            raise ValueError(
                f"k_max={self.k_max} exceeds n0-2={self.n0 - 2}; decay theory "
                "indexes E^k only up to N0-2")
        if self.report_every < 1:
            raise ValueError(f"report_every must be at least 1, got {self.report_every}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be at least 1, got {self.n_modes}")
        if self.cg_tol <= 0:
            raise ValueError(f"cg_tol must be positive, got {self.cg_tol}")
        # f is the perturbation in F = mu + mu^(1/2) f: past order one the
        # perturbative system has no meaning, and its squares overflow
        if abs(self.amplitude) > 1.0:
            raise ValueError(f"amplitude must lie in [-1, 1], got {self.amplitude}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        # X(t) weighs E_{N,l} by (1+t)^(-(1+eps0)/2), with eps0 > 0
        if self.eps0 <= 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        self.weight_params().validate_for_s(self.s_exp)

    def grids(self):
        sgrid = SpatialGrid(box_length=self.box_length, n_x=self.n_x,
                            active_axes=tuple(self.active_axes))
        vgrid = VelocityGrid(v_max=self.v_max, n_v=self.n_v)
        return sgrid, vgrid

    def as_flat_dict(self) -> dict:
        d = asdict(self)
        d["active_axes"] = ",".join(str(a) for a in self.active_axes)
        return d


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build a RunConfig from keys mapped to strings, rejecting unknown keys."""
    types = {f.name: f.type for f in fields(RunConfig)}
    kwargs = {}
    for key, raw in mapping.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        # the annotations are strings (``from __future__ import annotations``)
        kind = types[key]
        try:
            if key == "active_axes":
                val = tuple(int(tok) for tok in raw.replace(",", " ").split())
            elif kind == "bool":
                val = {"true": True, "1": True, "yes": True, "on": True,
                       "false": False, "0": False, "no": False,
                       "off": False}[raw.strip().lower()]
            elif kind == "int":
                val = int(raw)
            elif kind == "float":
                val = float(raw)
            else:
                val = raw
        except (KeyError, ValueError):
            raise ValueError(f"{key}: cannot read {raw!r} as {kind}") from None
        kwargs[key] = val
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


@dataclass
class PhaseState:
    """Simulation state: physical-space pair f, spectral EM field, time."""

    f: np.ndarray             # (2, *x_shape, n_v, n_v, n_v) real
    em: maxwell.EMField
    t: float = 0.0

    def copy(self) -> "PhaseState":
        return PhaseState(self.f.copy(), self.em.copy(), self.t)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _v_profiles(vgrid: VelocityGrid):
    mu_half = vgrid.mu_half()
    v1, v2, v3 = vgrid.axes()
    zero = np.zeros_like(mu_half)
    return [
        mu_half,
        vgrid.v_mu_half[0],
        (vgrid.vsq() - 3.0) * mu_half,
        (v1 * v2 + zero) * mu_half,          # microscopic shape
        (v3 + zero) * (vgrid.vsq() - 5.0) * mu_half,  # microscopic shape
    ]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _PCG64:
    """``np.random.default_rng(seed).uniform``, draw for draw, in Python ints.

    numpy's SeedSequence hashes the seed's little-endian 32-bit words into
    a pool of four and draws the PCG64 state and increment from it; each
    draw steps the 128-bit LCG and scales the top 53 bits of its XSL-RR
    output (O'Neill 2014, HMC-CS-2014-0905).  So a run never imports
    numpy.random (nor the secrets and OpenSSL hashlib it loads), and the
    initial data do not follow changes to numpy's Generator methods, which
    NEP 19 leaves free to change.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        entropy = [seed & _M32]
        while seed >> 32:
            seed >>= 32
            entropy.append(seed & _M32)
        const = 0x43B0D7E5

        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _M32
            value = value * const & _M32
            return value ^ value >> 16

        def mix(x, y):
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ value >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if dst != src:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight words cycled from the pool, paired
        # low word first into initstate (w0, w1) and initseq (w2, w3)
        const, words = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            words.append(value ^ value >> 16)
        w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        # from state 0: step, add initstate, step
        self.inc = (w[2] << 64 | w[3]) << 1 | 1
        self.state = ((self.inc + (w[0] << 64 | w[1])) * _PCG_MULT + self.inc) & _M128

    def uniform(self, low: float, high: float) -> float:
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x, rot = ((s >> 64) ^ s) & _M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return low + (high - low) * ((x >> 11) * 2.0 ** -53)


def initial_state(config: RunConfig, sgrid: SpatialGrid, vgrid: VelocityGrid) -> PhaseState:
    """Construct preset initial data with compatible fields.

    The broadband draws come from vmlkit's own PCG64 stream, equal to
    ``np.random.default_rng(config.seed).uniform``; numpy.random is not loaded.
    """
    shape = (2,) + sgrid.shape + vgrid.shape
    f = np.zeros(shape)
    em = maxwell.EMField.zero(sgrid)
    rng = _PCG64(config.seed)
    amp = config.amplitude

    if config.preset == "zero":
        pass

    elif config.preset == "relaxation":
        # x-homogeneous microscopic bump: pure -L relaxation once fields stay zero
        mu_half = vgrid.mu_half()
        v1, v2, v3 = vgrid.axes()
        bump = (v1 * v2 + 0.5 * v2 * v3 + 0 * mu_half) * mu_half
        for s in range(2):
            f[s] = amp * bump  # same in both species: charge-neutral, current-free

    elif config.preset == "vacuum-maxwell":
        # transverse traveling wave e_y = b_z = amp cos(xi x); real fields need
        # Hermitian spectra, so both +-k0 coefficients carry the same value
        e = np.zeros((3,) + sgrid.shape, dtype=complex)
        b = np.zeros_like(e)
        k0 = 2
        coeff = 0.5 * amp * sgrid.n_x / math.sqrt(sgrid.box_length)
        idx = [0] * sgrid.n_active
        for sgn in (k0, -k0):
            idx[0] = sgn
            e[(1,) + tuple(idx)] = coeff
            b[(2,) + tuple(idx)] = coeff
        em = maxwell.EMField(e, b)

    elif config.preset == "broadband":
        # flat low-mode spectrum; the species-symmetric macroscopic content
        # dominates so the slowly decaying hydrodynamic branch is populated,
        # with tunable charge-asymmetric and microscopic admixtures
        coords = sgrid.coords()
        x0 = coords[0]
        profiles = _v_profiles(vgrid)
        micro_idx = (3, 4)
        kmax = min(config.n_modes, sgrid.n_x // 3)
        xi0 = 2.0 * math.pi / sgrid.box_length
        fx = np.zeros((2,) + sgrid.shape + (len(profiles),))
        for k in range(1, kmax + 1):
            for p in range(len(profiles)):
                base = rng.uniform(0.5, 1.0) * np.cos(
                    xi0 * k * x0 + rng.uniform(0.0, 2.0 * math.pi))
                asym = config.asym_fraction * rng.uniform(0.5, 1.0) * np.cos(
                    xi0 * k * x0 + rng.uniform(0.0, 2.0 * math.pi))
                scale = config.micro_fraction if p in micro_idx else 1.0
                fx[0, ..., p] += scale * (base + asym)
                fx[1, ..., p] += scale * (base - asym)
        for p, prof in enumerate(profiles):
            for s in range(2):
                f[s] += amp * fx[(s,) + (Ellipsis, p)][..., None, None, None] * prof
        # transverse magnetic seed across the same flat band
        b = np.zeros((3,) + sgrid.shape)
        for k in range(1, kmax + 1):
            ph = rng.uniform(0.0, 2.0 * math.pi)
            b[2] += config.b_fraction * amp * rng.uniform(0.5, 1.0) * np.cos(
                xi0 * k * x0 + ph)
        em = maxwell.EMField(np.zeros((3,) + sgrid.shape, dtype=complex),
                             sgrid.forward(b))

    rho_spec = sgrid.forward(maxwell.charge_density(vgrid, f))
    em = maxwell.make_compatible(sgrid, em, rho_spec)
    return PhaseState(f=f, em=em, t=0.0)


# ---------------------------------------------------------------------------
# collision substep
# ---------------------------------------------------------------------------


def _spd_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite m in place by block Schur complements.

    With m = [[A, B], [B^T, C]], X = A^-1 B and S = C - B^T X, the inverse
    is [[A^-1 + X S^-1 X^T, -X S^-1], [-S^-1 X^T, S^-1]], A^-1 and S^-1
    taken the same way in the blocks of m: GEMMs but for the leaves of at
    most 64 rows, which are Cholesky factored.  m is positive definite
    exactly when A and S are, so a leaf that is not raises
    ``np.linalg.LinAlgError``.  Returns m, overwritten by its inverse.
    """
    n = len(m)
    if n <= 64:
        lower_inv = np.linalg.inv(np.linalg.cholesky(m))
        return np.matmul(lower_inv.T, lower_inv, out=m)
    k = n // 2
    a_inv = _spd_inverse(m[:k, :k])
    x = a_inv @ m[:k, k:]
    s = m[k:, k:]
    s -= m[k:, :k] @ x
    s_inv = _spd_inverse(s)
    upper = np.matmul(x, s_inv, out=m[:k, k:])
    upper *= -1.0
    m[k:, :k] = upper.T
    a_inv -= upper @ x.T
    return m


def _add_transpose(a: np.ndarray) -> None:
    """a + a^T written over a square a, by 128 x 128 tiles.

    Each pair of mirrored tiles is summed once and written to both places,
    so the transposed reads stay in cache; ``a += a.T`` would read the
    whole transpose through a temporary, at twice the time for n >= 500.
    """
    n, t = len(a), 128
    for i in range(0, n, t):
        for j in range(i, n, t):
            pair = a[i:i + t, j:j + t] + a[j:j + t, i:i + t].T
            a[i:i + t, j:j + t] = pair
            a[j:j + t, i:i + t] = pair.T


def _collision_method(solver: str, n_v: int) -> str:
    """The solver, direct or cg, that ``solver`` (auto, direct or cg) names at n_v."""
    if solver not in ("auto", "direct", "cg"):
        raise ValueError(f"unknown collision_solver {solver!r}; choose auto, direct or cg")
    if solver == "auto":
        return "direct" if n_v <= DIRECT_MAX_NV else "cg"
    if solver == "direct" and n_v > DIRECT_MAX_NV:
        raise ValueError(f"the direct collision solver is limited to "
                         f"n_v <= {DIRECT_MAX_NV} (got n_v = {n_v})")
    return solver


class CollisionStepper:
    """Implicit-trapezoid collision substep in species sum/difference form.

    ``method="auto"`` is direct up to n_v = ``DIRECT_MAX_NV`` and cg past
    it; an explicit direct past it raises ValueError.
    ``method="direct"`` works in the symmetry-adapted basis of
    ``landau.PermutationBlocks``, in which A and K are block diagonal: one
    trivial, one sign and one standard block, the last serving both rows
    of the 2-d representation.  The blocks of A + K and of A come from the
    rows of ``landau.dense_A``/``dense_K`` at the orbit representatives
    alone, which numpy assembles from the stencils and the difference
    table.  Per species combination, each block of the propagator
    P = 2 (I + dt/2 L)^-1 - I, with L_s = 2(A + K) and L_d = 2A, is
    inverted by block Schur complements (``_spd_inverse``); both operators
    are symmetric positive semidefinite, and a block too ill-conditioned
    for a Cholesky leaf raises ValueError.  The blocked P_s, P_d, A + K and
    A are kept, 8 (n_t^2 + n_s^2 + n_std^2) bytes each (1.4 MB at
    n_v = 10, 22.6 MB at n_v = 16); no n_v^3 x n_v^3 array is held.  ``advance``
    changes basis, runs one GEMM per block and changes back.
    ``quadratic_form`` gives a recorded state's collision power
    Re conj(f_hat) (L f)^ per mode from the blocks without forming L f:
    one forward basis change, one GEMM per block and the row dot products.
    Both take their work arrays from ``scratch``, a ``phase_grid.Scratch``
    that the step and the snapshots of a run share.

    ``method="cg"`` solves the same trapezoid systems matrix-free; it has
    no ``quadratic_form``, so the diagnostics transform a matrix-free L f.
    One flexible preconditioned CG (``_pcg``) serves three solves: the
    difference system I + dt A with a diagonal preconditioner; the sum
    system I + dt (A + K), preconditioned by a loose solve of I + dt A after
    Guo's split of L into the coercive diffusion A and the relatively
    compact convolution K (Comm. Math. Phys. 231, 2002); and that inner
    solve itself, diagonal CG from 0 to the relative residual
    ``INNER_TOL``.  An outer sum iteration
    then costs one K and a few A applications; at n_v = 20 a K costs
    some 30 As.

    ``last_iterations`` holds the outer CG iteration counts (sum,
    difference) of the last ``advance``; (0, 0) for the direct solver.
    """

    # relative residual of the inner I + dt A solve: 3e-2 to 1e-3 give the
    # same outer sum iterations on the bench state, 1e-1 more
    INNER_TOL = 1e-2

    def __init__(self, tables: landau.CollisionTables, dt: float,
                 method: str = "auto", cg_tol: float = 1e-12):
        self.tables = tables
        self.dt = dt
        self.cg_tol = cg_tol
        self.method = method = _collision_method(method, tables.n)
        self._basis = None
        self._prop = None
        self._a_plus_k = None
        self._a = None
        self.scratch = Scratch()
        self.last_iterations = (0, 0)
        if method == "direct":
            self._build_propagators()

    # blocked propagators ------------------------------------------------------
    def _build_propagators(self) -> None:
        self._basis = basis = landau.PermutationBlocks(self.tables.n)
        a = landau.dense_A(self.tables, rows=basis.reps)
        k = landau.dense_K(self.tables, rows=basis.reps)
        k += a
        self._a_plus_k = basis.block_matrices(k)
        self._a = basis.block_matrices(a)
        # L_s / 2 = A + K, L_d / 2 = A
        self._prop = [[self._propagator(b) for b in ops]
                      for ops in (self._a_plus_k, self._a)]

    def _propagator(self, b: np.ndarray) -> np.ndarray:
        """P = 2 M^-1 - I = M^-1 (I - dt/2 L) for one block, M = I + dt b."""
        n = b.shape[0]
        m = self.dt * b
        m.flat[:: n + 1] += 1.0
        try:
            inv = _spd_inverse(m)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"collision propagator: I + dt/2 L is too ill-conditioned to invert "
                f"(n_v={self.tables.n}, gamma={self.tables.gamma}, "
                f"dt={self.dt})") from None
        # the products leave M^-1 symmetric only to round-off; 2 M^-1 as
        # M^-1 + M^-T is symmetric exactly, since the sums commute
        _add_transpose(inv)
        inv.flat[:: n + 1] -= 1.0
        return inv

    def _block_products(self, blocks: list, x: np.ndarray) -> list:
        """(c, c B) per block of rows x (m, n^3): c its block coordinates, B symmetric."""
        coords = self._basis.forward(x, self.scratch)
        return [(c, np.matmul(c, b, out=self.scratch.array(f"prod{i}", c.shape)))
                for i, (c, b) in enumerate(zip(coords, blocks))]

    def _blocked(self, blocks: list, x: np.ndarray) -> np.ndarray:
        """B x for rows x (m, n^3), B symmetric and blocked, written into x."""
        prods = [p for _, p in self._block_products(blocks, x)]
        return self._basis.inverse(prods, x, self.scratch)

    def _sum_difference(self, f: np.ndarray) -> tuple:
        """s = f_+ + f_- and d = f_+ - f_- as rows (m, n^3), in ``scratch``.

        For a spectrum the rows are the real parts, then the imaginary ones.
        """
        parts = (f.real, f.imag) if np.iscomplexobj(f) else (f,)
        shape = (len(parts),) + f.shape[1:]
        s, d = self.scratch.array("s", shape), self.scratch.array("d", shape)
        for p, part in enumerate(parts):
            np.add(part[0], part[1], out=s[p])
            np.subtract(part[0], part[1], out=d[p])
        return s.reshape(-1, self._basis.size), d.reshape(-1, self._basis.size)

    def quadratic_form(self, spec: np.ndarray) -> np.ndarray:
        """Re sum conj(f) . L f over species and v at each leading point of a pair.

        Direct mode only.  ``spec`` is a pair (2, ..., n, n, n), real or a
        spectrum in x: L is real and local in x, so Re conj(f_hat) (L f)^ is
        the form of L on the real plus that on the imaginary part.  With
        s = f_+ + f_- and d = f_+ - f_-, <f, L f> = <s, (A+K) s> + <d, A d>;
        in the orthonormal block basis each term is one forward basis change,
        one GEMM per block and a dot product per row, in the arrays that
        ``advance`` keeps.  No L f is formed.
        """
        s, d = self._sum_difference(spec)
        total = np.zeros(len(s))
        for x, blocks in ((s, self._a_plus_k), (d, self._a)):
            for c, p in self._block_products(blocks, x):
                dots = np.einsum("ij,ij->i", c, p)
                # a standard block holds two rows per input row
                total += dots.reshape(len(total), -1).sum(axis=1)
        return total.reshape((-1,) + spec.shape[1:-3]).sum(axis=0)

    # matrix-free operator applications ----------------------------------------
    def _dt_b(self, x: np.ndarray, with_k: bool) -> np.ndarray:
        """dt B x, B = A + K (the sum system, ``with_k``) or A (the difference system)."""
        y = landau.apply_A(self.tables, x)
        if with_k:
            y += landau.apply_K(self.tables, x)
        y *= self.dt
        return y

    @cached_property
    def _precond(self) -> np.ndarray:
        """The diagonal preconditioner 1 / (1 + dt 4 max(sigma) <v>^(gamma+2) / h^2)."""
        grid = self.tables.grid
        scale = 4.0 * float(np.max(self.tables.sigma)) / grid.spacing ** 2
        return 1.0 / (1.0 + self.dt * scale * grid.bracket(self.tables.gamma + 2.0))

    def _diagonal(self, r: np.ndarray) -> np.ndarray:
        """The diagonal preconditioner ``_precond`` applied to r."""
        return self._precond * r

    def _inner(self, r: np.ndarray) -> np.ndarray:
        """The sum solve's preconditioner: (I + dt A) z = r to ``INNER_TOL``, from 0.

        r is scaled by the power of 2 next above its largest entry, which is
        exact, so the squares of a late outer residual far below round-off
        do not underflow in the inner solve.  From 0 the residual is the
        right-hand side itself.
        """
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(r))))[1])
        rhs = r / scale
        z, _ = self._pcg(False, np.zeros_like(rhs), rhs, np.sqrt(np.sum(rhs * rhs)),
                         self._diagonal, self.INNER_TOL,
                         "the inner I + dt A solve's tolerance")
        z *= scale
        return z

    def _pcg(self, with_k: bool, x: np.ndarray, r: np.ndarray, rhs_norm: float,
             precond, tol: float, name: str = "cg_tol") -> tuple:
        """Batched flexible preconditioned CG for (I + dt B) x = rhs (``_dt_b``).

        Over all leading axes at once.  ``x`` is the initial guess and ``r``
        its residual rhs - (I + dt B) x, whose norm the relative residual
        divides by ``rhs_norm``; both are updated in place, so x returns the
        solution.  ``precond`` maps a residual to its preconditioned one.
        The Polak-Ribiere form beta = <z+, r+ - r> / <z, r> keeps the
        iteration a conjugate gradient when ``precond`` is itself an inexact
        solve (Notay, SIAM J. Sci. Comput. 22, 2000).  Besides x and r it
        keeps the previous residual, the direction p and one product buffer;
        z and (I + dt B) p live only while they are read.  Returns the
        solution and the number of iterations taken; raises CGNotConverged
        when the relative residual stays above ``tol`` (``name`` in the
        message).
        """
        tmp = np.empty_like(r)

        def dots(a, b):
            np.multiply(a, b, out=tmp)
            return np.sum(tmp, axis=(-3, -2, -1), keepdims=True)

        r_old = np.empty_like(r)
        p = precond(r)
        rz = dots(r, p)
        tol2 = (tol * max(rhs_norm, 1e-300)) ** 2
        for it in range(500):
            np.multiply(r, r, out=tmp)
            res2 = float(np.sum(tmp))
            if res2 <= tol2:
                return x, it
            ap = self._dt_b(p, with_k)
            ap += p
            alpha = rz / np.maximum(dots(p, ap), 1e-300)
            x += np.multiply(alpha, p, out=tmp)
            r, r_old = r_old, r
            np.subtract(r_old, np.multiply(alpha, ap, out=tmp), out=r)
            del ap
            z = precond(r)
            rz_new = dots(r, z)
            beta = (rz_new - dots(z, r_old)) / np.maximum(rz, 1e-300)
            p *= beta
            p += z
            del z
            rz = rz_new
        raise CGNotConverged(
            f"collision CG did not reach {name} = {tol:g} in 500 iterations "
            f"(relative residual {math.sqrt(res2) / max(rhs_norm, 1e-300):.3e})")

    def _solve(self, x: np.ndarray, with_k: bool) -> tuple:
        """(I + dt B) x' = (I - dt B) x by CG from x, B = A + K (sum) or A (difference).

        The right-hand side and the initial residual (I - dt B) x -
        (I + dt B) x share one B x.  x is overwritten by the solution.
        """
        bx = self._dt_b(x, with_k)
        rhs = x - bx
        r = np.add(x, bx, out=bx)
        np.subtract(rhs, r, out=r)
        rhs_norm = np.sqrt(np.sum(rhs * rhs))
        del rhs
        return self._pcg(with_k, x, r, rhs_norm, self._inner if with_k else self._diagonal,
                         self.cg_tol)

    def advance(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One trapezoid collision step on the species pair (batched over x).

        ``f`` is real or, for the direct solver, a spectrum in x, whose real
        and imaginary parts the real propagator advances alike.  The result
        goes into ``out``, which may be ``f`` itself, or a new array.
        """
        if self.method == "direct":
            s, d = self._sum_difference(f)
            self._blocked(self._prop[0], s)
            self._blocked(self._prop[1], d)
        else:
            s, iters_s = self._solve(f[0] + f[1], True)
            d, iters_d = self._solve(f[0] - f[1], False)
            self.last_iterations = (iters_s, iters_d)
        out = np.empty_like(f) if out is None else out
        halves = (out.real, out.imag) if np.iscomplexobj(out) else (out,)
        shape = (len(halves),) + f.shape[1:]
        s, d = s.reshape(shape), d.reshape(shape)
        for p, half in enumerate(halves):
            np.add(s[p], d[p], out=half[0])
            np.subtract(s[p], d[p], out=half[1])
            half *= 0.5
        return out


# ---------------------------------------------------------------------------
# Strang stepper
# ---------------------------------------------------------------------------


class Stepper:
    """Precomputed Strang-splitting stepper for a fixed configuration.

    ``step`` takes a physical ``PhaseState``, which it leaves as it was, and
    returns a new one.  In between, f is kept on the Hermitian half
    spectrum of its x axes (``SpatialGrid.forward_half``): one forward
    transform at the start of the step and one inverse at the end, the only
    transforms of a linearized direct step.  ``transport_half``,
    ``field_force_half`` and the collision substep update the forward
    transform's spectrum in place, through kept arrays (module docstring).
    """

    def __init__(self, config: RunConfig, sgrid: SpatialGrid, vgrid: VelocityGrid,
                 tables: landau.CollisionTables):
        self.config = config
        self.sgrid = sgrid
        self.vgrid = vgrid
        self.tables = tables
        self.collision = CollisionStepper(
            tables, config.dt, method=config.collision_solver, cg_tol=config.cg_tol)
        self.x_axes = tuple(range(1, 1 + sgrid.n_active))
        self._phase = self._transport_phase(0.5 * config.dt)
        # one species of the half spectrum: the current's f_+ - f_- and the
        # source's E . v mu^(1/2); kept with the direct solver only, as
        # under the CG solver it would add to the peak its operators set
        self._work = (np.empty(sgrid.half_shape + vgrid.shape, dtype=complex)
                      if self.collision.method == "direct" else None)

    def _transport_phase(self, tau: float) -> np.ndarray:
        """exp(-i tau xi . v) on the half spectrum, shape (*half_shape, n, n, n).

        The product over the active axes of one phase per axis.  On an
        axis's Nyquist mode, which has no Hermitian partner, that phase is
        the symmetric cos(tau xi v): it keeps real fields real and never
        amplifies.
        """
        sg = self.sgrid
        v = self.vgrid.axes()
        phase = np.ones(sg.half_shape + self.vgrid.shape, dtype=complex)
        for (xi, nyq), axis in zip(sg.half_mesh, sg.active_axes):
            arg = tau * xi[..., None, None, None] * v[axis]
            phase *= np.where(nyq[..., None, None, None], np.cos(arg), np.exp(-1j * arg))
        return phase

    def transport_half(self, spec: np.ndarray) -> np.ndarray:
        """Exact free transport over dt/2: one phase multiply of the half spectrum, in place."""
        spec *= self._phase
        return spec

    def _add_source(self, spec: np.ndarray, e_spec: np.ndarray) -> None:
        """spec += E . v mu^(1/2) q1 on the half spectrum, from the E spectrum.

        ``maxwell.source_profile`` forms E . v mu^(1/2) in the kept array.
        """
        ev = maxwell.source_profile(self.vgrid, self.sgrid.hermitian_half(e_spec),
                                    out=self._work)
        spec[0] += ev
        spec[1] -= ev

    def _current(self, spec: np.ndarray) -> np.ndarray:
        """The current's spectrum, shaped as E, from a half spectrum of f."""
        return self.sgrid.full_spectrum(
            maxwell.current_density(self.vgrid, spec, work=self._work))

    def _force(self, spec, e_spec, b_spec) -> np.ndarray:
        """The nonlinear force and Gamma(f, f) on the half spectrum.

        Both are products in x, so f, E and B go to physical space: one
        inverse transform of f in, one forward transform back.  In between,
        ``maxwell.nonlinear_terms`` forms both one x point per job, into
        one force array.
        """
        sg = self.sgrid
        f = sg.inverse_half(spec, self.x_axes)
        force = maxwell.nonlinear_terms(self.tables, f, sg.inverse(e_spec).real,
                                        sg.inverse(b_spec).real)
        return sg.forward_half(force, self.x_axes)

    def field_force_half(self, spec, e_spec, b_spec):
        """Explicit midpoint over dt/2 for the field/force subsystem; f in place.

        The subsystem is df/dt = S(E) + F, dE/dt = curl B - J(f), dB/dt =
        -curl E, with the source S and the current J from ``maxwell`` and,
        in nonlinear mode, the force F(f, E, B).  S and J are linear, so the
        midpoint current is J(f) + tau/2 (J(S(E)) + J(F)), with J(S(E)) from
        ``maxwell.source_current``; the midpoint f is formed only to
        evaluate F there, so never in linearized mode, where the update
        adds tau S(E_mid) into ``spec``.  Without field coupling f stays and
        E, B follow the vacuum equations.  Returns (spec, E, B); E and B are
        new arrays.
        """
        sg, tau = self.sgrid, 0.5 * self.config.dt
        coupled = self.config.couple_fields
        j = self._current(spec) if coupled else np.zeros_like(e_spec)
        de, db = maxwell.field_rhs(sg, maxwell.EMField(e_spec, b_spec), j)
        e_m = e_spec + 0.5 * tau * de
        b_m = b_spec + 0.5 * tau * db
        if not coupled:
            de, db = maxwell.field_rhs(sg, maxwell.EMField(e_m, b_m), j)
            return spec, e_spec + tau * de, b_spec + tau * db
        j += 0.5 * tau * sg.full_spectrum(
            maxwell.source_current(self.vgrid, sg.hermitian_half(e_spec)))
        force = None
        if self.config.mode == NONLINEAR:
            force = self._force(spec, e_spec, b_spec)
            j += 0.5 * tau * self._current(force)
            # the midpoint f, built in place of F: one array fewer is alive
            # while Gamma runs there
            self._add_source(force, e_spec)
            force *= 0.5 * tau
            force += spec
            force = self._force(force, e_m, b_m)
        de, db = maxwell.field_rhs(sg, maxwell.EMField(e_m, b_m), j)
        # S is linear: scaling E by tau is cheaper than scaling S(E); the
        # force joins the source before both join f
        if force is None:
            self._add_source(spec, tau * e_m)
        else:
            force *= tau
            self._add_source(force, tau * e_m)
            spec += force
        return spec, e_spec + tau * de, b_spec + tau * db

    def _collide(self, spec: np.ndarray) -> np.ndarray:
        """The collision substep on the half spectrum.

        The propagator is real and local in x: the direct solver advances
        the real and imaginary parts as rows of one real GEMM per block and
        species combination, in place.  The matrix-free CG runs on physical f.
        """
        if self.collision.method == "direct":
            return self.collision.advance(spec, out=spec)
        f = self.collision.advance(self.sgrid.inverse_half(spec, self.x_axes))
        return self.sgrid.forward_half(f, self.x_axes)

    def step(self, state: PhaseState) -> PhaseState:
        """One Strang step; ``state`` is left as it was."""
        spec = self.transport_half(self.sgrid.forward_half(state.f, self.x_axes))
        spec, e, b = self.field_force_half(spec, state.em.e_spec, state.em.b_spec)
        spec = self._collide(spec)
        spec, e, b = self.field_force_half(spec, e, b)
        f = self.sgrid.inverse_half(self.transport_half(spec), self.x_axes)
        return PhaseState(f=f, em=maxwell.EMField(e, b), t=state.t + self.config.dt)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, state: PhaseState, step_index: int = 0) -> None:
    """Binary snapshot: 64-byte descriptor + little-endian float64 payload.

    Written to a temp file next to ``path``, then renamed into place.
    """
    f = np.ascontiguousarray(state.f, dtype="<f8")
    e = np.ascontiguousarray(state.em.e_spec, dtype="<c16")
    b = np.ascontiguousarray(state.em.b_spec, dtype="<c16")
    n_active = f.ndim - 4
    n_x = f.shape[1] if n_active else 1
    head = struct.pack("<8sIIIIQd", CKPT_MAGIC, CKPT_VERSION, n_active,
                       n_x, f.shape[-1], step_index, state.t).ljust(64, b"\0")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(f.tobytes())
            fh.write(e.tobytes())
            fh.write(b.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path: str):
    """Returns (state, step_index); shapes recovered from the descriptor.

    Raises StateError, naming the path, for a file that cannot be read, is
    not a checkpoint, or whose payload length differs from its descriptor's.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(64)
            payload = fh.read()
    except OSError as exc:
        raise StateError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    if len(head) != 64 or head[:8] != CKPT_MAGIC:
        raise StateError(f"{path} is not a recognized checkpoint")
    _, version, n_active, n_x, n_v, step_index, t = struct.unpack("<8sIIIIQd", head[:40])
    if version != CKPT_VERSION:
        raise StateError(f"{path}: checkpoint version {version}, expected {CKPT_VERSION}")
    x_shape = (n_x,) * n_active
    f_count = 2 * (n_x ** n_active) * n_v ** 3
    em_count = 3 * (n_x ** n_active)
    need = 8 * f_count + 2 * 16 * em_count
    if len(payload) != need:
        raise StateError(
            f"checkpoint {path} is truncated or padded: {len(payload)} payload bytes, "
            f"its descriptor (n_x={n_x}, {n_active} active axes, n_v={n_v}) needs {need}")
    f = np.frombuffer(payload, "<f8", f_count).reshape((2,) + x_shape + (n_v,) * 3)
    e, b = np.frombuffer(payload, "<c16", 2 * em_count, 8 * f_count).reshape(
        (2, 3) + x_shape)
    return PhaseState(f=f.copy(), em=maxwell.EMField(e.copy(), b.copy()), t=t), step_index


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


@dataclass
class MonitorSeries:
    """Per-step energy/dissipation rows for the Lyapunov check."""

    t: list = field(default_factory=list)
    e_k: list = field(default_factory=list)        # arrays (k_max+1,)
    d_k: list = field(default_factory=list)        # literal dissipation functionals
    d_proxy_k: list = field(default_factory=list)  # collisional quadratic forms

    def as_arrays(self):
        return (np.array(self.t), np.array(self.e_k).T,
                np.array(self.d_k).T, np.array(self.d_proxy_k).T)


@dataclass
class RunResult:
    config: RunConfig
    reports: list
    monitor: MonitorSeries
    final_state: PhaseState
    contraction_violations: int = 0


def _finite(state: PhaseState) -> bool:
    return bool(np.all(np.isfinite(state.f)) and np.all(np.isfinite(state.em.e_spec))
                and np.all(np.isfinite(state.em.b_spec)))


def check_resume(config: RunConfig, initial: PhaseState | None,
                 resume_step: int) -> None:
    """Raise StateError unless ``run`` can start from ``initial`` at ``resume_step``.

    Rejected: a ``resume_step`` past the run's last step, an ``initial``
    state whose f, E or B shape differs from the config's grids, and an
    ``initial`` time other than ``resume_step * dt`` (to 1e-9 relative): a
    checkpoint written with another dt.
    """
    sgrid, vgrid = config.grids()
    n_steps = int(round(config.t_end / config.dt))
    if resume_step > n_steps:
        raise StateError(f"the checkpoint is at step {resume_step}, past the run's last "
                         f"step {n_steps} (t_end = {config.t_end:g}, dt = {config.dt:g})")
    if initial is not None:
        want = ((2,) + sgrid.shape + vgrid.shape, (3,) + sgrid.shape, (3,) + sgrid.shape)
        got = (initial.f.shape, initial.em.e_spec.shape, initial.em.b_spec.shape)
        if got != want:
            raise StateError(f"initial state has f/E/B shapes {got}, but the config's "
                             f"grids need {want}")
        t_resume = resume_step * config.dt
        if not abs(initial.t - t_resume) <= 1e-9 * max(abs(t_resume), config.dt):
            raise StateError(f"the checkpoint is at t = {initial.t:g}, but step "
                             f"{resume_step} of this run is at t = {t_resume:g} "
                             f"(dt = {config.dt:g})")


def run(config: RunConfig, initial: PhaseState | None = None,
        resume_step: int = 0, checkpoint_dir: str | None = None) -> RunResult:
    """Integrate to t_end, emitting functional reports at the configured cadence.

    Deterministic for a fixed config at a fixed BLAS thread count:
    identical seeds and parameters give bit-identical trajectories and
    reports, and a resume from a checkpoint continues the run bit for bit.
    Across thread counts they agree to round-off, because the propagator
    blocks' products (and so the collision substep) depend on how BLAS
    splits them.  A start that ``check_resume`` rejects raises StateError.
    Non-finite f, E or B aborts with NanAbort, and a collision CG that does
    not reach ``cg_tol`` with RunAbort; both carry the last good state, and
    with ``checkpoint_dir`` that state is also written there as
    ``last_good.bin``.  A non-finite initial state aborts at
    ``resume_step`` with itself as the last good state.

    Each recorded state (a monitor step, a report step, or both) is reduced
    once, by one ``diagnostics.SpectralSnapshot``: at ``beta_max`` on a
    report step, at beta = 0 on a monitor-only step.
    """
    config.validate()
    sgrid, vgrid = config.grids()
    n_steps = int(round(config.t_end / config.dt))
    check_resume(config, initial, resume_step)
    tables = landau.build_collision_tables(vgrid, config.gamma)
    projector = macro_micro.MacroProjector(vgrid)
    stepper = Stepper(config, sgrid, vgrid, tables)
    ctx = diag.DiagContext(sgrid, vgrid, tables, projector, config,
                           collision=stepper.collision)

    def abort(exc: RunAbort):
        if checkpoint_dir:
            save_checkpoint(os.path.join(checkpoint_dir, "last_good.bin"),
                            exc.last_good, exc.good_step)
        raise exc

    state = initial.copy() if initial is not None else initial_state(config, sgrid, vgrid)
    if not _finite(state):
        abort(NanAbort(resume_step, state.t, state, resume_step))

    reports: list = []
    monitor = MonitorSeries()
    contraction_violations = 0

    check_contraction = (config.preset == "relaxation" and config.mode == LINEARIZED)

    def record(st: PhaseState, with_monitor: bool, with_report: bool):
        if not (with_monitor or with_report):
            return
        snap = diag.SpectralSnapshot(ctx, st, report=with_report)
        if with_monitor:
            ek, dk, dpk = diag.monitor_row(ctx, snap)
            monitor.t.append(st.t)
            monitor.e_k.append(ek)
            monitor.d_k.append(dk)
            monitor.d_proxy_k.append(dpk)
        if with_report:
            rep = diag.build_report(ctx, snap)
            rep.x_t = max(reports[-1].x_t, rep.x_instant) if reports else rep.x_instant
            # the delta of the monitor interval ending here; NaN on a report
            # step that is not a monitor step
            if with_monitor and len(monitor.t) >= 2:
                rep.lyap_delta = diag.lyapunov_monitor(
                    monitor.t[-2:], np.transpose(monitor.e_k[-2:]),
                    np.transpose(monitor.d_proxy_k[-2:])).deltas[:, 0]
            reports.append(rep)

    record(state, bool(config.monitor_every), True)

    prev_norm2 = float(np.sum(state.f ** 2))
    for k in range(resume_step, n_steps):
        try:
            new_state = stepper.step(state)
        except CGNotConverged as exc:
            abort(RunAbort(str(exc), k + 1, state.t + config.dt, state, k))
        if not _finite(new_state):
            abort(NanAbort(k + 1, new_state.t, state, k))
        if check_contraction:
            norm2 = float(np.sum(new_state.f ** 2))
            if norm2 > prev_norm2 * (1.0 + 1e-10) + 1e-300:
                contraction_violations += 1
            prev_norm2 = norm2
        state = new_state
        step_no = k + 1
        record(state, bool(config.monitor_every) and step_no % config.monitor_every == 0,
               step_no % config.report_every == 0 or step_no == n_steps)
        if checkpoint_dir and config.checkpoint_every and \
                step_no % config.checkpoint_every == 0:
            save_checkpoint(os.path.join(checkpoint_dir, f"step{step_no:08d}.bin"),
                            state, step_no)

    return RunResult(config=config, reports=reports, monitor=monitor, final_state=state,
                     contraction_violations=contraction_violations)
