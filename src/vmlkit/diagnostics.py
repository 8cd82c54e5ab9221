"""Energy and dissipation functionals, decay fits, and inequality monitors.

All functionals are the coefficient-1 discrete representatives of the
weighted-energy family: combination constants that the analysis leaves as
equivalences are fixed to one.  Conventions:

* x-derivatives are spectral multipliers, v-derivatives the second-order
  finite differences of the collision tables (``CollisionTables.fd``) up to
  the configured depth (default |beta| <= 2).  The weighted sigma norms
  are integrals of the one sigma density against w_{ell-|beta|}(t, v)^2
  (``SpectralSnapshot.weighted``).
* every functional is an x-multiplier m(xi) times a quadratic form q_v
  local in v, so by Plancherel it equals sum_xi m(xi) q_v(f_hat(xi)).  The
  run builds one ``SpectralSnapshot`` per recorded state from one
  transform of f, the stepper's ``SpatialGrid.forward_half`` (an rfft).
  f is real, so f_hat(-xi) = conj f_hat(xi): every quantity of a mode is
  that of its partner, or its conjugate, and the snapshot works only on
  the half spectrum, the modes whose last active index is <= n_x / 2.
  Its per-mode powers (f, the collision power Re conj(f_hat) (L f)^, the
  charge, the macro coefficients, P f) are expanded to the full spectrum
  by ``SpatialGrid.full_spectrum``, so the multipliers stay full-spectrum
  arrays.  In direct mode the collision power is a quadratic
  form on the stepper's symmetry blocks, with no L f formed
  (``evolve.CollisionStepper.quadratic_form``); otherwise it is the one
  matrix-free L f of the state.  The velocity densities come from a
  derivative tree over blocks of half-spectrum modes, walked a level at a
  time: the d_beta fields of one order are one stacked real array, formed
  by three stencil passes from the level above, squared in place and
  contracted over species, modes and real and imaginary parts by a GEMM
  against the alpha multipliers, which depend only on |beta|.  The sigma
  density is linear in the squares, so its bracket weight
  (``landau.sigma_density``, the one sigma split) multiplies the
  mode-contracted sums once per snapshot.  The multipliers carry
  ``SpatialGrid.orbit_weight``, 2 on interior modes and 1 at last index 0
  and n_x / 2.  The fields of a block are views of a scratch
  (``BlockFields``), kept for the run with a direct stepper.  The
  constants every snapshot shares (alpha multipliers, the tree's plans)
  are built once per ``DiagContext``; the x multipliers once per
  ``SpatialGrid``.
  The monitor row and the report read that snapshot; each functional is a
  multiplier or weight dot product.
* the macro snapshot behind the fluid residuals (``macro_snapshot``) is
  not part of a run: it is formed in physical space from a state, with
  P f, the moment functions, the matrix-free L and spectral x-derivatives.
* the mixed-derivative terms ||w d^alpha_beta f||^2 measure the real field
  Re d^alpha f.  At a mode whose orders alpha_i, summed over the axes that
  sit at the Nyquist index, are odd, (i xi)^alpha f_hat has no Hermitian
  partner and the real part drops it: the multiplier is zero there and
  xi^(2 alpha) elsewhere.  The unweighted bands |xi|^(2j) of E^k, D^k and
  the field terms keep the Nyquist mode at every order.
* every negative-order norm excludes the xi = 0 mode, whose content is
  reported separately (torus surrogate of the whole-space theory).
* the smallness functional Y_0 of the initial data (``y0_functional``) is
  read from a report snapshot, like the report itself.
* the a priori functional X(t) = sup_s (Ebar + E_N + (1+s)^(-(1+eps0)/2)
  E_{N,l}) is recorded as the report's ``x_instant`` (the bracket at t)
  and ``x_t``, the running sup the run loop keeps over its reports.
* the per-step Lyapunov check pairs the energy drop against the measured
  collisional quadratic form 2<L d^a f, d^a f> (the dissipation the
  trapezoid substep provably extracts); the literal dissipation
  functionals are recorded alongside for the interpolation monitor.

Algebraic decay targets are whole-space statements; fits are therefore
taken on an intermediate window chosen by minimal fit residual, and the
late-time exponential rate of the slowest torus mode is reported next to
every fit (see ``TORUS_CAVEAT``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import landau, macro_micro, maxwell
from .phase_grid import SpatialGrid, VelocityGrid

# bytes of the derivative tree's scratch for one block of xi-modes (a
# report's level buffers and grad . u terms, ``BlockFields``): a block holds
# as many modes as fit, at least one, so its fields stay in cache while the
# tree is walked.  A direct run keeps the scratch, which stays well below the
# other arrays of a report
BLOCK_BYTES = 2 * 1024 * 1024
# the velocity axes in the order of the derivative tree: the last one takes
# a stencil pass from every beta of a level, the first from one.  v_3 comes
# first: a pass along the last memory axis is one GEMM over all its lines,
# whose operand a threaded OpenBLAS packs whole into a work buffer that stays
# resident, so it gets the fewest lines
TREE_AXES = (2, 1, 0)

TORUS_CAVEAT = (
    "torus caveat: algebraic decay rates -(k+s) are whole-space statements; "
    "on the periodic box they hold only on an intermediate window before the "
    "slowest nonzero mode takes over exponentially. The fit window is chosen "
    "by minimal residual and the late-time exponential rate is reported "
    "separately."
)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


@dataclass
class DiagContext:
    """Grids, tables, projector and the run configuration shared by all diagnostics.

    ``config`` is the run's ``RunConfig``, whose functional parameters
    (n_max, n0, k_max, beta_max, the weight orders, s, theta, eps0, mode)
    the functionals read.  ``collision`` is the run's ``CollisionStepper``:
    with a direct one, a snapshot's collision power is its block quadratic
    form (``quadratic_form``); in CG mode or without one, it comes from the
    matrix-free ``landau.apply_L``.

    The run constants every snapshot reads, the alpha multipliers and the
    (alpha, beta) plans of the derivative tree, are built on first use and
    kept.  With a direct stepper the derivative tree's scratch is kept too
    (``block_fields``).  They follow the fields above, which must not change
    afterwards.
    """

    sgrid: SpatialGrid
    vgrid: VelocityGrid
    tables: landau.CollisionTables
    projector: macro_micro.MacroProjector
    config: object
    collision: object = None
    _fields: object = field(default=None, init=False, repr=False)

    @property
    def x_axes(self) -> tuple:
        return tuple(range(1, 1 + self.sgrid.n_active))

    @property
    def direct(self):
        """The run's collision stepper if it is direct (L from its blocks), else None."""
        coll = self.collision
        return coll if coll is not None and coll.method == "direct" else None

    @property
    def keeps_tree_scratch(self) -> bool:
        """Whether the derivative tree's scratch is kept across snapshots.

        Kept with a direct stepper, so that the loop's snapshots allocate no
        per-block fields; the scratch is then a fixed cost beside the
        propagator blocks, and a block holds whole modes (at n_v = 16 a
        mode's scratch is 2.5 MB, and blocks of two columns made the two
        n_v = 16 acceptance fixtures' report snapshot 6-30 % slower).  Made
        per snapshot otherwise (a matrix-free stepper, or no stepper, as in
        the ``norms`` command), where it adds to the peak, so a block is a
        run of one mode's columns that fits ``BLOCK_BYTES`` (1.2 MB in place
        of 4.9 MB a mode at n_v = 20).  The split costs where the scratch is
        not what sets the peak: the ``norms`` snapshot of the default preset
        (n_x = 64, n_v = 16) took 194 ms against 167 ms with whole modes, at
        the same traced peak of 23.3 MB.
        """
        return self.direct is not None

    def block_fields(self) -> "BlockFields":
        """The derivative tree's scratch, kept or per snapshot (``keeps_tree_scratch``)."""
        if not self.keeps_tree_scratch:
            return BlockFields()
        if self._fields is None:
            self._fields = BlockFields()
        return self._fields

    def alphas(self, n_total: int):
        """Spatial multi-indices over active axes with |alpha| <= n_total."""
        d = self.sgrid.n_active
        for total in range(n_total + 1):
            for combo in itertools.combinations_with_replacement(range(d), total):
                alpha = [0] * d
                for c in combo:
                    alpha[c] += 1
                yield tuple(alpha)

    @cached_property
    def plans(self) -> dict:
        """The derivative-tree plans of a report (True) and a monitor (False) snapshot."""
        alphas = list(self.alphas(max(self.config.n_max, self.config.n0)))
        mults = _alpha_multipliers(self.sgrid, alphas)
        return {report: SnapshotPlan(self.config, alphas, mults, report)
                for report in (True, False)}


# ---------------------------------------------------------------------------
# one spectral pass per recorded state
# ---------------------------------------------------------------------------


def _alpha_multipliers(sgrid: SpatialGrid, alphas: list) -> np.ndarray:
    """Plancherel weight of Re d^alpha on the half spectrum, (len(alphas), modes).

    The modes are those whose last active index is <= n_x // 2, in C order.
    Each row is xi^(2 alpha), zeroed where the orders on the Nyquist axes
    sum to an odd number (see the module docstring), times the grid's
    ``orbit_weight``.
    """
    shape = sgrid.half_shape
    out = np.empty((len(alphas), math.prod(shape)))
    for row, alpha in enumerate(alphas):
        mult = np.broadcast_to(sgrid.orbit_weight, shape)
        odd = np.zeros(shape, dtype=bool)
        for (xi, nyq), a in zip(sgrid.half_mesh, alpha):
            mult = mult * xi ** (2 * a)
            if a % 2:
                odd = odd ^ nyq
        out[row] = np.where(odd, 0.0, mult).ravel()
    return out


class SnapshotPlan:
    """The (alpha, beta) pairs of a snapshot and the levels of its derivative tree.

    ``levels[k]`` holds the betas of order k (k up to ``top`` + 1, ``top``
    being min(max(n_max, n0), beta_max) for a report and 0 for a monitor
    row) as tuples of velocity axes sorted by ``TREE_AXES``, ordered so
    that, for each axis j, the betas with no axis after j are a prefix of
    the level: ``passes[k]`` holds, per axis j, the length p of that prefix
    and the offset o in level k + 1 of its children beta + (j,), so level
    k + 1 is three stencil passes from level k.  ``kid_sum[k]``
    (n_k, n_(k+1)) is the 0/1 matrix that sums a beta's three children
    beta + e_j, and ``runs[k]`` holds the children along each axis as runs
    (first beta, last beta + 1, first child), the last axis of
    ``TREE_AXES``, one run over the whole level, first.  ``caps`` holds the
    fields per mode of the walk's scratch: the even and the odd levels'
    buffer and the longest run of grad . u terms; ``rows`` the most rows of
    n^3 doubles that one contraction of a level, and one sum over children,
    writes.

    The alpha multipliers of a pair depend only on |beta|: level k pairs
    every beta with the first ``n_rows[k]`` alphas (|alpha| + k <= max(n_max,
    n0); the alphas run by order, so the rows of a deeper level are a prefix
    of its parent's).  ``pairs`` lists the (alpha, beta) level by level,
    beta by beta within a level, from ``first[k]`` on: the order in which
    one (batched) GEMM of a level's squares against its rows writes them.
    """

    def __init__(self, cfg, alphas: list, mults: np.ndarray, report: bool):
        depth = max(cfg.n_max, cfg.n0)
        self.top = min(depth, cfg.beta_max) if report else 0
        rank = {j: r for r, j in enumerate(TREE_AXES)}
        self.levels = [[()]]
        for _ in range(self.top + 1):
            self.levels.append([c + (j,) for j in TREE_AXES for c in self.levels[-1]
                                if not c or rank[c[-1]] <= rank[j]])
        self.passes, self.kid_sum, self.runs = [], [], []
        for level, below in zip(self.levels, self.levels[1:]):
            place = {c: i for i, c in enumerate(below)}
            kids = np.array([[place[tuple(sorted(c + (j,), key=rank.get))] for j in range(3)]
                             for c in level])
            passes, offset = [], 0
            for j in TREE_AXES:
                p = sum(1 for c in level if not c or rank[c[-1]] <= rank[j])
                passes.append((j, p, offset))
                offset += p
            runs = []
            for j in reversed(TREE_AXES):
                cuts = [b for b in range(1, len(level)) if kids[b, j] != kids[b - 1, j] + 1]
                bounds = [0] + cuts + [len(level)]
                runs.append((j, [(b0, b1, kids[b0, j]) for b0, b1 in zip(bounds, bounds[1:])]))
            kid_sum = np.zeros((len(level), len(below)))
            np.put_along_axis(kid_sum, kids, 1.0, axis=1)
            self.passes.append(passes)
            self.kid_sum.append(kid_sum)
            self.runs.append(runs)
        sizes = [len(level) for level in self.levels]
        self.caps = (max(sizes[0::2]), max(sizes[1::2]),
                     max(b1 - b0 for runs in self.runs for _, rs in runs[1:] for b0, b1, _ in rs))
        self.n_rows = [sum(1 for a in alphas if sum(a) + k <= depth)
                       for k in range(self.top + 2)]
        contracted = [(k, self.n_rows[k]) for k in range(self.top + 1)]
        contracted += [(k + 1, self.n_rows[k]) for k in range(self.top + 1)]
        self.rows = (max(sizes[k] * m for k, m in contracted),
                     max(sizes[k] * m for k, m in contracted[:self.top + 1]))
        self.pairs, self.first = [], []
        for k, level in enumerate(self.levels[:self.top + 1]):
            self.first.append(len(self.pairs))
            self.pairs += [(a, tuple(c.count(j) for j in range(3)))
                           for c in level for a in alphas[:self.n_rows[k]]]
        self.a_ord = np.array([sum(a) for a, _ in self.pairs])
        self.b_ord = np.array([sum(b) for _, b in self.pairs])
        self._mults = mults
        self._blocks: dict = {}

    def block_rows(self, start: int, stop: int) -> np.ndarray:
        """The alpha rows over modes start..stop, one column per (re/im, species, mode).

        The columns match a field of the tree (``SpectralSnapshot``); level
        k reads the first ``n_rows[k]`` rows.  Kept per block, like the plan.
        """
        key = (start, stop)
        if key not in self._blocks:
            rows = self._mults[:, None, None, start:stop]
            self._blocks[key] = np.broadcast_to(
                rows, (len(rows), 2, 2, stop - start)).reshape(len(rows), -1)
        return self._blocks[key]


def _collision_power(ctx: DiagContext, f: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Re sum conj(f_hat) (L f)^ over species and v per half-spectrum mode.

    ``spec`` is ``forward_half`` of the physical pair f.  A direct stepper
    evaluates it as its block quadratic form on ``spec``; otherwise L f is
    applied matrix-free to f and transformed.
    """
    if ctx.direct is not None:
        return ctx.direct.quadratic_form(spec)
    lf = ctx.sgrid.forward_half(landau.apply_L(ctx.tables, f), ctx.x_axes)
    return np.sum(spec.real * lf.real + spec.imag * lf.imag, axis=(0, -3, -2, -1))


class BlockFields:
    """The derivative tree's scratch, in buffers kept across blocks (and snapshots).

    ``views(plan, cols, vshape)`` gives the arrays of a block of ``cols``
    columns (``_tree_blocks``; 4 nb for nb whole modes): per level k of
    ``plan`` its n_k real fields (n_k, cols, v...), views of two buffers
    that alternate by level, so a level and its grandchildren share one;
    the fields of grad . u's terms; and two flat buffers for the contracted
    rows of a level and their sums over children.  Each buffer grows to the
    largest size asked for, and the views of a tree depth and column count
    are kept.
    """

    def __init__(self):
        self._buffers: dict = {}
        self._views: dict = {}

    def views(self, plan: SnapshotPlan, cols: int, vshape: tuple) -> tuple:
        key = (plan.top, cols)
        if key not in self._views:
            field = math.prod((cols,) + vshape)
            sizes = dict(zip(("even", "odd", "term"), (cap * field for cap in plan.caps)))
            sizes.update(zip(("rows", "kid_rows"), (r * math.prod(vshape) for r in plan.rows)))
            for name, size in sizes.items():
                if self._buffers.get(name, np.empty(0)).size < size:
                    self._buffers[name] = np.empty(size)
                    self._views.clear()
            bufs = {name: self._buffers[name][:size] for name, size in sizes.items()}
            shape = (-1, cols) + vshape
            levels = [bufs[("even", "odd")[k % 2]].reshape(shape)[:len(level)]
                      for k, level in enumerate(plan.levels)]
            self._views[key] = (levels, bufs["term"].reshape(shape),
                                bufs["rows"], bufs["kid_rows"])
        return self._views[key]


def _tree_blocks(n_modes: int, column_bytes: int, split: bool) -> list:
    """The derivative tree's blocks, (first mode, modes nb, first column, end column).

    A column is one species' real or imaginary part of one mode, and a
    block's scratch is ``column_bytes`` per column.  Where a whole mode
    fits ``BLOCK_BYTES``, a block is as many whole modes as fit, all their
    4 nb columns.  Otherwise, with ``split``, a block is one mode's run of
    columns, the mode's four split into the fewest equal runs that fit (at
    least one column), and without it one whole mode.
    """
    fit = max(1, BLOCK_BYTES // column_bytes)
    if fit >= 4 or not split:
        nb = max(1, fit // 4)
        return [(m, min(nb, n_modes - m), 0, 4 * min(nb, n_modes - m))
                for m in range(0, n_modes, nb)]
    runs = -(-4 // fit)
    cuts = [4 * r // runs for r in range(runs + 1)]
    return [(m, 1, c0, c1) for m in range(n_modes) for c0, c1 in zip(cuts, cuts[1:])]


def _tree_densities(ctx: DiagContext, plan: SnapshotPlan, f_spec: np.ndarray,
                    micro: np.ndarray, report: bool) -> dict:
    """The per-pair velocity densities of ``SpectralSnapshot``, from its derivative tree."""
    sgrid, vgrid = ctx.sgrid, ctx.vgrid
    apply_axis, fd, vpar, top = landau._apply_axis, ctx.tables.fd, ctx.tables.vpar, plan.top
    sizes, n_rows, width = [len(c) for c in plan.levels], plan.n_rows, vgrid.n_v ** 3
    # per pair, summed over blocks: |d f|^2, |d micro|^2 ("extra"; a monitor
    # keeps it only until "sigma" is formed) and the rest of the sigma bracket
    # of d micro, sum_j |d_j d micro|^2 - |grad d micro . u|^2
    shape = (len(plan.pairs),) + vgrid.shape
    dens = {name: np.zeros(shape) for name in (("f", "extra") if report else ("extra",))}
    own, bracket = dens["extra"], np.zeros(shape)

    def per_level(acc):
        return [acc[lo:lo + n * m].reshape(n, m, width)
                for lo, n, m in zip(plan.first, sizes, n_rows)]

    f_acc = per_level(dens["f"]) if report else None
    own_acc, bracket_acc = per_level(own), per_level(bracket)
    n_modes = math.prod(sgrid.half_shape)
    fv = f_spec.reshape((2, n_modes) + vgrid.shape)
    mv = micro.reshape(fv.shape)
    fields = ctx.block_fields()
    # blocks sized by a report's scratch, so that a monitor row sums its
    # densities over the same blocks; a mode splits into columns only where
    # the scratch is made per snapshot (``DiagContext.keeps_tree_scratch``)
    column = sum(ctx.plans[True].caps) * width * 8
    for start, nb, c0, c1 in _tree_blocks(n_modes, column, not ctx.keeps_tree_scratch):
        wts = plan.block_rows(start, start + nb)[:, c0:c1]
        levels, term, rows, kid_rows = fields.views(plan, c1 - c0, vgrid.shape)

        def root(spec):
            """The block's columns of the real and imaginary parts as level 0.

            The block's modes have 4 nb columns, (re/im, species, mode) in
            C order: group g = 2 re/im + species holds g nb .. (g + 1) nb.
            """
            groups = (spec[0].real, spec[1].real, spec[0].imag, spec[1].imag)
            for g, part in enumerate(groups):
                lo, hi = max(c0, g * nb), min(c1, (g + 1) * nb)
                if lo < hi:
                    modes = part[start + lo - g * nb:start + hi - g * nb]
                    np.copyto(levels[0][0, lo - c0:hi - c0], modes)

        def children(k):
            lvl, below = levels[k], levels[k + 1]
            for j, p, o in plan.passes[k]:
                apply_axis(fd, lvl[:p], j - 3, out=below[o:o + p])

        def squares(k, m):
            """Level k squared in place, against the first m alpha rows: (n_k, m, n^3)."""
            lvl = levels[k]
            np.multiply(lvl, lvl, out=lvl)
            out = rows[:sizes[k] * m * width].reshape(sizes[k], m, width)
            return np.matmul(wts[:m], lvl.reshape(sizes[k], c1 - c0, width), out=out)

        def gradient_squares(k, terms):
            """Each beta of level k summed over the rows of its three children."""
            out = kid_rows[:sizes[k] * n_rows[k] * width].reshape(sizes[k], n_rows[k], width)
            np.matmul(plan.kid_sum[k], terms.reshape(sizes[k + 1], -1),
                      out=out.reshape(sizes[k], -1))
            np.add(bracket_acc[k], out, out=bracket_acc[k])

        if report:
            root(fv)
            for k in range(top + 1):
                if k < top:
                    children(k)
                np.add(f_acc[k], squares(k, n_rows[k]), out=f_acc[k])
        root(mv)
        for k in range(top + 1):
            children(k)
            if k:
                terms = squares(k, n_rows[k - 1])
                np.add(own_acc[k], terms[:, :n_rows[k]], out=own_acc[k])
                gradient_squares(k - 1, terms)
            else:
                np.add(own_acc[0], squares(0, n_rows[0]), out=own_acc[0])
            # grad . u = sum_j u_j d_j from the children, into the spent level
            below, gpar = levels[k + 1], levels[k]
            (j, [(_, _, g0)]), *others = plan.runs[k]
            np.multiply(below[g0:g0 + sizes[k]], vpar[j], out=gpar)
            for j, runs in others:
                for b0, b1, g0 in runs:
                    t = term[:b1 - b0]
                    np.multiply(below[g0:g0 + b1 - b0], vpar[j], out=t)
                    np.add(gpar[b0:b1], t, out=gpar[b0:b1])
            np.subtract(bracket_acc[k], squares(k, n_rows[k]), out=bracket_acc[k])
        gradient_squares(top, squares(top + 1, n_rows[top]))
    np.add(bracket, own, out=bracket)
    dens["sigma"] = landau.sigma_density(ctx.tables, bracket, out=bracket)
    if report:
        own *= 1.0 + vgrid.vsq()
    else:
        del dens["extra"]
    return dens


class SpectralSnapshot:
    """Per-mode powers, velocity densities and macro coefficients of one state.

    Built from one ``forward_half`` f_hat of ``state.f`` (a second one of
    L f in CG mode or without a stepper); neither f_hat nor any per-beta
    field outlives the constructor.  ``power[name]`` holds, per xi mode of
    the full spectrum, the summed |.|^2 of f ("f", with the velocity cell
    volume), E ("e"), B ("b"), the charge a_+ - a_- ("charge"), the six
    macro coefficients ("macro"), P f in the Gram form of its coefficients
    ("pf") and the collision power vol Re sum conj(f_hat) (L f)^ ("lf"):
    this is the one place a run's diagnostics apply L to a state
    (``macro_snapshot``, which no run calls, applies its own).  All but
    "e" and "b" are formed on the half spectrum and expanded by
    ``SpatialGrid.full_spectrum``.  ``coef`` holds the half spectra of the
    six macro coefficients, (6, *half_shape), from which the report takes
    the charge of the Gauss residual.

    ``report`` selects what a report reads: velocity derivatives up to
    ``beta_max``.  Without it (a monitor row) only beta = 0 is formed.

    ``pairs`` lists the (alpha, beta) of the context's plan
    (``SnapshotPlan``).  Per pair, ``dens[name]`` holds the x- and
    species-reduced velocity density of |d^alpha_beta f|^2 ("f"), of
    <v>^2 |d^alpha_beta {I-P} f|^2 ("extra") and the sigma bracket of
    d^alpha_beta {I-P} f ("sigma").  A monitor snapshot forms only "sigma",
    the one density ``monitor_row`` reads.

    The densities come from a derivative tree walked over blocks of the half
    spectrum, with the grid's ``orbit_weight`` folded into the alpha
    multipliers, so each density is still the full-spectrum sum.  A block
    holds as many modes as ``BLOCK_BYTES`` of a report's scratch fits, at
    least one, so its fields stay in cache; a monitor walks the same blocks.
    Within a block the tree goes a level at a time.  The d_beta f_hat of one
    order (|beta| up to the depth above) are one real array of the real and
    imaginary parts (``SnapshotPlan.levels``), as are the d_beta micro (one
    order deeper): three stacked stencil passes form a level from the one
    above, 28 fields in 15 calls per block at beta_max = 2, 3 in 3 for a
    monitor snapshot.  Once its children are formed a level is squared in
    place and contracted over species, modes and real and imaginary parts
    by one GEMM per beta against the alpha rows of its parent level, whose
    first rows are its own.  The sigma bracket of d_beta micro is
    |d_beta micro|^2 + sum_j |d_(beta+e_j) micro|^2 - |grad d_beta micro . u|^2
    (``landau.sigma_density``), linear in the squares: its own term is the
    "extra" sum, its gradient terms sum the rows of its three children, and
    grad . u is formed from the children into the spent parent's buffer and
    contracted like a level.  The weights b_perp^2 and <v>^2 multiply the
    contracted sums once per snapshot.  The walk's scratch
    (``ctx.block_fields``, kept by a direct run) is ``SnapshotPlan.caps``
    fields per mode of a block, each the real and imaginary parts of both
    species (19 at beta_max = 2), and ``SnapshotPlan.rows`` rows of n^3
    doubles; its accumulators are the three densities.
    """

    def __init__(self, ctx: DiagContext, state, report: bool):
        sgrid, vgrid, proj = ctx.sgrid, ctx.vgrid, ctx.projector
        abs2 = landau._abs2
        self.state = state
        self.vol = vgrid.cell_volume
        f_spec = sgrid.forward_half(state.f, ctx.x_axes)
        # the collision power before the projector's GEMMs: in CG mode its
        # matrix-free L runs on the convolution pool, which a threaded GEMM
        # just before slows down
        lf = self.vol * _collision_power(ctx, state.f, f_spec)
        self.coef = coef = proj.coefficients(f_spec)
        micro = proj.assemble(coef)
        np.subtract(f_spec, micro, out=micro)
        per_mode = {"f": self.vol * np.sum(abs2(f_spec), axis=(0, -3, -2, -1)),
                    "lf": lf, "charge": abs2(coef[0] - coef[1]),
                    "macro": np.sum(abs2(coef), axis=0),
                    "pf": np.einsum("ij,i...,j...->...", proj.gram,
                                    coef.conj(), coef).real}
        self.power = {name: sgrid.full_spectrum(p) for name, p in per_mode.items()}
        self.power["e"] = np.sum(abs2(state.em.e_spec), axis=0)
        self.power["b"] = np.sum(abs2(state.em.b_spec), axis=0)

        plan = ctx.plans[report]
        self.pairs, self.a_ord, self.b_ord = plan.pairs, plan.a_ord, plan.b_ord
        self.dens = _tree_densities(ctx, plan, f_spec, micro, report)

    def norm2(self, mult, *names: str) -> float:
        """sum over modes of ``mult`` times each named power."""
        return sum(float(np.sum(mult * self.power[name])) for name in names)

    def select(self, k: int, depth: int) -> np.ndarray:
        """Mask of the pairs with k <= |alpha| and |alpha| + |beta| <= depth."""
        return (self.a_ord >= k) & (self.a_ord + self.b_ord <= depth)

    def band(self, terms: np.ndarray, k: int, depth: int) -> float:
        """Sum of per-pair ``terms`` over ``select(k, depth)``."""
        return float(np.sum(terms[self.select(k, depth)]))

    def weighted(self, ctx: DiagContext, ell: float, t: float) -> dict:
        """Per-pair integrals of every density against w_{ell-|beta|}(t, v)^2."""
        vgrid, cfg = ctx.vgrid, ctx.config
        wsq = np.stack([vgrid.weight_field(cfg.weight_params(ell - b), t) ** 2
                        for b in range(int(self.b_ord.max()) + 1)])[self.b_ord]
        return {name: self.vol * np.sum(d * wsq, axis=(1, 2, 3))
                for name, d in self.dens.items()}

    def sigma_band(self, k: int, top: int) -> float:
        """sum_{k <= |alpha| <= top} ||d^alpha {I-P} f||_sigma^2, unweighted."""
        keep = (self.b_ord == 0) & (self.a_ord >= k) & (self.a_ord <= top)
        return self.vol * float(np.sum(self.dens["sigma"][keep]))


# ---------------------------------------------------------------------------
# the functional family
# ---------------------------------------------------------------------------


def band_energy(ctx: DiagContext, snap: SpectralSnapshot, jmin: int, jmax: int) -> float:
    """sum_{jmin <= |a| <= jmax} ||d^a (f, E, B)||^2: E^k is (k, n0), E_N is (0, N)."""
    return snap.norm2(ctx.sgrid.band_multiplier(jmin, jmax), "f", "e", "b")


def dissipation_k(ctx: DiagContext, snap: SpectralSnapshot, k: int, top: int,
                  micro: float) -> float:
    """D^k: grad^k (E, charge) + mid-band (Pf, E, B) + top-order Pf + ``micro``.

    ``micro`` is the micro sigma term: ``snap.sigma_band(k, top)`` for D^k
    and D_N (= D^0 with top N), the weighted sigma band plus the extra
    dissipation term for the weighted D^k.
    """
    band = ctx.sgrid.band_multiplier
    return (snap.norm2(band(k, k), "charge", "e")
            + snap.norm2(band(k + 1, top - 1), "pf", "e", "b")
            + snap.norm2(band(top, top), "pf") + micro)


def dissipation_weighted(ctx: DiagContext, snap: SpectralSnapshot, terms: dict,
                         n: int, t: float) -> float:
    """D_{N,ell} from one weight level's ``terms`` (``snap.weighted``).

    Macro derivatives, the charge, field terms, weighted micro sigma norms,
    and the (1+t)^(-1-theta) extra-dissipation term.
    """
    band = ctx.sgrid.band_multiplier
    return (snap.norm2(band(1, n), "macro")
            + snap.band(terms["sigma"], 0, n) + snap.norm2(1.0, "charge")
            + snap.norm2(band(0, n - 1), "e")
            + snap.norm2(band(1, max(n - 1, 1)), "b")
            + (1.0 + t) ** (-1.0 - ctx.config.theta) * snap.band(terms["extra"], 0, n))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class FunctionalReport:
    """Time-stamped values of the full functional family (one CSV row).

    The fields are the CSV columns in order: a float field is one column, an
    array field the columns ``<name>_0 .. <name>_<k_max>``, NaN while None.
    """

    t: float
    norm_f_sq: float
    field_energy: float
    e_n: float
    e_k: np.ndarray
    d_n: float
    d_k: np.ndarray
    d_proxy: np.ndarray
    e_w: float
    d_w: float
    ebar_top: float
    dbar_top: float
    e_k_w: np.ndarray
    d_k_w: np.ndarray
    cap: np.ndarray
    hneg_f: float
    hneg_e: float
    hneg_b: float
    zmode_f: float
    zmode_e: float
    zmode_b: float
    gauss_residual: float
    div_b: float
    x_instant: float
    x_t: float = math.nan
    lyap_delta: np.ndarray = None

    @staticmethod
    def header(k_max: int) -> list:
        cols = []
        for item in fields(FunctionalReport):
            is_array = item.type == "np.ndarray"
            cols += [f"{item.name}_{k}" for k in range(k_max + 1)] if is_array else [item.name]
        return cols

    def row(self, k_max: int) -> list:
        vals = []
        for item in fields(self):
            value = getattr(self, item.name)
            vals += [math.nan] * (k_max + 1) if value is None else list(np.atleast_1d(value))
        return vals


def monitor_row(ctx: DiagContext, snap: SpectralSnapshot):
    """Per-step Lyapunov row: E^k band energies, literal D^k, collision proxy.

    The proxy is 2 <L d^a f, d^a f> summed over the bands k..n0.  Every
    term reads only the beta = 0 densities, so any snapshot of the state
    gives the same row.
    """
    band, n0 = ctx.sgrid.band_multiplier, ctx.config.n0
    ks = range(ctx.config.k_max + 1)
    e_k = np.array([band_energy(ctx, snap, k, n0) for k in ks])
    d_k = np.array([dissipation_k(ctx, snap, k, n0, snap.sigma_band(k, n0)) for k in ks])
    d_proxy = np.array([2.0 * snap.norm2(band(k, n0), "lf") for k in ks])
    return e_k, d_k, d_proxy


def build_report(ctx: DiagContext, snap: SpectralSnapshot) -> FunctionalReport:
    """The full functional family of one snapshot's state (one CSV row)."""
    cfg, sgrid = ctx.config, ctx.sgrid
    t, em = snap.state.t, snap.state.em
    n0, n_max, s = cfg.n0, cfg.n_max, cfg.s_exp
    band = sgrid.band_multiplier
    e_k, d_k, d_proxy = monitor_row(ctx, snap)
    e_n = band_energy(ctx, snap, 0, n_max)
    d_n = dissipation_k(ctx, snap, 0, n_max, snap.sigma_band(0, n_max))

    def lam2(s_exp: float) -> np.ndarray:
        return sgrid.lambda_multiplier(s_exp) ** 2

    # weighted families at the configured weight levels
    big = snap.weighted(ctx, cfg.ell, t)
    e_w = snap.band(big["f"], 0, n_max) + snap.norm2(band(0, n_max), "e", "b")
    d_w = dissipation_weighted(ctx, snap, big, n_max, t)

    hneg_f, hneg_e, hneg_b = (math.sqrt(snap.norm2(lam2(-s), name))
                              for name in ("f", "e", "b"))
    neg2 = hneg_f ** 2 + hneg_e ** 2 + hneg_b ** 2
    em_n0 = snap.norm2(band(0, n0), "e", "b")
    top = snap.weighted(ctx, cfg.ell0 + cfg.lstar, t)
    ebar_top = snap.band(top["f"], 0, n0) + em_n0 + neg2
    dbar_top = (dissipation_weighted(ctx, snap, top, n0, t)
                + snap.norm2(lam2(1.0 - s), "e", "b", "macro")
                + snap.norm2(lam2(-s), "charge", "e"))

    low = snap.weighted(ctx, cfg.ell0, t)
    decay = (1.0 + t) ** (-1.0 - cfg.theta)
    e_k_w = np.empty(cfg.k_max + 1)
    d_k_w = np.empty(cfg.k_max + 1)
    cap = np.empty(cfg.k_max + 1)
    for k in range(cfg.k_max + 1):
        e_k_w[k] = snap.band(low["f"], k, n0) + snap.norm2(band(k, n0), "e", "b")
        d_k_w[k] = dissipation_k(ctx, snap, k, n0, snap.band(low["sigma"], k, n0)
                                 + decay * snap.band(low["extra"], k, n0))
        # interpolation cap: max of the half-weighted family and the
        # fractional-order unweighted energy at N0 + k + s
        half = snap.weighted(ctx, 0.5 * (k + s), t)
        m_frac = band(0, n0 + k, frac_top=n0 + k + s)
        cap[k] = max(snap.band(half["f"], 0, n0) + em_n0 + neg2,
                     snap.norm2(m_frac, "f", "e", "b"))

    zero_idx = (0,) * sgrid.n_active
    zmode_f, zmode_e, zmode_b = (math.sqrt(snap.power[name][zero_idx])
                                 for name in ("f", "e", "b"))
    # int mu^(1/2) (f_+ - f_-) dv: the Gram rows couple a_pm with c on the grid
    gram = ctx.projector.gram
    rho_spec = sgrid.full_spectrum(np.tensordot(gram[0] - gram[1], snap.coef, 1))

    return FunctionalReport(
        t=t, norm_f_sq=snap.norm2(1.0, "f"), field_energy=maxwell.field_energy(em),
        e_n=e_n, e_k=e_k, d_n=d_n, d_k=d_k, d_proxy=d_proxy, e_w=e_w, d_w=d_w,
        ebar_top=ebar_top, dbar_top=dbar_top, e_k_w=e_k_w, d_k_w=d_k_w, cap=cap,
        hneg_f=hneg_f, hneg_e=hneg_e, hneg_b=hneg_b, zmode_f=zmode_f,
        zmode_e=zmode_e, zmode_b=zmode_b,
        gauss_residual=maxwell.gauss_residual(sgrid, em, rho_spec),
        div_b=maxwell.div_b_norm(sgrid, em),
        x_instant=ebar_top + e_n + (1.0 + t) ** (-0.5 * (1.0 + cfg.eps0)) * e_w,
    )


def macro_snapshot(ctx: DiagContext, state) -> macro_micro.MacroSnapshot:
    """Macro fields, moments and the B-moment balance terms of a state, in physical space.

    P f (``MacroProjector.project``, once) and ``macro_micro.moments`` of f
    and its micro part; B of the micro species sum; and the B-moment source
    -B((L f)_+ + (L f)_-) - B(v . grad_x {I-P} f_s), with the matrix-free L
    and spectral x-derivatives, plus B of the force and Gamma terms
    (``maxwell.nonlinear_terms``) in nonlinear mode.
    A history of these is what ``macro_micro.fluid_residuals`` checks; a
    run does not build one.
    """
    f, sg, vg = state.f, ctx.sgrid, ctx.vgrid
    pf, macro = ctx.projector.project(f)
    micro = f - pf
    micro_s = np.sum(micro, axis=0)
    lf = landau.apply_L(ctx.tables, f)
    source = -(lf[0] + lf[1])
    if ctx.config.mode == "nonlinear":
        force = maxwell.nonlinear_terms(ctx.tables, f, state.em.e_phys(sg), state.em.b_phys(sg))
        source += force[0] + force[1]
    v, x_axes = vg.axes(), tuple(range(sg.n_active))
    transport = sum(v[axis] * sg.derivative(micro_s, axis, x_axes)
                    for axis in sg.active_axes)
    wgt = [0.1 * (vg.vsq() - 5.0) * vj * vg.mu_half() for vj in v]

    def b_moment(h):
        return np.stack([vg.integrate(h * w) for w in wgt])

    return macro_micro.MacroSnapshot(t=state.t, macro=macro, mom=macro_micro.moments(f, micro, vg),
                                     b_micro=b_moment(micro_s), b_source=b_moment(source - transport))


def y0_functional(ctx: DiagContext, snap: SpectralSnapshot) -> float:
    """Discrete smallness functional of the initial data, from a report snapshot.

    Sum (not sum of squares) of the weighted mixed-derivative norms at the
    two index depths, the field Sobolev and negative-order norms, and the
    negative-order norm of f itself:

        sum_{|a|+|b| <= n0} ||w_{l0+l*-|b|} d^a_b f|| +
        sum_{|a|+|b| <= N}  ||w_{l-|b|}     d^a_b f|| +
        ||(E,B)||_{H^N} + ||(E,B)||_{H^-s} + ||f||_{H^-s}
    """
    cfg, sgrid = ctx.config, ctx.sgrid
    total = 0.0
    for depth, ell_base in ((cfg.n0, cfg.ell0 + cfg.lstar), (cfg.n_max, cfg.ell)):
        terms = snap.weighted(ctx, ell_base, 0.0)["f"]
        total += float(np.sum(np.sqrt(terms[snap.select(0, depth)])))
    m_neg = sgrid.lambda_multiplier(-cfg.s_exp) ** 2
    total += (math.sqrt(snap.norm2(sgrid.band_multiplier(0, cfg.n_max), "e", "b"))
              + math.sqrt(snap.norm2(m_neg, "e", "b"))
              + math.sqrt(snap.norm2(m_neg, "f")))
    return total


# ---------------------------------------------------------------------------
# a priori functional, decay fits, monitors
# ---------------------------------------------------------------------------


@dataclass
class DecayFit:
    """Log-log fit of a functional series against an algebraic target."""

    window: tuple
    exponent: float
    residual: float
    target: float
    n_points: int
    late_exp_rate: float = math.nan
    caveat: str = TORUS_CAVEAT

    @property
    def matches_target(self) -> bool:
        return abs(self.exponent - self.target) <= 0.3


def decay_fit(times, values, window, target_k: int = 0,
              s_exp: float = 0.5) -> DecayFit:
    """Least-squares slope of log(values) vs log(1+t) on the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = window
    mask = (times >= t0) & (times <= t1)
    if int(mask.sum()) < 4:
        raise ValueError(f"window {window} contains fewer than 4 samples")
    if np.any(values[mask] <= 0.0):
        raise ValueError("decay fit requires positive values on the window")
    x = np.log1p(times[mask])
    y = np.log(values[mask])
    coef, res = np.polyfit(x, y, 1, full=False), None
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(window=(float(t0), float(t1)), exponent=slope,
                    residual=resid, target=-(target_k + s_exp),
                    n_points=int(mask.sum()),
                    late_exp_rate=late_exponential_rate(times, values))


def auto_window(times, values):
    """Window with minimal log-log fit residual (intermediate-time selector).

    A window holds at least 8 points and spans (1 + t1) / (1 + t0) >= 3.
    """
    min_points = 8
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    good = values > 0
    times, values = times[good], values[good]
    if len(times) < min_points:
        raise ValueError("series too short for window selection")
    n = len(times)
    starts = np.unique(np.linspace(0, n - min_points, 12).astype(int))
    best = None
    for i in starts:
        if times[i] <= 0:
            i = max(i, 1)
        ends = np.unique(np.linspace(i + min_points - 1, n - 1, 10).astype(int))
        for j in ends:
            if j - i + 1 < min_points:
                continue
            if (1.0 + times[j]) / (1.0 + times[i]) < 3.0:
                continue
            x = np.log1p(times[i:j + 1])
            y = np.log(values[i:j + 1])
            slope, icpt = np.polyfit(x, y, 1)
            resid = float(np.sqrt(np.mean((y - (slope * x + icpt)) ** 2)))
            if best is None or resid < best[0]:
                best = (resid, times[i], times[j])
    if best is None:
        raise ValueError("no admissible window found; extend the run")
    return best[1], best[2]


def late_exponential_rate(times, values) -> float:
    """Exponential rate fitted on the trailing quarter of the series."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    good = values > 0
    times, values = times[good], values[good]
    if len(times) < 4:
        return math.nan
    k = max(4, int(len(times) * 0.25))
    x = times[-k:]
    y = np.log(values[-k:])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


@dataclass
class LyapunovReport:
    deltas: np.ndarray      # (k_max+1, T-1)
    allowance: np.ndarray   # (T-1,)
    flags: int


def lyapunov_monitor(times, e_series, d_series) -> LyapunovReport:
    """Per-step Delta E^k / Delta t + D^k with an integrator-error allowance.

    The allowance is 10 dt^2 times the step's largest E^k or D^k.

    ``d_series`` is the dissipation paired with the energy drop; the default
    production pairing is the measured collisional quadratic form, for which
    the trapezoid collision substep makes the combination nonpositive up to
    splitting error O(dt^2 . scale).
    """
    times = np.asarray(times, dtype=float)
    e = np.atleast_2d(np.asarray(e_series, dtype=float))
    d = np.atleast_2d(np.asarray(d_series, dtype=float))
    if e.shape[-1] != len(times) or d.shape != e.shape:
        raise ValueError("series shapes do not match the time axis")
    if len(times) < 2:
        raise ValueError("need at least two states")
    dt = np.diff(times)
    de = np.diff(e, axis=-1) / dt
    dmid = 0.5 * (d[..., 1:] + d[..., :-1])
    deltas = de + dmid
    scale = np.maximum(np.maximum(e[..., 1:], e[..., :-1]), dmid)
    allowance = 10.0 * dt ** 2 * np.max(scale, axis=0)
    flags = int(np.sum(deltas > allowance[None, :]))
    return LyapunovReport(deltas=deltas, allowance=allowance, flags=flags)


def interpolation_monitor(times, e_k, d_k, cap_k, k: int, s_exp: float) -> np.ndarray:
    """r(t) = E^k / [ (D^k)^theta cap^(1-theta) ], theta = (k+s)/(k+s+1).

    cap is the running supremum of the bracketed functional pair; r is
    expected to stay order-1 (scale-invariant under f -> lambda f).
    """
    theta = (k + s_exp) / (k + s_exp + 1.0)
    e = np.asarray(e_k, dtype=float)
    d = np.asarray(d_k, dtype=float)
    cap = np.maximum.accumulate(np.asarray(cap_k, dtype=float))
    denom = np.where((d > 0) & (cap > 0), d ** theta * cap ** (1.0 - theta), np.inf)
    return e / denom


# ---------------------------------------------------------------------------
# Riesz / interpolation-inequality checks
# ---------------------------------------------------------------------------


@dataclass
class CheckItem:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def _lp_norm(grid: SpatialGrid, f: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(f)))
    return float((grid.cell_measure * np.sum(np.abs(f) ** p)) ** (1.0 / p))


def _grad_norm(grid: SpatialGrid, f: np.ndarray, order: int) -> float:
    spec = grid.forward(f)
    mult = grid.xi_norm() ** (2 * order)
    return math.sqrt(grid.spec_weighted_norm2(spec, mult))


def riesz_checks(s_exp: float) -> list:
    """Dilation-scaling and mixed-norm checks of the inequality toolbox.

    Runs on a fully 3-D 64^3 spatial grid where the whole-space scaling
    dimensions are honest: (a) the negative-order L^p-L^q pairing, (b) the
    interpolation identities combining ||Lambda^{-s} f|| with top
    derivatives, via slope matching to 0.02 on a Gaussian dilation family,
    and (c) the Minkowski mixed-norm ordering on random nonnegative samples.
    """
    if not (0.0 < s_exp < 1.5):
        raise ValueError("s_exp must lie in (0, 3/2)")
    box_length, slope_tol = 4.0 * math.pi * 10.0, 0.02
    grid = SpatialGrid(box_length=box_length, n_x=64, active_axes=(0, 1, 2))
    x = grid.coords()
    center = 0.5 * box_length
    sigmas = np.geomspace(3.0, 7.5, 5)

    def bump(sig):
        # self-similar zero-mean dipole: the whole family is an exact
        # dilation of one profile, so whole-space scaling laws apply up to
        # box tails and resolution
        r2p = (x[0] - center - sig) ** 2 + (x[1] - center) ** 2 + (x[2] - center) ** 2
        r2m = (x[0] - center + sig) ** 2 + (x[1] - center) ** 2 + (x[2] - center) ** 2
        return np.exp(-0.5 * r2p / sig ** 2) - np.exp(-0.5 * r2m / sig ** 2)

    checks: list = []

    def slope(vals):
        return float(np.polyfit(np.log(sigmas), np.log(vals), 1)[0])

    # (a) Lemma-type pairing ||Lambda^{-s} f||_{L^q} vs ||f||_{L^p}
    q = 6.0
    p = 1.0 / (1.0 / q + s_exp / 3.0)
    lhs, rhs = [], []
    for sig in sigmas:
        f = bump(sig)
        f = f - f.mean()
        lam = grid.lambda_s_apply(f, -s_exp)
        lhs.append(_lp_norm(grid, lam, q))
        rhs.append(_lp_norm(grid, f, p))
    mism = abs(slope(lhs) - slope(rhs))
    checks.append(CheckItem(
        name=f"riesz_pairing_q{q:g}_p{p:.3g}", passed=mism <= slope_tol,
        value=mism, threshold=slope_tol,
        detail=f"slopes {slope(lhs):+.4f} vs {slope(rhs):+.4f}"))

    # (b) interpolation identities with the corollary exponents
    def rhs_product(f, a, k):
        lam = math.sqrt(grid.spec_weighted_norm2(
            grid.forward(f), grid.lambda_multiplier(-s_exp) ** 2))
        top = _grad_norm(grid, f, k + 1)
        return lam ** a * top ** (1.0 - a)

    # ||f||_{L^p} against ||Lambda^{-s} f||^a ||grad^{k+1} f||^{1-a}
    cases = [
        ("interp_L6_j0_k1", 6.0, 1, 1 / (2 + s_exp)),
        ("interp_L3_j0_k0", 3.0, 0, 1 / (2 + 2 * s_exp)),
        ("interp_Linf_k1", math.inf, 1, 1 / (2 * (2 + s_exp))),
    ]
    for name, pnorm, k, a in cases:
        lhs, rhs = [], []
        for sig in sigmas:
            f = bump(sig)
            f = f - f.mean()
            lhs.append(_lp_norm(grid, f, pnorm))
            rhs.append(rhs_product(f, a, k))
        mism = abs(slope(lhs) - slope(rhs))
        checks.append(CheckItem(
            name=name, passed=mism <= slope_tol, value=mism,
            threshold=slope_tol,
            detail=f"a={a:.4f}, slopes {slope(lhs):+.4f} vs {slope(rhs):+.4f}"))

    # direct two-sided evaluation of the L2 interpolation on one bump
    f = bump(4.0)
    f = f - f.mean()
    k = 1
    lhs_v = _grad_norm(grid, f, k)
    lam = math.sqrt(grid.spec_weighted_norm2(
        grid.forward(f), grid.lambda_multiplier(-s_exp) ** 2))
    rhs_v = lam ** (1.0 / (k + 1 + s_exp)) * _grad_norm(grid, f, k + 1) ** (
        (k + s_exp) / (k + 1 + s_exp))
    checks.append(CheckItem(
        name="interp_L2_exact_holder", passed=lhs_v <= rhs_v * (1 + 1e-10),
        value=lhs_v / rhs_v, threshold=1.0,
        detail="spectral Hoelder inequality, exact on the grid"))

    # (c) Minkowski mixed-norm ordering
    rng = np.random.default_rng(11)
    xg = SpatialGrid(box_length=box_length, n_x=16, active_axes=(0,))
    nv = 6
    dv = 0.5
    for trial, (pp, qq) in enumerate([(2.0, 4.0), (1.0, 3.0), (2.0, 2.0)]):
        f = rng.random((16, nv, nv, nv))
        inner_v = (dv ** 3 * np.sum(f ** pp, axis=(-3, -2, -1))) ** (1.0 / pp)
        lq_lp = (xg.cell_measure * np.sum(inner_v ** qq)) ** (1.0 / qq)
        inner_x = (xg.cell_measure * np.sum(f ** qq, axis=0)) ** (1.0 / qq)
        lp_lq = (dv ** 3 * np.sum(inner_x ** pp)) ** (1.0 / pp)
        if pp == qq:
            ok = abs(lq_lp - lp_lq) <= 1e-12 * max(lq_lp, 1.0)
            checks.append(CheckItem(
                name=f"minkowski_equality_p{pp:g}", passed=ok,
                value=abs(lq_lp - lp_lq), threshold=1e-12,
                detail="p = q degenerate case"))
        else:
            ok = lq_lp <= lp_lq * (1.0 + 1e-12)
            checks.append(CheckItem(
                name=f"minkowski_p{pp:g}_q{qq:g}", passed=ok,
                value=lq_lp / lp_lq, threshold=1.0,
                detail="L^q_x L^p_v <= L^p_v L^q_x"))
    return checks
