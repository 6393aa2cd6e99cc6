"""Construction of discrete-time walk operators with balanced gain and loss.

Conventions used throughout the package:

* The walker lives on a 1D lattice of ``num_sites`` sites with a two
  dimensional internal (coin) space.  Basis order is position major:
  the amplitude on site ``x`` with internal component ``s`` (0 = left
  mover, 1 = right mover) sits at flat index ``2*(x - x_min) + s``.
* ``C(theta)`` is the rotation ``[[cos, -sin], [sin, cos]]``.
* The lattice is a ring centred on the origin: ``x_min`` is
  ``-((num_sites - 1) // 2)`` and the shift ``S`` moves left movers
  one site down and right movers one site up, wrapping around.  Every
  factor of a step is therefore invertible.
* ``G = diag(e^gamma, e^-gamma)`` amplifies left movers and damps
  right movers on every site.

The walk is defined once, in ``PROTOCOL``, as the factors of one step
in the order they act on the state; every walk kind runs it.
``build_walk_operator`` folds that table into a sparse product,
``dynamics.evolve`` runs it factor by factor and ``bulk.bloch_fold``
folds it into a 2x2 Bloch matrix.  Written as an operator product
(rightmost factor first), one step is

    G^-1 . S . C(theta2) . S . C(theta2) . G . S . C(theta1)

and the perturbed variants add ``delta`` to the first of the two
``theta2`` coins (the one applied right after ``G``).

All factors are real, so walk matrices are real float64; eigenvalues
still come out complex where they must.  An operator keeps the sparse
factor product (four to eight nonzeros per row) and densifies it only
when its ``matrix`` is first read.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

WALK_KINDS = (
    "three_step",
    "three_step_symmetric",
    "three_step_perturbed",
    "three_step_perturbed_disordered",
)

# Disorder draw slots, one per coin factor in application order.
SLOT_THETA1 = 0
SLOT_THETA2_FIRST = 1
SLOT_THETA2_SECOND = 2

# One step of the walk, factor by factor in the order they act.
# ("coin", slot) is C(theta), with theta the slot's entry of
# WalkSpec.effective_angles; ("gain", +1) is G and ("gain", -1) is G^-1.
PROTOCOL = (
    ("coin", SLOT_THETA1), ("shift", None), ("gain", +1),
    ("coin", SLOT_THETA2_FIRST), ("shift", None),
    ("coin", SLOT_THETA2_SECOND), ("shift", None), ("gain", -1),
)


@dataclass(frozen=True)
class Lattice:
    """Periodic 1D ring holding the walker, centred on the origin
    (exactly for odd ``num_sites``)."""

    num_sites: int

    def __post_init__(self):
        if self.num_sites < 2:
            raise ValueError("need at least two sites")

    @property
    def x_min(self) -> int:
        return -((self.num_sites - 1) // 2)

    @property
    def dim(self) -> int:
        return 2 * self.num_sites

    def positions(self) -> np.ndarray:
        return np.arange(self.num_sites) + self.x_min

    def parity_partner(self, x: np.ndarray) -> np.ndarray:
        """Positions mapped by x -> -x, wrapped around the ring."""
        return (-x - self.x_min) % self.num_sites + self.x_min


@dataclass(frozen=True)
class CoinProfile:
    """Position dependence of the two coin angles.

    ``theta1_a`` and ``theta2_a`` are the only angles for the
    ``homogeneous`` layout, the inner angles for ``inner_outer`` and
    the left angles for ``left_right``; the ``_b`` pair then holds the
    outer respectively right angles.  ``inner_outer`` uses the inner
    angles strictly inside ``|x| < half_width``.  ``left_right`` uses
    the left angles for ``x <= 0``.

    ``delta`` shifts the first ``theta2`` coin of the perturbed
    kinds.  ``disorder_amplitude`` is the half width of the
    uniform angle jitter drawn per site and per coin slot from a
    counter-based generator keyed by ``disorder_seed``, so a
    realization is reproducible from the profile alone.
    """

    layout: str
    theta1_a: float
    theta2_a: float
    theta1_b: float | None = None
    theta2_b: float | None = None
    half_width: int | None = None
    delta: float = 0.0
    disorder_amplitude: float = 0.0
    disorder_seed: int = 0

    def __post_init__(self):
        if self.layout not in ("homogeneous", "inner_outer", "left_right"):
            raise ValueError(f"unknown layout {self.layout!r}")
        two_sided = self.layout != "homogeneous"
        if two_sided and (self.theta1_b is None or self.theta2_b is None):
            raise ValueError(f"{self.layout} layout needs the _b angle pair")
        if self.layout == "inner_outer" and (
            self.half_width is None or self.half_width <= 0
        ):
            raise ValueError("inner_outer layout needs a positive half_width")
        for name in ("theta1_a", "theta2_a", "theta1_b", "theta2_b", "delta",
                     "disorder_amplitude"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # finite fields whose sums the angles are: the draw range
        # [-amplitude, amplitude) and the shifted theta2 coin
        sums = {"2 * disorder_amplitude": 2.0 * self.disorder_amplitude}
        for name in ("theta2_a", "theta2_b"):
            if getattr(self, name) is not None:
                sums[f"{name} + delta"] = getattr(self, name) + self.delta
        for name, value in sums.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.disorder_amplitude < 0:
            raise ValueError("disorder_amplitude must be nonnegative")

    @classmethod
    def homogeneous(cls, theta1: float, theta2: float, **kw) -> "CoinProfile":
        return cls("homogeneous", theta1, theta2, **kw)

    @classmethod
    def inner_outer(cls, inner, outer, half_width: int, **kw) -> "CoinProfile":
        return cls("inner_outer", inner[0], inner[1], outer[0], outer[1],
                   half_width, **kw)

    @classmethod
    def left_right(cls, left, right, **kw) -> "CoinProfile":
        return cls("left_right", left[0], left[1], right[0], right[1], **kw)

    def base_angles(self, x: np.ndarray):
        """Disorder-free (theta1, theta2) arrays for positions ``x``."""
        x = np.asarray(x)
        if self.layout == "homogeneous":
            t1 = np.full(x.shape, self.theta1_a)
            t2 = np.full(x.shape, self.theta2_a)
        elif self.layout == "inner_outer":
            inner = np.abs(x) < self.half_width
            t1 = np.where(inner, self.theta1_a, self.theta1_b)
            t2 = np.where(inner, self.theta2_a, self.theta2_b)
        else:
            left = x <= 0
            t1 = np.where(left, self.theta1_a, self.theta1_b)
            t2 = np.where(left, self.theta2_a, self.theta2_b)
        return t1, t2

    def interfaces(self, lattice: Lattice) -> list[float]:
        """Bond-center coordinates where the base angles change."""
        x = lattice.positions()
        t1, t2 = self.base_angles(x)
        cut = (t1 != np.roll(t1, -1)) | (t2 != np.roll(t2, -1))
        return (x[cut] + 0.5).tolist()


def disorder_offset(seed: int, x: int, slot: int, amplitude: float) -> float:
    """Uniform draw on [-amplitude, amplitude) for one site and coin slot.

    Counter-based so any single offset can be regenerated without
    streaming: the Philox key is the seed and the counter encodes the
    site and the slot.
    """
    # the counter must be a uint64 array: a plain list with an int
    # >= 2**63 (any negative site after wrap) would be run through
    # float64 and collapse distinct sites onto one counter
    counter = np.array([int(x) % (1 << 64), int(slot), 0, 0],
                       dtype=np.uint64)
    bitgen = np.random.Philox(key=int(seed) % (1 << 64), counter=counter)
    return float(np.random.Generator(bitgen).uniform(-amplitude, amplitude))


def _disorder_draws(seed: int, x: np.ndarray, slot: int,
                    amplitude: float) -> np.ndarray:
    """:func:`disorder_offset` for every site in ``x`` at once.

    numpy's Philox adds one to its 256-bit counter before each block, so
    the stream that starts at counter (x mod 2**64, slot, 0, 0) yields
    the first words of sites x, x + 1, ... in every fourth word.  Past
    x = -1 the stream carries into the slot word for every later site
    while a site's own counter does not, so the sites below 0 and those
    from 0 up are read from two streams over the span of ``x``.
    """
    x = np.asarray(x, dtype=np.int64)
    first, last = int(x.min()), int(x.max())
    words = np.concatenate([
        np.random.Philox(key=int(seed) % (1 << 64), counter=np.array(
            [start % (1 << 64), slot, 0, 0], dtype=np.uint64),
        ).random_raw(4 * (stop - start))[::4]
        for start, stop in ((first, min(last + 1, 0)),
                            (max(first, 0), last + 1)) if start < stop])
    unit = (words[x - first] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return -amplitude + (2.0 * amplitude) * unit


@dataclass(frozen=True)
class WalkSpec:
    """Complete recipe for one walk operator."""

    kind: str
    lattice: Lattice
    profile: CoinProfile
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in WALK_KINDS:
            raise ValueError(f"unknown walk kind {self.kind!r}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if (self.profile.delta != 0.0
                and not self.kind.startswith("three_step_perturbed")):
            raise ValueError(f"{self.kind} has no delta slot")
        if (self.profile.disorder_amplitude != 0.0
                and self.kind != "three_step_perturbed_disordered"):
            # refuse rather than silently ignore the amplitude
            raise ValueError(f"{self.kind} does not take disorder")
        if (self.profile.layout == "inner_outer"
                and self.profile.half_width > self.lattice.num_sites // 2):
            # |x| < half_width would hold on every site: no interface
            raise ValueError(
                f"half_width {self.profile.half_width} leaves no outer site "
                f"on {self.lattice.num_sites} sites (at most "
                f"{self.lattice.num_sites // 2})")

    @property
    def bandwidth(self) -> int:
        """Lattice distance reached by one application."""
        return sum(op == "shift" for op, _ in PROTOCOL)

    @functools.cached_property
    def _lattice_angles(self):
        """:meth:`effective_angles` on the lattice sites, drawn once per
        spec and read only."""
        angles = self.effective_angles(self.lattice.positions())
        for theta in angles:
            theta.flags.writeable = False
        return angles

    def effective_angles(self, x: np.ndarray):
        """(theta1, theta2_first, theta2_second) arrays, disorder included.

        theta2_first is the coin applied right after G (it carries
        ``delta``); theta2_second is the later, unshifted one.
        """
        t1, t2 = self.profile.base_angles(x)
        t1 = t1.astype(float).copy()
        t2_first = t2.astype(float) + self.profile.delta
        t2_second = t2.astype(float).copy()
        if self.profile.disorder_amplitude > 0.0:
            amp = self.profile.disorder_amplitude
            seed = self.profile.disorder_seed
            t1 += _disorder_draws(seed, x, SLOT_THETA1, amp)
            t2_first += _disorder_draws(seed, x, SLOT_THETA2_FIRST, amp)
            t2_second += _disorder_draws(seed, x, SLOT_THETA2_SECOND, amp)
        return t1, t2_first, t2_second


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """A built walk operator plus the data needed to reason about it.

    ``sparse`` is the operator itself; ``matrix`` is its dense copy and
    ``inverse`` its sparse inverse, each built on first access and kept.
    """

    spec: WalkSpec
    sparse: sp.csr_matrix
    frame: str  # "stepwise" or "symmetric"

    @property
    def dim(self) -> int:
        return self.sparse.shape[0]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.sparse.toarray()

    @functools.cached_property
    def inverse(self) -> sp.csr_matrix:
        """U^-1 in the same frame, from the inverted step factors."""
        inverse = _step_product(self.spec, inverse=True)
        if self.frame == "symmetric":
            half = half_coin(self.spec)
            inverse = (half @ inverse @ half.T).tocsr()
        return inverse


def _coin_blocks(theta: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal coin, one 2x2 block per site."""
    n = theta.size
    c, s = np.cos(theta), np.sin(theta)
    i = 2 * np.arange(n)
    rows = np.concatenate([i, i, i + 1, i + 1])
    cols = np.concatenate([i, i + 1, i, i + 1])
    vals = np.concatenate([c, -s, s, c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))


def _shift(lattice: Lattice) -> sp.csr_matrix:
    n = lattice.num_sites
    i = np.arange(n)
    # left movers x -> x - 1, right movers x -> x + 1
    rows = np.concatenate([2 * ((i - 1) % n), 2 * ((i + 1) % n) + 1])
    cols = np.concatenate([2 * i, 2 * i + 1])
    return sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(2 * n, 2 * n))


def _gain(lattice: Lattice, gamma: float) -> sp.dia_matrix:
    diag = np.empty(lattice.dim)
    diag[0::2] = math.exp(gamma)
    diag[1::2] = math.exp(-gamma)
    return sp.diags(diag)


def _step_product(spec: WalkSpec, inverse: bool = False) -> sp.csr_matrix:
    """One step of ``PROTOCOL`` as a sparse product, in the stepwise frame.

    ``inverse=True`` gives U^-1: every factor inverted (C(theta)^T,
    S^T, and G and G^-1 swapped) and the order of action reversed.
    """
    lattice = spec.lattice
    angles = spec._lattice_angles
    shift = _shift(lattice)
    gains = {sign: _gain(lattice, sign * spec.gamma) for sign in (1, -1)}

    def factor(op, arg):
        if op == "shift":
            return shift.T if inverse else shift
        if op == "gain":
            return gains[-arg if inverse else arg]
        coin = _coin_blocks(angles[arg])
        return coin.T if inverse else coin

    # fold left to right from the last-acting factor: the written product
    # G^-1 . S . ... . C(theta1) associates, and so rounds, this way
    order = PROTOCOL if inverse else reversed(PROTOCOL)
    factors = [factor(op, arg) for op, arg in order]
    return _sorted(functools.reduce(operator.matmul, factors))


def _sorted(m) -> sp.csr_matrix:
    """``m`` as CSR with sorted indices.  Later sparse products sum in
    index order, so the order is fixed when an operator is built, not
    by whichever reader first sorts it in place."""
    m = m.tocsr()
    m.sort_indices()
    return m


def build_walk_operator(spec: WalkSpec) -> WalkOperator:
    """Build the sparse walk operator for ``spec``.

    ``three_step_symmetric`` is returned in the symmetric frame; every
    other kind comes out in the stepwise frame (see
    :func:`symmetric_frame`).
    """
    op = WalkOperator(spec=spec, sparse=_step_product(spec), frame="stepwise")
    if spec.kind == "three_step_symmetric":
        return symmetric_frame(op)
    return op


def symmetric_frame(op: WalkOperator) -> WalkOperator:
    """Conjugate a walk operator by C(theta1/2).

    This splits the first coin symmetrically across the step, which is
    the frame in which the walk's relations take their plain form, with
    P = parity x sigma3 and T = sigma1 on every site: T U^T T = U when
    the two theta2 coins agree, and P U P = U^-1 when the coin angles
    also mirror onto themselves.  The spectrum is untouched.  Uses the
    effective first-coin angles, so it is the right frame even for
    disordered realizations.
    """
    if op.frame == "symmetric":
        return op
    half = half_coin(op.spec)
    return dataclasses.replace(
        op, sparse=_sorted(half @ op.sparse @ half.T), frame="symmetric")


def half_coin(spec: WalkSpec) -> sp.csr_matrix:
    """C(theta1/2) on every site, the rotation :func:`symmetric_frame`
    conjugates by; its transpose takes a symmetric-frame eigenvector back
    to the stepwise frame."""
    return _coin_blocks(spec._lattice_angles[SLOT_THETA1] / 2.0)


def _parity_matrix(lattice: Lattice) -> sp.csr_matrix:
    """Permutation x -> -x tensored with sigma3."""
    x = lattice.positions()
    partner = lattice.parity_partner(x)
    i = 2 * (x - lattice.x_min)
    j = 2 * (partner - lattice.x_min)
    rows = np.concatenate([j, j + 1])
    cols = np.concatenate([i, i + 1])
    vals = np.repeat([1.0, -1.0], x.size)
    return sp.csr_matrix((vals, (rows, cols)), shape=(lattice.dim, lattice.dim))


def mirror_symmetric(spec: WalkSpec) -> bool:
    """Whether parity x -> -x maps every effective coin angle onto itself
    (disorder included, so a disordered realization is not)."""
    lattice = spec.lattice
    x = lattice.positions()
    order = np.searchsorted(x, lattice.parity_partner(x))
    return all(np.array_equal(theta, theta[order])
               for theta in spec._lattice_angles)


def parity_even(lattice: Lattice) -> sp.csr_matrix:
    """Orthonormal basis (``dim`` x ``num_sites``) of the +1 eigenspace
    of P = parity x sigma3.

    Column i of I + P is e_i + P e_i.  A mirror pair of sites gives one
    column per component, kept at the smaller index; a site that is its
    own mirror image gives its left mover alone, since sigma3 sends its
    right mover to the -1 eigenspace.
    """
    P = _parity_matrix(lattice).tocsc()
    i, j = np.arange(lattice.dim), P.indices  # P e_i = +-e_j
    keep = (i < j) | ((i == j) & (P.data > 0))
    cols = (sp.identity(lattice.dim) + P).tocsc()[:, keep]
    norms = np.sqrt(np.asarray(cols.multiply(cols).sum(axis=0)).ravel())
    return (cols @ sp.diags(1.0 / norms)).tocsr()
