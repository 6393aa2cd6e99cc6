"""Construction of discrete-time walk operators with balanced gain and loss.

Conventions used throughout the package:

* The walker lives on a 1D lattice of ``num_sites`` sites with a two
  dimensional internal (coin) space.  Basis order is position major:
  the amplitude on site ``x`` with internal component ``s`` (0 = left
  mover, 1 = right mover) sits at flat index ``2*(x - x_min) + s``.
* ``C(theta)`` is the rotation ``[[cos, -sin], [sin, cos]]``.  The
  reflective variant ``R(theta) = C(theta) @ sigma3 = [[cos, sin],
  [sin, -cos]]`` is used only by the ``two_step`` protocol.
* The shift ``S`` moves left movers one site down and right movers one
  site up.  Periodic boundaries wrap; open boundaries annihilate the
  amplitude that would leave the lattice (the operator is then not
  norm preserving even at ``gamma = 0``).
* ``G = diag(e^gamma, e^-gamma)`` amplifies left movers and damps
  right movers on every site.

Each walk kind is defined once, in ``PROTOCOLS``, as the factors of
one step in the order they act on the state.  ``build_walk_operator``
folds that table into a sparse product and ``dynamics.evolve`` runs it
factor by factor.  Written as an operator product (rightmost factor first),
``three_step`` is

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

SIGMA0 = np.eye(2)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])

WALK_KINDS = (
    "two_step",
    "three_step",
    "three_step_symmetric",
    "three_step_perturbed",
    "three_step_perturbed_disordered",
)

# Disorder draw slots, one per coin factor in application order.
SLOT_THETA1 = 0
SLOT_THETA2_FIRST = 1
SLOT_THETA2_SECOND = 2

# One step of each walk family, factor by factor in the order they act.
# ("coin", slot) is C(theta) and ("reflect", slot) is R(theta), with theta
# the slot's entry of WalkSpec.effective_angles; ("gain", +1) is G and
# ("gain", -1) is G^-1.  Every three_step kind runs the three_step table.
PROTOCOLS = {
    "two_step": (
        ("reflect", SLOT_THETA1), ("shift", None), ("gain", -1),
        ("reflect", SLOT_THETA2_FIRST), ("shift", None), ("gain", +1),
    ),
    "three_step": (
        ("coin", SLOT_THETA1), ("shift", None), ("gain", +1),
        ("coin", SLOT_THETA2_FIRST), ("shift", None),
        ("coin", SLOT_THETA2_SECOND), ("shift", None), ("gain", -1),
    ),
}


@dataclass(frozen=True)
class Lattice:
    """Finite 1D lattice holding the walker.

    ``x_min`` defaults to ``-(num_sites - 1) // 2`` which centers the
    lattice on the origin (exactly for odd ``num_sites``).
    """

    num_sites: int
    boundary: str = "periodic"
    x_min: int | None = None

    def __post_init__(self):
        if self.num_sites < 2:
            raise ValueError("need at least two sites")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.x_min is None:
            object.__setattr__(self, "x_min", -((self.num_sites - 1) // 2))

    @property
    def dim(self) -> int:
        return 2 * self.num_sites

    def positions(self) -> np.ndarray:
        return np.arange(self.num_sites) + self.x_min

    def index(self, x: int, component: int = 0) -> int:
        """Flat index of site ``x``, internal component ``component``."""
        if component not in (0, 1):
            raise ValueError("component must be 0 (left) or 1 (right)")
        offset = x - self.x_min
        if not 0 <= offset < self.num_sites:
            raise ValueError(f"position {x} outside lattice")
        return 2 * offset + component

    def parity_partner(self, x: np.ndarray) -> np.ndarray:
        """Positions mapped by x -> -x, wrapped on a periodic lattice."""
        if self.boundary == "periodic":
            return (-x - self.x_min) % self.num_sites + self.x_min
        return -x


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
    protocols.  ``disorder_amplitude`` is the half width of the
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
        cuts = []
        last = lattice.num_sites if lattice.boundary == "periodic" else lattice.num_sites - 1
        for i in range(last):
            j = (i + 1) % lattice.num_sites
            if t1[i] != t1[j] or t2[i] != t2[j]:
                cuts.append(x[i] + 0.5)
        return cuts


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
        if (self.profile.delta != 0.0
                and not self.kind.startswith("three_step_perturbed")):
            raise ValueError(f"{self.kind} has no delta slot")
        if (self.profile.disorder_amplitude != 0.0
                and self.kind != "three_step_perturbed_disordered"):
            # refuse rather than silently ignore the amplitude
            raise ValueError(f"{self.kind} does not take disorder")

    @property
    def protocol(self) -> tuple:
        """The factors of one step, in the order they act (``PROTOCOLS``)."""
        return PROTOCOLS["two_step" if self.kind == "two_step" else "three_step"]

    @property
    def bandwidth(self) -> int:
        """Lattice distance reached by one application."""
        return sum(op == "shift" for op, _ in self.protocol)

    def effective_angles(self, x: np.ndarray):
        """(theta1, theta2_first, theta2_second) arrays, disorder included.

        theta2_first is the coin applied right after G (it carries
        ``delta``); theta2_second is the later, unshifted one.
        """
        t1, t2 = self.profile.base_angles(x)
        t1 = t1.astype(float).copy()
        t2_first = t2.astype(float) + self.profile.delta
        t2_second = t2.astype(float).copy()
        if (self.kind == "three_step_perturbed_disordered"
                and self.profile.disorder_amplitude > 0.0):
            amp = self.profile.disorder_amplitude
            seed = self.profile.disorder_seed
            for i, xi in enumerate(np.asarray(x).ravel()):
                t1[i] += disorder_offset(seed, xi, SLOT_THETA1, amp)
                t2_first[i] += disorder_offset(seed, xi, SLOT_THETA2_FIRST, amp)
                t2_second[i] += disorder_offset(seed, xi, SLOT_THETA2_SECOND, amp)
        return t1, t2_first, t2_second

    @classmethod
    def from_config_items(cls, items: dict[str, str]) -> "WalkSpec":
        """Build from an already parsed key-value mapping (strings)."""
        items = dict(items)

        def take(key, conv, default=None):
            if key in items:
                return conv(items.pop(key))
            if default is None:
                raise ValueError(f"missing key {key!r}")
            return default

        def angle(key, default=None):
            val = take(key, float, default)
            return None if val is None else val * math.pi

        kind = take("kind", str)
        x_min = int(items.pop("x_min")) if "x_min" in items else None
        lattice = Lattice(
            num_sites=take("num_sites", int),
            boundary=take("boundary", str, "periodic"),
            x_min=x_min,
        )
        layout = take("layout", str, "homogeneous")
        kwargs = dict(
            layout=layout,
            theta1_a=angle("theta1_a_over_pi"),
            theta2_a=angle("theta2_a_over_pi"),
            delta=take("delta", float, 0.0),
            disorder_amplitude=take("disorder_amplitude", float, 0.0),
            disorder_seed=take("disorder_seed", int, 0),
        )
        if layout != "homogeneous":
            kwargs["theta1_b"] = angle("theta1_b_over_pi")
            kwargs["theta2_b"] = angle("theta2_b_over_pi")
        if layout == "inner_outer":
            kwargs["half_width"] = take("half_width", int)
        gamma = take("gamma", float, 0.0)
        if items:
            raise ValueError(f"unknown keys: {sorted(items)}")
        return cls(kind=kind, lattice=lattice, profile=CoinProfile(**kwargs),
                   gamma=gamma)


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """A built walk operator plus the data needed to reason about it.

    ``sparse`` is the operator itself; ``matrix`` is its dense copy,
    built on first access and kept.
    """

    spec: WalkSpec
    sparse: sp.csr_matrix
    frame: str  # "stepwise" or "symmetric"
    theta1_eff: np.ndarray
    theta2_first_eff: np.ndarray
    theta2_second_eff: np.ndarray

    @property
    def dim(self) -> int:
        return self.sparse.shape[0]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.sparse.toarray()


def _coin_blocks(theta: np.ndarray, reflective: bool = False) -> sp.csr_matrix:
    """Block-diagonal coin, one 2x2 block per site."""
    n = theta.size
    c, s = np.cos(theta), np.sin(theta)
    i = 2 * np.arange(n)
    rows = np.concatenate([i, i, i + 1, i + 1])
    cols = np.concatenate([i, i + 1, i, i + 1])
    if reflective:
        vals = np.concatenate([c, s, s, -c])
    else:
        vals = np.concatenate([c, -s, s, c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))


def _shift(lattice: Lattice) -> sp.csr_matrix:
    n = lattice.num_sites
    i = np.arange(n)
    rows, cols, vals = [], [], []
    # left movers: x -> x - 1
    dest = (i - 1) % n
    keep = np.ones(n, bool) if lattice.boundary == "periodic" else i > 0
    rows.append(2 * dest[keep])
    cols.append(2 * i[keep])
    vals.append(np.ones(keep.sum()))
    # right movers: x -> x + 1
    dest = (i + 1) % n
    keep = np.ones(n, bool) if lattice.boundary == "periodic" else i < n - 1
    rows.append(2 * dest[keep] + 1)
    cols.append(2 * i[keep] + 1)
    vals.append(np.ones(keep.sum()))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n, 2 * n),
    )


def _gain(lattice: Lattice, gamma: float) -> sp.dia_matrix:
    diag = np.empty(lattice.dim)
    diag[0::2] = math.exp(gamma)
    diag[1::2] = math.exp(-gamma)
    return sp.diags(diag)


def build_walk_operator(spec: WalkSpec) -> WalkOperator:
    """Build the sparse walk operator for ``spec``.

    ``three_step_symmetric`` is returned in the symmetric frame; every
    other kind comes out in the stepwise frame (see
    :func:`symmetric_frame`).
    """
    lattice = spec.lattice
    angles = spec.effective_angles(lattice.positions())
    t1, t2_first, t2_second = angles
    shift = _shift(lattice)
    gains = {sign: _gain(lattice, sign * spec.gamma) for sign in (1, -1)}

    def factor(op, arg):
        if op == "shift":
            return shift
        if op == "gain":
            return gains[arg]
        return _coin_blocks(angles[arg], reflective=op == "reflect")

    # fold left to right from the last-acting factor: the written product
    # G^-1 . S . ... . C(theta1) associates, and so rounds, this way
    factors = [factor(op, arg) for op, arg in reversed(spec.protocol)]
    m = functools.reduce(operator.matmul, factors)
    frame = "stepwise"
    if spec.kind == "three_step_symmetric":
        half = _coin_blocks(t1 / 2.0)
        m = half @ m @ half.T
        frame = "symmetric"
    return WalkOperator(
        spec=spec,
        sparse=m.tocsr(),
        frame=frame,
        theta1_eff=t1,
        theta2_first_eff=t2_first,
        theta2_second_eff=t2_second,
    )


def symmetric_frame(op: WalkOperator) -> WalkOperator:
    """Conjugate a three-step operator by C(theta1/2).

    This splits the first coin symmetrically across the step, which is
    the frame in which the symmetry relations checked by
    :func:`verify_symmetries` take their simple form.  The spectrum is
    untouched.  Uses the operator's effective first-coin angles, so it
    is the right frame even for disordered realizations.
    """
    if op.spec.kind == "two_step":
        raise ValueError("two_step has no symmetric frame")
    if op.frame == "symmetric":
        return op
    half = _coin_blocks(op.theta1_eff / 2.0)
    return dataclasses.replace(
        op, sparse=(half @ op.sparse @ half.T).tocsr(), frame="symmetric")


@dataclass(frozen=True)
class SymmetryCheck:
    residual: float | None
    holds: bool | None
    note: str = ""


@dataclass(frozen=True)
class SymmetryReport:
    checks: dict
    matrix_norm: float
    tol: float

    def holds(self, name: str):
        return self.checks[name].holds


def _parity_matrix(lattice: Lattice) -> sp.csr_matrix | None:
    """Permutation x -> -x tensored with sigma3, or None if unavailable."""
    x = lattice.positions()
    partner = lattice.parity_partner(x)
    if lattice.boundary == "open":
        if set(partner.tolist()) != set(x.tolist()):
            return None
    rows, cols, vals = [], [], []
    for xi, xp in zip(x, partner):
        i, j = lattice.index(xi), lattice.index(int(xp))
        rows += [j, j + 1]
        cols += [i, i + 1]
        vals += [1.0, -1.0]
    return sp.csr_matrix((vals, (rows, cols)), shape=(lattice.dim, lattice.dim))


def verify_symmetries(op: WalkOperator, tol: float = 1e-10) -> SymmetryReport:
    """Measure the residuals of the four defining symmetry relations.

    The operator must be in the symmetric frame (ValueError otherwise):
    in the stepwise frame the same physics holds but the symmetry
    operators acquire position-dependent dressings and the plain
    relations below fail spuriously.

    Relations, with U the walk matrix and I the identity:

    * ``pt``          PT U* PT^-1 U = I       (PT = parity x sigma3)
    * ``trs_dagger``  T U^T T^-1 = U          (T = sigma1 on every site)
    * ``phs_dagger``  U* = U                  (conjugation alone)
    * ``chiral``      Gamma U+ Gamma^-1 = U   (Gamma = sigma1 on every site)

    ``holds`` means residual below ``tol`` times the Frobenius norm of
    U.  The PT entry is skipped with a note when the lattice or the
    effective coin profile is not parity symmetric, since the relation
    is then not even well posed.
    """
    if op.frame != "symmetric":
        raise ValueError("symmetry relations are stated in the symmetric frame; "
                         "apply symmetric_frame first")
    U = op.matrix
    norm = float(np.linalg.norm(U))
    scale = tol * norm
    checks: dict[str, SymmetryCheck] = {}

    lattice = op.spec.lattice
    x = lattice.positions()
    partner = lattice.parity_partner(x)
    pt_note = ""
    P = _parity_matrix(lattice)
    if P is None:
        pt_note = "lattice positions are not parity symmetric"
    else:
        order = np.searchsorted(x, partner)
        for arr in (op.theta1_eff, op.theta2_first_eff, op.theta2_second_eff):
            if not np.array_equal(arr, arr[order]):
                pt_note = "coin profile is not parity symmetric"
                break
    if pt_note:
        checks["pt"] = SymmetryCheck(None, None, pt_note)
    else:
        lhs = P @ U.conj() @ P  # (P x sigma3) squares to 1
        res = float(np.linalg.norm(lhs @ U - np.eye(op.dim)))
        checks["pt"] = SymmetryCheck(res, res < scale)

    T = sp.kron(sp.identity(lattice.num_sites), SIGMA1).tocsr()
    res = float(np.linalg.norm(T @ U.T @ T - U))
    checks["trs_dagger"] = SymmetryCheck(res, res < scale)

    res = float(np.linalg.norm(U.conj() - U))
    checks["phs_dagger"] = SymmetryCheck(res, res < scale)

    res = float(np.linalg.norm(T @ U.conj().T @ T - U))
    checks["chiral"] = SymmetryCheck(res, res < scale)

    return SymmetryReport(checks=checks, matrix_norm=norm, tol=tol)


@dataclass(frozen=True, eq=False)
class SublatticeForm:
    """Walk matrix reordered into even-site and odd-site blocks."""

    matrix: np.ndarray
    permutation: np.ndarray
    form: str  # "block_diagonal", "block_off_diagonal" or "none"
    tau3_residual: float


def sublattice_reorder(op: WalkOperator) -> SublatticeForm:
    """Reorder basis states so even sites come first.

    On a periodic lattice this needs an even number of sites, else the
    ring frustrates the even/odd split.  ``tau3_residual`` is the
    relative Frobenius norm of ``tau3 U tau3 + U`` where ``tau3`` is
    +1 on even and -1 on odd sites; it vanishes exactly when U
    anticommutes with the sublattice grading, which forces the
    eigenvalues to close under lambda -> -lambda.
    """
    lattice = op.spec.lattice
    if lattice.boundary == "periodic" and lattice.num_sites % 2:
        raise ValueError("periodic lattice needs an even number of sites "
                         "for a consistent even/odd split")
    x = lattice.positions()
    even = (x % 2) == 0
    site_order = np.concatenate([np.where(even)[0], np.where(~even)[0]])
    perm = np.empty(lattice.dim, dtype=int)
    perm[0::2] = 2 * site_order
    perm[1::2] = 2 * site_order + 1
    m = op.matrix[np.ix_(perm, perm)]

    cut = 2 * int(even.sum())
    diag_weight = np.count_nonzero(m[:cut, :cut]) + np.count_nonzero(m[cut:, cut:])
    off_weight = np.count_nonzero(m[:cut, cut:]) + np.count_nonzero(m[cut:, :cut])
    if off_weight == 0:
        form = "block_diagonal"
    elif diag_weight == 0:
        form = "block_off_diagonal"
    else:
        form = "none"

    signs = np.where(even, 1.0, -1.0).repeat(2)
    res = np.linalg.norm(signs[:, None] * op.matrix * signs[None, :] + op.matrix)
    tau3_res = float(res / np.linalg.norm(op.matrix))
    return SublatticeForm(matrix=m, permutation=perm, form=form,
                          tau3_residual=tau3_res)

