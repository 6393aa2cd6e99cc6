"""Momentum-space analysis of translation invariant walks.

:func:`bloch_fold` takes any walk kind to momentum space: it folds the
factor table ``operators.PROTOCOLS`` into a 2x2 Bloch matrix per
momentum and bulk phase and returns its eigenvalues.  The rest of the
module treats the homogeneous three-step walk in closed form.

For a homogeneous three-step walk the one-step matrix at momentum k
can be written ``U(k) = d0 - i (d1 sigma1 + d2 sigma2 + d3 sigma3)``
with real coefficients ``d0..d3`` satisfying
``d0^2 - d1^2 + d2^2 + d3^2 = 1`` (the minus sign comes from the gain
factor making the walk non-unitary).  Everything here derives from those four functions:
eigenvalues ``lambda_pm = d0 +- i sqrt(1 - d0^2)``, the quasienergy
``eps = i log lambda``, the gap, and the winding of ``(d2, d3)``.

The gap and the winding number come in closed form from two cubics:

* ``d0 = A cos k + B cos 3k`` is an odd cubic in ``u = cos k``, so
  ``max |d0|`` over the zone is taken at ``u = 1`` or at a stationary
  point of that cubic.  The bands reach the real-axis points
  ``eps in {0, pi}`` exactly when it reaches 1.
* ``2 z^3 (d2 + i d3)`` at ``z = e^{ik}`` is the cubic
  ``p(w) = (Q + c2^2) w^3 + (P - s2^2) w^2 + (P + s2^2) w + (Q - c2^2)``
  in ``w = z^2``.  The curve therefore winds ``nu' = 2 n_in - 3`` times,
  where ``n_in`` is the number of roots of ``p`` inside the unit disk;
  in particular ``nu'`` is always odd.  While the gap is open,
  ``d2^2 + d3^2 = 1 - d0^2 + d1^2 > 0``, so no root sits on the circle.

The count of protected interface modes against a reference phase is
read off from the shifted value ``nu' / 2 + 3 / 2 = n_in``, which takes
values 0..3 on the gapped part of the phase diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapClosedError
from .ioutil import write_csv
from .operators import WalkSpec

GAP_TOL = 1e-9
FOLD_K_POINTS = 10001  # momenta of the default bloch_fold grid over [0, pi]


def _cubic_coefficients(theta1: float, theta2: float, gamma: float):
    """``(A, B, P, Q, c2^2, s2^2, d1 amplitude)`` of the walk's d-vector.

    ``d0 = A cos k + B cos 3k``, ``d1 = d1_amp cos k``,
    ``d2 = P cos k + Q cos 3k`` and ``d3 = -s2^2 sin k + c2^2 sin 3k``.
    """
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2sq, s2sq = np.cos(theta2) ** 2, np.sin(theta2) ** 2
    s22 = np.sin(2 * theta2)
    ch, sh = np.cosh(2 * gamma), np.sinh(2 * gamma)
    a = -(c1 * s2sq + s1 * s22 * ch)
    b = c1 * c2sq
    p = s1 * s2sq - c1 * s22 * ch
    q = -s1 * c2sq
    return a, b, p, q, c2sq, s2sq, s22 * sh


@dataclass(frozen=True, eq=False)
class BlochCoefficients:
    k: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def identity_residual(self) -> float:
        """Max deviation of d0^2 - d1^2 + d2^2 + d3^2 from 1."""
        val = self.d0**2 - self.d1**2 + self.d2**2 + self.d3**2
        return float(np.max(np.abs(val - 1.0)))


def bloch_coefficients(theta1: float, theta2: float, gamma: float,
                       k: np.ndarray) -> BlochCoefficients:
    """Coefficients of the symmetric-frame three-step walk at momenta ``k``."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    a, b, p, q, c2sq, s2sq, d1_amp = _cubic_coefficients(theta1, theta2, gamma)
    cosk, sink = np.cos(k), np.sin(k)
    cos3k, sin3k = np.cos(3 * k), np.sin(3 * k)
    d0 = a * cosk + b * cos3k
    d1 = d1_amp * cosk
    d2 = p * cosk + q * cos3k
    d3 = -s2sq * sink + c2sq * sin3k
    return BlochCoefficients(k=k, d0=d0, d1=d1, d2=d2, d3=d3)


def quasienergy(lam):
    """eps = i log lambda with Re eps folded to (-pi, pi].

    lambda = 0, a state the walk annihilates, maps to exactly 0 - inf i.
    """
    lam = np.asarray(lam)
    re = -np.angle(lam)
    re = np.where(re == -np.pi, np.pi, re)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = re + 1j * np.log(np.abs(lam))
    # 1j * -inf has a nan real part
    return np.where(lam == 0, complex(0.0, -math.inf), eps)[()]


@dataclass(frozen=True, eq=False)
class Dispersion:
    k: np.ndarray
    lam_plus: np.ndarray
    lam_minus: np.ndarray
    eps_plus: np.ndarray
    eps_minus: np.ndarray
    pt_broken: np.ndarray  # bool mask, |d0| > 1


def dispersion(theta1: float, theta2: float, gamma: float,
               k: np.ndarray | None = None, k_res: int = 1024) -> Dispersion:
    """Both quasienergy bands over one Brillouin zone.

    Where ``|d0| <= 1`` the eigenvalues sit on the unit circle (real
    quasienergy); where ``|d0| > 1`` they are real with reciprocal
    moduli, which is the momentum-local signature of broken PT
    symmetry.
    """
    if k is None:
        k = np.linspace(-np.pi, np.pi, k_res + 1)
    co = bloch_coefficients(theta1, theta2, gamma, k)
    root = np.sqrt((1.0 - co.d0**2).astype(complex))
    lam_p = co.d0 + 1j * root
    lam_m = co.d0 - 1j * root
    return Dispersion(
        k=co.k,
        lam_plus=lam_p,
        lam_minus=lam_m,
        eps_plus=quasienergy(lam_p),
        eps_minus=quasienergy(lam_m),
        pt_broken=np.abs(co.d0) > 1.0,
    )


def bloch_fold(spec: WalkSpec, k: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of the Bloch matrix ``U(k)`` of each bulk phase of ``spec``.

    Any walk kind: the factors of ``spec.protocol`` act on a 2x2 matrix
    in turn, the shift as ``diag(e^ik, e^-ik)`` and the coins,
    reflections and gains as they are.  The phases are the profile's
    ``_a`` angles and, unless it is homogeneous, its ``_b`` angles, each
    with the slot angles ``(theta1, theta2 + delta, theta2)``; disorder
    is left out.  The two eigenvalues come from the trace and the
    determinant of the product.  Every factor but the shift is real, so
    ``U(-k)`` is the complex conjugate of ``U(k)``; the default ``k``,
    ``FOLD_K_POINTS`` momenta over ``[0, pi]``, therefore meets every
    ``|Re eps|`` of the zone.  Returns shape ``(phases, 2, k.size)``.
    """
    if k is None:
        k = np.linspace(0.0, np.pi, FOLD_K_POINTS)
    phase = np.exp(1j * np.asarray(k, dtype=float))
    eg, emg = math.exp(spec.gamma), math.exp(-spec.gamma)
    diagonals = {("shift", None): (phase, phase.conj()),
                 ("gain", 1): (eg, emg), ("gain", -1): (emg, eg)}
    prof = spec.profile
    phases = [(prof.theta1_a, prof.theta2_a)]
    if prof.layout != "homogeneous":
        phases.append((prof.theta1_b, prof.theta2_b))
    out = []
    for theta1, theta2 in phases:
        angles = (theta1, theta2 + prof.delta, theta2)
        # rows (a, b) and (c, d) of the product so far
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for op, arg in spec.protocol:
            if op in ("shift", "gain"):
                p, q = diagonals[op, arg]
                a, b, c, d = p * a, p * b, q * c, q * d
                continue
            co, si = math.cos(angles[arg]), math.sin(angles[arg])
            if op == "coin":
                a, b, c, d = (co * a - si * c, co * b - si * d,
                              si * a + co * c, si * b + co * d)
            else:
                a, b, c, d = (co * a + si * c, co * b + si * d,
                              si * a - co * c, si * b - co * d)
        half = 0.5 * (a + d)
        root = np.sqrt(half * half - (a * d - b * c))
        out.append((half + root, half - root))
    return np.array(out)


@dataclass(frozen=True)
class GapStatus:
    gap_open: bool
    max_abs_d0: float
    gap_zero: float  # min distance of Re eps from 0, radians
    gap_pi: float    # min distance of Re eps from pi


def bulk_gap_status(theta1: float, theta2: float, gamma: float) -> GapStatus:
    """Whether the quasienergy gaps at 0 and pi are both open.

    The bands touch the real-axis points eps in {0, pi} exactly when
    ``|d0|`` reaches 1 somewhere in the zone.  With ``u = cos k``,
    ``d0 = 4B u^3 + (A - 3B) u`` is odd in u, so its maximum modulus is
    taken at ``u = 1`` or at the stationary point
    ``u^2 = (3B - A) / (12B)`` when that lies in [0, 1]; and the two
    gaps are equal.
    """
    a, b, *_ = _cubic_coefficients(theta1, theta2, gamma)
    max_abs = float(abs(a + b))
    if b != 0.0:
        u2 = (3.0 * b - a) / (12.0 * b)
        if 0.0 <= u2 <= 1.0:
            u = np.sqrt(u2)
            stationary = 4.0 * b * u**3 + (a - 3.0 * b) * u
            max_abs = max(max_abs, float(abs(stationary)))
    gap = float(np.arccos(min(max_abs, 1.0)))
    return GapStatus(
        gap_open=max_abs < 1.0 - GAP_TOL,
        max_abs_d0=max_abs,
        gap_zero=gap,
        gap_pi=gap,
    )


@dataclass(frozen=True)
class TopologicalNumber:
    theta1: float
    theta2: float
    gamma: float
    nu_prime: int
    nu_zero: float
    nu_pi: float
    nu_shifted: int


def winding_number(theta1: float, theta2: float, gamma: float,
                   k_res: int | None = None) -> TopologicalNumber:
    """Winding of (d2, d3) around the origin over one Brillouin zone.

    Requires both bulk gaps open (GapClosedError otherwise).  The result
    is exact: ``nu' = 2 n_in - 3`` from the roots of the cubic ``p(w)``
    inside the unit disk (see the module docstring), with no k grid.
    ``k_res`` is accepted for compatibility and ignored.  The gain
    parameter drops out of the result as long as the gap stays open.
    """
    status = bulk_gap_status(theta1, theta2, gamma)
    if not status.gap_open:
        raise GapClosedError(
            f"bulk gap closed at theta1={theta1:.6g}, theta2={theta2:.6g}, "
            f"gamma={gamma:.6g} (max |d0| = {status.max_abs_d0:.6g})")
    _, _, p, q, c2sq, s2sq, _ = _cubic_coefficients(theta1, theta2, gamma)
    roots = np.roots([q + c2sq, p - s2sq, p + s2sq, q - c2sq])
    n_in = int(np.count_nonzero(np.abs(roots) < 1.0))
    nu = 2 * n_in - 3
    return TopologicalNumber(
        theta1=theta1, theta2=theta2, gamma=gamma,
        nu_prime=nu, nu_zero=nu / 2.0, nu_pi=nu / 2.0,
        nu_shifted=n_in,
    )


@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    theta1_values: np.ndarray
    theta2_values: np.ndarray
    gamma: float
    nu_shifted: np.ndarray  # float grid, NaN where a gap is closed
    gap_open: np.ndarray    # bool grid


def phase_diagram(theta1_values, theta2_values, gamma: float) -> PhaseDiagram:
    """Shifted winding number on a (theta1, theta2) grid."""
    t1s = np.asarray(theta1_values, dtype=float)
    t2s = np.asarray(theta2_values, dtype=float)
    nu = np.full((t1s.size, t2s.size), np.nan)
    gap = np.zeros((t1s.size, t2s.size), dtype=bool)
    for i, t1 in enumerate(t1s):
        for j, t2 in enumerate(t2s):
            try:
                res = winding_number(t1, t2, gamma)
            except GapClosedError:
                continue
            nu[i, j] = res.nu_shifted
            gap[i, j] = True
    return PhaseDiagram(theta1_values=t1s, theta2_values=t2s, gamma=gamma,
                        nu_shifted=nu, gap_open=gap)


def write_dispersion_csv(disp: Dispersion, path) -> None:
    rows = (
        [k, ep.real, ep.imag, em.real, em.imag, bool(broken)]
        for k, ep, em, broken in zip(disp.k, disp.eps_plus, disp.eps_minus,
                                     disp.pt_broken)
    )
    write_csv(path, ["k", "re_eps_plus", "im_eps_plus", "re_eps_minus",
                     "im_eps_minus", "pt_broken"], rows)


def write_phase_diagram_csv(pd: PhaseDiagram, path) -> None:
    """One row per grid cell; nu_shifted is empty where a gap is closed."""
    def rows():
        for i, t1 in enumerate(pd.theta1_values):
            for j, t2 in enumerate(pd.theta2_values):
                open_ = bool(pd.gap_open[i, j])
                nu = str(int(pd.nu_shifted[i, j])) if open_ else ""
                yield [float(t1), float(t2), pd.gamma, nu, open_]

    write_csv(path, ["theta1", "theta2", "gamma", "nu_shifted", "gap_open"],
              rows())
