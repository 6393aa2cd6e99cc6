"""Closed-form bulk oracle for the edge-map correctness checks.

It shares no code with ``ptwalk.bulk``.  The coefficients are the
symmetric-frame three-step walk's

    d0 = A cos k + B cos 3k
    d2 + i d3 = z^-3 p(z^2) / 2,  z = e^{ik}

with ``p(w) = (Q + c2^2) w^3 + (P - s2^2) w^2 + (P + s2^2) w + (Q - c2^2)``.

* ``d0`` is an odd cubic in ``u = cos k``.  So ``max |d0|`` over the zone
  comes from ``u = 1`` and the stationary point of that cubic, without
  a k grid.
* ``d2 + i d3`` winds ``2 n_in - 3`` times, where ``n_in`` is the number
  of roots of ``p`` inside the unit disk.  The shifted winding number
  ``nu' / 2 + 3 / 2`` is therefore ``n_in`` itself.
"""

from __future__ import annotations

import math

import numpy as np


def _coefficients(theta1: float, theta2: float, gamma: float):
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2sq, s2sq = math.cos(theta2) ** 2, math.sin(theta2) ** 2
    s22 = math.sin(2.0 * theta2)
    ch = math.cosh(2.0 * gamma)
    a = -(c1 * s2sq + s1 * s22 * ch)
    b = c1 * c2sq
    p = s1 * s2sq - c1 * s22 * ch
    q = -s1 * c2sq
    return a, b, p, q, c2sq, s2sq


def max_abs_d0(theta1: float, theta2: float, gamma: float) -> float:
    """Exact ``max |d0|`` over the Brillouin zone."""
    a, b, *_ = _coefficients(theta1, theta2, gamma)
    best = abs(a + b)  # u = +-1; the cubic is odd in u
    if b != 0.0:
        u2 = (3.0 * b - a) / (12.0 * b)
        if 0.0 < u2 < 1.0:
            u = math.sqrt(u2)
            best = max(best, abs(4.0 * b * u**3 + (a - 3.0 * b) * u))
    return best


def nu_shifted(theta1: float, theta2: float, gamma: float) -> int:
    """Shifted winding number: roots of ``p`` inside the unit disk.

    Meaningful only where the gap is open; a closed gap puts a root on
    the unit circle.
    """
    _, _, p, q, c2sq, s2sq = _coefficients(theta1, theta2, gamma)
    roots = np.roots([q + c2sq, p - s2sq, p + s2sq, q - c2sq])
    return int(np.count_nonzero(np.abs(roots) < 1.0))
