"""Eigenvalues of small symmetric matrices.

eig2 is the closed form for 2x2 stacks; the curvature searches use it for
n = 2, read 1x1 stacks directly, and call numpy.linalg.eigvalsh for n >= 3.
Tests cross-check eig2 against numpy.linalg.eigvalsh.
"""

from __future__ import annotations

import numpy as np


def eig2(h11, h12, h22):
    """Eigenvalue pair (min, max) of [[h11, h12], [h12, h22]]; accepts arrays."""
    mean = 0.5 * (h11 + h22)
    radius = np.hypot(0.5 * (h11 - h22), h12)
    return mean - radius, mean + radius
