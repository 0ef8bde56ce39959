"""The renormalized squaring with numpy's complex division, kept as a
test oracle.

linalg._squared_power multiplies each slice by the reciprocal of its
trace.  This is the division by (trace, 0) that it replaced: numpy forms
the same products, so the two may differ only in the sign of a zero
entry, and every spectral norm must carry the same bits through either.
"""

import numpy as np

from opsumbounds.linalg import _SQUARINGS


def divided_squared_power(bs: np.ndarray) -> np.ndarray:
    """B^(2^_SQUARINGS) for each slice, each divided by its trace before
    every squaring."""
    c = bs
    for _ in range(_SQUARINGS):
        tr = c.trace(axis1=1, axis2=2).real
        c = c / np.where(tr > 0.0, tr, 1.0)[:, None, None]
        c = c @ c
    return c
