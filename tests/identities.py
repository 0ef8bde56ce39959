"""The rank-one norm identities, checked against materialized operators."""

import numpy as np

from opsumbounds.vectors import VectorFamily, rank_one_family


def verify_identities(vf: VectorFamily) -> bool:
    """Check ||A_i|| = ||y_i|| and ||A_i A_j^H|| = |(y_i, y_j)| numerically,
    to a relative deviation of 1e-9.

    Cross deviations are measured relative to ||y_i|| ||y_j||, which
    dominates both sides, so exactly orthogonal pairs are checked at the
    right scale instead of against a zero denominator.
    """
    fam = rank_one_family(vf)
    norm_dev = float((np.abs(fam.norms - vf.norms) / vf.norms).max())
    pair_scale = np.outer(vf.norms, vf.norms)
    cross_dev = float((np.abs(fam.cross - vf.cross) / pair_scale).max())
    return norm_dev <= 1e-9 and cross_dev <= 1e-9
