"""scipy's rectangular linear sum assignment, the oracle the in-tree
solver behind :func:`repro.core.assignment.assign_optimal` is pinned
against.

scipy is a test dependency only (the ``dev`` extra); the library never
imports it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def scipy_slot_binding(reward) -> list[int]:
    """The slot-ordered job indices of
    ``linear_sum_assignment(reward, maximize=True)`` on a ``(job, slot)``
    reward matrix."""
    rows, cols = linear_sum_assignment(
        np.asarray(reward, dtype=float), maximize=True
    )
    binding = [0] * len(cols)
    for j, s in zip(rows.tolist(), cols.tolist()):
        binding[s] = j
    return binding
