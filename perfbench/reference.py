"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's host is a share of a machine whose speed drifts by up to
1.8x in phases of seconds to minutes. So run.py times a reference block
before and after every timed pass and reports each time scaled by
``REFERENCE_BLOCK_S`` over the measured block time: seconds on a host
where one block takes ``REFERENCE_BLOCK_S``. The block does not touch
casimir_fields, so a change to the package moves the scaled times by the
full amount; it is made of the element-wise numpy work that dominates the
workloads (sqrt, expm1, exp and division on u x t arrays of about 15,000
nodes, the size of one integrand call).
"""

from __future__ import annotations

import time

import numpy as np

# Nominal seconds of one block: the unit the scaled times are given in.
REFERENCE_BLOCK_S = 0.1
ROUNDS = 400

_U = np.geomspace(0.01, 40.0, 61)[:, None]
_T = np.linspace(0.001, 0.999, 251)[None, :]


def block() -> float:
    """The reference computation; returns a checksum so no work can be skipped."""
    acc = 0.0
    for k in range(ROUNDS):
        x = 1.0 + k * 1e-3
        t2 = _T * _T
        s = np.sqrt(t2 + x * 4.0 / (1.0 + _U * _U) * (1.0 - t2))
        r = (_T - s) / (_T + s)
        em = -np.expm1(-2.0 * _U * x)
        acc += float(np.sum(_U**3 * r * r * np.exp(-_U) / em))
    return acc


def timed_block() -> tuple[float, float]:
    """Wall and process CPU seconds of one block."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    block()
    return time.perf_counter() - wall0, time.process_time() - cpu0

