"""The earlier three-loop form of the coherent-state series, used as a test oracle.

``reference_deformed_exp`` sums N(x) until 8 terms in a row fall below
1e-14 of the running sum, then adds a geometric estimate of the rest.
``reference_cut`` scans candidate cuts M from 0 and, at each one whose
|c_M|^2 is below ``tail_tol``, rescans the 64 structure-function values
after it for a geometric tail bound.  ``reference_state`` joins the two
and builds the amplitudes level by level.  These are the loops that
``defosc.coherent`` replaced with one pass; they share only the table
with it.
"""

import cmath
import math

import numpy as np

from defosc.algebra import StructureTable
from defosc.errors import NonconvergenceError, StructureOverflowError

REL_TOL = 1e-14
MAX_TERMS = 10**6
STREAK = 8
PROBE_AHEAD = 64


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def reference_deformed_exp(table: StructureTable, x: float) -> float:
    """log N(x) by the streak rule; x > 0 inside the radius."""
    log_x = math.log(x)
    log_rel_tol = math.log(REL_TOL)
    log_sum = -math.inf
    streak = 0
    prev_log_term = math.inf
    for n in range(MAX_TERMS):
        try:
            log_fact = table.log_f_factorial(n)
        except StructureOverflowError:
            return log_sum
        if log_fact == -math.inf:
            return log_sum
        log_term = n * log_x - log_fact
        log_sum = _logaddexp(log_sum, log_term)
        if log_term < log_rel_tol + log_sum:
            streak += 1
            if streak >= STREAK:
                ratio = math.exp(log_term - prev_log_term)
                if 0.0 < ratio < 1.0:
                    log_sum = _logaddexp(log_sum, log_term + math.log(ratio / (1.0 - ratio)))
                return log_sum
        else:
            streak = 0
        prev_log_term = log_term
    raise NonconvergenceError(f"reference series did not converge at x = {x}")


def _tail_bound_at(table, x, log_p, m) -> float | None:
    try:
        table.ensure(m + PROBE_AHEAD + 1)
    except StructureOverflowError:
        pass
    probe_end = min(m + PROBE_AHEAD, table.max_n)
    if probe_end <= m:
        return math.exp(log_p(m))
    f_min = min(table.f(j) for j in range(m + 1, probe_end + 1))
    if f_min <= x:
        return None
    log_geom = log_p(m + 1) - math.log1p(-x / f_min)
    return max(math.exp(log_p(m)), math.exp(log_geom))


def reference_cut(table: StructureTable, x: float, log_norm: float, tail_tol: float) -> tuple[int, float]:
    """(M, tail_bound): the first candidate cut whose rescanned bound is within tail_tol."""
    log_x = math.log(x)
    log_tol = math.log(tail_tol)

    def log_p(n: int) -> float:
        return n * log_x - table.log_f_factorial(n) - log_norm

    for m in range(MAX_TERMS + 1):
        if table.degeneracy is not None:
            return table.degeneracy - 1, 0.0
        if log_p(m) <= log_tol:
            bound = _tail_bound_at(table, x, log_p, m)
            if bound is not None and bound <= tail_tol:
                return m, bound
    raise NonconvergenceError(f"reference truncation exceeded {MAX_TERMS} levels")


def reference_state(table: StructureTable, z: complex, tail_tol: float = 1e-14):
    """(log N, M, tail_bound, amplitudes) of the state with label z != 0."""
    x = abs(z) ** 2
    log_norm = reference_deformed_exp(table, x)
    m, tail_bound = reference_cut(table, x, log_norm, tail_tol)
    theta = cmath.phase(z)
    log_abs_z = math.log(abs(z))
    amps = np.empty(m + 1, dtype=complex)
    for n in range(m + 1):
        log_mag = n * log_abs_z - 0.5 * table.log_f_factorial(n) - 0.5 * log_norm
        amps[n] = math.exp(log_mag) * cmath.exp(1j * (n * theta))
    return log_norm, m, tail_bound, amps
