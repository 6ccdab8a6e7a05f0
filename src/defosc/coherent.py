"""Coherent states of a deformed oscillator and their diagnostics.

A state with label z is the normalized ladder-lowering eigenvector

    |z> = N(|z|^2)^(-1/2) * sum_n  z^n / sqrt(f(n)!) |n>,

where ``N(x) = sum_n x^n / f(n)!`` is the deformed exponential.  The
series converges for |z|^2 inside the structure function's limit radius,
so every constructor checks the table's radius estimate first.

Amplitudes are carried as log magnitude plus phase: the raw quantities
``z^n / sqrt(f(n)!)`` overflow or underflow doubles long before the
probability tail is negligible.  Linear amplitude vectors are
materialized only after truncation, where every entry is at most 1.

Truncation is adaptive per (table, z).  The recorded ``tail_bound``
dominates both the discarded probability ``sum_{n>M} |c_n|^2`` (via a
geometric bound with ratio |z|^2 / inf f beyond M) and the last kept
probability |c_M|^2, which is what the lowering-eigenvector residual of
the truncated vector is made of.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import StructureTable
from .errors import (
    DimensionMismatchError,
    NonconvergenceError,
    OutsideDomainError,
    StructureOverflowError,
    TableMismatchError,
)
from .fock import FockRep

DEFAULT_REL_TOL = 1e-14
DEFAULT_TAIL_TOL = 1e-14
MAX_TERMS = 10**6
_STREAK = 8  # consecutive below-threshold terms required to stop a series
_PROBE_AHEAD = 64  # structure-function samples inspected beyond a candidate cut
_NEAR_BOUNDARY_FRACTION = 0.99


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def deformed_exp(
    table: StructureTable,
    x: float,
    max_terms: int = MAX_TERMS,
    check_radius: bool = True,
) -> tuple[float, int]:
    """log of N(x) = sum_n x^n / f(n)!, plus the number of terms summed.

    Terms are accumulated in the log domain; summation stops once the
    current term stays below ``DEFAULT_REL_TOL`` times the running sum
    for 8 consecutive terms.  For a degenerate table the sum is the exact
    finite one over the surviving ladder.

    Raises
    ------
    OutsideDomainError
        If x >= the (finite) estimated radius: the series diverges.
    NonconvergenceError
        If ``max_terms`` is exhausted before the stop rule fires.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0, 1
    if check_radius and table.degeneracy is None:
        estimate = table.radius()
        if estimate.kind == "finite" and x >= estimate.value:
            raise OutsideDomainError(
                f"x = {x} is outside the convergence radius R = {estimate.value}",
                radius=estimate.value,
            )

    log_x = math.log(x)
    log_rel_tol = math.log(DEFAULT_REL_TOL)
    log_sum = -math.inf
    streak = 0
    terms = 0
    n = 0
    prev_log_term = math.inf
    while terms < max_terms:
        try:
            log_fact = table.log_f_factorial(n)
        except StructureOverflowError:
            # phi itself left double range; remaining log-domain terms are
            # already far below the stop threshold at this point
            break
        if log_fact == -math.inf:
            break  # degenerate ladder: the series terminates here
        log_term = n * log_x - log_fact
        log_sum = _logaddexp(log_sum, log_term)
        terms += 1
        if log_term < log_rel_tol + log_sum:
            streak += 1
            if streak >= _STREAK:
                # near a finite radius the neglected tail is a slow geometric
                # series worth hundreds of last terms; add its estimate
                ratio = math.exp(log_term - prev_log_term)
                if 0.0 < ratio < 1.0:
                    log_sum = _logaddexp(log_sum, log_term + math.log(ratio / (1.0 - ratio)))
                return log_sum, terms
        else:
            streak = 0
        prev_log_term = log_term
        n += 1
    if table.degeneracy is not None or terms < max_terms:
        return log_sum, terms
    raise NonconvergenceError(
        f"deformed exponential did not converge within {max_terms} terms at x = {x}"
    )


@dataclass(frozen=True)
class CoherentState:
    """Truncated amplitude representation of one coherent state.

    ``amps[n]`` is the full analytic amplitude c_n (not renormalized
    after truncation), so ``sum |amps|^2`` lies in [1 - tail_bound, 1].
    c_0 is real and positive.
    """

    z: complex
    table: StructureTable
    truncation: int
    amps: np.ndarray
    normalization_log: float
    tail_bound: float
    near_boundary: bool = False

    def vector(self, dim: int) -> np.ndarray:
        """Amplitudes padded with zeros to length ``dim``."""
        if dim < self.truncation + 1:
            raise DimensionMismatchError(
                f"dim {dim} cannot hold truncation level {self.truncation}"
            )
        out = np.zeros(dim, dtype=complex)
        out[: self.truncation + 1] = self.amps
        return out

    @property
    def pmf(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def make_state(
    table: StructureTable,
    z: complex,
    tail_tol: float = DEFAULT_TAIL_TOL,
    unsafe: bool = False,
) -> CoherentState:
    """Construct the coherent state with label z.

    The truncation level M is grown until the recorded tail bound drops
    below ``tail_tol``, within ``MAX_TERMS`` levels.  States with |z|^2
    beyond 99% of a finite radius are allowed but flagged
    ``near_boundary``.  ``unsafe=True`` skips the radius check entirely
    (the term budget still applies).
    """
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    z = complex(z)
    x = abs(z) ** 2

    near_boundary = False
    if table.degeneracy is None:
        estimate = table.radius()
        if estimate.kind == "finite":
            if x >= estimate.value and not unsafe:
                raise OutsideDomainError(
                    f"|z|^2 = {x} is outside the convergence disk (R = {estimate.value})",
                    radius=estimate.value,
                )
            near_boundary = x > _NEAR_BOUNDARY_FRACTION * estimate.value

    log_norm, _ = deformed_exp(table, x, check_radius=not unsafe)

    if x == 0.0:
        return CoherentState(z, table, 0, np.array([1.0 + 0j]), 0.0, 0.0)

    log_x = math.log(x)

    def log_p(n: int) -> float:
        # log |c_n|^2
        return n * log_x - table.log_f_factorial(n) - log_norm

    if table.degeneracy is not None:
        m = table.degeneracy - 1
        tail_bound = 0.0
    else:
        m, tail_bound = _choose_truncation(table, x, log_p, tail_tol)

    return _materialize(z, table, m, log_norm, tail_bound, near_boundary)


def _choose_truncation(table, x, log_p, tail_tol):
    log_tol = math.log(tail_tol)
    m = 0
    while True:
        if m > MAX_TERMS:
            raise NonconvergenceError(
                f"truncation exceeded {MAX_TERMS} levels for |z|^2 = {x}"
            )
        if table.degeneracy is not None:
            return table.degeneracy - 1, 0.0
        if log_p(m) <= log_tol:
            bound = _tail_bound_at(table, x, log_p, m)
            if bound is not None and bound <= tail_tol:
                return m, bound
        m += 1


def _tail_bound_at(table, x, log_p, m) -> float | None:
    """max(|c_m|^2, geometric bound on sum_{n>m} |c_n|^2), or None if unbounded."""
    try:
        table.ensure(m + _PROBE_AHEAD + 1)
    except StructureOverflowError:
        pass
    probe_end = min(m + _PROBE_AHEAD, table.max_n)
    if probe_end <= m:
        # the structure function overflowed right past m: the next term is
        # smaller than |c_m|^2 by an astronomically large factor
        return math.exp(log_p(m))
    f_min = min(table.f(j) for j in range(m + 1, probe_end + 1))
    if f_min <= x:
        return None
    ratio = x / f_min
    log_geom = log_p(m + 1) - math.log1p(-ratio)
    return max(math.exp(log_p(m)), math.exp(log_geom))


def _materialize(z, table, m, log_norm, tail_bound, near_boundary) -> CoherentState:
    theta = cmath.phase(z) if z != 0 else 0.0
    log_abs_z = math.log(abs(z)) if z != 0 else -math.inf
    amps = np.empty(m + 1, dtype=complex)
    for n in range(m + 1):
        log_mag = n * log_abs_z - 0.5 * table.log_f_factorial(n) - 0.5 * log_norm
        amps[n] = math.exp(log_mag) * cmath.exp(1j * (n * theta)) if log_mag > -745 else 0.0
    return CoherentState(z, table, m, amps, log_norm, tail_bound, near_boundary)


def eigen_residual(state: CoherentState, rep: FockRep) -> float:
    """2-norm of (a - z) applied to the truncated state."""
    if rep.dim < state.truncation + 1:
        raise DimensionMismatchError(
            f"representation dim {rep.dim} below truncation {state.truncation}"
        )
    if rep.table is not state.table:
        raise TableMismatchError("state and representation use different tables")
    vec = state.vector(rep.dim)
    return float(np.linalg.norm(rep.mat_a @ vec - state.z * vec))


def overlap(s1: CoherentState, s2: CoherentState) -> complex:
    """<z1|z2> as the amplitude dot product sum conj(c_n(z1)) c_n(z2)."""
    if s1.table is not s2.table:
        raise TableMismatchError("overlap requires states over the same table")
    k = min(s1.truncation, s2.truncation) + 1
    return complex(np.vdot(s1.amps[:k], s2.amps[:k]))


@dataclass(frozen=True)
class PhotonStatistics:
    """Number statistics of a state; mandel_q is None when <N> = 0."""

    pmf: np.ndarray
    mean_n: float
    var_n: float
    mandel_q: float | None


def photon_statistics(state: CoherentState) -> PhotonStatistics:
    """Occupation pmf p_n = |c_n|^2 with mean, variance and Mandel Q."""
    pmf = state.pmf
    levels = np.arange(pmf.size, dtype=float)
    mean = float(levels @ pmf)
    var = float((levels**2) @ pmf) - mean**2
    q = (var - mean) / mean if mean > 0 else None
    return PhotonStatistics(pmf, mean, var, q)


def uncertainty_product(state: CoherentState, rep: FockRep) -> float:
    """Delta Q * Delta P for quadratures Q = (a+adag)/sqrt2, P = (a-adag)/(i sqrt2).

    Units with hbar = 1.  The representation must extend at least two
    levels past the state's truncation so that adag acting on the top
    kept level stays inside the matrix.
    """
    if rep.dim < state.truncation + 2:
        raise DimensionMismatchError(
            f"representation dim {rep.dim} must exceed truncation {state.truncation} by 2"
        )
    if rep.table is not state.table:
        raise TableMismatchError("state and representation use different tables")
    vec = state.vector(rep.dim)
    quad_q = (rep.mat_a + rep.mat_adag) / math.sqrt(2.0)
    quad_p = (rep.mat_a - rep.mat_adag) / (1j * math.sqrt(2.0))
    variances = []
    for op in (quad_q, quad_p):
        image = op @ vec
        mean = np.vdot(vec, image).real
        second = np.vdot(image, image).real  # op is Hermitian
        variances.append(max(second - mean**2, 0.0))
    return math.sqrt(variances[0] * variances[1])
