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

N(x), the cut M, the tail bound and the amplitudes come from one pass
over the log-terms ``t(n) = n log x - log f(n)!``, which stops at the
first M with

    max(p(M), p(M+1) / (1 - x / f_min)) <= tail_tol,

where p(n) is term n over the sum of all terms read, and f_min > x is
the least f over the 64 levels after M, read before M is judged (a
running window minimum keeps this O(M)).  The second entry bounds the
discarded probability ``sum_{n>M} |c_n|^2`` geometrically, as long as f
stays above f_min past the window.  N(x) is the sum of every term read,
window included, and the recorded ``tail_bound`` is the left side
against it, so ``sum_{n<=M} |c_n|^2`` lies in [1 - tail_bound, 1].  A
``tail_tol`` looser than ``DEFAULT_TAIL_TOL`` sets M, but the pass sums
on until the rule holds at the default.  A zero of f at n0 ends the
series exactly, with M = n0 - 1 and tail bound 0; past an overflow of
the table the windows shrink.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
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

DEFAULT_TAIL_TOL = 1e-14
MAX_TERMS = 10**6
_PROBE_AHEAD = 64  # levels read past a candidate cut for its geometric bound
_NEAR_BOUNDARY_FRACTION = 0.99


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _check_domain(table: StructureTable, x: float) -> bool:
    """Refuse x at or past a finite radius; True if x is within 1% of it."""
    if table.degeneracy is not None:
        return False
    estimate = table.radius()
    if estimate.kind != "finite":
        return False
    if x >= estimate.value:
        raise OutsideDomainError(
            f"|z|^2 = {x} is outside the convergence disk (R = {estimate.value})",
            radius=estimate.value,
        )
    return x > _NEAR_BOUNDARY_FRACTION * estimate.value


def _tail_bound(log_terms: list[float], log_sum: float, m: int, ratio: float) -> float:
    """max(p(M), p(M+1) / (1 - ratio)) against the sum ``log_sum``."""
    log_next = log_terms[m + 1] if m + 1 < len(log_terms) else -math.inf
    log_geom = log_next - log_sum - math.log1p(-ratio)
    return max(math.exp(log_terms[m] - log_sum), math.exp(log_geom))


def _series(table: StructureTable, x: float, tail_tol: float) -> tuple[list[float], float, int, float]:
    """The pass of the module docstring for x > 0 inside the radius.

    Returns ``(log_terms, log_norm, cut, tail_bound)``: every log-term
    read, log N(x) as their sequential log-sum, the cut M and its bound.

    Raises
    ------
    NonconvergenceError
        If no cut is found within ``MAX_TERMS`` levels.
    StructureOverflowError
        If the table overflows before any level qualifies as the cut.
    """
    log_x = math.log(x)
    log_terms: list[float] = []
    log_sum = -math.inf
    # (level, f) for the levels read past the candidate, f increasing:
    # the first entry is the window minimum
    window: deque[tuple[int, float]] = deque()
    tol, log_tol = tail_tol, math.log(tail_tol)
    cut: int | None = None
    cut_ratio = 0.0
    f_block: list[float] = []
    lf_block: list[float] = []
    start = k = 0  # start is the level of f_block[0]
    while True:
        if k == start + len(f_block):
            try:
                table.ensure(k + _PROBE_AHEAD - 1)
            except StructureOverflowError:
                pass  # levels past the overflow do not exist
            f_block, _, lf_block = table.levels(k, min(k + _PROBE_AHEAD, table.max_n + 1))
            start = k
        if f_block:
            f_k, lf_k = f_block[k - start], lf_block[k - start]
            if lf_k == -math.inf:
                # f(k) = 0: the series is the finite sum read so far
                if cut is None:
                    return log_terms, log_sum, k - 1, 0.0
                break
            log_terms.append(k * log_x - lf_k)
            log_sum = _logaddexp(log_sum, log_terms[-1])
            while window and window[-1][1] >= f_k:
                window.pop()
            window.append((k, f_k))
        m = k - _PROBE_AHEAD  # the candidate whose window is now read
        k += 1
        if m < 0:
            continue
        if m > MAX_TERMS:
            raise NonconvergenceError(f"the series at |z|^2 = {x} found no cut within {MAX_TERMS} levels")
        if m >= len(log_terms):
            raise StructureOverflowError(table.overflow_at)
        if window and window[0][0] == m:
            window.popleft()
        f_min = window[0][1] if window else math.inf
        if f_min <= x or log_terms[m] - log_sum > log_tol:
            continue
        bound = _tail_bound(log_terms, log_sum, m, x / f_min)
        if bound > tol:
            continue
        if cut is None:
            cut, cut_ratio = m, x / f_min
        if bound <= DEFAULT_TAIL_TOL:
            break
        tol, log_tol = DEFAULT_TAIL_TOL, math.log(DEFAULT_TAIL_TOL)
    return log_terms, log_sum, cut, _tail_bound(log_terms, log_sum, cut, cut_ratio)


def deformed_exp(table: StructureTable, x: float) -> tuple[float, int]:
    """log of N(x) = sum_n x^n / f(n)!, plus the number of terms summed.

    The sum is the pass of the module docstring at ``DEFAULT_TAIL_TOL``:
    every term up to 64 levels past the cut.  For a degenerate table it
    is the exact finite sum over the surviving ladder.

    Raises
    ------
    OutsideDomainError
        If x >= the (finite) estimated radius: the series diverges.
    NonconvergenceError
        If the pass finds no cut within ``MAX_TERMS`` levels.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0, 1
    _check_domain(table, x)
    log_terms, log_norm, _, _ = _series(table, x, DEFAULT_TAIL_TOL)
    return log_norm, len(log_terms)


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


def make_state(table: StructureTable, z: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> CoherentState:
    """Construct the coherent state with label z.

    The cut M is the first level at which the tail rule of the module
    docstring holds at ``tail_tol``, within ``MAX_TERMS`` levels; the
    normalization and the amplitudes come from the same pass.  States
    with |z|^2 beyond 99% of a finite radius are allowed but flagged
    ``near_boundary``.
    """
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    z = complex(z)
    x = abs(z) ** 2
    if x == 0.0:
        return CoherentState(z, table, 0, np.array([1.0 + 0j]), 0.0, 0.0)

    near_boundary = _check_domain(table, x)
    log_terms, log_norm, m, tail_bound = _series(table, x, tail_tol)
    theta = cmath.phase(z)
    kept = log_terms[: m + 1]
    amps = np.array([math.exp(0.5 * (t - log_norm)) * cmath.exp(1j * (n * theta)) for n, t in enumerate(kept)])
    return CoherentState(z, table, m, amps, log_norm, tail_bound, near_boundary)


def eigen_residual(state: CoherentState, rep: FockRep) -> float:
    """2-norm of (a - z) applied to the truncated state.

    a is applied to its band ``rep.a`` as the weighted shift
    ``(a v)[n] = sqrt(f(n+1)) v[n+1]``.
    """
    if rep.dim < state.truncation + 1:
        raise DimensionMismatchError(
            f"representation dim {rep.dim} below truncation {state.truncation}"
        )
    if rep.table is not state.table:
        raise TableMismatchError("state and representation use different tables")
    vec = state.vector(rep.dim)
    image = np.zeros_like(vec)
    image[:-1] = rep.a * vec[1:]
    return float(np.linalg.norm(image - state.z * vec))


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

    Units with hbar = 1.  The representation must extend two levels past
    the state's truncation, so that adag on the top kept level stays
    inside it, or one level where the ladder ends at its top (a zero of
    phi at n0 = dim makes that adag exactly 0).  Each quadrature is
    applied as two weighted shifts, on the bands ``rep.a`` and ``rep.adag``.
    """
    if rep.dim < state.truncation + (1 if rep.table.degeneracy == rep.dim else 2):
        raise DimensionMismatchError(
            f"representation dim {rep.dim} must exceed truncation {state.truncation} by 2"
        )
    if rep.table is not state.table:
        raise TableMismatchError("state and representation use different tables")
    vec = state.vector(rep.dim)
    a, adag = rep.a, rep.adag
    root2 = math.sqrt(2.0)
    variances = []
    # (upper, lower) bands of Q and of P
    for upper, lower in ((a / root2, adag / root2), (a / (1j * root2), -adag / (1j * root2))):
        image = np.zeros_like(vec)
        image[:-1] = upper * vec[1:]
        image[1:] += lower * vec[:-1]
        mean = np.vdot(vec, image).real
        second = np.vdot(image, image).real  # Q and P are Hermitian
        variances.append(max(second - mean**2, 0.0))
    return math.sqrt(variances[0] * variances[1])
