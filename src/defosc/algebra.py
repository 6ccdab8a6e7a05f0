"""Structure functions of deformed single-mode oscillator algebras.

Given two analytic functions F and G of the level index, the complex
sequence phi is fixed by ``phi(0) = 0`` and the recurrence

    phi(n+1) = F(n) * phi(n) + G(n).

The structure function is ``f(n) = |phi(n)|`` together with the unit
phase ``c(n) = phi(n) / |phi(n)|``.  This module tabulates phi, f, the
phases, and the log-domain deformed factorial, detects degeneracies
(``phi(n0) = 0`` truncating the ladder), evaluates the equivalent
product form of phi as an independent cross-check, and estimates the
radius of convergence of the deformed exponential series.

The deformed factorial is kept in log magnitude because ``f(n)!``
leaves double-precision range near n = 170 already for the undeformed
oscillator.  The product form uses
exact power-of-two scaling instead, so the cross-check shares no code
path with the recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    ClosedFormInapplicableError,
    EvalError,
    StructureOverflowError,
)
from .expr import Bindings, Expression, evaluate

# Levels probed when validating a spec at construction time.
N_PROBE = 8

# Degeneracy snap: |phi(n)| below this times the magnitudes feeding it is zero.
DEGENERACY_RTOL = 1e-14

DEFAULT_PROBE_DEPTH = 10_000
DEFAULT_RADIUS_TOL = 1e-9
GROWTH_THRESHOLD = 1e12
_TAIL_WINDOW = 32


@dataclass(frozen=True)
class DeformationSpec:
    """A named deformation: the pair (F, G) plus parameter bindings.

    F and G must evaluate successfully at n = 0..N_PROBE under the given
    bindings; this is checked at construction so that malformed specs
    fail fast rather than midway through a long tabulation.
    """

    name: str
    F: Expression
    G: Expression
    params: Mapping[str, complex] = field(default_factory=dict, hash=False)  # unhashable; == compares it

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        for n in range(N_PROBE + 1):
            self.eval_F(n)
            self.eval_G(n)

    def eval_F(self, n: int) -> complex:
        try:
            return evaluate(self.F, n, self.params)
        except EvalError as exc:
            raise EvalError(f"F({self.F.source!r}) failed at n = {n}: {exc}") from exc

    def eval_G(self, n: int) -> complex:
        try:
            return evaluate(self.G, n, self.params)
        except EvalError as exc:
            raise EvalError(f"G({self.G.source!r}) failed at n = {n}: {exc}") from exc


def make_spec(name: str, f_source: str, g_source: str, params: Bindings | None = None) -> DeformationSpec:
    """Parse F and G sources and build a validated spec."""
    from .expr import parse

    return DeformationSpec(name, parse(f_source), parse(g_source), dict(params or {}))


class StructureTable:
    """Lazily extended tabulation of phi(n), f(n), phases and log f(n)!.

    The table is grown single-threaded via :meth:`ensure`; tabulated
    entries never change afterwards, so concurrent reads are safe.

    Stored per level n:

    * ``phi(n)``     complex, with ``phi = phase * f`` exact by construction
                     (for complex phi the stored modulus may differ from
                     ``abs(phi)`` by one ulp; for real phi it is exact);
    * ``f(n)``       the nonnegative structure-function value;
    * ``phase(n)``   unit modulus, 1 by convention where phi(n) = 0;
    * ``log f(n)!``  running log of the deformed factorial, -inf once
                     a degeneracy makes the product vanish.

    ``degeneracy`` is the smallest n0 >= 1 with phi(n0) = 0, if any; the
    Fock ladder is then n0-dimensional and downstream series are finite.
    """

    def __init__(
        self,
        spec: DeformationSpec,
        n_max: int = 0,
        radius_probe_depth: int = DEFAULT_PROBE_DEPTH,
    ):
        self.spec = spec
        self._phi: list[complex] = [0j]
        self._f: list[float] = [0.0]
        self._phase: list[complex] = [complex(1.0)]
        self._log_f_fact: list[float] = [0.0]
        self._degeneracy: int | None = None
        self._overflow_at: int | None = None
        self._radius_probe_depth = radius_probe_depth
        self._radius_cache: RadiusEstimate | None = None
        self.ensure(n_max)

    # -- growth ------------------------------------------------------------

    @property
    def max_n(self) -> int:
        return len(self._phi) - 1

    @property
    def degeneracy(self) -> int | None:
        return self._degeneracy

    @property
    def overflow_at(self) -> int | None:
        return self._overflow_at

    def ensure(self, n: int) -> None:
        """Extend the table so that level ``n`` is available."""
        if n < 0:
            raise ValueError("level index must be nonnegative")
        while self.max_n < n:
            if self._overflow_at is not None:
                raise StructureOverflowError(self._overflow_at)
            self._extend_one()

    def _extend_one(self) -> None:
        k = self.max_n  # computing phi(k+1)
        fk = self.spec.eval_F(k)
        gk = self.spec.eval_G(k)
        drift = fk * self._phi[k]
        phi_raw = drift + gk
        magnitude = abs(phi_raw)
        if not math.isfinite(magnitude):
            self._overflow_at = k + 1
            raise StructureOverflowError(k + 1)

        if magnitude <= DEGENERACY_RTOL * (1.0 + abs(drift) + abs(gk)):
            phi, f, phase = 0j, 0.0, complex(1.0)
            if self._degeneracy is None:
                self._degeneracy = k + 1
        elif phi_raw.imag == 0.0:
            phi, f = phi_raw, magnitude
            phase = complex(math.copysign(1.0, phi_raw.real))
        else:
            phase = phi_raw / magnitude
            f = magnitude
            phi = phase * f  # snapped so that phase * f == phi bit-exactly

        self._phi.append(phi)
        self._f.append(f)
        self._phase.append(phase)
        self._log_f_fact.append(self._log_f_fact[-1] + (math.log(f) if f > 0.0 else -math.inf))

    # -- accessors ---------------------------------------------------------

    def phi(self, n: int) -> complex:
        self.ensure(n)
        return self._phi[n]

    def f(self, n: int) -> float:
        self.ensure(n)
        return self._f[n]

    def phase(self, n: int) -> complex:
        self.ensure(n)
        return self._phase[n]

    def log_f_factorial(self, n: int) -> float:
        """Sum of ln f(k) for k = 1..n; 0 for n = 0; -inf past a degeneracy."""
        self.ensure(n)
        return self._log_f_fact[n]

    def levels(self, start: int, stop: int) -> tuple[list[float], list[complex], list[float]]:
        """f(n), phase(n) and log f(n)! for start <= n < stop, as new lists."""
        self.ensure(stop - 1)
        return self._f[start:stop], self._phase[start:stop], self._log_f_fact[start:stop]

    def effective_dimension(self, requested: int) -> int:
        """Largest usable ladder index: requested, clamped below a degeneracy."""
        if self._degeneracy is not None and self._degeneracy <= requested:
            return self._degeneracy - 1
        return requested

    # -- radius ------------------------------------------------------------

    def radius(self) -> "RadiusEstimate":
        """Radius of convergence of the deformed exponential, cached.

        Probes the table up to its configured ``radius_probe_depth``.
        """
        if self._radius_cache is None:
            self._radius_cache = _estimate_radius_on(self, self._radius_probe_depth)
        return self._radius_cache


def phi_recurrence(spec: DeformationSpec, n_max: int) -> StructureTable:
    """Tabulate phi(0..n_max) by the defining recurrence.

    This is the authoritative evaluation route: it involves no division,
    so it applies even where F vanishes.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return StructureTable(spec, n_max)


# --------------------------------------------------------------------------
# Product-form evaluation (independent cross-check route)
# --------------------------------------------------------------------------
#
# phi(n) = [F(n-1)]! * sum_{k=0}^{n-1} G(k) / [F(k)]!   for n >= 1,
# with [F(k)]! = F(k) F(k-1) ... F(1) and [F(0)]! = 1.
#
# The factorial and the partial sum are carried as (mantissa, exponent)
# pairs with power-of-two exponents, so rescaling is exact and the only
# rounding comes from the complex multiplies and adds themselves.


def _ldexp_c(z: complex, e: int) -> complex:
    return complex(_ldexp_clamped(z.real, e), _ldexp_clamped(z.imag, e))


def _ldexp_clamped(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _normalize(mant: complex, exp: int) -> tuple[complex, int]:
    mag = abs(mant)
    if mag == 0.0 or not math.isfinite(mag):
        return mant, exp
    _, e = math.frexp(mag)
    return _ldexp_c(mant, -e), exp + e


def _scaled_add(m1: complex, e1: int, m2: complex, e2: int) -> tuple[complex, int]:
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if e1 >= e2:
        return _normalize(m1 + _ldexp_c(m2, e2 - e1), e1)
    return _normalize(_ldexp_c(m1, e1 - e2) + m2, e2)


def phi_closed_sequence(spec: DeformationSpec, n_max: int) -> list[complex]:
    """phi(0..n_max) via the product form, in one O(n_max) sweep.

    Raises
    ------
    ClosedFormInapplicableError
        If F(k) = 0 for some 1 <= k <= n_max - 1; the division by
        [F(k)]! is then undefined and callers must use the recurrence.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out: list[complex] = [0j]
    fact_m, fact_e = complex(1.0), 0
    sum_m, sum_e = complex(0.0), 0
    for k in range(n_max):
        if k >= 1:
            fk = spec.eval_F(k)
            if fk == 0:
                raise ClosedFormInapplicableError(k)
            fact_m, fact_e = _normalize(fact_m * fk, fact_e)
        gk = spec.eval_G(k)
        term_m, term_e = _normalize(gk / fact_m, -fact_e)
        sum_m, sum_e = _scaled_add(sum_m, sum_e, term_m, term_e)
        out.append(_ldexp_c(fact_m * sum_m, fact_e + sum_e))
    return out


# --------------------------------------------------------------------------
# Radius of convergence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusEstimate:
    """Verdict on the convergence radius of sum x^n / [f(n)]!.

    The radius equals the limit of f(n) when that limit exists, so the
    estimate samples the structure-function tail:

    * a degenerate table means the series is a polynomial -> infinite;
    * a tail that crosses ``GROWTH_THRESHOLD`` while nondecreasing, or
      keeps growing by a sustained factor over the probed range, is
      treated as unbounded -> infinite;
    * a tail whose relative spread over the trailing window is below
      ``DEFAULT_RADIUS_TOL`` -> finite, value = mean of the window;
    * anything else -> undetermined (a valid verdict, not an error).
    """

    kind: str  # "finite" | "infinite" | "undetermined"
    value: float | None
    probe_depth: int
    evidence: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "infinite", "undetermined"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "finite" and not (self.value is not None and self.value > 0):
            raise ValueError("finite radius must be positive")


def _tail(values: list[float], count: int) -> list[float]:
    return values[max(1, len(values) - count):]


def _nondecreasing(window: list[float]) -> bool:
    return all(b >= a for a, b in zip(window, window[1:]))


def _estimate_radius_on(table: StructureTable, probe_depth: int) -> RadiusEstimate:
    if probe_depth < 16:
        raise ValueError("probe_depth must be at least 16")

    def verdict(kind: str, value: float | None = None) -> RadiusEstimate:
        evidence = tuple(_tail(table._f[: table.max_n + 1], 8))
        return RadiusEstimate(kind, value, table.max_n, evidence)

    overflowed = False
    while table.max_n < probe_depth:
        target = min(table.max_n + 256, probe_depth)
        try:
            table.ensure(target)
        except StructureOverflowError:
            overflowed = True
            break
        if table.degeneracy is not None and table.degeneracy <= table.max_n:
            return verdict("infinite")
        window = _tail(table._f[: table.max_n + 1], _TAIL_WINDOW)
        if len(window) >= _TAIL_WINDOW:
            top, bottom = max(window), min(window)
            if bottom > 0 and (top - bottom) <= DEFAULT_RADIUS_TOL * top:
                return verdict("finite", math.fsum(window) / len(window))
            if window[-1] > GROWTH_THRESHOLD and _nondecreasing(window):
                return verdict("infinite")

    if table.degeneracy is not None:
        return verdict("infinite")

    fs = table._f[: table.max_n + 1]
    window = _tail(fs, _TAIL_WINDOW)
    if overflowed:
        if _nondecreasing(window):
            return verdict("infinite")
        return verdict("undetermined")

    top, bottom = max(window), min(window)
    if bottom > 0 and (top - bottom) <= DEFAULT_RADIUS_TOL * top:
        return verdict("finite", math.fsum(window) / len(window))
    # sustained growth over the probed range, e.g. linear f on a probe
    # far too short to cross the absolute threshold
    half = fs[max(1, table.max_n // 2)]
    if _nondecreasing(window) and half > 0 and fs[-1] / half >= 1.5:
        return verdict("infinite")
    return verdict("undetermined")


def estimate_radius(spec: DeformationSpec, probe_depth: int = DEFAULT_PROBE_DEPTH) -> RadiusEstimate:
    """Estimate the convergence radius for a spec on a fresh table."""
    return _estimate_radius_on(StructureTable(spec), probe_depth)
