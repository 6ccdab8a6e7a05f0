"""Numerical verification of the resolution-of-identity moment condition.

A family of coherent states admits a resolution of identity exactly when
some radial weight reproduces the deformed factorials as its power
moments:

    integral_0^R  x^n W(x) dx  =  f(n)!   for n = 0, 1, 2, ...

where W collects the radial measure density divided by the deformed
exponential (W(x) = 2 pi omega'(x) / N(x)).  This module checks a
candidate W against a structure table; it does not attempt to construct
a weight from the moments.

Each moment is integrated with adaptive 7-15 Gauss-Kronrod panels.  The
integrand is pre-scaled by exp(-log f(n)!), so the computation compares
against a target of exactly 1 and never leaves double range even for
fast-growing deformations; semi-infinite supports are mapped to (0, 1)
via x = t / (1 - t).  Quadrature runs 100x tighter than the verdict
tolerance so that integration error cannot masquerade as a genuine
moment mismatch.

A separate diagnostic estimates whether the Stieltjes-Carleman series
sum_n (f(n)!)^(-1/(2n)) diverges, the standard sufficient condition for
the moment problem to be well-posed; solvability is not guaranteed
either way, hence "diagnostic".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .algebra import StructureTable
from .errors import WeightError
from .expr import Expression, evaluate, parse

# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1].
_GK_NODES = (
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
)

DEFAULT_N_MAX = 20
DEFAULT_REL_TOL = 1e-6
QUAD_TIGHTENING = 100.0
MAX_PANELS = 4000
INITIAL_PANELS = 8
_PROBE_POINTS = 64


def _gk_panel(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod estimate of the integral over [a, b] and an error estimate."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    gauss = kronrod = 0.0
    for node, w_gauss, w_kronrod in _GK_NODES:
        y = fn(mid + half * node)
        gauss += w_gauss * y
        kronrod += w_kronrod * y
    if not (math.isfinite(gauss) and math.isfinite(kronrod)):
        return kronrod * half, math.inf
    try:
        error = half * (200.0 * abs(gauss - kronrod)) ** 1.5
    except OverflowError:
        error = math.inf
    return kronrod * half, error


def adaptive_quadrature(
    fn: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float,
    max_panels: int = MAX_PANELS,
) -> tuple[float, float, int, bool]:
    """Adaptive Gauss-Kronrod integration on a finite interval.

    Starts from ``INITIAL_PANELS`` equal panels and repeatedly bisects the
    panel with the worst error estimate.  Returns (integral, error
    estimate, panels used, converged flag); nonconvergence is a flag,
    not an exception, so callers can report it per moment.
    """
    heap: list[tuple[float, float, float, float]] = []
    for i in range(INITIAL_PANELS):
        left = a + (b - a) * i / INITIAL_PANELS
        right = a + (b - a) * (i + 1) / INITIAL_PANELS
        integral, error = _gk_panel(fn, left, right)
        heapq.heappush(heap, (-error, left, right, integral))
    panels = INITIAL_PANELS
    while True:
        integrals = [item[3] for item in heap]
        finite = all(math.isfinite(v) for v in integrals)
        total = math.fsum(integrals) if finite else math.inf
        total_error = math.fsum(-item[0] for item in heap)
        if finite and total_error <= rel_tol * max(abs(total), 1e-300):
            return total, total_error, panels, True
        if panels >= max_panels:
            return total, total_error, panels, False
        _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        for lo, hi in ((left, mid), (mid, right)):
            integral, error = _gk_panel(fn, lo, hi)
            heapq.heappush(heap, (-error, lo, hi, integral))
        panels += 1


@dataclass(frozen=True)
class WeightSpec:
    """A candidate radial weight W on (0, R); R may be infinite."""

    kind: str  # "builtin:<name>" or "expression"
    support: tuple[float, float]
    description: str
    expression: Expression | None = None
    bindings: Mapping[str, complex] | None = None
    fn: Callable[[float], float] | None = None

    def __call__(self, x: float) -> float:
        if self.fn is not None:
            return self.fn(x)
        value = evaluate(self.expression, x, self.bindings or {})
        scale = 1.0 + abs(value.real)
        if abs(value.imag) > 1e-12 * scale:
            raise WeightError(f"weight is not real at x = {x}: {value}")
        return value.real


def _probe_grid(support: tuple[float, float]) -> list[float]:
    lo, hi = support
    if math.isinf(hi):
        return [t / (1.0 - t) for t in (i / (_PROBE_POINTS + 1.0) for i in range(1, _PROBE_POINTS + 1))]
    return [lo + (hi - lo) * (i + 0.5) / _PROBE_POINTS for i in range(_PROBE_POINTS)]


def _validate_weight(weight: WeightSpec) -> None:
    for x in _probe_grid(weight.support):
        value = weight(x)
        if not math.isfinite(value):
            raise WeightError(f"weight is not finite at x = {x}")
        if value < -1e-12 * (1.0 + abs(value)):
            raise WeightError(f"weight is negative at x = {x}: {value}")


def weight_from_expression(
    source: str,
    bindings: Mapping[str, complex] | None = None,
    support: tuple[float, float] = (0.0, math.inf),
) -> WeightSpec:
    """Parse a weight density in the variable x and validate it on a probe grid."""
    expression = parse(source, variable="x")
    weight = WeightSpec("expression", support, source, expression=expression, bindings=dict(bindings or {}))
    _validate_weight(weight)
    return weight


def builtin_weight(name: str) -> WeightSpec:
    """Weights known in closed form; only the undeformed pair ships."""
    if name == "harmonic":
        return WeightSpec(
            "builtin:harmonic",
            (0.0, math.inf),
            "exp(-x) on (0, inf)",
            fn=lambda x: math.exp(-x),
        )
    raise WeightError(f"no builtin weight named {name!r}")


@dataclass(frozen=True)
class MomentCheck:
    n: int
    target_log: float
    integral_log: float
    rel_err: float
    panels: int
    converged: bool


@dataclass(frozen=True)
class MomentReport:
    """Per-moment quadrature results against the deformed factorials."""

    entries: tuple[MomentCheck, ...]
    rel_tol: float
    quad_rel_tol: float
    support_warning: str | None

    @property
    def passed(self) -> bool:
        return all(e.converged and e.rel_err <= self.rel_tol for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "quad_rel_tol": self.quad_rel_tol,
            "support_warning": self.support_warning,
            "moments": [
                {
                    "n": e.n,
                    "target_log": e.target_log,
                    "integral_log": e.integral_log,
                    "rel_err": e.rel_err,
                    "panels": e.panels,
                    "converged": e.converged,
                    "pass": e.converged and e.rel_err <= self.rel_tol,
                }
                for e in self.entries
            ],
            "pass": self.passed,
        }


def _support_warning(table: StructureTable, weight: WeightSpec) -> str | None:
    estimate = table.radius()
    radius = estimate.value if estimate.kind == "finite" else math.inf
    upper = weight.support[1]
    if estimate.kind == "undetermined":
        return "table radius is undetermined; cannot check the weight support"
    if math.isinf(radius) != math.isinf(upper):
        return f"weight support (0, {upper}) does not match table radius {radius}"
    if not math.isinf(radius) and abs(radius - upper) > 1e-6 * max(radius, upper):
        return f"weight support (0, {upper}) does not match table radius {radius}"
    return None


def check_moments(
    table: StructureTable,
    weight: WeightSpec,
    n_max: int = DEFAULT_N_MAX,
    rel_tol: float = DEFAULT_REL_TOL,
) -> MomentReport:
    """Compare integral x^n W(x) dx against f(n)! for n = 0..n_max.

    Each moment may use up to ``MAX_PANELS`` quadrature panels.

    Each integrand is scaled by exp(-log f(n)!), so the quadrature value
    targets exactly 1 and the relative error is read off directly; the
    reported ``integral_log`` adds the scale back.
    """
    quad_rel_tol = rel_tol / QUAD_TIGHTENING
    warning = _support_warning(table, weight)
    lo, hi = weight.support
    mapped = math.isinf(hi)
    entries = []
    for n in range(n_max + 1):
        target_log = table.log_f_factorial(n)
        if target_log == -math.inf:
            # degenerate ladder: the target moment is 0, unreachable for a
            # genuine density; report as a definite mismatch
            entries.append(MomentCheck(n, target_log, math.inf, math.inf, 0, True))
            continue

        def integrand(x: float, _n: int = n, _s: float = target_log) -> float:
            if x <= 0.0:
                return 0.0
            w = weight(x)
            if w == 0.0:
                return 0.0
            scaled_log = _n * math.log(x) - _s
            if scaled_log > 700.0:
                return math.inf  # drives the panel error up; reported as nonconvergence
            return math.exp(scaled_log) * w

        if mapped:
            def mapped_integrand(t: float, _g=integrand) -> float:
                u = 1.0 - t
                return _g(t / u) / (u * u)

            value, _, panels, converged = adaptive_quadrature(mapped_integrand, 0.0, 1.0, quad_rel_tol)
        else:
            value, _, panels, converged = adaptive_quadrature(integrand, lo, hi, quad_rel_tol)

        if value > 0:
            integral_log = target_log + math.log(value)
            rel_err = abs(value - 1.0)
        else:
            integral_log = -math.inf
            rel_err = math.inf
        entries.append(MomentCheck(n, target_log, integral_log, rel_err, panels, converged))
    return MomentReport(tuple(entries), rel_tol, quad_rel_tol, warning)


@dataclass(frozen=True)
class CarlemanDiagnostic:
    """Partial sums of (f(n)!)^(-1/(2n)) and their growth classification.

    ``trend`` describes the series itself: "diverging" means the
    sufficient condition for a determinate moment problem is met;
    "converging" means the test is inconclusive.  ``tail_exponent`` is
    the fitted decay power p in term ~ n^(-p) over the last decade.
    """

    partial_sum: float
    trend: str  # "diverging" | "converging" | "undetermined"
    tail_exponent: float | None
    depth: int


def carleman_diagnostic(table: StructureTable, depth: int = 1000) -> CarlemanDiagnostic:
    """Classify the growth of sum_n (f(n)!)^(-1/(2n)) up to ``depth`` terms."""
    if depth < 100:
        raise ValueError("depth must be at least 100")
    if table.degeneracy is not None and table.degeneracy <= depth:
        # finitely many nonzero moments: trivially determinate
        return CarlemanDiagnostic(math.inf, "diverging", None, depth)
    table.ensure(depth)
    if table.degeneracy is not None:
        return CarlemanDiagnostic(math.inf, "diverging", None, depth)

    log_terms = [-table.log_f_factorial(n) / (2.0 * n) for n in range(1, depth + 1)]
    partial_sum = math.fsum(math.exp(lt) if lt < 700 else math.inf for lt in log_terms)

    # least-squares slope of log term against log n over the last decade
    start = max(1, depth // 10)
    xs = [math.log(n) for n in range(start, depth + 1)]
    ys = [log_terms[n - 1] for n in range(start, depth + 1)]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxx = math.fsum((u - x_mean) ** 2 for u in xs)
    sxy = math.fsum((u - x_mean) * (v - y_mean) for u, v in zip(xs, ys))
    slope = sxy / sxx
    exponent = -slope

    if exponent < 0.99:
        trend = "diverging"
    elif exponent > 1.01:
        trend = "converging"
    else:
        trend = "undetermined"
    return CarlemanDiagnostic(partial_sum, trend, exponent, depth)
