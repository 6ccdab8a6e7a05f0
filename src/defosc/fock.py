"""Truncated Fock-space ladder operators and numerical certification.

The ladder operators act on the number basis as

    a|n>    = sqrt(f(n)) |n-1>,        adag|n> = sqrt(f(n+1)) |n+1>,
    abar|n> = c(n+1) sqrt(f(n+1)) |n+1>,

with c the unit phase of phi.  On span{|0>..|D>} each is a weighted
shift with one nonzero diagonal, and the representation stores just
that diagonal; N = diag(0..D) is implied by the basis.  The bands are
read from the structure table: only the drift relation, with F and G
evaluated afresh from the spec, checks the table; the rest check the bands.

Certification evaluates each relation as a matrix residual restricted
to the sub-block n <= D-1: the top basis state necessarily breaks the
products that raise before lowering (a adag, a abar), because truncation
discards the |D+1> component.  Residuals use the max-entry norm.  Each
relation is a product of weighted shifts, so it is evaluated entry by
entry on the bands in O(D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureTable
from .errors import StructureOverflowError


@dataclass(frozen=True)
class _BandIndex:
    """``mat_a[r, r + 1]`` reads and writes ``a[r]``; any other key raises ValueError."""

    band: np.ndarray

    def _row(self, key) -> int:
        r, c = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if isinstance(r, int) and isinstance(c, int) and c == r + 1 and 0 <= r < len(self.band):
            return r
        raise ValueError(f"mat_a key {key!r} is off the band of a; only mat_a[r, r + 1] is stored")

    def __getitem__(self, key):
        return self.band[self._row(key)]

    def __setitem__(self, key, value) -> None:
        self.band[self._row(key)] = value


@dataclass(frozen=True)
class FockRep:
    """Bands of a, adag and abar at truncation dimension D+1.

    Entry k of each band joins |k> and |k+1>, k = 0..D-1: a[k] = <k|a|k+1>
    = sqrt(f(k+1)), adag (an array of its own) holds the same values, and
    abar[k] = <k+1|abar|k> = c(k+1) sqrt(f(k+1)).  ``mat_a[k, k+1]`` is a[k].
    """

    dim: int  # D + 1
    table: StructureTable
    a: np.ndarray
    adag: np.ndarray
    abar: np.ndarray

    @property
    def mat_a(self) -> _BandIndex:
        return _BandIndex(self.a)


def build_rep(table: StructureTable, d: int) -> FockRep:
    """Build the truncated representation on span{|0>..|D>}.

    ``d`` is clamped below a degeneracy: if phi(n0) = 0 for n0 <= d the
    ladder ends at |n0 - 1> and the bands shrink accordingly.  abar
    uses the table's own phases, which keeps abar a = phi(N) exact.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    d = table.effective_dimension(d)
    dim = d + 1
    f_list, phase_list, _ = table.levels(0, dim + 1)

    f = np.array(f_list[:dim], dtype=float)
    if not np.all(np.isfinite(f)):
        raise StructureOverflowError(d)
    phases = np.array(phase_list[1:dim], dtype=complex)

    roots = np.sqrt(f[1:])  # roots[k] = sqrt(f(k+1))
    return FockRep(dim, table, roots.astype(complex), roots.astype(complex), phases * roots)


RELATION_NAMES = (
    "[N,a]+a",
    "[N,adag]-adag",
    "a*abar-F(N)*abar*a-G(N)",
    "adag*a-f(N)",
    "a*adag-f(N+1)",
)


@dataclass(frozen=True)
class CertificationReport:
    """Scale-free max-entry residuals of the defining relations on n <= D-1.

    Each residual is the max-entry norm of the relation difference
    divided by one plus the max-entry magnitude of the relation's
    operands, so verdicts do not depend on how large f(n) grows over the
    truncated window.
    """

    dim: int
    subspace: int  # relations checked on basis states n <= subspace
    tol: float
    residuals: dict[str, float]
    passes: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.passes.values())

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "subspace": self.subspace,
            "tol": self.tol,
            "relations": {
                name: {"residual": self.residuals[name], "pass": self.passes[name]}
                for name in RELATION_NAMES
            },
            "pass": self.passed,
        }


def _peak(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def _scaled_residual(difference: np.ndarray, *operands: np.ndarray) -> float:
    return _peak(difference) / (1.0 + max(_peak(op) for op in operands))


def certify(rep: FockRep, tol: float = 1e-10) -> CertificationReport:
    """Evaluate the defining relations on the bands of the representation.

    Every relation is a product of weighted shifts, so it is zero off one
    diagonal and each of its entries is a single product of band
    entries.  The relations are evaluated entry by entry on the bands,
    in O(D), multiplying in the order the matrix products would.  The
    residuals are the max-entry residuals of the matrix relations on
    n <= D-1.

    Failures are verdicts, not exceptions: the report carries one
    residual and pass flag per relation.  Only a ``tol`` that is not
    positive raises, with ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = rep.dim - 1
    table = rep.table
    spec = table.spec

    # n[k] = k on 0..D; a, adag, abar[k] join |k> and |k+1>, k = 0..D-1
    n = np.arange(rep.dim)
    a, adag, abar = rep.a, rep.adag, rep.abar
    f = np.array(table.levels(0, rep.dim)[0])
    big_f = np.array([spec.eval_F(k) for k in range(rep.dim)])
    big_g = np.array([spec.eval_G(k) for k in range(rep.dim)])

    # diagonals of the relations on n <= D-1; the off-diagonal ones are
    # restricted to entries joining two states of that block
    a_abar = a * abar
    drift = np.concatenate(([0], ((big_f[1:] * abar) * a)[:-1]))
    up_down = np.concatenate(([0], (adag * a)[:-1]))
    residuals = {
        "[N,a]+a": _scaled_residual((n[:-1] * a - a * n[1:] + a)[:-1], a[:-1]),
        "[N,adag]-adag": _scaled_residual((n[1:] * adag - adag * n[:-1] - adag)[:-1], adag[:-1]),
        "a*abar-F(N)*abar*a-G(N)": _scaled_residual(a_abar - drift - big_g[:-1], a_abar, drift, big_g[:-1]),
        "adag*a-f(N)": _scaled_residual(up_down - f[:-1], f[:-1]),
        "a*adag-f(N+1)": _scaled_residual(a * adag - f[1:], f[1:]),
    }
    passes = {name: value <= tol for name, value in residuals.items()}
    return CertificationReport(rep.dim, d - 1, tol, residuals, passes)
