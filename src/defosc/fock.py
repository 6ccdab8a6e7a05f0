"""Truncated Fock-space matrices and numerical certification.

The ladder operators act on the number basis as

    a|n>    = sqrt(f(n)) |n-1>,        adag|n> = sqrt(f(n+1)) |n+1>,
    abar|n> = c(n+1) sqrt(f(n+1)) |n+1>,

with c the unit phase of phi.  On span{|0>..|D>} these are bidiagonal
matrices; they provide an oracle for the defining relations that is
completely independent of how the structure table was produced.

Certification evaluates each relation as a matrix residual restricted
to the sub-block n <= D-1: the top basis state necessarily breaks the
products that raise before lowering (a adag, a abar), because truncation
discards the |D+1> component.  Residuals use the max-entry norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureTable
from .errors import StructureOverflowError


@dataclass(frozen=True)
class FockRep:
    """Matrices of N, a, adag and abar at truncation dimension D+1."""

    dim: int  # D + 1
    table: StructureTable
    mat_n: np.ndarray
    mat_a: np.ndarray
    mat_adag: np.ndarray
    mat_abar: np.ndarray


def build_rep(table: StructureTable, d: int) -> FockRep:
    """Build the truncated representation on span{|0>..|D>}.

    ``d`` is clamped below a degeneracy: if phi(n0) = 0 for n0 <= d the
    ladder ends at |n0 - 1> and the matrices shrink accordingly.  abar
    uses the table's own phases, which keeps abar a = phi(N) exact.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    d = table.effective_dimension(d)
    table.ensure(d + 1)
    dim = d + 1

    f = np.array([table.f(n) for n in range(dim)], dtype=float)
    if not np.all(np.isfinite(f)):
        raise StructureOverflowError(d)
    phases = np.array([table.phase(n) for n in range(dim)], dtype=complex)

    roots = np.sqrt(f)  # roots[n] = sqrt(f(n)); roots[0] = 0, so column 0 of a is zero
    mat_n = np.diag(np.arange(dim, dtype=float)).astype(complex)
    mat_a = np.diag(roots[1:], k=1).astype(complex)
    mat_adag = mat_a.conj().T.copy()
    mat_abar = np.diag(phases[1:] * roots[1:], k=-1)

    return FockRep(dim, table, mat_n, mat_a, mat_adag, mat_abar)


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


def _max_entry(matrix: np.ndarray, block: int) -> float:
    return float(np.abs(matrix[:block, :block]).max()) if block > 0 else 0.0


def _scaled_residual(difference: np.ndarray, block: int, *operands: np.ndarray) -> float:
    scale = 1.0 + max((_max_entry(op, block) for op in operands), default=0.0)
    return _max_entry(difference, block) / scale


def certify(rep: FockRep, tol: float = 1e-10) -> CertificationReport:
    """Evaluate the defining relations as matrix residuals.

    Failures are verdicts, not exceptions: the report carries one
    residual and pass flag per relation.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = rep.dim - 1
    block = d  # indices 0..d-1
    table = rep.table
    spec = table.spec

    n_mat, a, adag, abar = rep.mat_n, rep.mat_a, rep.mat_adag, rep.mat_abar
    f_diag = np.diag([table.f(n) for n in range(rep.dim)]).astype(complex)
    f_shift_diag = np.diag([table.f(n + 1) for n in range(rep.dim)]).astype(complex)
    big_f = np.diag([spec.eval_F(n) for n in range(rep.dim)])
    big_g = np.diag([spec.eval_G(n) for n in range(rep.dim)])

    a_abar = a @ abar
    drift = big_f @ abar @ a
    residuals = {
        "[N,a]+a": _scaled_residual(n_mat @ a - a @ n_mat + a, block, a),
        "[N,adag]-adag": _scaled_residual(n_mat @ adag - adag @ n_mat - adag, block, adag),
        "a*abar-F(N)*abar*a-G(N)": _scaled_residual(a_abar - drift - big_g, block, a_abar, drift, big_g),
        "adag*a-f(N)": _scaled_residual(adag @ a - f_diag, block, f_diag),
        "a*adag-f(N+1)": _scaled_residual(a @ adag - f_shift_diag, block, f_shift_diag),
    }
    passes = {name: value <= tol for name, value in residuals.items()}
    return CertificationReport(rep.dim, d - 1, tol, residuals, passes)

