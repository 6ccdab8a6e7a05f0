"""The dense matrix form of ``defosc.fock.certify``, used as a test oracle.

Each relation is evaluated as a product of the full (D+1)^2 matrices of
the representation, with F(N), G(N), f(N) and f(N+1) built as dense
diagonal matrices, and reduced by the max-entry norm on n <= D-1.  It
shares the representation with the band evaluation and nothing else.
"""

import numpy as np

from defosc.fock import FockRep


def dense_matrices(rep: FockRep) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense N, a, adag and abar, built from the bands of ``rep``."""
    n_mat = np.diag(np.arange(rep.dim)).astype(complex)
    a = np.diag(rep.a, 1)
    adag = np.diag(rep.adag, -1)
    abar = np.diag(rep.abar, -1)
    return n_mat, a, adag, abar


def _max_entry(matrix: np.ndarray, block: int) -> float:
    return float(np.abs(matrix[:block, :block]).max()) if block > 0 else 0.0


def _scaled_residual(difference: np.ndarray, block: int, *operands: np.ndarray) -> float:
    scale = 1.0 + max((_max_entry(op, block) for op in operands), default=0.0)
    return _max_entry(difference, block) / scale


def dense_certify(rep: FockRep, tol: float = 1e-10) -> tuple[dict[str, float], dict[str, bool]]:
    """Residuals and pass flags of the five relations, by dense products."""
    block = rep.dim - 1
    table = rep.table
    spec = table.spec

    n_mat, a, adag, abar = dense_matrices(rep)
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
    return residuals, {name: value <= tol for name, value in residuals.items()}
