"""Closed forms of phi(n) for the catalog families, used as test oracles.

These are written out by hand from the table in ``defosc.catalog`` and
share no code with the expression engine or the recurrence.
"""

from typing import Callable, Mapping


def _phi_harmonic(n: int, params: Mapping[str, complex]) -> complex:
    return complex(n)


def _phi_arik_coon(n: int, params: Mapping[str, complex]) -> complex:
    q = complex(params["q"])
    if q == 1:
        return complex(n)
    return (1 - q**n) / (1 - q)


def _phi_biedenharn(n: int, params: Mapping[str, complex]) -> complex:
    q = complex(params["q"])
    return (q**n - q**-n) / (q - 1 / q)


def _phi_pq(n: int, params: Mapping[str, complex]) -> complex:
    p, q = complex(params["p"]), complex(params["q"])
    return (q**n - p**-n) / (q - 1 / p)


CLOSED_FORM_PHI: dict[str, Callable[[int, Mapping[str, complex]], complex]] = {
    "harmonic": _phi_harmonic,
    "arik-coon": _phi_arik_coon,
    "biedenharn": _phi_biedenharn,
    "pq": _phi_pq,
}
