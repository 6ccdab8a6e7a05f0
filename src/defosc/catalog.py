"""Builtin deformation families.

Catalog names are part of the CLI contract and must stay stable:

========== ============ ================ ==========================================
name       F            G                closed-form structure function
========== ============ ================ ==========================================
harmonic   1            1                f(n) = n
arik-coon  q            1                f(n) = (1 - q^n) / (1 - q)
biedenharn q            q^(-n)           f(n) = (q^n - q^(-n)) / (q - q^(-1))
pq         q            p^(-n)           f(n) = (q^n - p^(-n)) / (q - 1/p)
========== ============ ================ ==========================================

The library always evaluates F and G through the expression engine.  The
closed forms in the table live in the test suite (``tests/catalog_forms.py``),
where they serve as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import DeformationSpec, make_spec
from .errors import ConfigError


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    f_source: str
    g_source: str
    param_names: tuple[str, ...]
    description: str

    def spec(self, params: Mapping[str, complex] | None = None) -> DeformationSpec:
        params = dict(params or {})
        missing = [p for p in self.param_names if p not in params]
        if missing:
            raise ConfigError(
                f"builtin {self.name!r} needs parameter(s): {', '.join(missing)}"
            )
        extra = [p for p in params if p not in self.param_names]
        if extra:
            raise ConfigError(
                f"builtin {self.name!r} does not take parameter(s): {', '.join(extra)}"
            )
        return make_spec(self.name, self.f_source, self.g_source, params)


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry("harmonic", "1", "1", (), "undeformed oscillator, f(n) = n"),
        CatalogEntry("arik-coon", "q", "1", ("q",), "q-integers f(n) = (1 - q^n)/(1 - q)"),
        CatalogEntry("biedenharn", "q", "q^(-n)", ("q",),
                     "symmetric q-integers f(n) = (q^n - q^(-n))/(q - q^(-1))"),
        CatalogEntry("pq", "q", "p^(-n)", ("p", "q"),
                     "two-parameter family f(n) = (q^n - p^(-n))/(q - 1/p)"),
    )
}


def builtin_spec(name: str, params: Mapping[str, complex] | None = None) -> DeformationSpec:
    """Instantiate a catalog family; unknown names raise ConfigError."""
    try:
        entry = CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise ConfigError(f"unknown builtin {name!r} (known: {known})") from None
    return entry.spec(params)
