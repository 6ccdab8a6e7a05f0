"""Command-line front end.

Verbs
-----
structure   tabulate phi, f and log f(n)! and cross-check the product form
certify     build a truncated Fock representation and certify the relations
coherent    construct a coherent state and report its diagnostics
moments     check a candidate weight against the deformed factorials

Exit codes (stable): 0 success/pass, 1 verdict fail, 2 configuration
error, 3 evaluation error, 4 domain error (argument outside the
convergence disk).

JSON output is canonical: keys sorted, floats rendered with 17
significant digits, complex values as "a+bi" strings, so repeated runs
are byte-identical and safe to diff or golden-test.  Human tables round
to 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from . import algebra, coherent, fock, moments
from .catalog import CATALOG, builtin_spec
from .errors import (
    ConfigError,
    DefoscError,
    EvalError,
    ExprError,
    OutsideDomainError,
)
from .expr import parse

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_DOMAIN = 4

STRUCTURE_DISCREPANCY_TOL = 1e-10


# --------------------------------------------------------------------------
# Complex number formatting shared by configs, flags and reports
# --------------------------------------------------------------------------


def _finite(value: complex, text: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"number {text!r} is not finite")
    return value


def parse_complex(text: str) -> complex:
    """Parse "a+bi" (also plain reals, "2i", "-i", "1e-3+2.5i", j accepted).

    nan and inf parts are rejected with ConfigError.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ConfigError("empty number")
    try:
        return _finite(complex(float(s)), text)
    except ValueError:
        pass
    if s[-1] not in "ij":
        raise ConfigError(f"cannot parse complex number {text!r}")
    body = s[:-1]
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    real_text, imag_text = (body[:split], body[split:]) if split != -1 else ("", body)
    try:
        if imag_text in ("", "+"):
            imag = 1.0
        elif imag_text == "-":
            imag = -1.0
        else:
            imag = float(imag_text)
        real = float(real_text) if real_text else 0.0
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}") from None
    return _finite(complex(real, imag), text)


def _fmt_float(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def format_complex(value: complex) -> str:
    """Canonical "a+bi" string; pure reals collapse to "a"."""
    if value.imag == 0.0:
        return _fmt_float(value.real)
    sign = "+" if value.imag >= 0 or math.isnan(value.imag) else "-"
    return f"{_fmt_float(value.real)}{sign}{_fmt_float(abs(value.imag))}i"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, complex as strings."""
    return _canon(obj) + "\n"


def _canon(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _fmt_float(obj)
        return json.dumps(_fmt_float(obj))  # inf/nan are not JSON numbers
    if isinstance(obj, complex):
        return json.dumps(format_complex(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        items = ", ".join(f"{json.dumps(str(k))}: {_canon(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canon(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

_CONFIG_KEYS = {"name", "F", "G", "params", "overrides"}
_OVERRIDE_KEYS = {"probe_depth", "tail_tol", "dim", "tol"}
# admissible values of the numeric flags and overrides, as (test, description)
_RANGES = {
    "n_max": (lambda v: v >= 0, "at least 0"),
    "scan": (lambda v: 0 <= v <= 10000, "between 0 and 10000"),
    "dim": (lambda v: v >= 1, "at least 1"),
    "probe_depth": (lambda v: v >= 16, "at least 16"),
    "tol": (lambda v: v > 0, "positive"),
    "tail_tol": (lambda v: v > 0, "positive"),
}


def _out_of_range(key: str, value: float) -> str | None:
    in_range, wanted = _RANGES[key]
    if abs(value) < math.inf and in_range(value):
        return None
    return f"must be finite and {wanted}, got {value!r}"


@dataclass(frozen=True)
class Config:
    """A deformation read from JSON: expression sources plus parameters."""

    name: str
    f_source: str
    g_source: str
    params: dict[str, complex] = field(default_factory=dict)
    overrides: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "F": self.f_source,
            "G": self.g_source,
            "params": {k: format_complex(v) for k, v in sorted(self.params.items())},
        }
        if self.overrides:
            out["overrides"] = dict(sorted(self.overrides.items()))
        return out

    def spec(self) -> algebra.DeformationSpec:
        return algebra.DeformationSpec(
            self.name, parse(self.f_source), parse(self.g_source), self.params
        )


def config_from_dict(raw: Any) -> Config:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key in ("name", "F", "G"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
        if not isinstance(raw[key], str):
            raise ConfigError(f"config key {key!r} must be a string")
    params_raw = raw.get("params", {})
    if not isinstance(params_raw, dict):
        raise ConfigError("config key 'params' must be an object")
    params = {}
    for key, value in params_raw.items():
        if isinstance(value, str):
            params[key] = parse_complex(value)
        else:
            params[key] = complex(_config_number(value, f"parameter {key!r}"))
    overrides_raw = raw.get("overrides", {})
    if not isinstance(overrides_raw, dict):
        raise ConfigError("config key 'overrides' must be an object")
    unknown = set(overrides_raw) - _OVERRIDE_KEYS
    if unknown:
        raise ConfigError(f"unknown override key(s): {', '.join(sorted(unknown))}")
    overrides = {}
    for key, value in overrides_raw.items():
        value = _config_number(value, f"override {key!r}")
        problem = _out_of_range(key, value)
        if problem:
            raise ConfigError(f"override {key!r} {problem}")
        overrides[key] = value
    return Config(raw["name"], raw["F"], raw["G"], params, overrides)


def _config_number(value: Any, what: str) -> float:
    """A JSON number as a float; nan, inf and ints beyond double range are rejected."""
    if not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    return config_from_dict(raw)


def _parse_param_flags(pairs: Sequence[str] | None) -> dict[str, complex]:
    params: dict[str, complex] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects k=v, got {pair!r}")
        params[key] = parse_complex(value)
    return params


def _spec_from_args(args) -> tuple[algebra.DeformationSpec, dict[str, float]]:
    if args.config and args.builtin:
        raise ConfigError("give either --config or --builtin, not both")
    if args.config:
        config = load_config(args.config)
        if args.param:
            raise ConfigError("--param applies to --builtin; put params in the config file")
        return config.spec(), config.overrides
    if args.builtin:
        params = _parse_param_flags(args.param)
        return builtin_spec(args.builtin, params), {}
    raise ConfigError("give --config PATH or --builtin NAME")


def _table_for(spec: algebra.DeformationSpec, overrides: dict[str, float]) -> algebra.StructureTable:
    depth = int(overrides.get("probe_depth", algebra.DEFAULT_PROBE_DEPTH))
    return algebra.StructureTable(spec, radius_probe_depth=depth)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _human(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".6g")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    lines.extend("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in rows)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# structure
# --------------------------------------------------------------------------


def cmd_structure(args) -> int:
    spec, _ = _spec_from_args(args)
    n_max = args.n_max
    table = algebra.phi_recurrence(spec, n_max)
    closed: list[complex] | None
    try:
        closed = algebra.phi_closed_sequence(spec, n_max)
    except DefoscError:
        closed = None

    rows = []
    max_disc: float | None = None
    for n in range(n_max + 1):
        phi = table.phi(n)
        row: dict[str, Any] = {
            "n": n,
            "phi": format_complex(phi),
            "f": table.f(n),
            "log_f_factorial": table.log_f_factorial(n),
        }
        if closed is not None:
            row["phi_closed"] = format_complex(closed[n])
            disc = abs(closed[n] - phi) / (1.0 + abs(phi))
            row["discrepancy"] = disc
            max_disc = disc if max_disc is None else max(max_disc, disc)
        else:
            row["phi_closed"] = None
            row["discrepancy"] = None
        rows.append(row)

    passed = max_disc is None or max_disc <= STRUCTURE_DISCREPANCY_TOL
    payload = {
        "algebra": spec.name,
        "n_max": n_max,
        "closed_form": "ok" if closed is not None else "inapplicable",
        "max_discrepancy": max_disc,
        "pass": passed,
        "rows": rows,
    }

    if args.format == "json":
        _emit(args, canonical_json(payload))
    elif args.format == "csv":
        lines = ["n,re_phi,im_phi,f,log_f_factorial,re_phi_closed,im_phi_closed"]
        for n in range(n_max + 1):
            phi = table.phi(n)
            closed_re = _fmt_float(closed[n].real) if closed is not None else ""
            closed_im = _fmt_float(closed[n].imag) if closed is not None else ""
            lines.append(
                f"{n},{_fmt_float(phi.real)},{_fmt_float(phi.imag)},"
                f"{_fmt_float(table.f(n))},{_fmt_float(table.log_f_factorial(n))},"
                f"{closed_re},{closed_im}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        body = []
        for n in range(n_max + 1):
            phi = table.phi(n)
            row = [str(n), _human(phi.real), _human(phi.imag),
                   _human(table.f(n)), _human(table.log_f_factorial(n))]
            if closed is not None:
                row += [_human(closed[n].real), _human(rows[n]["discrepancy"])]
            else:
                row += ["n/a", "n/a"]
            body.append(row)
        headers = ["n", "Re phi", "Im phi", "f", "log f!", "Re phi (prod)", "disc"]
        text = _render_table(headers, body)
        if closed is not None:
            text += f"closed-form max discrepancy: {_human(max_disc)}\n"
        else:
            text += "closed form inapplicable (some F(k) = 0); recurrence only\n"
        text += f"status: {'pass' if passed else 'FAIL'}\n"
        _emit(args, text)
    return EXIT_OK if passed else EXIT_VERDICT_FAIL


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------


def cmd_certify(args) -> int:
    spec, overrides = _spec_from_args(args)
    dim = args.dim if args.dim is not None else int(overrides.get("dim", 32))
    tol = args.tol if args.tol is not None else overrides.get("tol", 1e-10)
    table = algebra.phi_recurrence(spec, dim + 1)
    rep = fock.build_rep(table, dim)
    if args.inject_fault:
        rep.a[2 if rep.dim >= 4 else 0] += 0.1
    report = fock.certify(rep, tol)
    payload = {"algebra": spec.name, **report.as_dict()}

    if args.format == "json":
        _emit(args, canonical_json(payload))
    else:
        rows = [
            [name, _human(report.residuals[name]), "pass" if report.passes[name] else "FAIL"]
            for name in fock.RELATION_NAMES
        ]
        text = _render_table(["relation", "residual", "verdict"], rows)
        text += f"dim: {report.dim}  subspace: n <= {report.subspace}  tol: {_human(report.tol)}\n"
        text += f"status: {'pass' if report.passed else 'FAIL'}\n"
        _emit(args, text)
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


# --------------------------------------------------------------------------
# coherent
# --------------------------------------------------------------------------


def cmd_coherent(args) -> int:
    spec, overrides = _spec_from_args(args)
    if args.z is None:
        raise ConfigError("coherent requires --z")
    z = parse_complex(args.z)
    try:
        abs(z) ** 2
    except OverflowError:
        raise ConfigError(f"--z {args.z!r}: |z|^2 is beyond double range") from None
    tail_tol = overrides.get("tail_tol", coherent.DEFAULT_TAIL_TOL)
    table = _table_for(spec, overrides)
    state = coherent.make_state(table, z, tail_tol=tail_tol)
    rep = fock.build_rep(table, state.truncation + 1)
    stats = coherent.photon_statistics(state)
    estimate = table.radius()

    payload: dict[str, Any] = {
        "algebra": spec.name,
        "z": format_complex(z),
        "truncation": state.truncation,
        "tail_bound": state.tail_bound,
        "near_boundary": state.near_boundary,
        "normalization_log": state.normalization_log,
        "pmf_sum": float(stats.pmf.sum()),
        "eigen_residual": coherent.eigen_residual(state, rep),
        "mean_n": stats.mean_n,
        "var_n": stats.var_n,
        "mandel_q": stats.mandel_q,
        "uncertainty_product": coherent.uncertainty_product(state, rep),
        "radius": {
            "kind": estimate.kind,
            "value": estimate.value,
        },
    }
    if args.scan:
        scan = []
        for j in range(args.scan + 1):
            other = coherent.make_state(table, z * j / args.scan, tail_tol=tail_tol)
            value = coherent.overlap(state, other)
            scan.append({
                "z2": format_complex(other.z),
                "overlap": format_complex(value),
                "abs": abs(value),
            })
        payload["overlap_scan"] = scan

    if args.format == "json":
        _emit(args, canonical_json(payload))
    elif args.format == "csv":
        lines = ["n,p"]
        lines.extend(f"{n},{_fmt_float(float(p))}" for n, p in enumerate(stats.pmf))
        _emit(args, "\n".join(lines) + "\n")
    else:
        rows = [[key, str(payload[key])] for key in (
            "algebra", "z", "truncation", "near_boundary")]
        for key in ("tail_bound", "normalization_log", "pmf_sum", "eigen_residual",
                    "mean_n", "var_n", "uncertainty_product"):
            rows.append([key, _human(payload[key])])
        rows.append(["mandel_q", _human(stats.mandel_q) if stats.mandel_q is not None else "undefined"])
        rows.append(["radius", estimate.kind + (f" ({_human(estimate.value)})" if estimate.value else "")])
        _emit(args, _render_table(["quantity", "value"], rows))
    return EXIT_OK


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------


def _weight_from_args(args, spec, table) -> moments.WeightSpec:
    if not args.weight:
        raise ConfigError("moments requires --weight EXPR or --weight builtin:NAME")
    if args.weight.startswith("builtin:"):
        try:
            return moments.builtin_weight(args.weight.split(":", 1)[1])
        except moments.WeightError as exc:
            raise ConfigError(str(exc)) from exc
    estimate = table.radius()
    support = (0.0, estimate.value) if estimate.kind == "finite" else (0.0, math.inf)
    return moments.weight_from_expression(args.weight, spec.params, support)


def cmd_moments(args) -> int:
    spec, overrides = _spec_from_args(args)
    n_max = args.n_max
    rel_tol = args.tol if args.tol is not None else overrides.get("tol", moments.DEFAULT_REL_TOL)
    table = _table_for(spec, overrides)
    weight = _weight_from_args(args, spec, table)
    report = moments.check_moments(table, weight, n_max=n_max, rel_tol=rel_tol)
    payload = {
        "algebra": spec.name,
        "weight": weight.description,
        "n_max": n_max,
        **report.as_dict(),
    }

    if args.format == "json":
        _emit(args, canonical_json(payload))
    elif args.format == "csv":
        lines = ["n,target_log,integral_log,rel_err,panels,converged,pass"]
        for e in report.entries:
            ok = e.converged and e.rel_err <= report.rel_tol
            lines.append(
                f"{e.n},{_fmt_float(e.target_log)},{_fmt_float(e.integral_log)},"
                f"{_fmt_float(e.rel_err)},{e.panels},{str(e.converged).lower()},{str(ok).lower()}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        rows = [
            [str(e.n), _human(e.target_log), _human(e.integral_log), _human(e.rel_err),
             "pass" if (e.converged and e.rel_err <= report.rel_tol) else "FAIL"]
            for e in report.entries
        ]
        text = _render_table(["n", "log target", "log integral", "rel err", "verdict"], rows)
        if report.support_warning:
            text += f"warning: {report.support_warning}\n"
        text += f"status: {'pass' if report.passed else 'FAIL'}\n"
        _emit(args, text)
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _flag(key: str, convert=int):
    """argparse type: a finite number in the range ``_RANGES[key]``."""

    def number(text: str):
        value = convert(text)
        problem = _out_of_range(key, value)
        if problem:
            raise argparse.ArgumentTypeError(problem)
        return value

    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defosc",
        description="Deformed-oscillator structure functions, coherent states and moment checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("table", "json", "csv")) -> None:
        p.add_argument("--config", help="path to a JSON deformation config")
        p.add_argument("--builtin", help=f"catalog algebra ({', '.join(sorted(CATALOG))})")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="parameter for --builtin; repeatable; complex as a+bi")
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("structure", help="tabulate the structure function")
    add_common(p)
    p.add_argument("--n-max", type=_flag("n_max"), default=16)
    p.set_defaults(handler=cmd_structure)

    p = sub.add_parser("certify", help="certify the defining relations on a truncated space")
    add_common(p, formats=("table", "json"))
    p.add_argument("--dim", type=_flag("dim"), default=None)
    p.add_argument("--tol", type=_flag("tol", float), default=None)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one ladder matrix entry first (testing aid)")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("coherent", help="build a coherent state and report diagnostics")
    add_common(p)
    p.add_argument("--z", help="state label, complex a+bi")
    p.add_argument("--scan", type=_flag("scan"), default=0,
                   help="also report overlaps against SCAN points (at most 10000) on the segment 0..z")
    p.set_defaults(handler=cmd_coherent)

    p = sub.add_parser("moments", help="check a weight against the deformed factorials")
    add_common(p)
    p.add_argument("--weight", help="weight density in x, or builtin:NAME")
    p.add_argument("--n-max", type=_flag("n_max"), default=moments.DEFAULT_N_MAX)
    p.add_argument("--tol", type=_flag("tol", float), default=None)
    p.set_defaults(handler=cmd_moments)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ExprError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutsideDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (EvalError, DefoscError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
