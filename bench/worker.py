"""One workload in a fresh process: build the inputs, run the timed loop, check.

Usage (normally started by ``run.py``)::

    python3 bench/worker.py JOB.json            # timed loop, JSON result on stdout
    python3 bench/worker.py JOB.json --setup    # cold start only: import, build specs

With ``pauses`` in the job, the loop prints ``pause`` that often and waits
for a ``go`` line on stdin before it goes on.

The job file holds the round of slots and the references that ``run.py``
computed.  Each operation issues the same public calls that the CLI
handler of its verb makes, so that a span can be put around each call;
the spans are recorded only when the job asks for the traced run.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import defosc  # noqa: E402
from defosc import algebra, cli, coherent, fock, moments  # noqa: E402
from defosc.errors import DefoscError, NonconvergenceError, OutsideDomainError  # noqa: E402

CERTIFY_TOL = 1e-10
CARLEMAN_DEPTH = 1000


# ---------------------------------------------------------------------------
# Tracing: spans from the benchmark's own code, around calls into the program
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """The untraced run: ``span`` costs one call and records nothing."""

    op_id = -1

    @contextmanager
    def span(self, name: str):
        yield


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# ---------------------------------------------------------------------------
# Operations: the calls of cli.cmd_structure / cmd_certify / cmd_coherent /
# cmd_moments with --format json, one span per public call
# ---------------------------------------------------------------------------


class OpTimeout(BaseException):
    """Raised by the interval timer when an operation exceeds its cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def build_spec(s: dict) -> algebra.DeformationSpec:
    params = {k: complex(*v) for k, v in s["params"].items()}
    if s["builtin"]:
        return defosc.builtin_spec(s["builtin"], params)
    return defosc.make_spec(s["family"], s["F"], s["G"], params)


def op_structure(tr, spec, slot, stats):
    n_max = slot["n_max"]
    with tr.span("algebra.phi_recurrence"):
        table = algebra.phi_recurrence(spec, n_max)
    stats["table_levels"] = table.max_n
    with tr.span("algebra.phi_closed_sequence"):
        try:
            closed = algebra.phi_closed_sequence(spec, n_max)
        except DefoscError:
            closed = None
    with tr.span("cli.render"):
        rows = []
        max_disc = None
        for n in range(n_max + 1):
            phi = table.phi(n)
            row = {"n": n, "phi": cli.format_complex(phi), "f": table.f(n),
                   "log_f_factorial": table.log_f_factorial(n)}
            if closed is not None:
                row["phi_closed"] = cli.format_complex(closed[n])
                disc = abs(closed[n] - phi) / (1.0 + abs(phi))
                row["discrepancy"] = disc
                max_disc = disc if max_disc is None else max(max_disc, disc)
            else:
                row["phi_closed"] = None
                row["discrepancy"] = None
            rows.append(row)
        passed = max_disc is None or max_disc <= cli.STRUCTURE_DISCREPANCY_TOL
        text = cli.canonical_json({
            "algebra": spec.name, "n_max": n_max,
            "closed_form": "ok" if closed is not None else "inapplicable",
            "max_discrepancy": max_disc, "pass": passed, "rows": rows,
        })
    return table, text, None


def op_certify(tr, spec, slot, stats):
    dim = slot["dim"]
    with tr.span("algebra.phi_recurrence"):
        table = algebra.phi_recurrence(spec, dim + 1)
    stats["table_levels"] = table.max_n
    with tr.span("fock.build_rep"):
        rep = fock.build_rep(table, dim)
    if slot["fault"]:  # what cmd_certify does for --inject-fault
        row, col = (2, 3) if rep.dim >= 4 else (0, 1)
        rep.mat_a[row, col] += 0.1
    with tr.span(f"fock.certify.d{dim}"):
        report = fock.certify(rep, CERTIFY_TOL)
    stats["dim"] = rep.dim
    with tr.span("cli.render"):
        text = cli.canonical_json({"algebra": spec.name, **report.as_dict()})
    return table, text, None


def _radius(tr, table, stats):
    with tr.span("algebra.radius"):
        estimate = table.radius()
    stats["table_levels"] = table.max_n
    stats["radius_levels"] = estimate.probe_depth
    stats["radius_undetermined"] = int(estimate.kind == "undetermined")
    return estimate


def op_coherent(tr, spec, slot, stats):
    z = complex(*slot["z"])
    with tr.span("algebra.StructureTable"):
        table = algebra.StructureTable(spec, radius_probe_depth=algebra.DEFAULT_PROBE_DEPTH)
    stats["table"] = table
    # cmd_coherent asks for table.radius() after make_state; make_state asks
    # first and the estimate is cached, so this order is the same work
    estimate = _radius(tr, table, stats)
    with tr.span("coherent.make_state"):
        state = coherent.make_state(table, z, tail_tol=coherent.DEFAULT_TAIL_TOL)
    stats["truncation"] = state.truncation
    with tr.span("fock.build_rep"):
        rep = fock.build_rep(table, state.truncation + 1)
    stats["dim"] = rep.dim
    with tr.span("coherent.photon_statistics"):
        photon = coherent.photon_statistics(state)
    with tr.span("coherent.eigen_residual"):
        residual = coherent.eigen_residual(state, rep)
    with tr.span("coherent.uncertainty_product"):
        uncertainty = coherent.uncertainty_product(state, rep)
    scan = []
    if slot["scan"]:
        with tr.span("coherent.overlap_scan"):
            for j in range(slot["scan"] + 1):
                other = coherent.make_state(table, z * j / slot["scan"], tail_tol=coherent.DEFAULT_TAIL_TOL)
                value = coherent.overlap(state, other)
                scan.append({"z2": cli.format_complex(other.z), "overlap": cli.format_complex(value),
                             "abs": abs(value)})
    with tr.span("cli.render"):
        payload = {
            "algebra": spec.name, "z": cli.format_complex(z), "truncation": state.truncation,
            "tail_bound": state.tail_bound, "near_boundary": state.near_boundary,
            "normalization_log": state.normalization_log, "pmf_sum": float(photon.pmf.sum()),
            "eigen_residual": residual, "mean_n": photon.mean_n, "var_n": photon.var_n,
            "mandel_q": photon.mandel_q, "uncertainty_product": uncertainty,
            "radius": {"kind": estimate.kind, "value": estimate.value},
        }
        if scan:
            payload["overlap_scan"] = scan
        text = cli.canonical_json(payload)
    return table, text, None


def op_moments(tr, spec, slot, stats):
    with tr.span("algebra.StructureTable"):
        table = algebra.StructureTable(spec, radius_probe_depth=algebra.DEFAULT_PROBE_DEPTH)
    stats["table"] = table
    # check_moments asks for the radius (support warning); asking first is the same work
    estimate = _radius(tr, table, stats)
    source = slot["weight"]
    with tr.span("moments.weight"):
        if source.startswith("builtin:"):
            weight = moments.builtin_weight(source.split(":", 1)[1])
        else:
            support = (0.0, estimate.value) if estimate.kind == "finite" else (0.0, math.inf)
            weight = moments.weight_from_expression(source, spec.params, support)
    with tr.span("moments.check_moments"):
        report = moments.check_moments(table, weight, n_max=slot["n_max"], rel_tol=moments.DEFAULT_REL_TOL)
    stats["panels"] = sum(e.panels for e in report.entries)
    stats["nonconverged"] = sum(not e.converged for e in report.entries)
    with tr.span("moments.carleman_diagnostic"):
        carleman = moments.carleman_diagnostic(table, CARLEMAN_DEPTH)
    stats["table_levels"] = table.max_n
    with tr.span("cli.render"):
        text = cli.canonical_json({"algebra": spec.name, "weight": weight.description,
                                   "n_max": slot["n_max"], **report.as_dict()})
    return table, text, carleman


# ---------------------------------------------------------------------------
# Checks against the references (outside the timed span)
# ---------------------------------------------------------------------------


def parse_complex_text(text: str) -> complex:
    """Read the canonical "a+bi" form back; kept apart from the program's parser."""
    if not text.endswith("i"):
        return complex(float(text))
    body = text[:-1]
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            return complex(float(body[:idx]), float(body[idx:]))
    return complex(0.0, float(body))


def _close(got, want, rtol, atol=0.0) -> bool:
    return got is not None and abs(got - want) <= atol + rtol * abs(want)


def check_structure(slot, ref, out, carleman):
    rows = out["rows"]
    if out["n_max"] != slot["n_max"] or len(rows) != slot["n_max"] + 1:
        return "wrong row count"
    if out["closed_form"] != "ok" or out["pass"] is not True:
        return f"closed-form cross-check {out['closed_form']}, pass={out['pass']}"
    for level, want in ref["rows"].items():
        row = rows[int(level)]
        scale = 1.0 + want["scale"]
        phi = parse_complex_text(row["phi"])
        if not _close(phi, complex(*want["phi"]), 0.0, 1e-9 * scale):
            return f"phi({level}) = {phi}, oracle {complex(*want['phi'])}"
        if not _close(row["f"], want["f"], 0.0, 1e-9 * scale):
            return f"f({level}) = {row['f']}, oracle {want['f']}"
        if not _close(row["log_f_factorial"], want["log_f_factorial"], 1e-9, 1e-9):
            return f"log f({level})! = {row['log_f_factorial']}, oracle {want['log_f_factorial']}"
    return None


def check_certify(slot, ref, out, carleman):
    if out["dim"] != ref["dim"] or out["subspace"] != ref["subspace"]:
        return f"dim/subspace {out['dim']}/{out['subspace']}, expected {ref['dim']}/{ref['subspace']}"
    for name, want in ref["residuals"].items():
        rel = out["relations"][name]
        # rounding puts a clean residual near 1e-16; a faulted one must match
        if not _close(rel["residual"], want, 1e-9, 1e-12) or rel["pass"] is not (want <= CERTIFY_TOL):
            return f"relation {name}: residual {rel['residual']} pass={rel['pass']}, oracle residual {want}"
    expected = all(want <= CERTIFY_TOL for want in ref["residuals"].values())
    return None if out["pass"] is expected else f"certify verdict {out['pass']}"


def check_coherent(slot, ref, out, carleman):
    z_abs = math.hypot(*slot["z"])
    radius = out["radius"]
    # "undetermined" is a documented verdict of the radius rule and is accepted
    # (algebra.radius_undetermined counts it); a number must match the oracle
    if radius["kind"] == "finite" and (math.isinf(ref["radius"])
                                       or not _close(radius["value"], ref["radius"], 1e-6)):
        return f"radius {radius['value']}, oracle {ref['radius']}"
    if radius["kind"] == "infinite" and not math.isinf(ref["radius"]):
        return f"radius infinite, oracle {ref['radius']}"
    checks = (
        ("normalization_log", 1e-9, 1e-9),
        ("mean_n", 1e-8, 1e-10),
        ("var_n", 1e-7, 1e-9),
        ("uncertainty_product", 1e-7, 1e-9),
    )
    for key, rtol, atol in checks:
        if not _close(out[key], ref[key], rtol, atol):
            return f"{key} = {out[key]}, oracle {ref[key]}"
    if ref["mandel_q"] is not None and not _close(out["mandel_q"], ref["mandel_q"], 1e-6, 1e-7):
        return f"mandel_q = {out['mandel_q']}, oracle {ref['mandel_q']}"
    # the weights are exp(log p_n), so the rounding of log N(|z|^2) scales the sum
    if not abs(out["pmf_sum"] - 1.0) <= 1e-12 + 1e-14 * abs(out["normalization_log"]):
        return f"pmf_sum = {out['pmf_sum']}"
    # the truncated state misses a z c_M term at most; tail_bound <= 1e-14 bounds it
    if not out["eigen_residual"] <= 1e-6 * (1.0 + z_abs):
        return f"eigen_residual = {out['eigen_residual']}"
    # overlap() sums to the shorter truncation; by Cauchy-Schwarz the dropped
    # terms are below sqrt(tail_tol) = 1e-7
    for entry, want in zip(out.get("overlap_scan", ()), ref.get("overlaps", ())):
        if not _close(parse_complex_text(entry["overlap"]), want, 0.0, 1e-7):
            return f"overlap {entry['overlap']}, oracle {want}"
    return None


def check_moments(slot, ref, out, carleman):
    if out["support_warning"] is not None:
        return f"support warning: {out['support_warning']}"
    if len(out["moments"]) != len(ref["entries"]):
        return "wrong moment count"
    for entry, want in zip(out["moments"], ref["entries"]):
        if not entry["converged"]:
            return f"moment {entry['n']} did not converge"
        if not _close(entry["target_log"], want["target_log"], 1e-10, 1e-10):
            return f"target log {entry['n']}: {entry['target_log']}, oracle {want['target_log']}"
        if not _close(entry["rel_err"], want["rel_err"], 1e-3, 1e-7):
            return f"rel_err {entry['n']}: {entry['rel_err']}, oracle {want['rel_err']}"
        if abs(want["rel_err"] - out["rel_tol"]) > 1e-7 and entry["pass"] != (want["rel_err"] <= out["rel_tol"]):
            return f"moment {entry['n']} verdict {entry['pass']}, oracle rel_err {want['rel_err']}"
    want = ref["carleman"]
    if carleman.trend != want["trend"] or not _close(carleman.tail_exponent, want["exponent"], 1e-9, 1e-12):
        return f"carleman {carleman.trend} {carleman.tail_exponent}, oracle {want['trend']} {want['exponent']}"
    if not _close(carleman.partial_sum, want["partial_sum"], 1e-9):
        return f"carleman partial sum {carleman.partial_sum}, oracle {want['partial_sum']}"
    return None


CHECKS = {"structure": check_structure, "certify": check_certify,
          "coherent": check_coherent, "moments": check_moments}


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, job: dict):
        self.job = job
        self.slots = job["slots"]
        self.specs = [build_spec(slot["spec"]) for slot in self.slots]
        # the cold start builds the weights too; the ops build them again from
        # the source, as cmd_moments does, since an expression weight's support
        # needs the table's radius
        for slot in self.slots:
            if slot["op"] == "moments":
                source = slot["weight"]
                if source.startswith("builtin:"):
                    moments.builtin_weight(source.split(":", 1)[1])
                else:
                    defosc.parse(source, variable="x")

    def run_op(self, tr, i: int, stats: dict):
        slot, spec = self.slots[i], self.specs[i]
        if slot["op"] == "structure":
            return op_structure(tr, spec, slot, stats)
        if slot["op"] == "certify":
            return op_certify(tr, spec, slot, stats)
        if slot["op"] == "coherent":
            return op_coherent(tr, spec, slot, stats)
        return op_moments(tr, spec, slot, stats)

    def classify(self, i: int, outcome: str, text, carleman) -> tuple[str, str | None]:
        """'ok', 'defect' (the slot's documented defect) or 'failed', with a reason."""
        slot, ref = self.slots[i], self.job["refs"][i]
        expected = ref.get("outcome", "result")
        if outcome == expected:
            if outcome != "result":
                return "ok", None
            try:
                problem = CHECKS[slot["op"]](slot, ref, json.loads(text), carleman)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"unreadable output: {exc!r}"
            return ("ok", None) if problem is None else ("failed", problem)
        defect = slot.get("defect")
        if defect and outcome in defect["outcomes"]:
            return "defect", f"{defect['id']}: {outcome} where {expected} is due"
        return "failed", f"{outcome} where {expected} is due"

    def loop(self, tr, seconds: float, cap: float, min_ops: int, limit: float, pauses: int = 0) -> dict:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ops are timed.

        An op that ends in its slot's known defect is attempted but not timed:
        it runs into the cap, so its latency would measure the cap.  With
        ``pauses`` the loop stops that often, in the middle of equal slices of
        ``seconds``, and waits for ``go`` on stdin (``run.py`` times a cold
        start meanwhile); paused time does not count towards ``seconds``.
        """
        lat, counts = [], {"ok": 0, "defect": 0, "failed": 0}
        problems: dict[str, dict] = {}
        per_op: list[dict] = []
        start = time.perf_counter()
        paused, done_pauses, rounds = 0.0, 0, 0
        while True:
            for i in range(len(self.slots)):
                if done_pauses < pauses and time.perf_counter() - start - paused >= (done_pauses + 0.5) * seconds / pauses:
                    t_pause = time.perf_counter()
                    print("pause", flush=True)
                    if sys.stdin.readline().strip() != "go":
                        raise SystemExit("worker: run.py went away")
                    paused += time.perf_counter() - t_pause
                    done_pauses += 1
                tr.op_id = len(lat)
                stats: dict = {}
                text = carleman = table = None
                t0 = time.perf_counter()
                try:
                    # a timer signal that lands while disarming is caught by the outer try
                    signal.setitimer(signal.ITIMER_REAL, cap)
                    try:
                        with tr.span(f"op.{self.slots[i]['op']}"):
                            table, text, carleman = self.run_op(tr, i, stats)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    outcome = "result"
                except OutsideDomainError:
                    outcome = "domain"
                except NonconvergenceError:
                    outcome = "nonconvergence"
                except OpTimeout:
                    outcome = "timeout"
                except Exception as exc:  # any other error is a failed op, not a crashed run
                    outcome = f"error:{type(exc).__name__}: {exc}"
                lat.append(time.perf_counter() - t0)
                verdict, reason = self.classify(i, outcome, text, carleman)
                counts[verdict] += 1
                if reason is not None:
                    entry = problems.setdefault(f"{i}:{reason}", {
                        "verdict": verdict, "slot": i, "op": self.slots[i]["op"],
                        "input": {k: v for k, v in self.slots[i].items() if k != "defect"},
                        "reason": reason, "count": 0})
                    entry["count"] += 1
                if text is not None:
                    stats["render_bytes"] = len(text.encode())
                held = stats.pop("table", None)
                table = table or held
                stats["levels"] = table.max_n if table is not None else stats.get("table_levels", 0)
                stats["slot"] = i
                stats["round"] = rounds
                stats["verdict"] = verdict
                per_op.append(stats)
                if isinstance(tr, Tracer) and verdict != "defect":
                    self.replay(tr, i, stats)
                del table, held, text, carleman
            rounds += 1
            elapsed = time.perf_counter() - start - paused
            n_timed = len(lat) - counts["defect"]
            if (elapsed >= seconds and n_timed >= min_ops) or elapsed >= limit:
                break
        return {"latencies": lat, "counts": counts, "problems": list(problems.values()),
                "per_op": per_op, "rounds": rounds, "pauses": done_pauses,
                "wall_s": time.perf_counter() - start - paused}

    def replay(self, tr, i: int, stats: dict) -> None:
        """Evaluate F and G at every level of the op's table, as its own span."""
        spec, n = self.specs[i], stats["levels"]
        stats["replay_levels"] = n
        with tr.span("expr.replay"):
            for k in range(n):
                defosc.evaluate(spec.F, k, spec.params)
                defosc.evaluate(spec.G, k, spec.params)


def slot_medians(result: dict) -> list[float]:
    by_slot: dict[int, list[float]] = {}
    for stats, seconds in zip(result["per_op"], result["latencies"]):
        by_slot.setdefault(stats["slot"], []).append(1e3 * seconds)
    return [statistics.median(by_slot[i]) for i in sorted(by_slot)]


def timed(result: dict) -> list[float]:
    """Latencies of the ops that did not end in their slot's known defect."""
    return [t for t, s in zip(result["latencies"], result["per_op"]) if s["verdict"] != "defect"]


def round_median_s(result: dict) -> float:
    """Median over the rounds of the time the round's timed ops took."""
    per_round = [0.0] * result["rounds"]
    for t, s in zip(result["latencies"], result["per_op"]):
        if s["verdict"] != "defect":
            per_round[s["round"]] += t
    return statistics.median(per_round)


def e2e_metrics(result: dict) -> dict:
    """ops_per_s is a round's timed ops over the median round time, so that a
    few seconds of a slower machine move it less than a mean would."""
    lat = timed(result)
    deciles = statistics.quantiles(lat, n=10)
    return {
        "ops_per_s": len(lat) / result["rounds"] / round_median_s(result),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_p90": 1e3 * deciles[8],
        "ok_ratio": result["counts"]["ok"] / len(result["latencies"]),
    }


def layer_metrics(tr: Tracer, result: dict, untraced: dict) -> dict:
    """Per-layer figures from the traced loop, per timed op unless a ratio or a rate.

    Ops that ended in their slot's known defect are left out, as in the
    end-to-end figures; ``algebra.burn_levels_per_s`` is their one figure.
    """
    defects = {k for k, s in enumerate(result["per_op"]) if s["verdict"] == "defect"}
    ops = len(result["latencies"]) - len(defects)
    total: dict[str, float] = {}
    certify_ms: dict[str, list[float]] = {}
    for name, start, end, parent, op in tr.spans:
        if op in defects:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        if name.startswith("fock.certify.d"):
            certify_ms.setdefault(name.rsplit(".", 1)[1], []).append(1e3 * (end - start))
    per_op = [s for s in result["per_op"] if s["verdict"] != "defect"]
    burned = [(s["levels"], result["latencies"][k]) for k, s in enumerate(result["per_op"]) if k in defects]

    def tot(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def stat_sum(key: str) -> float:
        return sum(s.get(key, 0) for s in per_op)

    table_s = tot("algebra.phi_recurrence", "algebra.StructureTable", "algebra.radius")
    table_levels = stat_sum("table_levels")
    replay_levels = stat_sum("replay_levels")
    coherent_ops = [s for s in per_op if "truncation" in s]
    radius_calls = sum(1 for s in per_op if "radius_levels" in s)
    panels = stat_sum("panels")
    certify_s = sum(v for k, v in total.items() if k.startswith("fock.certify.d"))
    untraced_rate = e2e_metrics(untraced)["ops_per_s"]
    traced_rate = e2e_metrics(result)["ops_per_s"]
    replay_s = tot("expr.replay")
    counts = result["counts"]
    out = {
        "expr.replay_s": replay_s / ops,
        "expr.us_per_eval": 1e6 * replay_s / (2 * replay_levels) if replay_levels else 0.0,
        # the replay reaches table.max_n; scale it to the levels grown inside the table spans
        "expr.share_of_table": replay_s * table_levels / replay_levels / table_s if table_s and replay_levels else 0.0,
        "algebra.table_s": table_s / ops,
        "algebra.levels": stat_sum("levels") / ops,
        "algebra.us_per_level": 1e6 * table_s / table_levels if table_levels else 0.0,
        "algebra.closed_form_s": tot("algebra.phi_closed_sequence") / ops,
        "algebra.radius_s": tot("algebra.radius") / ops,
        "algebra.radius_levels": stat_sum("radius_levels") / radius_calls if radius_calls else 0.0,
        "algebra.radius_undetermined": stat_sum("radius_undetermined") / ops,
        "algebra.burn_levels_per_s": (sum(n for n, _ in burned) / math.fsum(t for _, t in burned)
                                      if burned else 0.0),
        "fock.build_rep_s": tot("fock.build_rep") / ops,
        "fock.certify_s": certify_s / ops,
        "fock.dim_total": stat_sum("dim") / ops,
        "coherent.make_state_s": tot("coherent.make_state") / ops,
        "coherent.truncation_total": sum(s["truncation"] for s in coherent_ops) / ops,
        "coherent.level_use": (sum(s["truncation"] + 1 for s in coherent_ops)
                               / sum(s["levels"] for s in coherent_ops)) if coherent_ops else 0.0,
        "coherent.eigen_residual_s": tot("coherent.eigen_residual") / ops,
        "coherent.uncertainty_s": tot("coherent.uncertainty_product") / ops,
        "coherent.overlap_s": tot("coherent.overlap_scan") / ops,
        "moments.weight_s": tot("moments.weight") / ops,
        "moments.check_s": tot("moments.check_moments") / ops,
        "moments.panels": panels / ops,
        "moments.us_per_panel": 1e6 * tot("moments.check_moments") / panels if panels else 0.0,
        "moments.nonconverged": stat_sum("nonconverged") / ops,
        "moments.carleman_s": tot("moments.carleman_diagnostic") / ops,
        "cli.render_s": tot("cli.render") / ops,
        "cli.render_bytes": stat_sum("render_bytes") / ops,
        "trace.overhead": traced_rate / untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.ops_per_s_untraced": untraced_rate,
        "fail_ratio": (counts["failed"] + counts["defect"]) / len(result["latencies"]),
    }
    for d in ("64", "256", "1024"):
        samples = certify_ms.get(f"d{d}")
        out[f"fock.certify_ms.d{d}"] = statistics.median(samples) if samples else 0.0
    return out


def main() -> int:
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text())
    runner = Runner(job)
    if "--setup" in sys.argv[2:]:
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    seconds, cap, min_ops, limit = job["seconds"], job["cap_s"], job["min_ops"], job["loop_limit_s"]
    result = runner.loop(NullTracer(), seconds, cap, min_ops, limit, job["pauses"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "ops": len(result["latencies"]),
        "timed_ops": len(timed(result)),
        "rounds": result["rounds"],
        "pauses": result["pauses"],
        "counts": result["counts"],
        "problems": result["problems"],
        "wall_s": result["wall_s"],
        "slot_ms": slot_medians(result),
        "metrics": {**e2e_metrics(result), "peak_rss_mb": peak_rss_mb},
    }
    if job["trace"]:
        tracer = Tracer()
        traced = runner.loop(tracer, seconds, cap, min_ops, limit)
        out["layers"] = layer_metrics(tracer, traced, result)
        out["traced_ops"] = len(traced["latencies"])
        spans_path = job_path.with_suffix(".spans.json")
        selfs = self_times(tracer.spans)
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op", "self"],
            "spans": [s + [t] for s, t in zip(tracer.spans, selfs)],
        }))
        out["spans_file"] = str(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
