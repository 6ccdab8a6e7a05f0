"""Reference values for the benchmark, computed with mpmath at 50 digits.

Nothing here imports the program or its tests.  F and G are rebuilt from
the family name in ``inputs.FAMILIES``; ``phi`` comes from the defining
recurrence in 50-digit arithmetic; catalog families also have closed
forms (harmonic ``N(x) = e^x``, arik-coon q-exponential as a product),
and the radii come from ``inputs.oracle_radius``.  ``self_check`` tests
every oracle on a known value before any timing starts.
"""

from __future__ import annotations

import math

import mpmath as mp

from inputs import oracle_radius, spec

mp.mp.dps = 50

_SERIES_EPS = mp.mpf(10) ** -45


def _params(s: dict) -> dict:
    return {k: mp.mpc(v[0], v[1]) for k, v in s["params"].items()}


def family_fg(s: dict):
    """(F, G) as functions of the integer level, in mpmath."""
    p = _params(s)
    family = s["family"]
    one = mp.mpc(1)
    if family == "harmonic":
        return (lambda n: one), (lambda n: one)
    if family == "arik-coon":
        return (lambda n: p["q"]), (lambda n: one)
    if family == "biedenharn":
        return (lambda n: p["q"]), (lambda n: p["q"] ** (-n))
    if family == "pq":
        return (lambda n: p["q"]), (lambda n: p["p"] ** (-n))
    if family == "affine":
        return (lambda n: p["q"]), (lambda n: p["a"] + p["b"] * n)
    if family == "power":
        return (lambda n: p["q"]), (lambda n: mp.power(n + 1, p["s"]))
    if family == "exponential":
        return (lambda n: mp.exp(1j * p["t"] - p["c"])), (lambda n: mp.exp(1j * p["w"] * n))
    if family == "rotating":
        return (lambda n: mp.exp(1j * p["t"])), (lambda n: one)
    if family == "alternating":
        return (lambda n: 1 + p["e"] * (-1) ** n), (lambda n: one)
    raise ValueError(f"unknown family {family!r}")


def phi_seq(s: dict, n_max: int) -> list:
    """phi(0..n_max) by phi(n+1) = F(n) phi(n) + G(n) in 50-digit arithmetic."""
    big_f, big_g = family_fg(s)
    out = [mp.mpc(0)]
    for n in range(n_max):
        out.append(big_f(n) * out[-1] + big_g(n))
    return out


def log_fact_seq(phis: list) -> list:
    """log f(n)! for n = 0..len-1 (f = |phi|; no degeneracies in these inputs)."""
    out = [mp.mpf(0)]
    for phi in phis[1:]:
        out.append(out[-1] + mp.log(abs(phi)))
    return out


def _check_levels(n_max: int) -> list[int]:
    levels = {0, 1, 2, 3, n_max - 1, n_max}
    k = 4
    while k < n_max:
        levels.add(k)
        levels.add(k + 1)
        k *= 2
    return sorted(n for n in levels if 0 <= n <= n_max)


def structure_ref(s: dict, n_max: int) -> dict:
    phis = phi_seq(s, n_max)
    logs = log_fact_seq(phis)
    rows = {}
    scale = mp.mpf(0)
    levels = set(_check_levels(n_max))
    for n, phi in enumerate(phis):
        scale = max(scale, abs(phi))
        if n in levels:
            rows[str(n)] = {
                "phi": [float(phi.real), float(phi.imag)],
                "f": float(abs(phi)),
                "log_f_factorial": float(logs[n]),
                "scale": float(scale),
            }
    return {"rows": rows}


# Relation names as the certify report keys them.
RELATIONS = ("[N,a]+a", "[N,adag]-adag", "a*abar-F(N)*abar*a-G(N)", "adag*a-f(N)", "a*adag-f(N+1)")

# What ``certify --inject-fault`` adds to one entry of a (row, col, amount).
FAULT = (2, 3, 0.1)


def _mul(x: dict, y: dict) -> dict:
    """Product of two sparse matrices kept as {(row, col): value}."""
    rows: dict[int, list] = {}
    for (k, j), v in y.items():
        rows.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), u in x.items():
        for j, v in rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    return out


def _lin(*terms) -> dict:
    """sum of c * M over (c, M) pairs."""
    out: dict = {}
    for c, m in terms:
        for key, v in m.items():
            out[key] = out.get(key, 0) + c * v
    return out


def _diag(values) -> dict:
    return {(n, n): v for n, v in enumerate(values)}


def certify_ref(s: dict, d: int, fault: bool) -> dict:
    """Residuals of the certify relations on n <= d-1, in 50 digits.

    The operators are built from the 50-digit phi as sparse matrices on
    span{|0>..|d>}, optionally with the fault that ``certify --inject-fault``
    puts into a, and each residual follows the report's documented rule:
    the max entry of the difference on the block n < d, over one plus the
    largest max entry of the relation's operands on that block.  Without
    the fault every residual is ~1e-45; with it, the relations that involve
    a fail by a known margin.
    """
    dim = d + 1
    phis = phi_seq(s, dim)
    big_f, big_g = family_fg(s)
    roots = [mp.sqrt(abs(phi)) for phi in phis]
    a = {(n - 1, n): mp.mpc(roots[n]) for n in range(1, dim)}
    adag = {(j, i): mp.conj(v) for (i, j), v in a.items()}
    abar = {(n, n - 1): phis[n] / roots[n] for n in range(1, dim)}
    if fault:
        row, col, amount = FAULT if dim >= 4 else (0, 1, FAULT[2])
        a[row, col] = a.get((row, col), 0) + amount
    n_op = _diag(range(dim))
    f_op = _diag(abs(phis[n]) for n in range(dim))
    f_shift = _diag(abs(phis[n + 1]) for n in range(dim))
    f_of_n, g_of_n = _diag(big_f(n) for n in range(dim)), _diag(big_g(n) for n in range(dim))
    a_abar = _mul(a, abar)
    drift = _mul(f_of_n, _mul(abar, a))

    def top(m: dict) -> mp.mpf:
        return max((abs(v) for (i, j), v in m.items() if i < d and j < d), default=mp.mpf(0))

    def residual(difference: dict, *operands: dict) -> float:
        return float(top(difference) / (1 + max(top(m) for m in operands)))

    residuals = {
        RELATIONS[0]: residual(_lin((1, _mul(n_op, a)), (-1, _mul(a, n_op)), (1, a)), a),
        RELATIONS[1]: residual(_lin((1, _mul(n_op, adag)), (-1, _mul(adag, n_op)), (-1, adag)), adag),
        RELATIONS[2]: residual(_lin((1, a_abar), (-1, drift), (-1, g_of_n)), a_abar, drift, g_of_n),
        RELATIONS[3]: residual(_lin((1, _mul(adag, a)), (-1, f_op)), f_op),
        RELATIONS[4]: residual(_lin((1, _mul(a, adag)), (-1, f_shift)), f_shift),
    }
    return {"dim": dim, "subspace": d - 1, "residuals": residuals}


# ---------------------------------------------------------------------------
# Deformed exponential and coherent-state moments
# ---------------------------------------------------------------------------


def _series_moments(s: dict, x) -> dict:
    """log N(x), <n>, Var n and S = sum f(n+1) p_n by direct summation."""
    big_f, big_g = family_fg(s)
    phi_prev = mp.mpc(0)
    term = mp.mpf(1)  # x^n / f(n)!
    total = m1 = m2 = s1 = mp.mpf(0)
    n = 0
    while True:
        phi_next = big_f(n) * phi_prev + big_g(n)
        f_next = abs(phi_next)
        total += term
        m1 += n * term
        m2 += n * n * term
        s1 += f_next * term
        next_term = term * x / f_next
        if n > 8 and next_term < _SERIES_EPS * total and next_term < term:
            break
        term, phi_prev, n = next_term, phi_next, n + 1
        if n > 200_000:
            raise ArithmeticError("oracle series did not converge")
    mean = m1 / total
    return {"log_n": mp.log(total), "mean": mean, "var": m2 / total - mean**2, "s": s1 / total}


def _closed_moments(s: dict, x) -> dict | None:
    """Closed forms for the catalog families that have them."""
    family = s["family"]
    if family == "harmonic":
        return {"log_n": x, "mean": x, "var": x, "s": x + 1}
    q = _params(s)["q"].real if family == "arik-coon" else None
    # the product needs ~100 / (1 - q) factors; nearer q = 1 the series is shorter
    if family == "arik-coon" and q <= 0.99:
        # e_q(x) = prod_k 1 / (1 - (1-q) q^k x); x d/dx log, and x d/dx again
        log_n = mean = var = mp.mpf(0)
        k = 0
        while True:
            u = (1 - q) * q**k * x
            log_n -= mp.log1p(-u)
            mean += u / (1 - u)
            var += u / (1 - u) ** 2
            if u < _SERIES_EPS:
                break
            k += 1
        # f(n+1) = 1 + q f(n), and sum f(n) p_n = <a^dag a> = x
        return {"log_n": log_n, "mean": mean, "var": var, "s": 1 + q * x}
    return None


def n_moments(s: dict, x) -> dict:
    x = mp.mpf(x)
    if x == 0:
        return {"log_n": mp.mpf(0), "mean": mp.mpf(0), "var": mp.mpf(0), "s": abs(family_fg(s)[1](0))}
    return _closed_moments(s, x) or _series_moments(s, x)


def coherent_ref(s: dict, z: list[float], scan: int) -> dict:
    radius = oracle_radius(s)
    zc = mp.mpc(z[0], z[1])
    x = abs(zc) ** 2
    if x >= radius:
        return {"outcome": "domain", "radius": radius}
    mom = n_moments(s, x)
    mean, var = mom["mean"], mom["var"]
    ref = {
        "outcome": "result",
        "radius": radius,
        "normalization_log": float(mom["log_n"]),
        "mean_n": float(mean),
        "var_n": float(var),
        "mandel_q": float((var - mean) / mean) if mean > 0 else None,
        # Delta Q^2 = Delta P^2 = (<a a^dag> - |z|^2) / 2 for an eigenstate of a
        "uncertainty_product": float((mom["s"] - x) / 2),
    }
    if scan:
        overlaps = []
        for j in range(scan + 1):
            t = mp.mpf(j) / scan
            # <z|tz> = N(t |z|^2) / sqrt(N(|z|^2) N(t^2 |z|^2)), real and positive
            log_ov = n_moments(s, t * x)["log_n"] - (mom["log_n"] + n_moments(s, t * t * x)["log_n"]) / 2
            overlaps.append(float(mp.exp(log_ov)))
        ref["overlaps"] = overlaps
    return ref


# ---------------------------------------------------------------------------
# Moments and the Carleman diagnostic
# ---------------------------------------------------------------------------


def _moment_integral(weight: str, n: int, upper):
    if weight in ("builtin:harmonic", "exp(-x)"):
        if mp.isinf(upper):
            return mp.factorial(n)
        return mp.gammainc(n + 1, 0, upper)
    if weight == "exp(-x)/(1+x)":
        nodes = [0, n + 1, upper] if mp.isinf(upper) else [0, upper]
        return mp.quad(lambda t: t**n * mp.exp(-t) / (1 + t), nodes)
    raise ValueError(f"no oracle integral for weight {weight!r}")


def carleman_ref(logs: list, depth: int) -> dict:
    log_terms = [-logs[n] / (2 * n) for n in range(1, depth + 1)]
    partial = mp.fsum(mp.exp(t) for t in log_terms)
    start = max(1, depth // 10)
    xs = [mp.log(n) for n in range(start, depth + 1)]
    ys = [log_terms[n - 1] for n in range(start, depth + 1)]
    x_mean, y_mean = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
    slope = mp.fsum((u - x_mean) * (v - y_mean) for u, v in zip(xs, ys)) / mp.fsum((u - x_mean) ** 2 for u in xs)
    exponent = float(-slope)
    trend = "diverging" if exponent < 0.99 else "converging" if exponent > 1.01 else "undetermined"
    return {"partial_sum": float(partial), "exponent": exponent, "trend": trend}


def moments_ref(s: dict, weight: str, n_max: int, carleman_depth: int) -> dict:
    logs = log_fact_seq(phi_seq(s, max(n_max, carleman_depth)))
    builtin = weight.startswith("builtin:")
    radius = oracle_radius(s)
    upper = mp.inf if (builtin or math.isinf(radius)) else mp.mpf(radius)
    entries = []
    for n in range(n_max + 1):
        rel_err = abs(_moment_integral(weight, n, upper) / mp.exp(logs[n]) - 1)
        entries.append({"target_log": float(logs[n]), "rel_err": float(rel_err)})
    return {"entries": entries, "carleman": carleman_ref(logs, carleman_depth)}


def reference(slot: dict, carleman_depth: int) -> dict:
    op, s = slot["op"], slot["spec"]
    if op == "structure":
        return structure_ref(s, slot["n_max"])
    if op == "certify":
        return certify_ref(s, slot["dim"], slot.get("fault", False))
    if op == "coherent":
        return coherent_ref(s, slot["z"], slot["scan"])
    return moments_ref(s, slot["weight"], slot["n_max"], carleman_depth)


# ---------------------------------------------------------------------------
# Self-check on known values
# ---------------------------------------------------------------------------


def self_check() -> list[str]:
    """Problems found when the oracles are run on values known exactly."""
    problems = []

    def expect(name: str, got, want, tol) -> None:
        if not abs(got - want) <= tol * (1 + abs(want)):
            problems.append(f"{name}: got {mp.nstr(got, 20)}, want {mp.nstr(want, 20)}")

    harmonic = spec("harmonic")
    expect("harmonic phi(10)", phi_seq(harmonic, 10)[10], 10, 1e-45)
    q = mp.mpf("0.5")
    arik = spec("arik-coon", q=0.5)
    expect("arik-coon phi(20)", phi_seq(arik, 20)[20], (1 - q**20) / (1 - q), 1e-45)
    bied = spec("biedenharn", q=1.5)
    qb = mp.mpf("1.5")
    expect("biedenharn phi(7)", phi_seq(bied, 7)[7], (qb**7 - qb**-7) / (qb - 1 / qb), 1e-45)

    expect("harmonic N(2)", n_moments(harmonic, 2)["log_n"], 2, 1e-45)
    for name, s, x in (("harmonic", harmonic, 3.7), ("arik-coon", arik, 1.2)):
        closed, series = _closed_moments(s, mp.mpf(x)), _series_moments(s, mp.mpf(x))
        for key in ("log_n", "mean", "var", "s"):
            expect(f"{name} {key} closed vs series", closed[key], series[key], 1e-35)
    ref = coherent_ref(harmonic, [1.3, 0.4], 2)
    expect("harmonic mean n = |z|^2", ref["mean_n"], 1.3**2 + 0.4**2, 1e-15)
    expect("harmonic Mandel Q", ref["mandel_q"], 0, 1e-15)
    expect("harmonic dQ dP", ref["uncertainty_product"], 0.5, 1e-15)
    expect("harmonic <z|z/2>", ref["overlaps"][1], math.exp(-(1.3**2 + 0.4**2) / 8), 1e-15)

    # radii: the limit of f for arik-coon, the two-cycle for alternating,
    # Cauchy-Hadamard exp(log f(n)! / n) for the rotating phase
    expect("arik-coon radius", abs(phi_seq(spec("arik-coon", q=0.99), 8000)[-1]), oracle_radius(spec("arik-coon", q=0.99)), 1e-14)
    alt = spec("alternating", e=0.3)
    phis = phi_seq(alt, 2001)
    expect("alternating radius", mp.sqrt(abs(phis[-1]) * abs(phis[-2])), oracle_radius(alt), 1e-14)
    rot = spec("rotating", t=2.0)
    logs = log_fact_seq(phi_seq(rot, 4000))
    expect("rotating radius", mp.exp(logs[-1] / 4000), oracle_radius(rot), 5e-3)

    # certify --inject-fault on harmonic, D = 8: a[2,3] = sqrt(3) + 0.1 moves
    # the relations with a by 0.1 sqrt(3), over 1 + max f(n) resp. 1 + max f(n+1)
    faulted = certify_ref(harmonic, 8, True)["residuals"]
    margin = mp.sqrt(3) / 10
    for name, want in zip(RELATIONS, (0, 0, margin / 9, margin / 8, margin / 9)):
        expect(f"harmonic certify fault {name}", faulted[name], want, 1e-15)
    clean = certify_ref(spec("arik-coon", q=0.5), 16, False)["residuals"]
    expect("arik-coon certify, largest residual", max(clean.values()), 0, 1e-40)

    expect("moment of exp(-x), n = 5", _moment_integral("exp(-x)", 5, mp.inf), 120, 1e-45)
    expect("moment of exp(-x) on (0, 2), n = 0", _moment_integral("exp(-x)", 0, mp.mpf(2)), 1 - mp.exp(-2), 1e-45)
    expect("moment of exp(-x)/(1+x), n = 0", _moment_integral("exp(-x)/(1+x)", 0, mp.inf),
           mp.e * mp.e1(1), 1e-40)
    return problems
