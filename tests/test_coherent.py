import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defosc import coherent
from defosc.algebra import StructureTable, make_spec, phi_recurrence
from defosc.catalog import builtin_spec
from defosc.coherent import (
    deformed_exp,
    eigen_residual,
    make_state,
    overlap,
    photon_statistics,
    uncertainty_product,
)
from defosc.errors import (
    DimensionMismatchError,
    NonconvergenceError,
    OutsideDomainError,
    TableMismatchError,
)
from defosc.fock import build_rep

from dense_certify import dense_matrices
from series_reference import reference_state


# ---------------------------------------------------------------------------
# Independent oracles (no package code paths)
# ---------------------------------------------------------------------------


def geometric_f_float(q: float, count: int) -> list[float]:
    return [0.0] + [(1 - q ** n) / (1 - q) for n in range(1, count)]


def direct_norm(q: float, x: float, depth: int = 200) -> float:
    """sum x^n / f(n)! by plain linear-domain summation."""
    f = geometric_f_float(q, depth + 1)
    total, fact = 0.0, 1.0
    for n in range(depth + 1):
        if n >= 1:
            fact *= f[n]
        total += x**n / fact
    return total


def rational_photon_moments(q: Fraction, x: Fraction, depth: int = 150):
    """Exact-rational pmf moments for the geometric family."""
    f = [Fraction(0)] + [(1 - q**n) / (1 - q) for n in range(1, depth + 1)]
    fact = [Fraction(1)]
    for n in range(1, depth + 1):
        fact.append(fact[-1] * f[n])
    terms = [x**n / fact[n] for n in range(depth + 1)]
    norm = sum(terms)
    mean = sum(n * t for n, t in enumerate(terms)) / norm
    second = sum(n * n * t for n, t in enumerate(terms)) / norm
    return float(mean), float(second - mean * mean)


@pytest.fixture(scope="module")
def geometric_table():
    return StructureTable(builtin_spec("arik-coon", {"q": 0.5}), 16)


# phi -> 2 with a dip at n = 41: phi(41) = 0.5 * phi(40) - 1 = -2^-40, so
# f(41) = 9.1e-13 and the terms of N(0.5) jump there after falling to 1e-24
@pytest.fixture(scope="module")
def dip_table():
    return StructureTable(make_spec("dip", "0.5", "1 - 2*exp(-1000*(n-40)^2)"))


def mpmath_dip_log_norm(x: float, levels: int) -> float:
    """log sum_{n < levels} x^n / f(n)! for the dip spec, phi at 50 digits."""
    with mpmath.workdps(50):
        phi, term, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        for n in range(levels):
            total += term
            phi = phi / 2 + 1 - 2 * mpmath.exp(-1000 * (n - 40) ** 2)
            term *= x / abs(phi)
        return float(mpmath.log(total))


# ---------------------------------------------------------------------------
# deformed exponential
# ---------------------------------------------------------------------------


class TestDeformedExp:
    def test_undeformed_is_exp(self, harmonic_table):
        log_value, _ = deformed_exp(harmonic_table, 1.0)
        assert log_value == pytest.approx(1.0, abs=1e-12)

    def test_zero_argument(self, harmonic_table):
        assert deformed_exp(harmonic_table, 0.0) == (0.0, 1)

    def test_geometric_matches_direct_summation(self, geometric_table):
        log_value, _ = deformed_exp(geometric_table, 1.0)
        oracle = direct_norm(0.5, 1.0, depth=200)
        assert math.exp(log_value) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("x", [2.0, 2.5])
    def test_divergent_argument_rejected(self, geometric_table, x):
        with pytest.raises(OutsideDomainError):
            deformed_exp(geometric_table, x)

    def test_budget_exhaustion_is_typed(self, harmonic_table, monkeypatch):
        monkeypatch.setattr(coherent, "MAX_TERMS", 30)
        with pytest.raises(NonconvergenceError):
            deformed_exp(harmonic_table, 50.0)

    def test_degenerate_sum_is_exact_and_finite(self, degenerate_spec):
        table = phi_recurrence(degenerate_spec, 8)
        # f = 3, 4, 3 before the cut: N(x) = 1 + x/3 + x^2/12 + x^3/36
        log_value, terms = deformed_exp(table, 2.0)
        assert terms == 4
        assert math.exp(log_value) == pytest.approx(1 + 2 / 3 + 4 / 12 + 8 / 36, rel=1e-14)

    def test_strictly_increasing_inside_disk(self, geometric_table):
        values = [deformed_exp(geometric_table, x)[0] for x in (0.0, 0.4, 0.9, 1.4, 1.9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_argument_rejected(self, harmonic_table):
        with pytest.raises(ValueError):
            deformed_exp(harmonic_table, -0.5)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


class TestMakeState:
    def test_vacuum_label(self, harmonic_table):
        state = make_state(harmonic_table, 0.0)
        assert state.truncation == 0
        assert state.amps[0] == 1.0 + 0j
        assert state.tail_bound == 0.0

    def test_undeformed_ground_amplitude(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        assert state.amps[0].real == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert state.amps[0].imag == 0.0

    def test_leading_amplitude_real_positive_for_complex_label(self, harmonic_table):
        state = make_state(harmonic_table, 0.3 + 0.7j)
        assert state.amps[0].imag == 0.0
        assert state.amps[0].real > 0

    def test_geometric_amplitudes_match_direct_formula(self, geometric_table):
        state = make_state(geometric_table, 1.0)
        norm = direct_norm(0.5, 1.0, depth=200)
        f = geometric_f_float(0.5, 40)
        fact = 1.0
        for n in range(min(30, state.truncation) + 1):
            if n >= 1:
                fact *= f[n]
            expected = 1.0 / math.sqrt(fact * norm)
            assert state.amps[n].real == pytest.approx(expected, rel=1e-10)

    def test_probability_never_exceeds_unity(self, catalog_tables, dip_table):
        cases = [(table, z) for table in catalog_tables.values() for z in (0.2, 0.9 + 0.3j, 1.1)]
        cases.append((dip_table, math.sqrt(0.5)))
        for table, z in cases:
            state = make_state(table, z)
            total = float(state.pmf.sum())
            assert 1.0 - state.tail_bound - 1e-13 <= total <= 1.0 + 5e-13

    def test_dip_normalization_matches_mpmath(self, dip_table):
        # a series stopped before n = 41 is 1.6e-12 low
        state = make_state(dip_table, math.sqrt(0.5))
        oracle = mpmath_dip_log_norm(0.5, 200)
        assert abs(state.normalization_log - oracle) <= 1e-15
        assert float(state.pmf.sum()) <= 1.0

    @pytest.mark.parametrize("depth", [16, 10_000])
    def test_late_degeneracy_ends_the_series(self, depth):
        # phi(61) = 0.5 * phi(60) - 1 = 0.  At depth 16 the radius is
        # undetermined and only the pass reaches the zero; at 10000 the
        # radius probe finds it first
        table = StructureTable(make_spec("late-zero", "0.5", "1 - 2*exp(-1000*(n-60)^2)"), radius_probe_depth=depth)
        state = make_state(table, math.sqrt(0.5))
        assert table.degeneracy == 61
        assert state.truncation == 60
        assert state.tail_bound == 0.0

    def test_label_outside_disk_rejected(self, geometric_table):
        with pytest.raises(OutsideDomainError) as info:
            make_state(geometric_table, 1.5)  # |z|^2 = 2.25 > 2
        assert info.value.radius == pytest.approx(2.0, abs=1e-6)

    def test_near_boundary_is_flagged_not_rejected(self, geometric_table):
        state = make_state(geometric_table, math.sqrt(1.99))
        assert state.near_boundary
        total = float(state.pmf.sum())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_interior_label_not_flagged(self, geometric_table):
        assert not make_state(geometric_table, 1.0).near_boundary

    def test_degenerate_expansion_is_finite(self, degenerate_spec):
        table = phi_recurrence(degenerate_spec, 8)
        state = make_state(table, 3.0)  # any z: the series is a polynomial
        assert state.truncation == 3
        assert state.tail_bound == 0.0
        assert float(state.pmf.sum()) == pytest.approx(1.0, abs=1e-13)

    def test_loose_tail_tol_keeps_the_normalization(self, harmonic_table, geometric_table):
        # a loose tail_tol moves the cut, not the sum behind N(x); at
        # 0.95 R the terms fall so slowly that 64 levels past the loose cut
        # are still far from the default one
        for table, z in ((harmonic_table, 0.9 + 0.3j), (geometric_table, math.sqrt(1.9))):
            loose = make_state(table, z, tail_tol=1e-6)
            assert loose.truncation < make_state(table, z).truncation
            assert loose.tail_bound <= 1e-6
            assert loose.normalization_log == deformed_exp(table, abs(z) ** 2)[0]

    def test_tail_tol_must_be_positive(self, harmonic_table):
        with pytest.raises(ValueError):
            make_state(harmonic_table, 1.0, tail_tol=0.0)

    def test_vector_pads_and_validates(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        vec = state.vector(state.truncation + 5)
        assert vec.shape == (state.truncation + 5,)
        assert np.all(vec[state.truncation + 1:] == 0)
        with pytest.raises(DimensionMismatchError):
            state.vector(state.truncation)


# ---------------------------------------------------------------------------
# the one pass against the earlier three loops (tests/series_reference.py)
# ---------------------------------------------------------------------------


class TestSeriesReference:
    def test_catalog_cuts_are_unchanged(self, catalog_tables):
        for table in catalog_tables.values():
            estimate = table.radius()
            r_max = math.sqrt(0.97 * estimate.value) if estimate.kind == "finite" else 6.0
            for k in range(12):
                z = r_max * (k + 1) / 12 * cmath.exp(2j * math.pi * k / 12)
                state = make_state(table, z)
                log_norm, cut, tail_bound, amps = reference_state(table, z)
                assert state.truncation == cut
                assert abs(state.normalization_log - log_norm) <= 1e-14 * (1 + abs(log_norm))
                assert state.tail_bound == pytest.approx(tail_bound, rel=1e-12)
                assert np.allclose(state.amps, amps, rtol=1e-13, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.3, 1.8),
        b=st.floats(0.0, 0.4),
        c=st.floats(0.2, 1.5),
        d=st.floats(0.0, 0.5),
        fraction=st.floats(0.01, 0.95),
        tail_tol=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-18]),
    )
    def test_affine_specs_agree(self, a, b, c, d, fraction, tail_tol):
        spec = make_spec("affine", "a + b*n", "c + d*n", {"a": a, "b": b, "c": c, "d": d})
        table = StructureTable(spec, radius_probe_depth=2000)
        estimate = table.radius()
        assume(estimate.kind != "undetermined")
        x = fraction * (estimate.value if estimate.kind == "finite" else 40.0)
        state = make_state(table, math.sqrt(x), tail_tol=tail_tol)
        log_norm, cut, _, _ = reference_state(table, math.sqrt(x), tail_tol=tail_tol)
        assert abs(state.truncation - cut) <= 1
        assert abs(state.normalization_log - log_norm) <= 1e-13 * (1 + abs(log_norm))
        assert state.tail_bound <= tail_tol


# ---------------------------------------------------------------------------
# lowering-eigenvector residual
# ---------------------------------------------------------------------------


class TestEigenResidual:
    def test_vacuum_is_exact(self, harmonic_table):
        state = make_state(harmonic_table, 0.0)
        rep = build_rep(harmonic_table, 4)
        assert eigen_residual(state, rep) == 0.0

    def test_undeformed_unit_label(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        rep = build_rep(harmonic_table, state.truncation + 1)
        assert eigen_residual(state, rep) <= 1e-6

    def test_matches_componentwise_oracle(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        rep = build_rep(harmonic_table, state.truncation + 1)
        value = eigen_residual(state, rep)

        def amp(k: int) -> complex:
            return state.amps[k] if k <= state.truncation else 0.0

        residual = [
            math.sqrt(harmonic_table.f(n + 1)) * amp(n + 1) - state.z * amp(n)
            for n in range(rep.dim)
        ]
        oracle = math.sqrt(sum(abs(r) ** 2 for r in residual))
        assert value == pytest.approx(oracle, abs=1e-15)

    def test_symmetric_family(self):
        table = StructureTable(builtin_spec("biedenharn", {"q": 1.2}), 8)
        state = make_state(table, 0.5)
        rep = build_rep(table, state.truncation + 1)
        assert eigen_residual(state, rep) <= 1e-6

    def test_contract_against_tail_bound(self, catalog_tables):
        for table in catalog_tables.values():
            for z in (0.3, 0.8 + 0.2j):
                state = make_state(table, z)
                rep = build_rep(table, state.truncation + 1)
                bound = 10 * math.sqrt(state.tail_bound) * (1 + abs(state.z))
                assert eigen_residual(state, rep) <= bound

    def test_dimension_mismatch(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        with pytest.raises(DimensionMismatchError):
            eigen_residual(state, build_rep(harmonic_table, max(1, state.truncation - 5)))


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


class TestOverlap:
    def test_self_overlap_is_unity(self, catalog_tables):
        for table in catalog_tables.values():
            state = make_state(table, 0.7)
            assert abs(overlap(state, state) - 1) <= 1e-12

    def test_vacuum_self_overlap(self, harmonic_table):
        state = make_state(harmonic_table, 0.0)
        assert overlap(state, state) == 1.0 + 0j

    def test_undeformed_kernel_value(self, harmonic_table):
        s1 = make_state(harmonic_table, 1.0)
        s2 = make_state(harmonic_table, 2.0)
        expected = math.exp(1 * 2 - 0.5 * 1 - 0.5 * 4)  # e^(-1/2)
        assert overlap(s1, s2) == pytest.approx(expected, abs=1e-10)

    def test_hermitian_symmetry(self, catalog_tables):
        for table in catalog_tables.values():
            s1 = make_state(table, 0.4 + 0.5j)
            s2 = make_state(table, -0.2 + 0.9j)
            forward = overlap(s1, s2)
            assert abs(forward - overlap(s2, s1).conjugate()) <= 1e-12

    def test_magnitude_bounded_by_one(self, harmonic_table):
        s1 = make_state(harmonic_table, 1.5)
        s2 = make_state(harmonic_table, -1.5 + 0.5j)
        assert abs(overlap(s1, s2)) <= 1.0 + 1e-14

    def test_states_are_not_orthogonal(self, geometric_table):
        s1 = make_state(geometric_table, 0.3)
        s2 = make_state(geometric_table, 1.0)
        assert abs(overlap(s1, s2)) > 0.5

    def test_table_mismatch(self, harmonic_table, geometric_table):
        with pytest.raises(TableMismatchError):
            overlap(make_state(harmonic_table, 0.5), make_state(geometric_table, 0.5))


# ---------------------------------------------------------------------------
# photon statistics
# ---------------------------------------------------------------------------


class TestPhotonStatistics:
    def test_undeformed_is_poisson(self, harmonic_table):
        x = 1.69
        state = make_state(harmonic_table, complex(1.2, 0.5))
        stats = photon_statistics(state)
        for n, p in enumerate(stats.pmf):
            expected = math.exp(-x + n * math.log(x) - math.lgamma(n + 1))
            if expected > 1e-280:
                assert p == pytest.approx(expected, rel=1e-10)
        assert stats.mean_n == pytest.approx(x, abs=1e-10)
        assert stats.mandel_q == pytest.approx(0.0, abs=1e-8)

    def test_vacuum_statistics_are_defined(self, harmonic_table):
        stats = photon_statistics(make_state(harmonic_table, 0.0))
        assert stats.pmf[0] == 1.0
        assert stats.mean_n == 0.0
        assert stats.mandel_q is None

    def test_geometric_family_is_super_poissonian_below_one(self, geometric_table):
        # broader-than-Poisson statistics: f(n) < n for q < 1, so the
        # amplitude tail decays slower than the undeformed one
        stats = photon_statistics(make_state(geometric_table, 1.0))
        mean, var = rational_photon_moments(Fraction(1, 2), Fraction(1))
        assert stats.mean_n == pytest.approx(mean, rel=1e-11)
        assert stats.var_n == pytest.approx(var, rel=1e-10)
        expected_q = (var - mean) / mean
        assert expected_q == pytest.approx(0.7078746298788995, rel=1e-10)  # frozen from the oracle
        assert stats.mandel_q == pytest.approx(expected_q, rel=1e-9)
        assert stats.mandel_q > 0

    def test_geometric_family_is_sub_poissonian_above_one(self):
        table = StructureTable(builtin_spec("arik-coon", {"q": 2.0}), 8)
        stats = photon_statistics(make_state(table, 1.0))
        mean, var = rational_photon_moments(Fraction(2), Fraction(1), depth=60)
        assert stats.mandel_q == pytest.approx((var - mean) / mean, rel=1e-9)
        assert stats.mandel_q < 0


# ---------------------------------------------------------------------------
# uncertainty product
# ---------------------------------------------------------------------------


class TestUncertaintyProduct:
    def test_undeformed_coherent_state_saturates(self, harmonic_table):
        state = make_state(harmonic_table, 0.7 + 0.1j)
        rep = build_rep(harmonic_table, state.truncation + 1)
        assert uncertainty_product(state, rep) == pytest.approx(0.5, abs=1e-8)

    def test_vacuum_saturates(self, harmonic_table):
        state = make_state(harmonic_table, 0.0)
        rep = build_rep(harmonic_table, 4)
        assert uncertainty_product(state, rep) == pytest.approx(0.5, abs=1e-10)

    def test_geometric_family_closed_form(self, geometric_table):
        # a-eigenvector property plus a adag = 1 + q adag a give
        # (dQ dP) = (1 - (1-q)|z|^2) / 2 exactly for this family
        q, z = 0.5, 0.5
        state = make_state(geometric_table, z)
        rep = build_rep(geometric_table, state.truncation + 2)
        expected = (1 - (1 - q) * z * z) / 2
        assert uncertainty_product(state, rep) == pytest.approx(expected, abs=1e-10)

    def test_robertson_bound_is_saturated(self, catalog_tables):
        # coherent states are minimum-uncertainty states of their own
        # algebra: dQ dP >= |<[Q,P]>|/2 with equality
        for table in catalog_tables.values():
            state = make_state(table, 0.5)
            rep = build_rep(table, state.truncation + 2)
            value = uncertainty_product(state, rep)
            _, a, adag, _ = dense_matrices(rep)
            quad_q = (a + adag) / math.sqrt(2)
            quad_p = (a - adag) / (1j * math.sqrt(2))
            vec = state.vector(rep.dim)
            commutator = quad_q @ quad_p - quad_p @ quad_q
            bound = abs(complex(np.vdot(vec, commutator @ vec))) / 2
            assert value >= bound - 1e-10
            assert value == pytest.approx(bound, abs=1e-8)

    def test_bands_match_dense_products(self, catalog_tables):
        for table in catalog_tables.values():
            for z in (0.5, 0.3 + 0.4j, 1.2j):
                state = make_state(table, z)
                rep = build_rep(table, state.truncation + 2)
                band_residual = eigen_residual(state, rep)
                band_product = uncertainty_product(state, rep)
                vec = state.vector(rep.dim)
                _, a, adag, _ = dense_matrices(rep)
                dense_residual = np.linalg.norm(a @ vec - state.z * vec)
                assert band_residual == pytest.approx(dense_residual, rel=1e-14, abs=1e-300)
                variances = []
                for op in ((a + adag) / math.sqrt(2), (a - adag) / (1j * math.sqrt(2))):
                    image = op @ vec
                    variances.append(np.vdot(image, image).real - np.vdot(vec, image).real ** 2)
                dense_product = math.sqrt(variances[0] * variances[1])
                assert band_product == pytest.approx(dense_product, rel=1e-14)

    def test_requires_two_levels_of_headroom(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        with pytest.raises(DimensionMismatchError):
            uncertainty_product(state, build_rep(harmonic_table, state.truncation))


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


class TestStateInvariants:
    def test_grid_of_states(self, catalog_tables):
        for name, table in catalog_tables.items():
            estimate = table.radius()
            r_max = 0.9 * math.sqrt(estimate.value) if estimate.kind == "finite" else 2.0
            for k in range(10):
                z = r_max * (k + 1) / 10 * cmath.exp(2j * math.pi * k / 10)
                state = make_state(table, z)
                rep = build_rep(table, state.truncation + 1)
                assert eigen_residual(state, rep) <= 10 * math.sqrt(state.tail_bound) * (1 + abs(z))
                total = float(state.pmf.sum())
                assert 1.0 - 2 * state.tail_bound - 1e-12 <= total <= 1.0 + 5e-13

    def test_states_are_immutable_bindings(self, harmonic_table):
        state = make_state(harmonic_table, 1.0)
        with pytest.raises(AttributeError):
            state.z = 2.0  # type: ignore[misc]
