import cmath
import math

import pytest

from defosc.algebra import (
    DeformationSpec,
    StructureTable,
    estimate_radius,
    make_spec,
    phi_closed_sequence,
    phi_recurrence,
)
from defosc.catalog import builtin_spec
from defosc.errors import (
    ClosedFormInapplicableError,
    EvalError,
    StructureOverflowError,
)

from catalog_forms import CLOSED_FORM_PHI


class TestRecurrence:
    def test_constant_forcing_counts_levels(self):
        table = phi_recurrence(make_spec("count", "1", "1"), 5)
        assert table.phi(3) == 3

    def test_initial_condition_is_exact_zero(self, catalog_specs):
        for spec in catalog_specs.values():
            assert phi_recurrence(spec, 1).phi(0) == 0j

    def test_geometric_drive_by_hand(self):
        # phi: 0, 1, 1 + 1/2, 1 + 1/2 + 1/4
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 3)
        assert table.phi(3) == 1.75

    def test_symmetric_drive_by_hand(self):
        # phi(2) = 2 * 1 + 2^(-1)
        table = phi_recurrence(builtin_spec("biedenharn", {"q": 2}), 2)
        assert table.phi(2) == 2.5

    def test_nmax_zero_is_allowed(self):
        table = phi_recurrence(make_spec("trivial", "1", "1"), 0)
        assert table.max_n == 0

    def test_negative_nmax_rejected(self):
        with pytest.raises(ValueError):
            phi_recurrence(make_spec("trivial", "1", "1"), -1)

    def test_evaluation_failure_reports_level(self):
        spec = make_spec("pole", "1", "1/(n-10)")  # probe range stops at 8
        with pytest.raises(EvalError, match="n = 10"):
            phi_recurrence(spec, 12)

    def test_spec_probe_rejects_early_poles(self):
        with pytest.raises(EvalError, match="n = 3"):
            make_spec("pole", "1/(n-3)", "1")


class TestClosedFormCrossCheck:
    def test_constant_family(self):
        spec = make_spec("count", "1", "1")
        assert phi_closed_sequence(spec, 4)[4] == 4

    def test_matches_recurrence_on_catalog(self, catalog_specs):
        for spec in catalog_specs.values():
            table = phi_recurrence(spec, 48)
            closed = phi_closed_sequence(spec, 48)
            for n in range(49):
                phi = table.phi(n)
                assert abs(closed[n] - phi) <= 1e-10 * (1 + abs(phi))

    def test_matches_recurrence_on_random_specs(self, random_spec_factory):
        for spec in random_spec_factory(20, seed=11, complex_params=True):
            table = phi_recurrence(spec, 40)
            closed = phi_closed_sequence(spec, 40)
            for n in range(41):
                phi = table.phi(n)
                assert abs(closed[n] - phi) <= 1e-10 * (1 + abs(phi))

    def test_vanishing_factor_is_typed(self):
        spec = make_spec("zero-factor", "1 - n", "1")  # F(1) = 0
        with pytest.raises(ClosedFormInapplicableError) as info:
            phi_closed_sequence(spec, 3)
        assert info.value.k == 1

    def test_first_level_needs_no_division(self):
        spec = make_spec("zero-factor", "1 - n", "1")
        assert phi_closed_sequence(spec, 1)[1] == 1

    def test_vanishing_f_at_zero_is_harmless(self):
        # F(0) never enters [F(k)]!, so F(0) = 0 does not block the form
        spec = make_spec("f0-zero", "n", "1")
        table = phi_recurrence(spec, 8)
        closed = phi_closed_sequence(spec, 8)
        for n in range(9):
            assert abs(closed[n] - table.phi(n)) <= 1e-12 * (1 + abs(table.phi(n)))

    def test_scaled_arithmetic_survives_huge_factorials(self):
        # [F(63)]! = 2^2016 overflows doubles; the scaled route must not
        spec = builtin_spec("biedenharn", {"q": 2.0})
        table = phi_recurrence(spec, 64)
        closed = phi_closed_sequence(spec, 64)
        phi = table.phi(64)
        assert abs(closed[64] - phi) <= 1e-10 * (1 + abs(phi))


class TestKnownClosedForms:
    @pytest.mark.parametrize("q", [0.3, 0.5, 1.2, 2.0])
    def test_geometric_family(self, q):
        spec = builtin_spec("arik-coon", {"q": q})
        table = phi_recurrence(spec, 40)
        for n in range(41):
            expected = (1 - q**n) / (1 - q)
            assert table.f(n) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.2, 2.0])
    def test_symmetric_family(self, q):
        spec = builtin_spec("biedenharn", {"q": q})
        table = phi_recurrence(spec, 40)
        for n in range(41):
            expected = abs((q**n - q**-n) / (q - 1 / q))
            assert table.f(n) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_two_parameter_family(self):
        p, q = 2.0, 1.5
        table = phi_recurrence(builtin_spec("pq", {"p": p, "q": q}), 40)
        for n in range(41):
            expected = (q**n - p**-n) / (q - 1 / p)
            assert table.f(n) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_undeformed_limit(self):
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 1 - 1e-8}), 20)
        for n in range(21):
            assert abs(table.f(n) - n) <= 1e-5

    def test_catalog_documented_forms_agree(self, catalog_specs):
        for name, spec in catalog_specs.items():
            oracle = CLOSED_FORM_PHI[name]
            table = phi_recurrence(spec, 30)
            for n in range(31):
                expected = oracle(n, spec.params)
                assert abs(table.phi(n) - expected) <= 1e-10 * (1 + abs(expected))


class TestHermitization:
    def test_phase_times_modulus_reconstructs_phi_exactly(self, random_spec_factory):
        for spec in random_spec_factory(10, seed=3, complex_params=True):
            table = phi_recurrence(spec, 32)
            for n in range(33):
                assert table.phase(n) * table.f(n) == table.phi(n)

    def test_modulus_matches_phi_within_an_ulp(self, random_spec_factory):
        for spec in random_spec_factory(10, seed=5, complex_params=True):
            table = phi_recurrence(spec, 32)
            for n in range(33):
                f = table.f(n)
                assert abs(abs(table.phi(n)) - f) <= 2 * math.ulp(max(f, 1e-300))

    def test_real_phi_has_sign_phase(self):
        table = phi_recurrence(make_spec("alternating", "-1", "1"), 10)
        # phi alternates 0, 1, 0, 1, ... for F = -1, G = 1: phi(n+1) = 1 - phi(n)
        for n in range(11):
            assert table.phase(n) in (complex(1.0), complex(-1.0))
            assert abs(table.phi(n)) == table.f(n)

    def test_unit_phase_where_nonzero(self, random_spec_factory):
        for spec in random_spec_factory(6, seed=9, complex_params=True):
            table = phi_recurrence(spec, 24)
            for n in range(25):
                if table.f(n) > 0:
                    assert abs(abs(table.phase(n)) - 1.0) <= 4e-16

    def test_zero_phi_uses_unit_phase_convention(self, degenerate_spec):
        table = phi_recurrence(degenerate_spec, 6)
        assert table.phase(0) == complex(1.0)
        assert table.phase(4) == complex(1.0)


class TestFactorials:
    def test_undeformed_factorial(self, harmonic_table):
        assert harmonic_table.log_f_factorial(5) == pytest.approx(math.log(120), abs=1e-12)

    def test_empty_product(self, harmonic_table):
        assert harmonic_table.log_f_factorial(0) == 0.0

    def test_geometric_product_by_hand(self):
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 3)
        assert table.log_f_factorial(3) == pytest.approx(math.log(1.0 * 1.5 * 1.75), abs=1e-12)

    def test_degenerate_factorial_is_minus_infinity(self, degenerate_spec):
        table = phi_recurrence(degenerate_spec, 8)
        assert table.log_f_factorial(3) > -math.inf
        assert table.log_f_factorial(4) == -math.inf
        assert table.log_f_factorial(7) == -math.inf

    def test_running_product_consistency(self, catalog_tables):
        for table in catalog_tables.values():
            for n in range(1, 40):
                lhs = math.exp(table.log_f_factorial(n))
                rhs = math.exp(table.log_f_factorial(n - 1)) * table.f(n)
                if math.isfinite(lhs) and lhs > 0:
                    assert abs(lhs - rhs) <= 1e-12 * lhs



class TestDegeneracy:
    def test_detection_point(self, degenerate_spec):
        table = phi_recurrence(degenerate_spec, 8)
        assert table.degeneracy == 4
        assert table.phi(4) == 0j
        assert table.f(4) == 0.0

    def test_detection_is_scale_free(self):
        # the cancellation 1 + 1/3 - 1/3 - 1 leaves ~ulp-level residue that
        # must be snapped to zero at any overall scale
        for scale in (1.0, 1e15):
            spec = make_spec("cancel", "1", "a*(1 - 2*n/3)", {"a": scale})
            table = phi_recurrence(spec, 6)
            assert table.degeneracy == 4
            assert table.phi(4) == 0j

    def test_snap_measures_cancellation_only(self):
        # the harmonic ladder times 1e-16 has no zero: phi(n) = n * 1e-16
        table = phi_recurrence(make_spec("tiny", "1", "1e-16"), 20)
        assert table.degeneracy is None
        for n in range(21):
            assert table.f(n) == pytest.approx(n * 1e-16, rel=1e-14)


class TestOverflow:
    def test_extension_past_double_range_is_typed(self):
        table = phi_recurrence(make_spec("triple", "3", "1"), 0)
        with pytest.raises(StructureOverflowError):
            table.ensure(800)
        assert table.overflow_at is not None
        # the prefix below the overflow stays usable
        assert math.isfinite(table.f(table.max_n))


class TestRadius:
    def test_linear_growth_is_unbounded(self, harmonic_table):
        estimate = harmonic_table.radius()
        assert estimate.kind == "infinite"

    def test_geometric_family_converges_to_two(self):
        estimate = estimate_radius(builtin_spec("arik-coon", {"q": 0.5}))
        assert estimate.kind == "finite"
        assert estimate.value == pytest.approx(2.0, abs=1e-6)

    def test_degenerate_series_is_polynomial(self, degenerate_spec):
        estimate = estimate_radius(degenerate_spec)
        assert estimate.kind == "infinite"

    def test_fast_growth_exits_early(self):
        estimate = estimate_radius(builtin_spec("biedenharn", {"q": 2.0}))
        assert estimate.kind == "infinite"
        assert estimate.probe_depth < 2000

    def test_probe_depth_precondition(self):
        with pytest.raises(ValueError):
            estimate_radius(builtin_spec("harmonic"), probe_depth=8)

    def test_estimate_is_cached_on_table(self, harmonic_table):
        assert harmonic_table.radius() is harmonic_table.radius()

    def test_configured_probe_depth_is_honored(self):
        table = StructureTable(builtin_spec("harmonic"), radius_probe_depth=128)
        estimate = table.radius()
        assert estimate.probe_depth <= 128
        assert estimate.kind == "infinite"  # growth trend still classifies it

    def test_evidence_carries_tail_samples(self):
        estimate = estimate_radius(builtin_spec("arik-coon", {"q": 0.5}))
        assert len(estimate.evidence) == 8
        assert all(v == pytest.approx(2.0, abs=1e-6) for v in estimate.evidence)

    def test_finite_kind_requires_positive_value(self):
        from defosc.algebra import RadiusEstimate

        with pytest.raises(ValueError):
            RadiusEstimate("finite", None, 100, ())
        with pytest.raises(ValueError):
            RadiusEstimate("bogus", 1.0, 100, ())


class TestSpecValidation:
    def test_params_copied_and_probed(self):
        params = {"q": 0.5}
        spec = builtin_spec("arik-coon", params)
        params["q"] = 99.0
        assert spec.params["q"] == 0.5

    def test_unbound_parameter_fails_at_construction(self):
        from defosc.expr import parse

        with pytest.raises(EvalError):
            DeformationSpec("bad", F=parse("q"), G=parse("1"), params={})

    def test_spec_is_hashable(self):
        spec = builtin_spec("arik-coon", {"q": 0.5})
        same = builtin_spec("arik-coon", {"q": 0.5})
        other = builtin_spec("arik-coon", {"q": 0.7})
        assert hash(spec) == hash(same)
        assert spec == same
        assert spec != other
        assert len({spec, same, other}) == 2

    def test_complex_parameters_supported(self):
        spec = make_spec("rotated", "1", "c", {"c": cmath.exp(0.3j)})
        table = phi_recurrence(spec, 5)
        assert table.phi(2) == pytest.approx(2 * cmath.exp(0.3j))
        assert table.f(2) == pytest.approx(2.0)
