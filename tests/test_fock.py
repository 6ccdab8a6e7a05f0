import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defosc.algebra import make_spec, phi_recurrence
from defosc.catalog import builtin_spec
from defosc.fock import RELATION_NAMES, build_rep, certify

from conftest import CATALOG_PARAMS
from dense_certify import dense_certify


class TestBuildRep:
    def test_undeformed_ladder_entries(self, harmonic_table):
        rep = build_rep(harmonic_table, 2)
        a = rep.mat_a
        nonzero = {(i, j): a[i, j] for i in range(3) for j in range(3) if a[i, j] != 0}
        assert nonzero == {(0, 1): 1.0, (1, 2): pytest.approx(math.sqrt(2))}

    def test_vacuum_column_is_zero(self, catalog_tables):
        for table in catalog_tables.values():
            rep = build_rep(table, 8)
            assert np.all(rep.mat_a[:, 0] == 0)

    def test_geometric_entry(self):
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 4)
        rep = build_rep(table, 2)
        assert rep.mat_a[1, 2] == pytest.approx(math.sqrt(1.5))

    def test_adag_is_exact_conjugate_transpose(self, catalog_tables):
        for table in catalog_tables.values():
            rep = build_rep(table, 12)
            assert np.array_equal(rep.mat_adag, rep.mat_a.conj().T)

    def test_abar_a_diagonal_reproduces_phi(self, random_spec_factory):
        for spec in random_spec_factory(5, seed=21, complex_params=True):
            table = phi_recurrence(spec, 14)
            rep = build_rep(table, 12)
            product = rep.mat_abar @ rep.mat_a
            for n in range(12):
                phi = table.phi(n)
                assert abs(product[n, n] - phi) <= 1e-12 * (1 + abs(phi))
            off_diag = product - np.diag(np.diag(product))
            assert np.abs(off_diag).max() == 0.0

    def test_abar_equals_adag_for_nonnegative_phi(self, harmonic_table):
        rep = build_rep(harmonic_table, 16)
        assert np.array_equal(rep.mat_abar, rep.mat_adag)

    def test_degeneracy_clamps_dimension(self, degenerate_spec):
        table = phi_recurrence(degenerate_spec, 8)
        rep = build_rep(table, 10)
        assert rep.dim == 4  # states |0..3>; phi(4) = 0 ends the ladder

    def test_rejects_trivial_dimension(self, harmonic_table):
        with pytest.raises(ValueError):
            build_rep(harmonic_table, 0)


class TestCertify:
    def test_undeformed_is_exact(self, harmonic_table):
        report = certify(build_rep(harmonic_table, 32))
        assert report.passed
        assert all(v <= 1e-12 for v in report.residuals.values())

    def test_symmetric_family_certifies(self):
        table = phi_recurrence(builtin_spec("biedenharn", {"q": 2.0}), 30)
        report = certify(build_rep(table, 24), tol=1e-10)
        assert report.passed
        assert report.subspace == 23

    def test_all_catalog_at_dim_32(self, catalog_tables):
        for name, table in catalog_tables.items():
            report = certify(build_rep(table, 32), tol=1e-10)
            assert report.passed, (name, report.residuals)

    def test_corrupted_ladder_fails_number_relation(self, harmonic_table):
        rep = build_rep(harmonic_table, 16)
        rep.mat_a[2, 3] += 0.1
        report = certify(rep)
        assert not report.passed
        assert not report.passes["adag*a-f(N)"]

    def test_commutators_survive_ladder_scaling_faults(self, harmonic_table):
        # scaling a single ladder entry preserves [N,a] = -a structurally
        rep = build_rep(harmonic_table, 16)
        rep.mat_a[2, 3] *= 1.5
        report = certify(rep)
        assert report.passes["[N,a]+a"]
        assert not report.passes["a*adag-f(N+1)"]

    def test_number_commutator_is_float_exact(self, catalog_tables):
        for table in catalog_tables.values():
            rep = build_rep(table, 32)
            raw = rep.mat_n @ rep.mat_a - rep.mat_a @ rep.mat_n + rep.mat_a
            scale = np.abs(rep.mat_a).max()
            assert np.abs(raw[:31, :31]).max() <= 1e-14 * scale

    def test_ladder_exactness(self, catalog_tables):
        for table in catalog_tables.values():
            rep = build_rep(table, 24)
            down_up = rep.mat_a @ rep.mat_adag
            up_down = rep.mat_adag @ rep.mat_a
            for n in range(23):
                f_n, f_next = table.f(n), table.f(n + 1)
                assert abs(up_down[n, n] - f_n) <= 1e-12 * (1 + f_n)
                assert abs(down_up[n, n] - f_next) <= 1e-12 * (1 + f_next)

    def test_report_dict_shape(self, harmonic_table):
        report = certify(build_rep(harmonic_table, 8))
        payload = report.as_dict()
        assert set(payload["relations"]) == set(RELATION_NAMES)
        assert payload["pass"] is True

    def test_tol_must_be_positive(self, harmonic_table):
        with pytest.raises(ValueError):
            certify(build_rep(harmonic_table, 4), tol=0.0)


FAULTS = {
    "add": lambda value: value + 0.1,
    "scale": lambda value: value * 1.5,
}


def _inject(rep, fault):
    if fault is not None:
        entry = (2, 3) if rep.dim >= 4 else (0, 1)  # as certify --inject-fault
        rep.mat_a[entry] = FAULTS[fault](rep.mat_a[entry])
    return rep


def _affine_specs(count, seed):
    # F = q and G = 1 + r n with complex q and r: every product in the
    # drift term multiplies two numbers with nonzero imaginary parts
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        q = rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(-2.0, 2.0))
        r = rng.uniform(0.0, 1.0) * cmath.exp(1j * rng.uniform(-2.0, 2.0))
        specs.append(make_spec(f"affine-{seed}-{i}", "q", "1 + r*n", {"q": q, "r": r}))
    return specs


class TestBandCertifyMatchesDense:
    """certify reads the bands; the dense matrix products are the oracle."""

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 16, 64])
    @pytest.mark.parametrize("name", list(CATALOG_PARAMS))
    def test_real_families_bit_identical(self, catalog_tables, name, d, fault):
        rep = _inject(build_rep(catalog_tables[name], d), fault)
        report = certify(rep)
        residuals, passes = dense_certify(rep)
        assert report.residuals == residuals
        assert report.passes == passes

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    @pytest.mark.parametrize("d", [1, 3, 16, 64])
    def test_complex_affine_within_rounding(self, d, fault):
        # a BLAS complex product may round with a fused multiply-add, so
        # the dense value itself is only defined to the last bit or two
        for spec in _affine_specs(6, seed=d):
            rep = _inject(build_rep(phi_recurrence(spec, d + 1), d), fault)
            report = certify(rep)
            residuals, passes = dense_certify(rep)
            for name in RELATION_NAMES:
                assert abs(report.residuals[name] - residuals[name]) <= 1e-15 * (1 + residuals[name])
            assert report.passes == passes

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG_PARAMS)),
        d=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_random_band_fault(self, catalog_tables, name, d, data):
        rep = build_rep(catalog_tables[name], d)
        k = data.draw(st.integers(min_value=0, max_value=rep.dim - 2))
        factor = data.draw(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
        shift = data.draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        rep.mat_a[k, k + 1] = rep.mat_a[k, k + 1] * factor + shift
        report = certify(rep)
        residuals, passes = dense_certify(rep)
        assert report.residuals == residuals
        assert report.passes == passes

    @pytest.mark.parametrize(
        "matrix,entry",
        [("mat_n", (0, 1)), ("mat_a", (3, 2)), ("mat_adag", (2, 3)), ("mat_abar", (5, 1))],
    )
    def test_off_band_entry_is_refused(self, harmonic_table, matrix, entry):
        rep = build_rep(harmonic_table, 8)
        getattr(rep, matrix)[entry] = 1e-300j
        with pytest.raises(ValueError, match=matrix):
            certify(rep)

    def test_memory_stays_linear_in_dimension(self):
        # one dense complex matrix at D = 1024 is 16.8 MB; numpy reports
        # its buffers to tracemalloc, so a dense temporary shows here
        rep = build_rep(phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 1025), 1024)
        tracemalloc.start()
        try:
            report = certify(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4e6


class TestExpectation:
    def test_vacuum_number(self, harmonic_table):
        rep = build_rep(harmonic_table, 8)
        vacuum = np.zeros(rep.dim, dtype=complex)
        vacuum[0] = 1.0
        assert np.vdot(vacuum, rep.mat_n @ vacuum) == 0

    def test_excited_number(self, harmonic_table):
        rep = build_rep(harmonic_table, 8)
        state = np.zeros(rep.dim, dtype=complex)
        state[2] = 1.0
        assert np.vdot(state, rep.mat_n @ state) == 2

    def test_updown_on_first_level(self):
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 10)
        rep = build_rep(table, 8)
        state = np.zeros(rep.dim, dtype=complex)
        state[1] = 1.0
        value = np.vdot(state, rep.mat_adag @ rep.mat_a @ state)
        assert value == pytest.approx(table.f(1))
