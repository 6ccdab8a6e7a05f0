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
from defosc.coherent import eigen_residual, make_state, uncertainty_product
from defosc.fock import RELATION_NAMES, build_rep, certify

from conftest import CATALOG_PARAMS
from dense_certify import dense_certify, dense_matrices


class TestBuildRep:
    def test_undeformed_ladder_entries(self, harmonic_table):
        _, a, _, _ = dense_matrices(build_rep(harmonic_table, 2))
        nonzero = {(i, j): a[i, j] for i in range(3) for j in range(3) if a[i, j] != 0}
        assert nonzero == {(0, 1): 1.0, (1, 2): pytest.approx(math.sqrt(2))}

    def test_vacuum_column_is_zero(self, catalog_tables):
        for table in catalog_tables.values():
            _, a, _, _ = dense_matrices(build_rep(table, 8))
            assert np.all(a[:, 0] == 0)

    def test_geometric_entry(self):
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 4)
        rep = build_rep(table, 2)
        assert rep.mat_a[1, 2] == pytest.approx(math.sqrt(1.5))

    def test_adag_is_exact_conjugate_transpose(self, catalog_tables):
        for table in catalog_tables.values():
            rep = build_rep(table, 12)
            _, a, adag, _ = dense_matrices(rep)
            assert np.array_equal(adag, a.conj().T)

    def test_abar_a_diagonal_reproduces_phi(self, random_spec_factory):
        for spec in random_spec_factory(5, seed=21, complex_params=True):
            table = phi_recurrence(spec, 14)
            _, a, _, abar = dense_matrices(build_rep(table, 12))
            product = abar @ a
            for n in range(12):
                phi = table.phi(n)
                assert abs(product[n, n] - phi) <= 1e-12 * (1 + abs(phi))
            off_diag = product - np.diag(np.diag(product))
            assert np.abs(off_diag).max() == 0.0

    def test_abar_equals_adag_for_nonnegative_phi(self, harmonic_table):
        _, _, adag, abar = dense_matrices(build_rep(harmonic_table, 16))
        assert np.array_equal(abar, adag)

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
            n_mat, a, _, _ = dense_matrices(build_rep(table, 32))
            raw = n_mat @ a - a @ n_mat + a
            scale = np.abs(a).max()
            assert np.abs(raw[:31, :31]).max() <= 1e-14 * scale

    def test_ladder_exactness(self, catalog_tables):
        for table in catalog_tables.values():
            _, a, adag, _ = dense_matrices(build_rep(table, 24))
            down_up = a @ adag
            up_down = adag @ a
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

    def test_off_band_entry_is_refused(self, harmonic_table):
        # the band of a is entries (k, k + 1), k = 0..D-1, with D = 8 here;
        # anything else is refused at the write, before certify sees it
        rep = build_rep(harmonic_table, 8)
        before = certify(rep)
        for key in [(3, 2), (2, 2), (0, 0), (8, 9), (-1, 0), (7.0, 8), (slice(None), 0), 2, (1, 2, 3)]:
            with pytest.raises(ValueError, match="mat_a"):
                rep.mat_a[key] = 1e-300j
            with pytest.raises(ValueError, match="mat_a"):
                rep.mat_a[key]
        assert certify(rep) == before

    def test_band_fault_matches_dense_fault(self, harmonic_table):
        # mat_a writes into a; adag is an array of its own, so the fault
        # leaves it alone and a*adag-f(N+1) sees a differ from adag
        clean = build_rep(harmonic_table, 16)
        on_band = build_rep(harmonic_table, 16)
        on_band.a[2] += 0.1
        on_dense = build_rep(harmonic_table, 16)
        on_dense.mat_a[2, 3] += 0.1
        assert on_dense.mat_a[2, 3] == on_band.a[2] == clean.a[2] + 0.1
        assert np.array_equal(on_dense.adag, clean.adag)
        report = certify(on_band)
        assert report == certify(on_dense)
        assert report.passes["[N,adag]-adag"]
        assert not report.passes["a*adag-f(N+1)"]

    def test_memory_stays_linear_in_dimension(self):
        # one dense complex matrix is 16.8 MB at D = 1024 and 59 MB at the
        # dim 1918 of harmonic |z| = 40; numpy reports its buffers to
        # tracemalloc, so a dense block or temporary shows here
        certify_table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 1025)
        state = make_state(phi_recurrence(builtin_spec("harmonic", {}), 1), 40)
        tracemalloc.start()
        try:
            report = certify(build_rep(certify_table, 1024))
            certify_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            faulty = build_rep(certify_table, 1024)
            faulty.mat_a[2, 3] += 0.1  # the fault of certify --inject-fault
            fault_report = certify(faulty)
            fault_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rep = build_rep(state.table, state.truncation + 1)
            eigen_residual(state, rep)
            uncertainty_product(state, rep)
            coherent_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert not fault_report.passed
        assert rep.dim == 1918
        assert certify_peak < 4e6
        assert fault_peak < 4e6
        assert coherent_peak < 4e6

    def test_large_dimension_fault_gives_a_verdict(self):
        # the fault as the benchmark writes it; a dense (D+1)^2 complex
        # matrix would be 160 GB at D = 100000
        rep = build_rep(phi_recurrence(builtin_spec("harmonic", {}), 100001), 100000)
        rep.mat_a[2, 3] += 0.1
        report = certify(rep)
        assert not report.passed
        assert not report.passes["adag*a-f(N)"]


class TestExpectation:
    def test_vacuum_number(self, harmonic_table):
        n_mat = dense_matrices(build_rep(harmonic_table, 8))[0]
        vacuum = np.zeros(len(n_mat), dtype=complex)
        vacuum[0] = 1.0
        assert np.vdot(vacuum, n_mat @ vacuum) == 0

    def test_excited_number(self, harmonic_table):
        n_mat = dense_matrices(build_rep(harmonic_table, 8))[0]
        state = np.zeros(len(n_mat), dtype=complex)
        state[2] = 1.0
        assert np.vdot(state, n_mat @ state) == 2

    def test_updown_on_first_level(self):
        table = phi_recurrence(builtin_spec("arik-coon", {"q": 0.5}), 10)
        _, a, adag, _ = dense_matrices(build_rep(table, 8))
        state = np.zeros(len(a), dtype=complex)
        state[1] = 1.0
        value = np.vdot(state, adag @ a @ state)
        assert value == pytest.approx(table.f(1))
