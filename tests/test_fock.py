import math

import numpy as np
import pytest

from defosc.algebra import phi_recurrence
from defosc.catalog import builtin_spec
from defosc.fock import RELATION_NAMES, build_rep, certify


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
