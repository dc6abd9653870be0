"""Extremal point process, cluster sampling, and the parametric limit object."""

import cmath
import math

import numpy as np
import pytest

from bbmlab import (AcceptanceError, LimitModel, OffspringDistribution,
                    estimate_cox_constants, extremal_sample, ks_distance,
                    load_cluster_bank, m_of_t, max_position, phi_functional,
                    phi_tilde_functional, sample_cluster,
                    sample_correlated_pair, sample_limit_partition,
                    sample_tree, save_cluster_bank, truncated_partition)
from bbmlab.extremal import ExtremalSample
from bbmlab.streams import make_rng, stream_key

SEED = 20260825
SQRT2 = math.sqrt(2.0)
BINARY = OffspringDistribution.binary()


def field_for(t=6.0, rho=0.7, tag=0x61):
    tree = sample_tree(BINARY, t, stream_key(SEED, tag))
    return sample_correlated_pair(tree, rho, stream_key(SEED, tag))


class TestExtremalSample:
    def test_structure(self):
        fld = field_for()
        sm = extremal_sample(fld, tau=0.5)
        assert sm.points.size == fld.tree.n_leaves
        assert np.all(np.diff(sm.points) <= 0.0)
        assert np.allclose(np.abs(sm.marks), 1.0, atol=1e-12)
        top, _ = max_position(fld)
        assert sm.points[0] == pytest.approx(top - m_of_t(fld.tree.t),
                                             abs=1e-12)

    def test_rho_one_marks_share_global_phase(self):
        fld = field_for(rho=1.0, tag=0x62)
        tau = 0.5
        sm = extremal_sample(fld, tau=tau)
        expected = cmath.exp(-1j * tau * fld.rho * m_of_t(fld.tree.t))
        assert np.allclose(sm.marks, expected, atol=1e-12)


class TestPhiFunctionals:
    def test_single_point(self):
        assert phi_functional([0.0], complex(0.7, 0.2), 3.0) == 1.0 + 0.0j

    def test_all_points_cut(self):
        assert phi_functional([-5.0, -7.0], complex(1.0, 0.0), 2.0) == 0.0j

    def test_two_term_example(self):
        got = phi_functional([0.0, -1.0], complex(1.0, 0.0), 2.0)
        assert got == pytest.approx(1.0 + math.exp(-1.0), rel=1e-12)
        assert got == pytest.approx(1.3678794, abs=1e-7)

    def test_truncation_tower_identity(self):
        rng = make_rng(SEED, 0x63)
        points = -rng.exponential(2.0, 200)
        for beta in (complex(0.9, 0.0), complex(1.2, 0.8)):
            lo, hi = 1.5, 4.0
            inner = phi_functional(points, beta, lo)
            outer = phi_functional(points, beta, hi)
            band = points[(points > -hi) & (points <= -lo)]
            direct = complex(np.sum(np.exp(beta * band)))
            assert outer - inner == pytest.approx(direct, rel=1e-12)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            phi_functional([0.0], complex(1.0, 0.0), 0.0)


class TestPhiTilde:
    def test_single_point_unit_mark(self):
        sm = ExtremalSample(t=4.0, rho=0.5, tau=0.9,
                            points=np.array([0.0]),
                            marks=np.array([1.0 + 0.0j]))
        assert phi_tilde_functional(sm, complex(1.2, 0.9), 2.0) == 1.0 + 0.0j

    def test_all_points_cut(self):
        sm = ExtremalSample(t=4.0, rho=0.5, tau=0.9,
                            points=np.array([-3.0, -4.0]),
                            marks=np.ones(2, dtype=np.complex128))
        assert phi_tilde_functional(sm, complex(1.2, 0.9), 2.0) == 0.0j

    def test_length_mismatch_rejected(self):
        sm = ExtremalSample(t=4.0, rho=0.5, tau=0.9,
                            points=np.array([0.0, -1.0]),
                            marks=np.array([1.0 + 0.0j]))
        with pytest.raises(ValueError):
            phi_tilde_functional(sm, complex(1.2, 0.9), 2.0)

    def test_tau_disagreement_rejected(self):
        sm = ExtremalSample(t=4.0, rho=0.5, tau=0.3,
                            points=np.array([0.0]),
                            marks=np.array([1.0 + 0.0j]))
        with pytest.raises(ValueError):
            phi_tilde_functional(sm, complex(1.2, 0.9), 2.0)

    def test_matches_centered_truncation_at_rho_zero(self):
        beta = complex(1.2, 0.9)
        fld = field_for(rho=0.0, tag=0x64)
        sm = extremal_sample(fld, tau=beta.imag)
        threshold = 3.7
        via_points = phi_tilde_functional(sm, beta, threshold)
        via_field = truncated_partition(fld, beta, threshold).kept
        assert via_points == pytest.approx(via_field, rel=1e-10)


class TestSampleCluster:
    def test_structure(self):
        cl = sample_cluster(3.0, BINARY, stream_key(SEED, 0x65))
        assert cl.atoms.size >= 1
        assert float(np.max(cl.atoms)) == 0.0
        assert np.all(cl.atoms <= 0.0)
        assert cl.t_cond == 3.0
        assert cl.attempts >= 1
        assert cl.max_value >= SQRT2 * 3.0

    def test_deterministic(self):
        a = sample_cluster(3.0, BINARY, stream_key(SEED, 0x66))
        b = sample_cluster(3.0, BINARY, stream_key(SEED, 0x66))
        assert np.array_equal(a.atoms, b.atoms)
        assert a.attempts == b.attempts

    def test_rejection_exhausted(self):
        with pytest.raises(AcceptanceError, match="1 attempts"):
            sample_cluster(6.0, BINARY, stream_key(SEED, 0xE0, 0),
                           max_attempts=1)


class TestClusterBank:
    def test_roundtrip(self, tmp_path):
        clusters = [sample_cluster(3.0, BINARY, stream_key(SEED, 0x67, i))
                    for i in range(5)]
        path = tmp_path / "bank.txt"
        save_cluster_bank(path, clusters, BINARY)
        loaded, header = load_cluster_bank(path)
        assert len(loaded) == 5
        for orig, back in zip(clusters, loaded):
            assert np.array_equal(orig.atoms, back.atoms)
            assert np.array_equal(orig.z_rel, back.z_rel)
        assert header["t_cond"] == "3.0"
        assert header["offspring"] == "2:1.0"
        assert float(header["acceptance_rate"]) > 0.0

    def write_v1(self, path, lines):
        path.write_text("# cluster-bank v1\n# t_cond=3.0\n"
                        + "".join(ln + "\n" for ln in lines),
                        encoding="ascii")

    def test_v1_bank_refuses_decorated_law(self, tmp_path):
        path = tmp_path / "v1.txt"
        self.write_v1(path, ["0.0 -0.5 -1.25", "0.0"])
        loaded, _ = load_cluster_bank(path)
        assert all(cl.z_rel is None for cl in loaded)
        model = LimitModel(cox_constant=1.0, z_weight=1.0, clusters=loaded)
        sample_limit_partition(model, complex(1.5, 0.5), 1.0, 2.0, 10,
                               stream_key(SEED, 0x6C))
        with pytest.raises(ValueError, match="z_rel"):
            sample_limit_partition(model, complex(1.5, 0.5), 0.5, 2.0, 10,
                                   stream_key(SEED, 0x6C))

    @pytest.mark.parametrize("line", ["0.0 -0.5 | 0.0",
                                      "0.0 -0.5 | 0.1 0.2"])
    def test_malformed_decorations_rejected(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        self.write_v1(path, [line])
        with pytest.raises(ValueError, match="z_rel"):
            load_cluster_bank(path)


class TestLimitModel:
    def test_validation(self):
        cl = [sample_cluster(3.0, BINARY, stream_key(SEED, 0x68))]
        with pytest.raises(ValueError):
            LimitModel(cox_constant=0.0, z_weight=1.0, clusters=cl)
        with pytest.raises(ValueError):
            LimitModel(cox_constant=1.0, z_weight=-2.0, clusters=cl)
        with pytest.raises(ValueError):
            LimitModel(cox_constant=1.0, z_weight=1.0, clusters=[])


@pytest.fixture(scope="module")
def small_model():
    clusters = [sample_cluster(4.0, BINARY, stream_key(SEED, 0x69, i))
                for i in range(20)]
    return LimitModel(cox_constant=1.0, z_weight=1.0, clusters=clusters)


class TestSampleLimitPartition:
    def test_zero_atom_draws_are_zero(self, small_model):
        tiny = LimitModel(cox_constant=1e-12, z_weight=1.0,
                          clusters=small_model.clusters)
        draws = sample_limit_partition(tiny, complex(1.5, 0.0), 1.0, 1.0,
                                       200, stream_key(SEED, 0x6A))
        assert np.all(draws.atom_counts == 0)
        assert np.all(draws.values == 0.0)

    def test_poisson_atom_count_at_tiny_window(self, small_model):
        # intensity mass over [-A, inf) tends to 1/sqrt2 as A -> 0
        draws = sample_limit_partition(small_model, complex(1.5, 0.0), 1.0,
                                       1e-12, 100000, stream_key(SEED, 0x11E))
        mean = float(draws.atom_counts.mean())
        se = math.sqrt(1.0 / SQRT2 / 100000)
        assert abs(mean - 1.0 / SQRT2) <= 3.0 * se

    def test_rotation_invariance_below_unit_rho(self, small_model):
        draws = sample_limit_partition(small_model, complex(1.5, 0.5), 0.3,
                                       2.0, 10000, stream_key(SEED, 0x11F))
        spun = draws.values * cmath.exp(1.1j)
        assert ks_distance(np.real(draws.values), np.real(spun)) <= 0.02

    def test_deterministic(self, small_model):
        a = sample_limit_partition(small_model, complex(1.5, 0.0), 1.0, 2.0,
                                   50, stream_key(SEED, 0x6B))
        b = sample_limit_partition(small_model, complex(1.5, 0.0), 1.0, 2.0,
                                   50, stream_key(SEED, 0x6B))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.atom_counts, b.atom_counts)


class TestEstimateCoxConstants:
    def synthetic_max(self, seed, n):
        # exact law for C = Z = 1: P(max <= y) = exp(-e^{-sqrt2 y})
        return -np.log(make_rng(seed).exponential(1.0, n)) / SQRT2

    def test_recovers_unit_constant(self):
        big = self.synthetic_max(501, 5000)
        fit = estimate_cox_constants(big, np.ones(5000))
        assert 0.8 <= fit.c_hat <= 1.25

    def test_residual_shrinks_with_samples(self):
        big = self.synthetic_max(502, 5000)
        z = np.ones(5000)
        assert estimate_cox_constants(big, z).sse \
            < estimate_cox_constants(big[:500], z[:500]).sse

    def test_degenerate_inputs_rejected(self):
        big = self.synthetic_max(503, 1000)
        with pytest.raises(ValueError):
            estimate_cox_constants(big, np.zeros(1000))
        with pytest.raises(ValueError):
            estimate_cox_constants(np.ones(1000), np.ones(1000))
        with pytest.raises(ValueError):
            estimate_cox_constants(big[:100], np.ones(100))
