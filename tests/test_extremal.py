"""Extremal point process, cluster sampling, and the parametric limit object."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from bbmlab import (AcceptanceError, Cluster, LimitModel,
                    OffspringDistribution, ResourceLimitError,
                    estimate_cox_constants, ks_distance, load_cluster_bank,
                    sample_cluster, sample_clusters, sample_correlated_pair,
                    sample_field, sample_limit_partition, sample_tree,
                    save_cluster_bank)
import bbmlab.extremal
import bbmlab.gwtree
from bbmlab.extremal import COX_BLOCK, DEFAULT_MAX_ATTEMPTS, SCREEN_BATCH
from bbmlab.streams import (TAG_CLUSTER, TAG_COX, TAG_FIELD, TAG_PAIR_X,
                            TAG_PAIR_Z, make_rng, stream_key)

SEED = 20260825
SQRT2 = math.sqrt(2.0)
BINARY = OffspringDistribution.binary()


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

    @pytest.mark.parametrize("index", range(6))
    def test_matches_pair_rejection_body(self, index):
        # reference: every attempt draws the rho = 0 pair, x and z
        seed = stream_key(SEED, 0x6D, index)
        for attempt in range(DEFAULT_MAX_ATTEMPTS):
            sub = stream_key(seed, TAG_CLUSTER, attempt)
            fld = sample_correlated_pair(sample_tree(BINARY, 4.0, sub), 0.0,
                                         sub)
            top = float(np.max(fld.x))
            if top >= SQRT2 * 4.0:
                break
        order = np.argsort(-fld.x, kind="stable")
        cl = sample_cluster(4.0, BINARY, seed)
        assert np.array_equal(cl.atoms, fld.x[order] - top)
        assert np.array_equal(cl.z_rel, fld.z[order] - fld.z[order[0]])
        assert cl.max_value == top
        assert cl.attempts == attempt + 1

    def test_z_field_drawn_only_when_accepted(self, monkeypatch):
        # the screen and the accepted attempt's regrowth both key pooled
        # generators in gwtree
        keyed = []
        rekey = bbmlab.gwtree.rekey

        def recording(rng, seed, *tags):
            keyed.append(stream_key(seed, *tags))
            return rekey(rng, seed, *tags)

        monkeypatch.setattr(bbmlab.gwtree, "rekey", recording)
        seed = stream_key(SEED, 0x6D, 0)
        cl = sample_cluster(4.0, BINARY, seed)
        assert cl.attempts > 1
        # every attempt screened, the accepted one's round included
        subs = [stream_key(seed, TAG_CLUSTER, a)
                for a in range(cl.attempts + SCREEN_BATCH)]
        z_streams = {stream_key(stream_key(sub, TAG_PAIR_Z), TAG_FIELD): sub
                     for sub in subs}
        assert [z_streams[k] for k in keyed if k in z_streams] == [
            subs[cl.attempts - 1]]
        assert stream_key(stream_key(subs[0], TAG_PAIR_X), TAG_FIELD) in keyed

    def test_rejection_exhausted(self):
        with pytest.raises(AcceptanceError, match="1 attempts"):
            sample_cluster(6.0, BINARY, stream_key(SEED, 0xE0, 0),
                           max_attempts=1)


def same_cluster(a: Cluster, b: Cluster) -> bool:
    return (a.atoms.tobytes() == b.atoms.tobytes()
            and a.z_rel.tobytes() == b.z_rel.tobytes()
            and a.max_value == b.max_value and a.attempts == b.attempts)


def first_decisive_attempt(seed, t_cond, max_nodes):
    """Reference: attempts one at a time until one is accepted (its
    attempt count) or grows past the budget (the error's message)."""
    for attempt in range(DEFAULT_MAX_ATTEMPTS):
        sub = stream_key(seed, TAG_CLUSTER, attempt)
        try:
            tree = sample_tree(BINARY, t_cond, sub, max_nodes=max_nodes)
        except ResourceLimitError as exc:
            return str(exc)
        x = sample_field(tree, stream_key(sub, TAG_PAIR_X)).x
        if np.max(x) >= SQRT2 * t_cond:
            return attempt + 1


class TestSampleClusters:
    SEEDS = [stream_key(SEED, 0x6E, i) for i in range(7)]

    @pytest.fixture(scope="class")
    def one_by_one(self):
        return [sample_cluster(4.0, BINARY, s) for s in self.SEEDS]

    @pytest.mark.parametrize("group", [1, 3, 7])
    def test_matches_one_seed_calls(self, one_by_one, group):
        got = [cl for j in range(0, len(self.SEEDS), group)
               for cl in sample_clusters(4.0, BINARY,
                                         self.SEEDS[j:j + group])]
        assert len(got) == len(one_by_one)
        assert all(same_cluster(a, b) for a, b in zip(got, one_by_one))

    def test_exhausted_seeds_fail_alone(self, one_by_one):
        limit = sorted(cl.attempts for cl in one_by_one)[3]
        got = sample_clusters(4.0, BINARY, self.SEEDS, max_attempts=limit)
        exhausted = 0
        for want, cl in zip(one_by_one, got):
            if want.attempts <= limit:
                assert same_cluster(cl, want)
            else:
                exhausted += 1
                assert isinstance(cl, AcceptanceError)
                assert f"{limit} attempts" in str(cl)
        assert 0 < exhausted < len(self.SEEDS)

    def test_budget_breach_only_before_acceptance(self):
        # at 60 nodes some t = 3 attempts break the budget: a seed fails
        # when one does before any attempt is accepted, and not when one
        # comes after, even within the round that screened both
        seeds = [stream_key(SEED, 0x6F, i) for i in range(8)]
        want = [first_decisive_attempt(s, 3.0, 60) for s in seeds]
        together = sample_clusters(3.0, BINARY, seeds, max_nodes=60)
        alone = [sample_clusters(3.0, BINARY, [s], max_nodes=60)[0]
                 for s in seeds]
        for w, a, b in zip(want, together, alone):
            if isinstance(w, str):
                assert isinstance(a, ResourceLimitError) and str(a) == w
                assert isinstance(b, ResourceLimitError) and str(b) == w
            else:
                assert a.attempts == b.attempts == w
                assert same_cluster(a, b)
        assert any(isinstance(w, str) for w in want)

        def breaks_budget(seed, attempt):
            try:
                sample_tree(BINARY, 3.0, stream_key(seed, TAG_CLUSTER,
                                                    attempt), max_nodes=60)
            except ResourceLimitError:
                return True
            return False

        # a seed alone screens SCREEN_BATCH attempts in its first round
        assert any(isinstance(w, int) and any(
            breaks_budget(s, a) for a in range(w, SCREEN_BATCH))
            for s, w in zip(seeds, want))


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

    def write_bank(self, path, lines, header="# cluster-bank v2"):
        path.write_text(header + "\n# t_cond=3.0\n"
                        + "".join(ln + "\n" for ln in lines),
                        encoding="ascii")

    def test_v1_bank_refused_at_load(self, tmp_path):
        path = tmp_path / "v1.txt"
        self.write_bank(path, ["0.0 -0.5 -1.25", "0.0"],
                        header="# cluster-bank v1")
        with pytest.raises(ValueError, match="v2"):
            load_cluster_bank(path)

    @pytest.mark.parametrize("line", ["0.0 -0.5 | 0.0",
                                      "0.0 -0.5 | 0.1 0.2",
                                      "0.0 -0.5"])
    def test_malformed_decorations_rejected(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        self.write_bank(path, [line])
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


class TestVectorizedCoxDraws:
    def test_mean_at_real_lambda(self, small_model):
        lam, threshold, n = 0.5, 2.0, 40000
        draws = sample_limit_partition(small_model, lam, 1.0, threshold, n,
                                       stream_key(SEED, 0x120))
        mean_atoms = math.exp(SQRT2 * threshold) / SQRT2
        mean_w = np.mean([np.exp(lam * cl.atoms).sum()
                          for cl in small_model.clusters])
        expected = (mean_atoms * math.exp(-lam * threshold)
                    * SQRT2 / (SQRT2 - lam) * mean_w)
        values = draws.values.real
        se = values.std(ddof=1) / math.sqrt(n)
        assert np.all(draws.values.imag == 0.0)
        assert abs(values.mean() - expected) <= 4.0 * se

    def test_draws_larger_than_a_block(self, small_model):
        # about 2.5 blocks of atoms per draw: every draw is its own block
        mean_atoms = 2.5 * COX_BLOCK
        model = LimitModel(cox_constant=mean_atoms * SQRT2 / math.exp(SQRT2),
                           z_weight=1.0, clusters=small_model.clusters)
        seed = stream_key(SEED, 0x121)
        draws = sample_limit_partition(model, complex(1.5, 0.5), 0.5, 1.0, 4,
                                       seed)
        assert np.all(draws.atom_counts > COX_BLOCK)
        total = int(draws.atom_counts.sum())
        assert abs(total - 4 * mean_atoms) <= 4.0 * math.sqrt(4 * mean_atoms)
        # each draw, summed on its own from the same stream
        rng = make_rng(seed, TAG_COX)
        assert np.array_equal(rng.poisson(model.cox_constant * math.exp(SQRT2)
                                          / SQRT2, 4), draws.atom_counts)
        lam = complex(1.5, 0.25)
        weights = np.array([np.sum(np.exp(lam * cl.atoms + 1j * math.sqrt(0.75)
                                          * 0.5 * cl.z_rel))
                            for cl in model.clusters])
        for n, value in zip(draws.atom_counts, draws.values):
            eta = -1.0 + rng.standard_exponential(n) / SQRT2
            pick = rng.integers(0, len(model.clusters), n)
            marks = np.exp(2j * math.pi * rng.random(n))
            direct = np.sum(np.exp(lam * eta) * weights[pick] * marks)
            assert value == pytest.approx(direct, rel=1e-9)

    def test_peak_memory_bounded_by_block(self, small_model):
        # about 200 atoms per draw: 20000 draws hold 4e6 atoms, 64 MB as
        # complex terms, while the blocks hold 2^14
        def peak(n_draws):
            tracemalloc.start()
            sample_limit_partition(small_model, complex(1.5, 0.5), 0.5, 4.0,
                                   n_draws, stream_key(SEED, 0x122))
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return top

        small, large = peak(2000), peak(20000)
        # the per-draw outputs (values, counts, first atoms) are 32 B a draw
        assert large - small <= 18000 * 32 + 256 * 1024


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
