"""Tests for the candidate retrieval subsystem (`repro.retrieval`).

Covers the index snapshot, both search backends (exact parity, IVF recall and
its n_probe dial), the query encoder, the two-stage pipeline's end-to-end
exactness against brute-force full-catalog ranking, and the serving wiring:
engine endpoints, the micro-batcher recommend head, registry index
management (including the register/load overwrite guards), the recommend
service head and the CLI subcommands.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.nn import kernels
from repro.retrieval import (
    ExactIndex,
    IVFIndex,
    ItemIndex,
    QueryEncoder,
    RetrievePipeline,
    recall_at,
)
from repro.serving import (
    InferenceEngine,
    ModelRegistry,
    OrphanedIndexWarning,
    RecommendRequest,
    serve_jsonl,
)

NUM_USERS = 10
NUM_ITEMS = 50
CONFIG = SeqFMConfig(
    static_vocab_size=NUM_USERS + NUM_ITEMS,
    dynamic_vocab_size=NUM_ITEMS + 1,
    max_seq_len=6,
    embed_dim=16,
    dropout=0.0,
    seed=11,
)
CATALOG = np.arange(NUM_USERS, NUM_USERS + NUM_ITEMS, dtype=np.int64)


@pytest.fixture
def model() -> SeqFM:
    model = SeqFM(CONFIG)
    rng = np.random.default_rng(4)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.15, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return model


@pytest.fixture
def engine(model: SeqFM) -> InferenceEngine:
    return InferenceEngine(model)


@pytest.fixture
def index(engine: InferenceEngine) -> ItemIndex:
    return ItemIndex.from_model(engine, CATALOG)


def user_request(user: int = 3, length: int = 5, seed: int = 9):
    rng = np.random.default_rng(seed + user)
    profile = np.array([user, int(CATALOG[0])], dtype=np.int64)
    history = [int(item) for item in rng.integers(1, CONFIG.dynamic_vocab_size, length)]
    return profile, history


def clustered_catalog_model(num_items: int = 1500, num_clusters: int = 30, seed: int = 0):
    """A model whose item embeddings form clusters — the realistic IVF regime."""
    config = SeqFMConfig(
        static_vocab_size=NUM_USERS + num_items,
        dynamic_vocab_size=num_items + 1,
        max_seq_len=6,
        embed_dim=16,
        dropout=0.0,
        seed=seed,
    )
    model = SeqFM(config)
    rng = np.random.default_rng(seed + 1)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.15, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    catalog = np.arange(NUM_USERS, NUM_USERS + num_items, dtype=np.int64)
    centers = rng.normal(0.0, 0.5, (num_clusters, config.embed_dim))
    members = rng.integers(0, num_clusters, num_items)
    model.static_embedding.weight.data[catalog] = (
        centers[members] + rng.normal(0.0, 0.08, (num_items, config.embed_dim))
    )
    return model, catalog, config


# --------------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------------- #
class TestBlockedTopkMatmul:
    def test_matches_full_topk_across_block_sizes(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(257, 9))
        query = rng.normal(size=9)
        scores = matrix @ query
        expected = kernels.top_k(scores, 10)
        for block_size in (1, 7, 64, 256, 257, 1024):
            indices, top_scores = kernels.blocked_topk_matmul(
                query, matrix, 10, block_size=block_size
            )
            np.testing.assert_array_equal(indices, expected)
            # blocked matvecs may round differently than the fused one (BLAS
            # summation order), so scores agree to float precision, not bitwise
            np.testing.assert_allclose(top_scores, scores[expected], rtol=0, atol=1e-12)

    def test_tie_break_matches_unblocked(self):
        # Rows 0/3/6 identical → ties break toward the lower row index, even
        # when the tied rows land in different blocks.
        matrix = np.zeros((7, 2))
        matrix[[0, 3, 6]] = [1.0, 0.0]
        query = np.array([1.0, 0.0])
        indices, _ = kernels.blocked_topk_matmul(query, matrix, 2, block_size=2)
        np.testing.assert_array_equal(indices, [0, 3])

    def test_k_larger_than_rows_returns_all(self):
        matrix = np.eye(3)
        indices, scores = kernels.blocked_topk_matmul(np.array([1.0, 0, 0]), matrix, 10)
        assert indices.shape == (3,) and scores[0] == 1.0

    def test_row_bias_shifts_selection(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(64, 4))
        query = rng.normal(size=4)
        bias = rng.normal(size=64)
        expected = kernels.top_k(matrix @ query + bias, 7)
        for block_size in (3, 64):
            indices, scores = kernels.blocked_topk_matmul(
                query, matrix, 7, block_size=block_size, row_bias=bias
            )
            np.testing.assert_array_equal(indices, expected)
            np.testing.assert_allclose(scores, (matrix @ query + bias)[expected],
                                       atol=1e-12)
        with pytest.raises(ValueError):
            kernels.blocked_topk_matmul(query, matrix, 7, row_bias=bias[:10])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kernels.blocked_topk_matmul(np.zeros(3), np.zeros((4, 2)), 1)
        with pytest.raises(ValueError):
            kernels.blocked_topk_matmul(np.zeros(2), np.zeros((4, 2)), 0)
        with pytest.raises(ValueError):
            kernels.blocked_topk_matmul(np.zeros(2), np.zeros((4, 2)), 1, block_size=0)


class TestKmeansAssign:
    def test_matches_naive_distances(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(100, 5))
        centroids = rng.normal(size=(7, 5))
        naive = (
            ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1).argmin(axis=1)
        )
        for block_size in (1, 13, 100, 1000):
            np.testing.assert_array_equal(
                kernels.kmeans_assign(points, centroids, block_size=block_size), naive
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernels.kmeans_assign(np.zeros((4, 3)), np.zeros((2, 5)))


# --------------------------------------------------------------------------- #
# ItemIndex snapshot
# --------------------------------------------------------------------------- #
class TestItemIndex:
    def test_snapshot_matches_model_tables(self, model, index):
        assert index.num_items == NUM_ITEMS and index.dim == CONFIG.embed_dim
        np.testing.assert_array_equal(index.item_ids, CATALOG)
        np.testing.assert_array_equal(
            index.embeddings, model.static_embedding.weight.data[CATALOG]
        )
        np.testing.assert_array_equal(index.weights, model.static_linear.data[CATALOG])

    def test_ids_are_deduplicated_and_sorted(self, engine):
        shuffled = [int(CATALOG[5]), int(CATALOG[2]), int(CATALOG[5]), int(CATALOG[9])]
        built = ItemIndex.from_model(engine, shuffled)
        np.testing.assert_array_equal(
            built.item_ids, sorted({CATALOG[2], CATALOG[5], CATALOG[9]})
        )

    def test_rejects_out_of_vocab_and_empty(self, engine):
        with pytest.raises(IndexError):
            ItemIndex.from_model(engine, [CONFIG.static_vocab_size])
        with pytest.raises(ValueError):
            ItemIndex.from_model(engine, [])

    def test_save_load_round_trip(self, index, tmp_path):
        path = index.save(tmp_path / "items.npz")
        loaded = ItemIndex.load(path)
        np.testing.assert_array_equal(loaded.item_ids, index.item_ids)
        np.testing.assert_array_equal(loaded.vectors, index.vectors)
        np.testing.assert_array_equal(loaded.probe_positions, index.probe_positions)
        assert loaded.has_partitions == index.has_partitions
        np.testing.assert_array_equal(loaded.assignments, index.assignments)
        np.testing.assert_array_equal(loaded.centroids, index.centroids)
        np.testing.assert_array_equal(loaded.representative_positions,
                                      index.representative_positions)

    def test_unpartitioned_round_trip(self, engine, tmp_path):
        bare = ItemIndex.from_model(engine, CATALOG, partition=False)
        assert not bare.has_partitions
        loaded = ItemIndex.load(bare.save(tmp_path / "bare.npz"))
        assert not loaded.has_partitions

    def test_partition_block_invariants(self, index):
        assert index.has_partitions
        assert index.assignments.shape == (index.num_items,)
        assert index.assignments.min() >= 0
        assert index.assignments.max() < index.n_partitions
        reps = index.representative_positions
        # Each representative belongs to the partition it represents.
        np.testing.assert_array_equal(index.assignments[reps],
                                      np.arange(index.n_partitions))

    def test_build_partitions_idempotent(self, index):
        centroids = index.centroids.copy()
        index.build_partitions(n_partitions=index.n_partitions)
        np.testing.assert_array_equal(index.centroids, centroids)
        # n_partitions=None reuses whatever block exists — the loaded-from-disk
        # path must not silently re-run k-means with the default count.
        index.build_partitions()
        np.testing.assert_array_equal(index.centroids, centroids)

    def test_ivf_snapshot_survives_index_repartition(self, index):
        """An IVFIndex must stay internally consistent when another consumer
        re-partitions the shared ItemIndex with a different count."""
        rng = np.random.default_rng(9)
        query = rng.normal(size=index.dim + 1)
        first = IVFIndex(index, n_partitions=5)
        expected_ids, expected_scores = first.search(query, 12, n_probe=5)
        IVFIndex(index, n_partitions=9)  # rebuilds the shared partition block
        assert index.n_partitions == 9 and first.n_partitions == 5
        ids, scores = first.search(query, 12, n_probe=5)  # full probe = exact
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_allclose(scores, expected_scores, atol=1e-12)
        # Offsets fitted against the new 9-partition block must be rejected.
        with pytest.raises(ValueError, match="one entry per partition"):
            first.search(query, 5, partition_offsets=np.zeros(9))

    def test_loaded_partition_block_reused_by_ivf(self, index, tmp_path):
        index.build_partitions(n_partitions=7)
        loaded = ItemIndex.load(index.save(tmp_path / "items.npz"))
        ivf = IVFIndex(loaded)  # no count given → persisted block wins
        assert ivf.n_partitions == 7
        np.testing.assert_array_equal(loaded.centroids, index.centroids)

    def test_empty_partitions_are_compacted(self):
        # Eight identical points tie toward the lowest centroid index, so
        # k-means can never populate more than one cluster — the block must
        # compact instead of crashing on an empty representative set.
        vectors = np.ones((8, 5))
        duplicated = ItemIndex(item_ids=np.arange(8), vectors=vectors,
                               probe_positions=np.arange(8))
        duplicated.build_partitions(n_partitions=4)
        assert duplicated.n_partitions == 1
        assert np.bincount(duplicated.assignments).min() >= 1
        np.testing.assert_array_equal(
            duplicated.assignments[duplicated.representative_positions],
            np.arange(duplicated.n_partitions))
        ids, scores = IVFIndex(duplicated).search(np.ones(5), 3)
        assert ids.shape == (3,)

    def test_load_rejects_foreign_archives(self, tmp_path):
        path = tmp_path / "not_an_index.npz"
        np.savez(path, whatever=np.zeros(3))
        with pytest.raises(ValueError):
            ItemIndex.load(path)

    def test_probe_positions_within_catalog(self, index):
        assert index.probe_positions.min() >= 0
        assert index.probe_positions.max() < index.num_items
        assert len(set(index.probe_positions.tolist())) == index.probe_positions.size


# --------------------------------------------------------------------------- #
# Search backends
# --------------------------------------------------------------------------- #
class TestExactIndex:
    def test_matches_naive_full_scan(self, index):
        rng = np.random.default_rng(3)
        query = rng.normal(size=index.dim + 1)
        ids, scores = ExactIndex(index, block_size=7).search(query, 12)
        full = index.vectors @ query
        order = np.lexsort((np.arange(index.num_items), -full))[:12]
        np.testing.assert_array_equal(ids, index.item_ids[order])
        np.testing.assert_allclose(scores, full[order], rtol=0, atol=1e-12)

    def test_rejects_unaugmented_query(self, index):
        with pytest.raises(ValueError):
            ExactIndex(index).search(np.zeros(index.dim), 5)

    def test_partition_offsets_applied(self, index):
        rng = np.random.default_rng(8)
        query = rng.normal(size=index.dim + 1)
        offsets = rng.normal(size=index.n_partitions)
        ids, scores = ExactIndex(index, block_size=11).search(
            query, 9, partition_offsets=offsets
        )
        full = index.vectors @ query + offsets[index.assignments]
        order = np.lexsort((np.arange(index.num_items), -full))[:9]
        np.testing.assert_array_equal(ids, index.item_ids[order])
        np.testing.assert_allclose(scores, full[order], atol=1e-12)

    def test_rejects_offsets_without_partitions(self, engine):
        bare = ItemIndex.from_model(engine, CATALOG, partition=False)
        with pytest.raises(ValueError):
            ExactIndex(bare).search(np.zeros(bare.dim + 1), 5,
                                    partition_offsets=np.zeros(3))


class TestIVFIndex:
    def test_full_probe_parity_with_exact(self, index):
        rng = np.random.default_rng(5)
        exact = ExactIndex(index)
        ivf = IVFIndex(index, n_partitions=8, seed=0)
        for _ in range(5):
            query = rng.normal(size=index.dim + 1)
            offsets = rng.normal(size=index.n_partitions)
            ids_exact, scores_exact = exact.search(query, 17)
            ids_ivf, scores_ivf = ivf.search(query, 17, n_probe=8)
            np.testing.assert_array_equal(ids_ivf, ids_exact)
            np.testing.assert_allclose(scores_ivf, scores_exact, rtol=0, atol=1e-12)
            # and with calibration offsets applied on both sides
            ids_exact, scores_exact = exact.search(query, 17, partition_offsets=offsets)
            ids_ivf, scores_ivf = ivf.search(query, 17, partition_offsets=offsets,
                                             n_probe=8)
            np.testing.assert_array_equal(ids_ivf, ids_exact)
            np.testing.assert_allclose(scores_ivf, scores_exact, rtol=0, atol=1e-12)

    def test_default_n_probe_recall_at_100(self):
        """recall@100 ≥ 0.95 vs the exact oracle at default settings."""
        model, catalog, config = clustered_catalog_model()
        engine = InferenceEngine(model)
        built = ItemIndex.from_model(engine, catalog)
        exact = ExactIndex(built)
        ivf = IVFIndex(built)  # default n_partitions = ⌈√n⌉, n_probe = ⌈parts/4⌉
        assert ivf.n_probe < ivf.n_partitions  # genuinely pruned, not degenerate
        encoder = QueryEncoder(engine, built)
        recalls = []
        rng = np.random.default_rng(17)
        for user in range(8):
            history = [int(x) for x in rng.integers(1, config.dynamic_vocab_size, 5)]
            query = encoder.encode(np.array([user, int(catalog[0])]), history)
            ids_exact, _ = exact.search(query.vector, 100)
            ids_ivf, _ = ivf.search(query.vector, 100)
            recalls.append(recall_at(ids_exact, ids_ivf))
        assert np.mean(recalls) >= 0.95, f"IVF recall@100 {np.mean(recalls):.3f}"

    def test_n_probe_dial_monotone_on_average(self, index):
        rng = np.random.default_rng(6)
        exact = ExactIndex(index)
        ivf = IVFIndex(index, n_partitions=10, seed=0)
        queries = rng.normal(size=(6, index.dim + 1))
        mean_recall = {}
        for probe in (1, 5, 10):
            recalls = []
            for query in queries:
                ids_exact, _ = exact.search(query, 10)
                ids_ivf, _ = ivf.search(query, 10, n_probe=probe)
                recalls.append(recall_at(ids_exact, ids_ivf))
            mean_recall[probe] = np.mean(recalls)
        assert mean_recall[1] <= mean_recall[5] + 1e-12 <= mean_recall[10] + 2e-12
        assert mean_recall[10] == 1.0

    @pytest.mark.parametrize("size", [1, 2, 20])
    def test_answers_as_many_items_as_exact(self, engine, size):
        """Probed partitions holding fewer than n members do not shrink the
        answer: the search keeps probing in centroid order."""
        built = ItemIndex.from_model(engine, CATALOG[:size])
        exact, ivf = ExactIndex(built), IVFIndex(built)
        rng = np.random.default_rng(size)
        for n in (1, 3, 50):
            query = rng.normal(size=built.dim + 1)
            ids_exact, _ = exact.search(query, n)
            ids_ivf, _ = ivf.search(query, n)
            assert len(ids_ivf) == len(ids_exact) == min(n, size)
        np.testing.assert_array_equal(ids_ivf, ids_exact)  # n=50: every item

    def test_every_partition_non_empty(self, index):
        ivf = IVFIndex(index, n_partitions=12, seed=2)
        sizes = np.diff(ivf._offsets)
        assert sizes.min() >= 1 and sizes.sum() == index.num_items

    def test_rejects_bad_n_probe(self, index):
        ivf = IVFIndex(index, n_partitions=5)
        with pytest.raises(ValueError):
            ivf.search(np.zeros(index.dim + 1), 10, n_probe=6)
        with pytest.raises(ValueError):
            IVFIndex(index, n_partitions=5, n_probe=0)


# --------------------------------------------------------------------------- #
# Query encoder
# --------------------------------------------------------------------------- #
class TestQueryEncoder:
    def test_surrogate_tracks_model_scores(self, engine, index):
        profile, history = user_request()
        encoder = QueryEncoder(engine, index)
        query = encoder.encode(profile, history)
        surrogate = index.vectors @ query.vector + query.bias
        exact = engine.rank_candidates(profile, CATALOG, history)
        correlation = np.corrcoef(surrogate, exact)[0, 1]
        assert correlation > 0.7, f"surrogate correlation {correlation:.3f}"
        assert np.isfinite(query.fit_residual)

    def test_reuses_supplied_plan(self, engine, index):
        profile, history = user_request()
        plan = engine.prepare_ranking(profile, history)
        encoder = QueryEncoder(engine, index)
        query = encoder.encode(profile, history, plan=plan)
        assert query.plan is plan
        fresh = encoder.encode(profile, history)
        np.testing.assert_allclose(query.vector, fresh.vector, atol=1e-12)

    @pytest.mark.parametrize("partition", [True, False])
    def test_prefactored_fit_matches_lstsq(self, engine, partition):
        """The pseudo-inverse factored at construction reproduces the
        per-request ``lstsq`` solve it replaced (reference kept here)."""
        index = ItemIndex.from_model(engine, CATALOG, partition=partition)
        encoder = QueryEncoder(engine, index)
        positions = index.probe_positions
        if partition:
            positions = np.concatenate([positions, index.representative_positions])
        design = np.concatenate(
            [index.embeddings[positions], np.ones((positions.size, 1))], axis=1
        )
        for user in range(4):
            profile, history = user_request(user)
            query = encoder.encode(profile, history)
            exact = engine.rank_candidates(profile, index.item_ids[positions], history)
            reference, _, _, _ = np.linalg.lstsq(
                design, exact - index.weights[positions], rcond=None
            )
            np.testing.assert_allclose(query.vector[:-1], reference[:-1], rtol=0, atol=1e-9)
            assert query.bias == pytest.approx(reference[-1], rel=0, abs=1e-9)

    def test_refactors_when_partitions_are_rebuilt(self, engine):
        """``build_partitions`` mutates the index in place; an encoder built
        before it must not keep serving the old fitting set."""
        profile, history = user_request()
        index = ItemIndex.from_model(engine, CATALOG, partition=False)
        encoder = QueryEncoder(engine, index)
        assert encoder.encode(profile, history).partition_offsets is None
        index.build_partitions(n_partitions=5)
        stale = encoder.encode(profile, history)
        fresh = QueryEncoder(engine, index).encode(profile, history)
        assert stale.partition_offsets.shape == (index.n_partitions,)
        np.testing.assert_array_equal(stale.vector, fresh.vector)
        np.testing.assert_array_equal(stale.partition_offsets, fresh.partition_offsets)

    def test_rejects_dim_mismatch(self, index):
        other = SeqFM(SeqFMConfig(static_vocab_size=30, dynamic_vocab_size=20,
                                  max_seq_len=4, embed_dim=8, seed=0))
        with pytest.raises(ValueError):
            QueryEncoder(InferenceEngine(other), index)

    def test_emits_one_offset_per_partition(self, engine, index):
        profile, history = user_request()
        query = QueryEncoder(engine, index).encode(profile, history)
        assert query.partition_offsets is not None
        assert query.partition_offsets.shape == (index.n_partitions,)
        bare = ItemIndex.from_model(engine, CATALOG, partition=False)
        uncalibrated = QueryEncoder(engine, bare).encode(profile, history)
        assert uncalibrated.partition_offsets is None

    def test_calibration_recovers_clustered_winners(self):
        """On a clustered catalog the per-partition offsets are load-bearing:
        the calibrated shortlist covers the true top-10 where the plain
        linear surrogate misses it (cluster-level nonlinearity)."""
        model, catalog, config = clustered_catalog_model()
        engine = InferenceEngine(model)
        built = ItemIndex.from_model(engine, catalog)
        exact = ExactIndex(built)
        encoder = QueryEncoder(engine, built)
        rng = np.random.default_rng(23)
        covered = uncalibrated_covered = 0.0
        for user in range(4):
            history = [int(x) for x in rng.integers(1, config.dynamic_vocab_size, 5)]
            profile = np.array([user, int(catalog[0])], dtype=np.int64)
            plan = engine.prepare_ranking(profile, history)
            true = engine.rank_candidates(profile, catalog, plan=plan)
            true_top10 = catalog[kernels.top_k(true, 10)]
            query = encoder.encode(profile, history, plan=plan)
            ids, _ = exact.search(query.vector, 100,
                                  partition_offsets=query.partition_offsets)
            covered += recall_at(true_top10, ids) / 4
            plain_ids, _ = exact.search(query.vector, 100)
            uncalibrated_covered += recall_at(true_top10, plain_ids) / 4
        assert covered >= 0.95, f"calibrated coverage {covered:.2f}"
        assert covered >= uncalibrated_covered


# --------------------------------------------------------------------------- #
# Two-stage pipeline
# --------------------------------------------------------------------------- #
class TestRetrievePipeline:
    def test_full_fanout_matches_brute_force_exactly(self, engine, index):
        """The ISSUE acceptance oracle: ExactIndex + n_retrieve ≥ catalog
        reproduces 'score every catalog item then top-K' to 1e-10."""
        pipeline = RetrievePipeline(engine, ExactIndex(index),
                                    n_retrieve=index.num_items)
        for user in range(4):
            profile, history = user_request(user=user)
            ranked = pipeline.retrieve_then_rank(profile, 10, history)
            brute_ids, brute_scores = engine.rank_topk(profile, CATALOG, 10, history)
            np.testing.assert_array_equal(ranked.candidates, brute_ids)
            np.testing.assert_allclose(ranked.scores, brute_scores, rtol=0, atol=1e-10)

    def test_narrow_fanout_still_finds_topk(self, engine, index):
        """With a shortlist 5× the cut, the surrogate covers the true top-K
        on this catalog (deterministic seeds)."""
        pipeline = RetrievePipeline(engine, ExactIndex(index), n_retrieve=25)
        profile, history = user_request()
        ranked = pipeline.retrieve_then_rank(profile, 5, history)
        brute_ids, _ = engine.rank_topk(profile, CATALOG, 5, history)
        assert recall_at(brute_ids, ranked.candidates) == 1.0
        np.testing.assert_array_equal(ranked.candidates, brute_ids)

    def test_retrieve_returns_shortlist_with_plan(self, engine, index):
        pipeline = RetrievePipeline(engine, ExactIndex(index), n_retrieve=7)
        profile, history = user_request()
        shortlist = pipeline.retrieve(profile, history)
        assert len(shortlist) == 7
        assert np.isin(shortlist.candidates, CATALOG).all()
        assert shortlist.query.plan is not None

    def test_rejects_bad_parameters(self, engine, index):
        with pytest.raises(ValueError):
            RetrievePipeline(engine, ExactIndex(index), n_retrieve=0)
        pipeline = RetrievePipeline(engine, ExactIndex(index))
        with pytest.raises(ValueError):
            pipeline.retrieve_then_rank([0, int(CATALOG[0])], 0)

    def test_ivf_backend_end_to_end(self, engine, index):
        ivf = IVFIndex(index, n_partitions=7, n_probe=7)
        pipeline = RetrievePipeline(engine, ivf, n_retrieve=index.num_items)
        profile, history = user_request()
        ranked = pipeline.retrieve_then_rank(profile, 5, history)
        brute_ids, brute_scores = engine.rank_topk(profile, CATALOG, 5, history)
        np.testing.assert_array_equal(ranked.candidates, brute_ids)
        np.testing.assert_allclose(ranked.scores, brute_scores, rtol=0, atol=1e-10)

    def test_per_request_shortlist_sizes(self, engine, index):
        """``n`` / ``n_retrieve`` given per call override the pipeline default."""
        pipeline = RetrievePipeline(engine, ExactIndex(index), n_retrieve=3)
        profile, history = user_request()
        shortlist = pipeline.retrieve(profile, history, n=9)
        assert shortlist.candidates.shape == (9,) and shortlist.scores.shape == (9,)
        ranked = pipeline.retrieve_then_rank(profile, 4, history,
                                             n_retrieve=index.num_items)
        brute_ids, brute_scores = engine.rank_topk(profile, CATALOG, 4, history)
        np.testing.assert_array_equal(ranked.candidates, brute_ids)
        np.testing.assert_allclose(ranked.scores, brute_scores, rtol=0, atol=1e-10)


# --------------------------------------------------------------------------- #
# Micro-batcher recommend head
# --------------------------------------------------------------------------- #
class TestRecommendHead:
    def test_recommend_head_uses_sequence_store(self, model, engine, index):
        registry = ModelRegistry()
        registry.register("m", model)
        registry.attach_index("m", index, n_retrieve=index.num_items)
        entry = registry.get("m")
        batcher = entry.batcher(head="recommend")
        profile, history = user_request()
        request = RecommendRequest(static_indices=profile, history=history,
                                   user_id=3, k=5)
        first = batcher.recommend(request)
        second = batcher.recommend(request)
        np.testing.assert_array_equal(first.candidates, second.candidates)
        assert entry.sequence_store.stats.hits >= 1
        brute_ids, _ = engine.rank_topk(profile, CATALOG, 5, history)
        np.testing.assert_array_equal(first.candidates, brute_ids)

    def test_default_k_applied(self, model, index):
        registry = ModelRegistry()
        registry.register("m", model)
        registry.attach_index("m", index, n_retrieve=index.num_items)
        profile, history = user_request()
        result = registry.get("m").batcher(head="recommend").recommend(
            RecommendRequest(static_indices=profile, history=history)
        )
        assert len(result) == 10  # DEFAULT_RECOMMEND_K

    def test_recommend_without_index_raises(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError, match="no item index"):
            registry.get("m").batcher(head="recommend")


# --------------------------------------------------------------------------- #
# Registry: index management and overwrite guards
# --------------------------------------------------------------------------- #
class TestRegistryIndex:
    def test_build_save_load_recommend_round_trip(self, model, tmp_path):
        registry = ModelRegistry()
        registry.register("m", model)
        built = registry.build_index("m", CATALOG, n_retrieve=NUM_ITEMS)
        path = registry.save_index("m", tmp_path / "items.npz")

        fresh = ModelRegistry()
        fresh.register("m2", model)
        fresh.load_index("m2", path, n_retrieve=NUM_ITEMS)
        profile, history = user_request()
        first = registry.recommend("m", profile, 5, history=history, user_id=3)
        second = fresh.recommend("m2", profile, 5, history=history, user_id=3)
        np.testing.assert_array_equal(first.candidates, second.candidates)
        np.testing.assert_allclose(first.scores, second.scores, atol=1e-12)
        assert built.num_items == NUM_ITEMS

    def test_recommend_matches_brute_force(self, model, engine):
        registry = ModelRegistry()
        registry.register("m", model)
        registry.build_index("m", CATALOG, n_retrieve=NUM_ITEMS)
        profile, history = user_request(user=7)
        result = registry.recommend("m", profile, 6, history=history)
        brute_ids, brute_scores = engine.rank_topk(profile, CATALOG, 6, history)
        np.testing.assert_array_equal(result.candidates, brute_ids)
        np.testing.assert_allclose(result.scores, brute_scores, rtol=0, atol=1e-10)

    def test_ivf_backend_option(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        registry.build_index("m", CATALOG, backend="ivf", n_partitions=5, n_probe=5)
        assert registry.get("m").index.n_partitions == 5
        profile, history = user_request()
        assert len(registry.recommend("m", profile, 5, history=history)) == 5
        with pytest.raises(ValueError):
            registry.build_index("m", CATALOG, backend="faiss")

    def test_build_index_clusters_once_for_explicit_ivf_count(self, model,
                                                              monkeypatch):
        """An explicit IVF partition count must flow into the snapshot build —
        not cluster at the default count and re-cluster at the requested one."""
        import repro.retrieval.index as index_module

        calls = []
        real_kmeans = index_module._lloyd_kmeans

        def counting_kmeans(points, k, iterations, seed, block_size):
            calls.append(k)
            return real_kmeans(points, k, iterations, seed, block_size)

        monkeypatch.setattr(index_module, "_lloyd_kmeans", counting_kmeans)
        registry = ModelRegistry()
        registry.register("m", model)
        registry.build_index("m", CATALOG, backend="ivf", n_partitions=6)
        assert calls == [6]

    def test_save_index_without_index_raises(self, model, tmp_path):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError):
            registry.save_index("m", tmp_path / "items.npz")

    def test_load_index_rejects_dim_mismatch(self, model, tmp_path):
        other = SeqFM(SeqFMConfig(static_vocab_size=60, dynamic_vocab_size=51,
                                  max_seq_len=6, embed_dim=8, seed=0))
        path = ItemIndex.from_model(other, CATALOG).save(tmp_path / "other.npz")
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError, match="embedding dim"):
            registry.load_index("m", path)

    def test_hot_reload_drops_stale_index_with_warning(self, model, tmp_path):
        registry = ModelRegistry()
        registry.register("m", model)
        registry.save("m", tmp_path / "v1.npz")
        registry.build_index("m", CATALOG)
        assert registry.get("m").index is not None
        with pytest.warns(OrphanedIndexWarning, match="rebuild_index"):
            registry.load("m", tmp_path / "v1.npz")  # hot-swap, same arch
        assert registry.get("m").index is None
        assert registry.get("m").retriever is None

    def test_hot_reload_rebuild_index_keeps_retrieval(self, model, tmp_path):
        """The promotion path: rebuild_index=True re-snapshots the catalog
        from the swapped-in weights instead of orphaning the index."""
        import warnings

        registry = ModelRegistry()
        registry.register("m", model)
        registry.build_index("m", CATALOG, n_retrieve=NUM_ITEMS, seed=3)
        model.projection.data[...] += 0.25
        registry.save("m", tmp_path / "v2.npz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", OrphanedIndexWarning)
            entry = registry.load("m", tmp_path / "v2.npz", rebuild_index=True)
        assert entry.index is not None and entry.retriever is not None
        assert entry.index_spec["seed"] == 3
        # the rebuilt snapshot reflects the *new* weights
        rebuilt = entry.index
        expected = ItemIndex.from_model(entry.model, CATALOG, seed=3)
        np.testing.assert_allclose(rebuilt.vectors, expected.vectors)


class TestRegistryOverwriteGuards:
    def test_register_over_existing_name_raises(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("m", model)

    def test_register_overwrite_replaces(self, model):
        registry = ModelRegistry()
        first = registry.register("m", model)
        second = registry.register("m", model, overwrite=True)
        assert registry.get("m") is second and second is not first

    def test_load_same_architecture_hot_swaps_without_flag(self, model, tmp_path):
        registry = ModelRegistry()
        entry = registry.register("m", model)
        registry.save("m", tmp_path / "v1.npz")
        model.projection.data[...] += 0.25
        registry.save("m", tmp_path / "v2.npz")
        reloaded = registry.load("m", tmp_path / "v2.npz")
        assert reloaded is entry  # same holder, weights swapped in place

    def test_load_different_architecture_requires_overwrite(self, model, tmp_path):
        from repro.core.serialization import save_seqfm

        other = SeqFM(SeqFMConfig(static_vocab_size=30, dynamic_vocab_size=20,
                                  max_seq_len=4, embed_dim=8, seed=0))
        path = tmp_path / "other.npz"
        save_seqfm(other, path)
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError, match="different architecture"):
            registry.load("m", path)
        replaced = registry.load("m", path, overwrite=True)
        assert replaced.model.config == other.config


# --------------------------------------------------------------------------- #
# Service layer: recommend head + summaries
# --------------------------------------------------------------------------- #
class TestRecommendService:
    def make_registry(self, model, cache_capacity=4096):
        registry = ModelRegistry(cache_capacity=cache_capacity)
        registry.register("m", model)
        registry.build_index("m", CATALOG, n_retrieve=NUM_ITEMS)
        return registry

    def payloads(self, count=3):
        result = []
        for user in range(count):
            profile, history = user_request(user=user)
            result.append({"static_indices": [int(x) for x in profile],
                           "history": history, "user_id": user, "k": 4})
        return result

    def test_recommend_serve_payload(self, model, engine):
        registry = self.make_registry(model)
        response = registry.serve("m", self.payloads(), head="recommend")
        assert response["head"] == "recommend"
        assert len(response["results"]) == 3
        assert response["stats"]["catalog_size"] == NUM_ITEMS
        assert response["stats"]["items_recommended"] == 12
        assert "cache_evictions" in response["stats"]
        profile, history = user_request(user=0)
        brute_ids, _ = engine.rank_topk(profile, CATALOG, 4, history)
        assert response["results"][0]["candidates"] == [int(i) for i in brute_ids]

    def test_execute_batch_dispatches_recommend_head(self, model):
        from repro.serving import execute_batch

        registry = self.make_registry(model)
        response = execute_batch(registry, "m", self.payloads(), head="recommend")
        assert response["head"] == "recommend" and len(response["results"]) == 3

    def test_recommend_serve_rejects_empty(self, model):
        registry = self.make_registry(model)
        with pytest.raises(ValueError):
            registry.serve("m", [], head="recommend")

    def test_serve_jsonl_recommend_head(self, model):
        registry = self.make_registry(model)
        lines = [json.dumps(self.payloads(1)[0]),
                 json.dumps(self.payloads(2)),
                 json.dumps({"history": [1, 2]})]  # missing static_indices
        output = io.StringIO()
        summary = serve_jsonl(registry, "m", io.StringIO("\n".join(lines) + "\n"),
                              output, head="recommend", k=4)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert summary.rows == 4 + 8 and summary.errors == 1 and summary.lines == 3
        assert len(responses[0]["candidates"]) == 4
        assert len(responses[1]["results"]) == 2
        assert "error" in responses[2]

    def test_serve_jsonl_recommend_without_index_errors_cleanly(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError, match="no item index"):
            serve_jsonl(registry, "m", io.StringIO(""), io.StringIO(),
                        head="recommend")

    def test_eviction_count_surfaces_in_stats(self, model):
        """Satellite: CacheStats evictions must reach the response stats."""
        registry = self.make_registry(model, cache_capacity=1)
        response = registry.serve("m", self.payloads(3), head="recommend")
        assert response["stats"]["cache_evictions"] >= 2
        assert registry.get("m").sequence_store.stats.evictions >= 2


# --------------------------------------------------------------------------- #
# CLI subcommands
# --------------------------------------------------------------------------- #
class TestRetrievalCli:
    @pytest.fixture
    def checkpoint(self, model, tmp_path):
        from repro.core.serialization import save_seqfm

        path = tmp_path / "model.npz"
        save_seqfm(model, path)
        return path

    def test_build_index_item_range(self, checkpoint, tmp_path, capsys):
        from repro.experiments.cli import main

        output = tmp_path / "items.npz"
        code = main(["build-index", "--checkpoint", str(checkpoint),
                     "--item-range", str(NUM_USERS), str(NUM_USERS + NUM_ITEMS),
                     "--output", str(output)])
        assert code == 0 and output.exists()
        assert f"{NUM_ITEMS} items" in capsys.readouterr().out
        assert ItemIndex.load(output).num_items == NUM_ITEMS

    def test_build_index_items_file(self, checkpoint, tmp_path, capsys):
        from repro.experiments.cli import main

        items = tmp_path / "items.json"
        items.write_text(json.dumps([int(i) for i in CATALOG[:20]]))
        output = tmp_path / "items.npz"
        code = main(["build-index", "--checkpoint", str(checkpoint),
                     "--items-file", str(items), "--output", str(output)])
        capsys.readouterr()
        assert code == 0
        assert ItemIndex.load(output).num_items == 20

    def test_build_index_rejects_out_of_vocab(self, checkpoint, tmp_path, capsys):
        from repro.experiments.cli import main

        code = main(["build-index", "--checkpoint", str(checkpoint),
                     "--item-range", "0", "1000",
                     "--output", str(tmp_path / "items.npz")])
        capsys.readouterr()
        assert code == 2

    def test_recommend_command_end_to_end(self, model, checkpoint, tmp_path, capsys):
        from repro.experiments.cli import main

        index_path = tmp_path / "items.npz"
        assert main(["build-index", "--checkpoint", str(checkpoint),
                     "--item-range", str(NUM_USERS), str(NUM_USERS + NUM_ITEMS),
                     "--output", str(index_path)]) == 0
        profile, history = user_request(user=2)
        requests = tmp_path / "users.json"
        requests.write_text(json.dumps([
            {"static_indices": [int(x) for x in profile], "history": history,
             "user_id": 2}
        ]))
        out_path = tmp_path / "recs.json"
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--index", str(index_path), "--requests", str(requests),
                     "--k", "5", "--n-retrieve", str(NUM_ITEMS),
                     "--output", str(out_path)])
        printed = capsys.readouterr().out
        assert code == 0 and "recommended 5 items" in printed
        payload = json.loads(out_path.read_text())
        engine = InferenceEngine(model)
        brute_ids, _ = engine.rank_topk(profile, CATALOG, 5, history)
        assert payload["results"][0]["candidates"] == [int(i) for i in brute_ids]

    def test_recommend_requires_index_option(self, checkpoint, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["recommend", "--checkpoint", str(checkpoint),
                  "--requests", str(tmp_path / "r.json")])

    def test_serve_index_flags_require_index(self, checkpoint, capsys):
        from repro.experiments.cli import run_serving

        code = run_serving("serve", ["--checkpoint", str(checkpoint),
                                     "--partitions", "8", "--n-probe", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "require --index" in captured.err

    def test_build_index_exact_backend_accepts_partition_count(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        registry.build_index("m", CATALOG, backend="exact", n_partitions=6,
                             n_retrieve=NUM_ITEMS)
        assert registry.get("m").index.n_partitions == 6
        profile, history = user_request()
        assert len(registry.recommend("m", profile, 4, history=history)) == 4

    def test_ivf_options_rejected_on_exact_backend(self, checkpoint, tmp_path,
                                                   capsys):
        from repro.experiments.cli import main

        index_path = tmp_path / "items.npz"
        assert main(["build-index", "--checkpoint", str(checkpoint),
                     "--item-range", str(NUM_USERS), str(NUM_USERS + NUM_ITEMS),
                     "--output", str(index_path)]) == 0
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--index", str(index_path), "--partitions", "8",
                     "--requests", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "--partitions" in captured.err and "ivf" in captured.err

    def test_recommend_ivf_backend(self, checkpoint, tmp_path, capsys):
        from repro.experiments.cli import main

        index_path = tmp_path / "items.npz"
        assert main(["build-index", "--checkpoint", str(checkpoint),
                     "--item-range", str(NUM_USERS), str(NUM_USERS + NUM_ITEMS),
                     "--output", str(index_path)]) == 0
        capsys.readouterr()  # drain the build-index output
        profile, history = user_request(user=1)
        requests = tmp_path / "users.json"
        requests.write_text(json.dumps([
            {"static_indices": [int(x) for x in profile], "history": history}
        ]))
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--index", str(index_path), "--requests", str(requests),
                     "--index-backend", "ivf", "--partitions", "5",
                     "--n-probe", "5", "--k", "3"])
        printed = capsys.readouterr().out
        assert code == 0
        assert len(json.loads(printed)["results"][0]["candidates"]) == 3
