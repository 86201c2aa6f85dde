"""Item indexes: snapshot a trained model's catalog into a searchable matrix.

The re-ranker (:meth:`repro.serving.engine.InferenceEngine.rank_candidates`)
is fast *per candidate list*, but somebody still has to supply the list — and
scoring every catalog item per request is exactly the linear-in-catalog cost
the two-stage architecture exists to avoid.  :class:`ItemIndex` snapshots the
candidate-dependent leaves of a trained SeqFM — the static embedding row and
static linear weight of each catalog item — into one contiguous
``(n_items, d + 1)`` matrix, so a whole catalog can be swept with matmuls
instead of model evaluations.

Retrieval scores are inner products ``v · [e_i, w_i]`` against an *augmented
query* ``v = [q, 1]`` (see :mod:`repro.retrieval.query`): the trailing ``1``
picks up each item's linear weight, so the bias column rides along in the
same matmul as the embedding similarity.  The index also carries a k-means
**partitioning** of the catalog (built once at snapshot time) that serves two
consumers: the IVF backend's inverted file, and the query encoder's
*per-partition calibration* — one exactly-scored representative item per
partition corrects the cluster-level error a globally linear surrogate cannot
express (``partition_offsets``, applied by both backends at search time).

Two search backends share the contract:

* :class:`ExactIndex` — blocked brute force
  (:func:`repro.nn.kernels.blocked_topk_matmul`); the correctness oracle.
* :class:`IVFIndex` — the inverted file over the index's partitions; queries
  probe the ``n_probe`` partitions whose centroids score highest, trading
  recall for a catalog-sublinear scan.  Recall against :class:`ExactIndex` is
  measured, not assumed (:func:`recall_at`, ``tests/test_retrieval.py``); the
  ``serve_recommend`` workload of ``bench/README.md`` times the search.

Both backends order results by ``(-score, catalog position)``; item ids are
sorted at build time, so at ``n_probe = n_partitions`` the IVF result is
*identical* to the exact one, ties included.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import kernels

PathLike = Union[str, Path]

#: npz key carrying the index format version.
_FORMAT_KEY = "__item_index_version__"
_FORMAT_VERSION = 2

#: npz keys of the optional partition block.
_PARTITION_KEYS = ("centroids", "assignments", "representative_positions")


def _lloyd_kmeans(
    points: np.ndarray, k: int, iterations: int, seed: int, block_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm; returns ``(centroids, assignments)``.

    Initialisation is a seeded sample of distinct catalog rows.  Empty
    clusters are re-seeded from the points furthest from their current
    centroid.  The *final* assignment can still leave a cluster empty (the
    last reassignment may orphan one, and duplicate points tie toward the
    lowest centroid index no matter where a centroid is re-seeded), so
    callers must tolerate empty clusters —
    :meth:`ItemIndex.build_partitions` compacts them away.
    """
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(points.shape[0], size=k, replace=False)].copy()
    assignments = kernels.kmeans_assign(points, centroids, block_size=block_size)
    for _ in range(iterations):
        counts = np.bincount(assignments, minlength=k)
        sums = np.stack(
            [
                np.bincount(assignments, weights=points[:, column], minlength=k)
                for column in range(points.shape[1])
            ],
            axis=1,
        )
        populated = counts > 0
        centroids[populated] = sums[populated] / counts[populated, None]
        empty = np.flatnonzero(~populated)
        if empty.size:
            # Re-seed each empty partition from a distinct point among the
            # worst-served ones (largest residual to its current centroid).
            residuals = ((points - centroids[assignments]) ** 2).sum(axis=1)
            worst = np.argsort(-residuals)[: empty.size]
            centroids[empty] = points[worst]
        new_assignments = kernels.kmeans_assign(points, centroids, block_size=block_size)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids, assignments


class ItemIndex:
    """A contiguous snapshot of catalog-item representations.

    Attributes
    ----------
    item_ids:
        ``(n_items,)`` int64 static-vocabulary indices of the catalog items,
        sorted ascending (the build sorts; order is part of the tie-break
        contract of the search backends).
    vectors:
        ``(n_items, d + 1)`` float64 matrix: columns ``[:d]`` are the item's
        static embedding row, column ``d`` its static linear weight.
    probe_positions:
        ``(p,)`` int64 positions into ``item_ids``: the probe items the
        query encoder scores exactly to fit its linear query (see
        :class:`repro.retrieval.query.QueryEncoder`).
    centroids / assignments / representative_positions:
        The optional partition block (see :meth:`build_partitions`):
        ``(n_partitions, d + 1)`` k-means centroids, the ``(n_items,)``
        partition of each catalog row, and the position of each partition's
        representative (the member nearest its centroid).  ``None`` until
        built; persisted by :meth:`save`.

    An index is a *snapshot*: rebuilding after a checkpoint reload is the
    caller's job (:meth:`repro.serving.registry.ModelRegistry.build_index`
    does it in one call).
    """

    def __init__(
        self,
        item_ids: np.ndarray,
        vectors: np.ndarray,
        probe_positions: np.ndarray,
        centroids: Optional[np.ndarray] = None,
        assignments: Optional[np.ndarray] = None,
        representative_positions: Optional[np.ndarray] = None,
    ):
        self.item_ids = np.asarray(item_ids, dtype=np.int64).reshape(-1)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.probe_positions = np.asarray(probe_positions, dtype=np.int64).reshape(-1)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.item_ids.shape[0]:
            raise ValueError(
                f"vectors must have shape (n_items, d + 1), got {self.vectors.shape} "
                f"for {self.item_ids.shape[0]} items"
            )
        if self.vectors.shape[1] < 2:
            raise ValueError("vectors need at least one embedding column plus the weight")
        if self.probe_positions.size and (
            self.probe_positions.min() < 0
            or self.probe_positions.max() >= self.item_ids.shape[0]
        ):
            raise IndexError("probe_positions outside the catalog")
        self.centroids = None if centroids is None else np.asarray(centroids, dtype=np.float64)
        self.assignments = (
            None if assignments is None else np.asarray(assignments, dtype=np.int64)
        )
        self.representative_positions = (
            None
            if representative_positions is None
            else np.asarray(representative_positions, dtype=np.int64)
        )
        if (self.centroids is None) != (self.assignments is None) or (
            (self.centroids is None) != (self.representative_positions is None)
        ):
            raise ValueError(
                "centroids, assignments and representative_positions must be "
                "given together (or all omitted)"
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        return self.item_ids.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality d (the augmented vectors are d + 1 wide)."""
        return self.vectors.shape[1] - 1

    @property
    def embeddings(self) -> np.ndarray:
        """View of the ``(n_items, d)`` embedding columns."""
        return self.vectors[:, :-1]

    @property
    def weights(self) -> np.ndarray:
        """View of the ``(n_items,)`` static linear-weight column."""
        return self.vectors[:, -1]

    @property
    def probe_item_ids(self) -> np.ndarray:
        return self.item_ids[self.probe_positions]

    @property
    def has_partitions(self) -> bool:
        return self.centroids is not None

    @property
    def n_partitions(self) -> int:
        return 0 if self.centroids is None else self.centroids.shape[0]

    def __len__(self) -> int:
        return self.num_items

    def __repr__(self) -> str:
        return (
            f"ItemIndex(items={self.num_items}, d={self.dim}, "
            f"probes={self.probe_positions.shape[0]}, "
            f"partitions={self.n_partitions or None})"
        )

    # ------------------------------------------------------------------ #
    # Build / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(
        cls,
        model,
        item_ids: Sequence[int],
        num_probes: Optional[int] = None,
        seed: int = 0,
        partition: bool = True,
        n_partitions: Optional[int] = None,
    ) -> "ItemIndex":
        """Snapshot ``item_ids`` (static-vocabulary indices) out of a SeqFM.

        ``model`` may be a :class:`~repro.core.model.SeqFM` or anything with a
        ``model`` attribute holding one (an
        :class:`~repro.serving.engine.InferenceEngine`).  Ids are validated
        against the static vocabulary, deduplicated and sorted.  ``num_probes``
        defaults to ``min(n_items, max(32, 4 · d))`` — enough rows to
        overdetermine the query encoder's ``d + 1`` unknowns several times
        over; probes are a seeded uniform sample of the catalog.  Unless
        ``partition=False``, the k-means partition block is built immediately
        (:meth:`build_partitions`), enabling per-partition query calibration
        and the IVF backend without a second pass.
        """
        model = getattr(model, "model", model)
        ids = np.unique(np.asarray(list(item_ids), dtype=np.int64).reshape(-1))
        if ids.size == 0:
            raise ValueError("cannot build an index over zero items")
        vocab = model.config.static_vocab_size
        if ids.min() < 0 or ids.max() >= vocab:
            raise IndexError(
                f"item id out of static vocabulary [0, {vocab}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        embeddings = model.static_embedding.weight.data[ids]
        weights = model.static_linear.data[ids]
        vectors = np.concatenate([embeddings, weights[:, None]], axis=1)
        d = embeddings.shape[1]
        if num_probes is None:
            num_probes = min(ids.size, max(32, 4 * d))
        num_probes = max(1, min(int(num_probes), ids.size))
        rng = np.random.default_rng(seed)
        probe_positions = np.sort(rng.choice(ids.size, size=num_probes, replace=False))
        index = cls(item_ids=ids, vectors=vectors, probe_positions=probe_positions)
        if partition:
            index.build_partitions(n_partitions=n_partitions, seed=seed)
        return index

    def build_partitions(
        self,
        n_partitions: Optional[int] = None,
        iterations: int = 8,
        seed: int = 0,
        block_size: int = 8192,
    ) -> "ItemIndex":
        """Cluster the catalog into ``n_partitions`` k-means partitions.

        Defaults to ``⌈√n_items⌉`` partitions.  Also records each partition's
        **representative** — the member nearest its centroid — which the
        query encoder scores exactly to calibrate per-partition offsets.
        An existing partition block is reused when ``n_partitions`` is
        ``None`` (whatever was built — or loaded from disk — wins) or equal
        to its count; pass a different count to force a rebuild.  Returns
        ``self`` for chaining.  Partitions k-means leaves empty are compacted
        away, so the stored block never contains an empty partition (the
        probing arithmetic and the representative calibration require it).
        """
        if self.has_partitions and (
            n_partitions is None or self.n_partitions == int(n_partitions)
        ):
            return self
        if n_partitions is None:
            n_partitions = int(np.ceil(np.sqrt(self.num_items)))
        n_partitions = max(1, min(int(n_partitions), self.num_items))
        centroids, assignments = _lloyd_kmeans(
            self.vectors, n_partitions, iterations, seed, block_size
        )
        counts = np.bincount(assignments, minlength=n_partitions)
        if (counts == 0).any():
            populated = np.flatnonzero(counts > 0)
            remap = np.full(n_partitions, -1, dtype=np.int64)
            remap[populated] = np.arange(populated.size)
            centroids = centroids[populated]
            assignments = remap[assignments]
            n_partitions = populated.size
        representatives = np.empty(n_partitions, dtype=np.int64)
        for partition in range(n_partitions):
            members = np.flatnonzero(assignments == partition)
            residuals = ((self.vectors[members] - centroids[partition]) ** 2).sum(axis=1)
            representatives[partition] = members[residuals.argmin()]
        self.centroids = centroids
        self.assignments = assignments
        self.representative_positions = representatives
        return self

    def save(self, path: PathLike) -> Path:
        """Write the snapshot (partition block included) as compressed ``.npz``.

        The write is atomic (temp file → fsync → rename): a crash mid-save
        can never leave a torn archive where a valid index used to be.
        """
        from repro.core.serialization import atomic_write

        path = Path(path)
        payload = {
            "item_ids": self.item_ids,
            "vectors": self.vectors,
            "probe_positions": self.probe_positions,
            _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64),
        }
        if self.has_partitions:
            payload["centroids"] = self.centroids
            payload["assignments"] = self.assignments
            payload["representative_positions"] = self.representative_positions
        with atomic_write(path) as handle:
            np.savez_compressed(handle, **payload)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ItemIndex":
        """Rebuild an index saved with :meth:`save`."""
        path = Path(path)
        with np.load(path) as archive:
            if _FORMAT_KEY not in archive.files:
                raise ValueError(f"{path} is not an ItemIndex archive")
            version = int(archive[_FORMAT_KEY][0])
            if version > _FORMAT_VERSION:
                raise ValueError(
                    f"{path} has index format v{version}; this build reads "
                    f"≤ v{_FORMAT_VERSION}"
                )
            partition_block = {
                key: archive[key] for key in _PARTITION_KEYS if key in archive.files
            }
            return cls(
                item_ids=archive["item_ids"],
                vectors=archive["vectors"],
                probe_positions=archive["probe_positions"],
                centroids=partition_block.get("centroids"),
                assignments=partition_block.get("assignments"),
                representative_positions=partition_block.get("representative_positions"),
            )


def _top_n_by_score_then_position(
    scores: np.ndarray, positions: np.ndarray, n: int
) -> np.ndarray:
    """Indices of the top-``n`` entries under ``(-score, position)`` order.

    Equivalent to ``np.lexsort((positions, -scores))[:n]`` but partial: an
    O(m) ``argpartition`` finds the score boundary, position ties at the
    boundary are resolved by another partial selection, and only the ≤ n
    survivors pay for a sort.  The full lexsort over every scanned row was
    the single largest cost of an IVF probe at 100k items.
    """
    m = scores.shape[0]
    if n >= m:
        return np.lexsort((positions, -scores))
    boundary = scores[np.argpartition(-scores, n - 1)[n - 1]]
    above = np.flatnonzero(scores > boundary)
    need = n - above.size
    tied = np.flatnonzero(scores == boundary)
    if 0 < need < tied.size:
        tied = tied[np.argpartition(positions[tied], need - 1)[:need]]
    elif need <= 0:
        tied = tied[:0]
    survivors = np.concatenate([above, tied])
    order = survivors[np.lexsort((positions[survivors], -scores[survivors]))]
    return order[:n]


def _validate_query(index: ItemIndex, query: np.ndarray) -> np.ndarray:
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != index.vectors.shape[1]:
        raise ValueError(
            f"query must be the augmented (d + 1,) = ({index.vectors.shape[1]},) "
            f"vector, got shape {query.shape}"
        )
    return query


def _validate_offsets(
    index: ItemIndex, partition_offsets: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    if partition_offsets is None:
        return None
    if not index.has_partitions:
        raise ValueError("partition_offsets given but the index has no partitions")
    offsets = np.asarray(partition_offsets, dtype=np.float64).reshape(-1)
    if offsets.shape[0] != index.n_partitions:
        raise ValueError(
            f"partition_offsets must have one entry per partition "
            f"({index.n_partitions}), got {offsets.shape[0]}"
        )
    return offsets


class ExactIndex:
    """Blocked brute-force search over an :class:`ItemIndex` — the oracle.

    ``search`` computes every item's inner product with the augmented query
    in row blocks (:func:`repro.nn.kernels.blocked_topk_matmul`), so memory
    stays flat in the catalog size while the result is exactly the global
    top-n, ties broken toward the lower catalog position (= lower item id,
    since ids are sorted at build).  ``partition_offsets`` — the query
    encoder's per-partition calibration — enter as a per-row bias inside the
    same blocked scan.
    """

    def __init__(self, index: ItemIndex, block_size: int = 8192):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.index = index
        self.block_size = block_size

    def search(
        self,
        query: np.ndarray,
        n: int,
        partition_offsets: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``n`` catalog items by retrieval score: ``(item_ids, scores)``."""
        query = _validate_query(self.index, query)
        offsets = _validate_offsets(self.index, partition_offsets)
        row_bias = None if offsets is None else offsets[self.index.assignments]
        positions, scores = kernels.blocked_topk_matmul(
            query, self.index.vectors, n,
            block_size=self.block_size, row_bias=row_bias,
        )
        return self.index.item_ids[positions], scores

    def __repr__(self) -> str:
        return f"ExactIndex({self.index!r}, block_size={self.block_size})"


class IVFIndex:
    """Inverted-file search over the index's k-means partitions.

    A query ranks the partition centroids and scans only the members of the
    best ``n_probe`` partitions, so the per-query cost is
    ``O(n_partitions · d + (n_probe / n_partitions) · n_items · d)`` instead
    of the exact scan's ``O(n_items · d)``.  Centroid ranking uses the
    centroid inner product plus the query's per-partition calibration offset
    when given — the same score model the members are ranked with.

    The partition block lives on the :class:`ItemIndex` (shared with the
    query encoder's calibration); constructing an ``IVFIndex`` builds it on
    demand via :meth:`ItemIndex.build_partitions`.

    Defaults: ``n_partitions = ⌈√n_items⌉`` and ``n_probe = ⌈n_partitions/4⌉``
    — the operating point the recall tests pin at ≥ 0.95 recall@100 on
    synthetic catalogs.  ``n_probe = n_partitions`` scans every partition and
    returns *exactly* the :class:`ExactIndex` result (parity-tested), so the
    trade-off dial goes all the way to "off".  When the probed partitions
    hold fewer than ``n`` members, probing continues in centroid order until
    they hold ``min(n, n_items)``: IVF never answers fewer items than exact
    search.
    """

    def __init__(
        self,
        index: ItemIndex,
        n_partitions: Optional[int] = None,
        n_probe: Optional[int] = None,
        iterations: int = 8,
        seed: int = 0,
        block_size: int = 8192,
    ):
        index.build_partitions(n_partitions=n_partitions, iterations=iterations,
                               seed=seed, block_size=block_size)
        self.index = index
        self.n_partitions = index.n_partitions
        if n_probe is None:
            n_probe = int(np.ceil(self.n_partitions / 4))
        if not (1 <= n_probe <= self.n_partitions):
            raise ValueError(
                f"n_probe must be in [1, {self.n_partitions}], got {n_probe}"
            )
        self.n_probe = int(n_probe)
        self.block_size = block_size
        # Snapshot the partition block: build_partitions *replaces* the
        # index's arrays on a rebuild (it never mutates them in place), so
        # holding references keeps this instance internally consistent even
        # if another consumer later re-partitions the shared ItemIndex with a
        # different count.  (Offsets fitted against a different block are
        # rejected by the length check in search.)
        self._centroids = index.centroids
        self._assignments = index.assignments
        # Inverted file: catalog positions grouped by partition, stored as one
        # ordered array plus offsets (members of partition p are
        # _members[_offsets[p]:_offsets[p + 1]], ascending positions).  The
        # vectors are *copied* into that partition-major order so a probed
        # partition is scanned as a contiguous matmul slice — a per-query
        # fancy-indexed gather of the member rows would cost more than the
        # flops it saves.  (One extra copy of the catalog matrix, accepted.)
        order = np.argsort(self._assignments, kind="stable")
        self._members = order.astype(np.int64)
        self._counts = np.bincount(self._assignments, minlength=self.n_partitions)
        self._offsets = np.concatenate([[0], np.cumsum(self._counts)]).astype(np.int64)
        self._partition_major_vectors = np.ascontiguousarray(index.vectors[self._members])

    @property
    def centroids(self) -> np.ndarray:
        """The centroid block this instance was built against (a snapshot)."""
        return self._centroids

    def search(
        self,
        query: np.ndarray,
        n: int,
        partition_offsets: Optional[np.ndarray] = None,
        n_probe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``n`` items from the ``n_probe`` best partitions (more
        partitions when those hold fewer than ``n`` members).

        ``n_probe`` overrides the instance default per call (the recall/latency
        dial).  Results are ordered by ``(-score, catalog position)`` — the
        same contract as :meth:`ExactIndex.search`.
        """
        query = _validate_query(self.index, query)
        offsets = None
        if partition_offsets is not None:
            # Validate against *this instance's* partition count, not the
            # index's live block — offsets fitted after a re-partition of the
            # shared index must fail loudly, not silently mis-calibrate.
            offsets = np.asarray(partition_offsets, dtype=np.float64).reshape(-1)
            if offsets.shape[0] != self.n_partitions:
                raise ValueError(
                    f"partition_offsets must have one entry per partition "
                    f"({self.n_partitions}), got {offsets.shape[0]}"
                )
        if n < 1:
            raise ValueError("n must be at least 1")
        probe = self.n_probe if n_probe is None else int(n_probe)
        if not (1 <= probe <= self.n_partitions):
            raise ValueError(f"n_probe must be in [1, {self.n_partitions}], got {probe}")
        centroid_scores = self._centroids @ query
        if offsets is not None:
            centroid_scores = centroid_scores + offsets
        probed = kernels.top_k(centroid_scores, probe)
        need = min(n, self._members.size)
        if self._counts[probed].sum() < need:
            # The best partitions hold fewer than n members: keep probing in
            # centroid order, so IVF answers as many items as exact search.
            ranked = kernels.top_k(centroid_scores, self.n_partitions)
            covered = np.cumsum(self._counts[ranked])
            probed = ranked[: int(np.searchsorted(covered, need)) + 1]
        position_chunks = []
        score_chunks = []
        for partition in probed:
            lo, hi = self._offsets[partition], self._offsets[partition + 1]
            chunk = self._partition_major_vectors[lo:hi] @ query
            if offsets is not None:
                chunk = chunk + offsets[partition]
            position_chunks.append(self._members[lo:hi])
            score_chunks.append(chunk)
        positions = np.concatenate(position_chunks)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        scores = np.concatenate(score_chunks)
        order = _top_n_by_score_then_position(scores, positions, n)
        chosen = positions[order]
        return self.index.item_ids[chosen], scores[order]

    def __repr__(self) -> str:
        return (
            f"IVFIndex({self.index!r}, n_partitions={self.n_partitions}, "
            f"n_probe={self.n_probe})"
        )


def recall_at(reference_ids: np.ndarray, retrieved_ids: np.ndarray) -> float:
    """Fraction of ``reference_ids`` present in ``retrieved_ids``.

    The standard recall@N diagnostic: ``reference_ids`` is the exact top-N,
    ``retrieved_ids`` an approximate backend's top-N for the same query.
    """
    reference = np.asarray(reference_ids).reshape(-1)
    if reference.size == 0:
        return 1.0
    hits = np.isin(reference, np.asarray(retrieved_ids).reshape(-1)).sum()
    return float(hits) / float(reference.size)
