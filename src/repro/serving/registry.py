"""Model registry: named, checkpoint-backed models with task endpoints.

The registry is the front door of the serving runtime.  It loads SeqFM
checkpoints written by :func:`repro.core.serialization.save_seqfm` (which
embed their own configuration, so no side-channel is needed), wraps each model
in an :class:`~repro.serving.engine.InferenceEngine`, and exposes the three
task endpoints of the paper — ``rank`` / ``classify`` / ``regress`` —
mirroring the task heads in :mod:`repro.core.tasks`:

* :meth:`ModelRegistry.rank` — raw scores, higher = better candidate
  (what :class:`~repro.core.tasks.RankingTask` sorts by);
* :meth:`ModelRegistry.classify` — sigmoid click probabilities
  (:meth:`~repro.core.tasks.ClassificationTask.predict_probability`);
* :meth:`ModelRegistry.regress` — predicted ratings
  (:class:`~repro.core.tasks.RegressionTask` predictions);
* :meth:`ModelRegistry.rank_topk` — top-K over a candidate list through the
  candidate-deduplicated ranking fast path
  (:meth:`~repro.serving.engine.InferenceEngine.rank_candidates`);
* :meth:`ModelRegistry.recommend` — top-K over the *whole catalog* through the
  two-stage retrieve → rank pipeline (:mod:`repro.retrieval`), after an item
  index is built (:meth:`ModelRegistry.build_index`) or loaded from disk
  (:meth:`ModelRegistry.load_index`).

Reloading a checkpoint into an existing name swaps the weights in place; the
engine reads parameters by reference, so in-flight handles keep working.
Registering or architecture-replacing over an existing name requires
``overwrite=True`` — silent replacement is an error, not a default.  A model
with a NaN or infinite parameter is refused at :meth:`ModelRegistry.register`
and :meth:`ModelRegistry.load` (and so at the online promotion's hot-swap):
it would serve non-finite scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.model import SeqFM
from repro.core.serialization import load_seqfm, save_seqfm
from repro.data.features import FeatureBatch
from repro.serving.batcher import (
    MicroBatcher,
    RankedCandidates,
    RankRequest,
    RecommendRequest,
    ScoreRequest,
)
from repro.serving.cache import UserSequenceStore
from repro.serving.engine import InferenceEngine

if TYPE_CHECKING:  # pragma: no cover — import cycle: retrieval imports the engine
    from repro.online.promotion import ModelLineage
    from repro.retrieval.index import ItemIndex
    from repro.retrieval.pipeline import RetrievePipeline
    from repro.serving.protocol import HeadRegistry

PathLike = Union[str, Path]


def _require_finite(model: SeqFM, what: str) -> None:
    """Raise ``ValueError`` naming the first parameter with a NaN or ±inf."""
    for name, parameter in model.named_parameters():
        if not np.isfinite(parameter.data).all():
            raise ValueError(f"{what} has a non-finite value in parameter {name!r}; "
                             "a diverged model is not served")


class OrphanedIndexWarning(UserWarning):
    """A same-config hot-swap dropped the model's attached item index.

    The index is a *snapshot* of the old weights, so serving it against the
    new ones would silently degrade retrieval quality; the registry drops it
    instead and emits this structured warning.  The promotion path avoids
    the orphaning entirely by passing ``rebuild_index=True`` to
    :meth:`ModelRegistry.load` (or calling
    :meth:`ModelRegistry.rebuild_index` afterwards).
    """


@dataclass
class RegisteredModel:
    """A named model with its engine and serving infrastructure."""

    name: str
    model: SeqFM
    engine: InferenceEngine
    #: The user-sequence store; :meth:`ModelRegistry.enable_durability`
    #: swaps in a same-surface
    #: :class:`~repro.serving.durability.DurableSequenceStore`.
    sequence_store: UserSequenceStore
    source: Optional[Path] = None
    #: Catalog snapshot for two-stage retrieval; attached by
    #: :meth:`ModelRegistry.build_index` / :meth:`ModelRegistry.load_index`.
    index: Optional[ItemIndex] = None
    #: The retrieve → rank pipeline over :attr:`index` (backend-specific).
    retriever: Optional[RetrievePipeline] = None
    #: How :attr:`index` was attached (backend, fan-out, backend options,
    #: build seed) — enough for :meth:`ModelRegistry.rebuild_index` to
    #: re-snapshot the same catalog from the current weights.
    index_spec: Optional[dict] = field(default=None, repr=False)
    #: Version lineage attached by the online promotion pipeline
    #: (:class:`repro.online.promotion.ModelLineage`); surfaced by the
    #: ``status`` head as the ``retrain`` block.
    lineage: Optional[ModelLineage] = field(default=None, repr=False)

    def batcher(self, max_batch_size: int = 256, head: str = "score",
                heads: Optional["HeadRegistry"] = None) -> MicroBatcher:
        """Build a micro-batcher bound to one of the registered serving heads.

        Dispatches through the :class:`~repro.serving.protocol.HeadRegistry`
        (the process default unless ``heads`` is given): the head object
        validates this entry (e.g. ``recommend`` requires an attached item
        index) and picks the engine endpoint its batcher scores through.
        Every batcher also carries the engine's **rank head**
        (``MicroBatcher.rank``/``rank_all``) and — when an item index is
        attached — the **recommend head**
        (``MicroBatcher.recommend``/``recommend_all``), sharing this model's
        user-sequence store across all of them.
        """
        from repro.serving.protocol import default_heads

        registry = heads if heads is not None else default_heads()
        head_obj = registry.get(head)
        head_obj.validate_entry(self)
        return MicroBatcher(
            head_obj.score_fn(self),
            max_batch_size=max_batch_size,
            max_seq_len=self.model.config.max_seq_len,
            sequence_store=self.sequence_store,
            rank_fn=self.engine.rank_topk,
            recommend_fn=(
                self.retriever.retrieve_then_rank if self.retriever is not None else None
            ),
        )


class ModelRegistry:
    """Keep trained models addressable by name and serve the task endpoints.

    Parameters
    ----------
    cache_capacity:
        Capacity of the per-model :class:`UserSequenceStore` (number of users
        whose encoded histories stay resident).
    cache_ttl:
        Optional time-to-live in seconds for stored user sequences — the
        staleness bound for server-side state maintained by the ``update``
        serving head (``None``: never expire).
    """

    def __init__(self, cache_capacity: int = 4096,
                 cache_ttl: Optional[float] = None):
        self.cache_capacity = cache_capacity
        self.cache_ttl = cache_ttl
        self._entries: Dict[str, RegisteredModel] = {}

    def _make_sequence_store(self, max_seq_len: int) -> UserSequenceStore:
        return UserSequenceStore(max_seq_len, capacity=self.cache_capacity,
                                 ttl=self.cache_ttl)

    # ------------------------------------------------------------------ #
    # Registration / persistence
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        model: SeqFM,
        source: Optional[Path] = None,
        overwrite: bool = False,
    ) -> RegisteredModel:
        """Register an in-memory model under ``name``.

        Registering over an existing name silently dropping its engine,
        caches and attached index is almost always a deployment mistake, so
        it raises unless ``overwrite=True`` is passed explicitly.
        """
        if name in self._entries and not overwrite:
            raise ValueError(
                f"a model is already registered as {name!r}; pass overwrite=True "
                "to replace it (its engine, caches and item index are dropped), "
                "or load() a checkpoint to hot-swap weights in place"
            )
        _require_finite(model, f"the model for {name!r}")
        entry = RegisteredModel(
            name=name,
            model=model,
            engine=InferenceEngine(model),
            sequence_store=self._make_sequence_store(model.config.max_seq_len),
            source=Path(source) if source is not None else None,
        )
        self._entries[name] = entry
        return entry

    def load(self, name: str, path: PathLike, overwrite: bool = False,
             rebuild_index: bool = False) -> RegisteredModel:
        """Load a self-describing SeqFM checkpoint and register it.

        Loading into an existing name whose model has the **same
        architecture** hot-swaps the weights in place — the engine and caches
        survive; that is the documented reload path and needs no flag.  An
        attached item index snapshots the *old* weights, so a hot-swap either
        rebuilds it from the new weights in the same step
        (``rebuild_index=True``, the promotion path) or drops it and emits an
        :class:`OrphanedIndexWarning` — silent degradation is never an
        option.  Loading a checkpoint with a **different architecture** over
        an existing name replaces the whole entry and requires
        ``overwrite=True``.
        """
        path = Path(path)
        fresh = load_seqfm(path)
        _require_finite(fresh, str(path))
        existing = self._entries.get(name)
        if existing is not None and existing.model.config == fresh.config:
            existing.model.load_state_dict(fresh.state_dict())
            existing.source = path
            if existing.index is not None:
                if rebuild_index:
                    self.rebuild_index(name)
                else:
                    existing.index = None
                    existing.retriever = None
                    warnings.warn(OrphanedIndexWarning(
                        f"hot-swapping {name!r} from {path} dropped its "
                        "attached item index (the index snapshots the old "
                        "weights); pass rebuild_index=True or call "
                        "ModelRegistry.rebuild_index() to re-snapshot it"
                    ), stacklevel=2)
            return existing
        if existing is not None and not overwrite:
            raise ValueError(
                f"{path} holds a different architecture than the model registered "
                f"as {name!r}; pass overwrite=True to replace the entry"
            )
        return self.register(name, fresh, source=path, overwrite=overwrite)

    def save(self, name: str, path: PathLike) -> Path:
        """Checkpoint a registered model via :func:`save_seqfm`."""
        entry = self.get(name)
        save_seqfm(entry.model, path)
        return Path(path)

    # ------------------------------------------------------------------ #
    # Item index management (two-stage retrieval)
    # ------------------------------------------------------------------ #
    def build_index(
        self,
        name: str,
        item_ids: Sequence[int],
        num_probes: Optional[int] = None,
        seed: int = 0,
        backend: str = "exact",
        n_retrieve: Optional[int] = None,
        n_partitions: Optional[int] = None,
        **backend_options,
    ) -> ItemIndex:
        """Snapshot ``item_ids`` out of a registered model and attach the index.

        ``item_ids`` are static-vocabulary indices of the catalog (for the
        standard encoder layout, ``range(num_users, num_users + num_objects)``
        — see :class:`repro.data.features.FeatureEncoder`).  The snapshot is
        wrapped in a search backend and a
        :class:`~repro.retrieval.pipeline.RetrievePipeline`, enabling the
        ``recommend`` endpoints.  ``n_partitions`` sets the k-means partition
        count of the snapshot (query calibration for every backend, the
        inverted file for ``"ivf"``) — the catalog is clustered exactly once,
        at that count.  ``backend_options`` go to the backend constructor
        (e.g. ``n_probe`` for ``"ivf"``, ``block_size`` for either).
        """
        from repro.retrieval.index import ItemIndex

        entry = self.get(name)
        index = ItemIndex.from_model(
            entry.model, item_ids, num_probes=num_probes, seed=seed,
            n_partitions=n_partitions,
        )
        attached = self.attach_index(name, index, backend=backend,
                                     n_retrieve=n_retrieve, **backend_options)
        entry.index_spec["seed"] = seed
        return attached

    def attach_index(
        self,
        name: str,
        index: ItemIndex,
        backend: str = "exact",
        n_retrieve: Optional[int] = None,
        **backend_options,
    ) -> ItemIndex:
        """Attach an existing :class:`ItemIndex` and build its pipeline."""
        from repro.retrieval.index import ExactIndex, IVFIndex
        from repro.retrieval.pipeline import RetrievePipeline

        entry = self.get(name)
        if backend == "exact":
            searcher = ExactIndex(index, **backend_options)
        elif backend == "ivf":
            searcher = IVFIndex(index, **backend_options)
        else:
            raise ValueError(f"unknown index backend {backend!r}; expected exact/ivf")
        pipeline_options = {} if n_retrieve is None else {"n_retrieve": n_retrieve}
        previous = entry.index_spec or {}
        entry.index = index
        entry.retriever = RetrievePipeline(entry.engine, searcher, **pipeline_options)
        entry.index_spec = {
            "backend": backend,
            "n_retrieve": n_retrieve,
            "backend_options": dict(backend_options),
            "seed": previous.get("seed", 0),
        }
        return index

    def rebuild_index(self, name: str) -> ItemIndex:
        """Re-snapshot ``name``'s catalog from its *current* weights.

        The promotion-pipeline half of a hot-swap: the attached index keeps
        the same item ids, probe count, partition count, backend and fan-out
        (recorded in :attr:`RegisteredModel.index_spec` at attach time), but
        its vectors are taken from the weights registered *now*.  Raises if
        no index is attached — there is nothing to rebuild from.
        """
        from repro.retrieval.index import ItemIndex

        entry = self.get(name)
        if entry.index is None:
            raise ValueError(
                f"model {name!r} has no item index to rebuild; build one first"
            )
        spec = entry.index_spec or {}
        old = entry.index
        index = ItemIndex.from_model(
            entry.model, old.item_ids,
            num_probes=int(old.probe_positions.shape[0]) or None,
            seed=spec.get("seed", 0),
            n_partitions=old.n_partitions or None,
        )
        return self.attach_index(name, index,
                                 backend=spec.get("backend", "exact"),
                                 n_retrieve=spec.get("n_retrieve"),
                                 **spec.get("backend_options", {}))

    def save_index(self, name: str, path: PathLike) -> Path:
        """Persist a registered model's item index next to its checkpoint."""
        entry = self.get(name)
        if entry.index is None:
            raise ValueError(
                f"model {name!r} has no item index to save; build one first"
            )
        return entry.index.save(path)

    def load_index(
        self,
        name: str,
        path: PathLike,
        backend: str = "exact",
        n_retrieve: Optional[int] = None,
        **backend_options,
    ) -> ItemIndex:
        """Load an :class:`ItemIndex` archive and attach it to ``name``.

        The index must have been built from the *same* weights the registered
        model currently holds — the archive stores a snapshot, not a
        reference, and a mismatched snapshot silently degrades retrieval
        quality; the dimensionality at least is validated here.
        """
        from repro.retrieval.index import ItemIndex

        index = ItemIndex.load(path)
        entry = self.get(name)
        if index.dim != entry.model.config.embed_dim:
            raise ValueError(
                f"index at {path} has embedding dim {index.dim}, model {name!r} "
                f"expects {entry.model.config.embed_dim}"
            )
        return self.attach_index(name, index, backend=backend,
                                 n_retrieve=n_retrieve, **backend_options)

    def enable_durability(
        self,
        name: str,
        directory: PathLike,
        fsync_every: int = 256,
        injector=None,
    ):
        """Swap ``name``'s sequence store for a WAL-backed durable one.

        Builds a :class:`~repro.serving.durability.DurableSequenceStore` in
        ``directory`` — recovering any prior snapshot + write-ahead log it
        finds there — with this registry's cache geometry (capacity, TTL),
        and installs it as the model's store.  All serving paths (heads,
        batchers, the router) pick it up transparently; returns the durable
        store so callers can ``checkpoint()``/``close()`` it at shutdown.
        """
        from repro.serving.durability import DurableSequenceStore

        entry = self.get(name)
        durable = DurableSequenceStore(
            directory,
            entry.model.config.max_seq_len,
            capacity=self.cache_capacity,
            ttl=self.cache_ttl,
            fsync_every=fsync_every,
            injector=injector,
        )
        entry.sequence_store = durable
        return durable

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str) -> RegisteredModel:
        if name not in self._entries:
            raise KeyError(
                f"no model registered as {name!r}; available: {sorted(self._entries)}"
            )
        return self._entries[name]

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # Generic serving endpoint (the protocol front door)
    # ------------------------------------------------------------------ #
    def serve(
        self,
        name: str,
        payloads: Sequence[dict],
        head: str = "score",
        k: Optional[int] = None,
        n_retrieve: Optional[int] = None,
        max_batch_size: int = 256,
    ) -> dict:
        """Answer a batch of JSON request payloads through any registered head.

        ``head`` names an entry of the
        :class:`~repro.serving.protocol.HeadRegistry` (``score`` / ``rank`` / ``classify`` / ``regress`` / ``rank-topk`` /
        ``recommend`` / ``update`` out of the box), ``k``/``n_retrieve`` are
        defaults for requests without their own.  Returns the head's response
        payload — results plus batching and cache statistics.
        """
        from repro.serving.service import execute_batch

        return execute_batch(self, name, payloads, head=head, k=k,
                             n_retrieve=n_retrieve, max_batch_size=max_batch_size)

    # ------------------------------------------------------------------ #
    # Task endpoints (mirror repro.core.tasks)
    # ------------------------------------------------------------------ #
    def rank(self, name: str, batch: FeatureBatch) -> np.ndarray:
        """Raw candidate scores; sort descending to rank (RankingTask)."""
        return self.get(name).engine.score(batch)

    def classify(self, name: str, batch: FeatureBatch) -> np.ndarray:
        """Click probabilities σ(ŷ) (ClassificationTask.predict_probability)."""
        return self.get(name).engine.classify(batch)

    def regress(self, name: str, batch: FeatureBatch) -> np.ndarray:
        """Predicted ratings (RegressionTask predictions)."""
        return self.get(name).engine.regress(batch)

    def rank_requests(
        self, name: str, requests: List[ScoreRequest], max_batch_size: int = 256
    ) -> np.ndarray:
        """Micro-batched raw scores for a list of requests, in request order."""
        return self.get(name).batcher(max_batch_size, head="score").score_all(requests)

    def rank_topk(
        self,
        name: str,
        static_profile: Sequence[int],
        candidates: Sequence[int],
        k: int,
        history: Sequence[int] = (),
        user_id: int = -1,
    ) -> RankedCandidates:
        """Top-k candidates for one user through the ranking fast path.

        ``static_profile``/``candidates``/``history`` are model-vocabulary
        indices (the mapping from raw ids is
        :meth:`repro.data.features.FeatureEncoder.encode_candidates`).  The
        user's history encoding is cached in the model's sequence store when
        ``user_id ≥ 0``.  Returns candidates and raw scores, best first.
        """
        request = RankRequest(
            static_indices=static_profile,
            candidates=candidates,
            history=history,
            user_id=user_id,
        )
        return self.get(name).batcher(head="rank").rank(request, k)

    def recommend(
        self,
        name: str,
        static_profile: Sequence[int],
        k: int,
        history: Sequence[int] = (),
        user_id: int = -1,
        n_retrieve: Optional[int] = None,
    ) -> RankedCandidates:
        """Top-k catalog items for one user through retrieve → rank.

        The candidate-free sibling of :meth:`rank_topk`: the model's attached
        item index supplies the shortlist (``n_retrieve`` wide), the exact
        fast path re-ranks it.  Requires :meth:`build_index` /
        :meth:`load_index` first.  The user's history encoding is cached in
        the sequence store when ``user_id ≥ 0``.
        """
        request = RecommendRequest(
            static_indices=static_profile,
            history=history,
            user_id=user_id,
            n_retrieve=n_retrieve,
        )
        return self.get(name).batcher(head="recommend").recommend(request, k)
