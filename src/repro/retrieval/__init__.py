"""Candidate retrieval: embedding index + two-stage retrieve → rank serving.

PR 3 made re-ranking a candidate list cheap; this package makes *finding* the
list cheap.  It turns the repository from a scorer into an end-to-end
recommender: a request arrives with no candidates at all, and the pipeline
answers with the catalog's top-K.

* :class:`~repro.retrieval.index.ItemIndex` — a contiguous
  ``(n_items, d + 1)`` snapshot of each catalog item's static embedding row
  and linear weight, taken from a trained SeqFM checkpoint; saved/loaded as
  ``.npz`` next to the model checkpoint
  (:meth:`repro.serving.registry.ModelRegistry.build_index`).
* :class:`~repro.retrieval.index.ExactIndex` — blocked brute-force top-N
  inner-product search; the correctness oracle.
* :class:`~repro.retrieval.index.IVFIndex` — k-means inverted file with an
  ``n_probe`` recall/latency dial; recall@N is *measured* against the exact
  backend (``recall_at``), parity is exact at ``n_probe = n_partitions``.
* :class:`~repro.retrieval.query.QueryEncoder` — per-user linear surrogate of
  the model's scoring function, least-squares-fitted from a handful of
  exactly-scored probe items; shares one
  :class:`~repro.serving.engine.RankingPlan` with the re-ranker.
* :class:`~repro.retrieval.pipeline.RetrievePipeline` — retrieve → rank:
  index sweep to ``n_retrieve`` candidates, exact fast-path re-rank to top-K.

Wired through every serving layer: ``RetrievePipeline.retrieve`` /
``retrieve_then_rank``, the ``MicroBatcher`` recommend head,
``ModelRegistry`` index build/save/load + ``recommend``, the ``recommend``
service head, and the ``build-index`` / ``recommend`` CLI subcommands.
``tests/test_retrieval.py`` holds IVF recall@100 and brute-force parity; the
``serve_recommend`` workload of the benchmark of record (``bench/README.md``)
times the recommend head over a 20 000-item IVF index.
"""

from repro.retrieval.index import (
    ExactIndex,
    IVFIndex,
    ItemIndex,
    recall_at,
)
from repro.retrieval.pipeline import (
    DEFAULT_N_RETRIEVE,
    RetrievalResult,
    RetrievePipeline,
)
from repro.retrieval.query import EncodedQuery, QueryEncoder

__all__ = [
    "DEFAULT_N_RETRIEVE",
    "EncodedQuery",
    "ExactIndex",
    "IVFIndex",
    "ItemIndex",
    "QueryEncoder",
    "RetrievalResult",
    "RetrievePipeline",
    "recall_at",
]
