"""Static/dynamic feature encoding (Section III of the paper).

The paper splits the sparse input vector ``x`` into a **static view** (the
user one-hot, the candidate object one-hot, plus optional side information)
and a **dynamic view** (the chronological sequence of previously interacted
objects, truncated/padded to a maximum length n˙).  Rather than materialising
the one-hot matrices ``G°`` and ``G˙``, the encoder emits the *indices* of the
non-zero features — mathematically identical input to the embedding layer
(Eq. 5) at a fraction of the memory.

Index layout
------------
* Static vocabulary: ``[0, num_users)`` are user features,
  ``[num_users, num_users + num_objects)`` are candidate-object features,
  followed by optional side-information features.
* Dynamic vocabulary: index ``0`` is the padding feature (embedding pinned to
  the zero vector, exactly the paper's ``{0}^{1×m˙}`` padding rows);
  ``[1, num_objects]`` are the history objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.interactions import Interaction, InteractionLog

PADDING_INDEX = 0


def pad_sequences(
    sequences: Sequence[Sequence[int]],
    max_seq_len: int,
    padding_index: int = PADDING_INDEX,
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-pad/truncate variable-length index sequences into a dense batch.

    The single source of truth for the dynamic-view layout: only the most
    recent ``max_seq_len`` items of each sequence are kept (chronological
    order, most recent last) and shorter sequences are left-padded with
    ``padding_index``.  Returns ``(indices, mask)`` of shapes
    ``(batch, max_seq_len)`` — int64 indices and a float64 validity mask with
    1.0 on real items.  Used by :meth:`FeatureEncoder.encode` for training
    instances and by the serving micro-batcher to collate raw user histories.
    """
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be at least 1")
    batch = len(sequences)
    indices = np.full((batch, max_seq_len), padding_index, dtype=np.int64)
    mask = np.zeros((batch, max_seq_len), dtype=np.float64)
    for row, sequence in enumerate(sequences):
        recent = list(sequence)[-max_seq_len:]
        if recent:
            offset = max_seq_len - len(recent)
            indices[row, offset:] = recent
            mask[row, offset:] = 1.0
    return indices, mask


@dataclass(frozen=True)
class EncodedExample:
    """One (user, candidate object, history) instance ready for a model.

    Attributes
    ----------
    static_indices:
        Indices of the non-zero static features (user, candidate, side info).
    dynamic_indices:
        Left-padded history of length ``max_seq_len``; older events first,
        most recent last, ``PADDING_INDEX`` in unused leading slots.
    dynamic_mask:
        1.0 where ``dynamic_indices`` holds a real event, 0.0 on padding.
    label:
        Task target: 1/0 for classification, rating for regression, unused
        (1.0) for ranking positives.
    user_id / object_id:
        The raw identifiers, kept for evaluation bookkeeping.
    """

    static_indices: np.ndarray
    dynamic_indices: np.ndarray
    dynamic_mask: np.ndarray
    label: float
    user_id: int
    object_id: int


@dataclass
class FeatureBatch:
    """A stacked batch of :class:`EncodedExample` objects.

    All models in the repository (SeqFM and every baseline) consume this
    structure; sequence-agnostic baselines simply ignore the ordering of
    ``dynamic_indices``.
    """

    static_indices: np.ndarray   # (batch, n_static) int64
    dynamic_indices: np.ndarray  # (batch, max_seq_len) int64
    dynamic_mask: np.ndarray     # (batch, max_seq_len) float64
    labels: np.ndarray           # (batch,) float64
    user_ids: np.ndarray         # (batch,) int64
    object_ids: np.ndarray       # (batch,) int64
    #: Structural hint set by :meth:`with_candidates`: the dynamic arrays are
    #: ``dynamic_tile`` vertical copies of their first ``batch/dynamic_tile``
    #: rows (candidates differ, histories repeat).  Models may exploit this to
    #: compute history-only work once per group; ``1`` means no tiling.
    dynamic_tile: int = 1

    def __len__(self) -> int:
        return self.static_indices.shape[0]

    @staticmethod
    def from_examples(examples: Sequence[EncodedExample]) -> "FeatureBatch":
        if not examples:
            raise ValueError("cannot build a batch from zero examples")
        return FeatureBatch(
            static_indices=np.stack([example.static_indices for example in examples]),
            dynamic_indices=np.stack([example.dynamic_indices for example in examples]),
            dynamic_mask=np.stack([example.dynamic_mask for example in examples]),
            labels=np.array([example.label for example in examples], dtype=np.float64),
            user_ids=np.array([example.user_id for example in examples], dtype=np.int64),
            object_ids=np.array([example.object_id for example in examples], dtype=np.int64),
        )

    @staticmethod
    def for_candidates(
        static_profile: np.ndarray,
        candidate_indices: np.ndarray,
        dynamic_indices: np.ndarray,
        dynamic_mask: np.ndarray,
        candidate_slot: int = 1,
        user_id: int = -1,
    ) -> "FeatureBatch":
        """Expand one user into a C-row batch, one row per candidate.

        ``static_profile`` is a single static index row whose
        ``candidate_slot`` entry is replaced by each of the
        ``candidate_indices`` (static-vocabulary); ``dynamic_indices``/
        ``dynamic_mask`` are the user's single padded history row, shared by
        every candidate.  This is the *naive* materialisation of a ranking
        request — C independent rows — used as the reference the serving fast
        path (:meth:`repro.serving.engine.InferenceEngine.rank_candidates`)
        must agree with; the returned batch carries ``dynamic_tile = C`` so
        model-level consumers can still dedup the shared history.
        """
        profile = np.asarray(static_profile, dtype=np.int64).reshape(-1)
        candidates = np.asarray(candidate_indices, dtype=np.int64).reshape(-1)
        if candidates.size == 0:
            raise ValueError("cannot build a candidate batch from zero candidates")
        if not (0 <= candidate_slot < profile.shape[0]):
            raise ValueError(
                f"candidate_slot {candidate_slot} outside the static profile "
                f"of {profile.shape[0]} features"
            )
        count = candidates.shape[0]
        static = np.tile(profile, (count, 1))
        static[:, candidate_slot] = candidates
        dynamic = np.asarray(dynamic_indices, dtype=np.int64).reshape(1, -1)
        mask = np.asarray(dynamic_mask, dtype=np.float64).reshape(1, -1)
        return FeatureBatch(
            static_indices=static,
            dynamic_indices=np.tile(dynamic, (count, 1)),
            dynamic_mask=np.tile(mask, (count, 1)),
            labels=np.zeros(count, dtype=np.float64),
            user_ids=np.full(count, user_id, dtype=np.int64),
            object_ids=candidates.copy(),
            dynamic_tile=count,
        )

    def with_candidate(self, encoder: "FeatureEncoder", object_ids: np.ndarray) -> "FeatureBatch":
        """Return a copy of the batch with the candidate object replaced.

        Used by the looped BPR trainer (swap positive for sampled negative)
        and by the ranking evaluation protocol (score J+1 candidates that
        share the same user and history).
        """
        object_ids = np.asarray(object_ids, dtype=np.int64)
        if object_ids.shape != self.object_ids.shape:
            raise ValueError("candidate array must match the batch size")
        static = self.static_indices.copy()
        static[:, encoder.candidate_slot] = encoder.static_object_index(object_ids)
        return FeatureBatch(
            static_indices=static,
            dynamic_indices=self.dynamic_indices,
            dynamic_mask=self.dynamic_mask,
            labels=self.labels,
            user_ids=self.user_ids,
            object_ids=object_ids,
        )

    def with_candidates(self, encoder: "FeatureEncoder", object_ids: np.ndarray) -> "FeatureBatch":
        """Fuse this batch with ``k`` negative candidate draws into one batch.

        ``object_ids`` has shape ``(k, batch)`` — draw-major: row ``d`` holds
        draw ``d``'s negative object for every positive.  The returned batch
        has ``batch * (1 + k)`` rows laid out as

        * rows ``[0, batch)`` — the positives, labels untouched;
        * row ``batch + d*batch + i`` — draw ``d``'s negative for positive
          ``i``, label ``0.0``.

        All rows of a (positive, negatives) group share the same user and
        dynamic history, so one forward pass over the fused batch scores the
        positive and every sampled negative together — the training fast path
        (:meth:`repro.core.tasks.TaskModel.fused_loss`).  The returned batch
        carries ``dynamic_tile = 1 + k`` so the model can compute
        history-only work (the dynamic view) once per group.
        """
        object_ids = np.asarray(object_ids, dtype=np.int64)
        if object_ids.ndim != 2 or object_ids.shape[1] != len(self):
            raise ValueError(
                f"candidate matrix must have shape (num_draws, {len(self)}), "
                f"got {object_ids.shape}"
            )
        num_draws = object_ids.shape[0]
        flat_negatives = object_ids.reshape(-1)
        static = np.tile(self.static_indices, (1 + num_draws, 1))
        static[len(self):, encoder.candidate_slot] = encoder.static_object_index(flat_negatives)
        return FeatureBatch(
            static_indices=static,
            dynamic_indices=np.tile(self.dynamic_indices, (1 + num_draws, 1)),
            dynamic_mask=np.tile(self.dynamic_mask, (1 + num_draws, 1)),
            labels=np.concatenate([self.labels, np.zeros(len(self) * num_draws)]),
            user_ids=np.tile(self.user_ids, 1 + num_draws),
            object_ids=np.concatenate([self.object_ids, flat_negatives]),
            dynamic_tile=1 + num_draws,
        )


class FeatureEncoder:
    """Build static/dynamic feature encodings from an interaction log.

    Parameters
    ----------
    log:
        The interaction log the vocabularies are derived from.  Users or
        objects never seen here are rejected at encode time.
    max_seq_len:
        The paper's n˙ — maximum dynamic sequence length (default 20, the
        paper's unified setting).
    """

    #: position of the user feature within ``static_indices``
    user_slot = 0
    #: position of the candidate object feature within ``static_indices``
    candidate_slot = 1

    def __init__(self, log: InteractionLog, max_seq_len: int = 20):
        if max_seq_len < 1:
            raise ValueError("max_seq_len must be at least 1")
        self.max_seq_len = max_seq_len
        self._user_to_index: Dict[int, int] = {
            user: index for index, user in enumerate(sorted(log.users))
        }
        self._object_to_index: Dict[int, int] = {
            obj: index for index, obj in enumerate(sorted(log.objects))
        }
        self.num_users = len(self._user_to_index)
        self.num_objects = len(self._object_to_index)

    # ------------------------------------------------------------------ #
    # Vocabulary sizes
    # ------------------------------------------------------------------ #
    @property
    def static_vocab_size(self) -> int:
        """m° of the paper: user features + candidate-object features."""
        return self.num_users + self.num_objects

    @property
    def dynamic_vocab_size(self) -> int:
        """m˙ of the paper plus one padding feature at index 0."""
        return self.num_objects + 1

    @property
    def num_static_features(self) -> int:
        """n° of the paper: non-zero static features per instance."""
        return 2

    def known_objects(self) -> List[int]:
        return sorted(self._object_to_index)

    def known_users(self) -> List[int]:
        return sorted(self._user_to_index)

    # ------------------------------------------------------------------ #
    # Index helpers
    # ------------------------------------------------------------------ #
    def static_user_index(self, user_id) -> np.ndarray:
        return np.vectorize(self._user_to_index.__getitem__, otypes=[np.int64])(user_id)

    def static_object_index(self, object_id) -> np.ndarray:
        lookup = np.vectorize(self._object_to_index.__getitem__, otypes=[np.int64])(object_id)
        return lookup + self.num_users

    def dynamic_object_index(self, object_id) -> np.ndarray:
        lookup = np.vectorize(self._object_to_index.__getitem__, otypes=[np.int64])(object_id)
        return lookup + 1  # shift past the padding index

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(
        self,
        user_id: int,
        candidate_object_id: int,
        history: Sequence[Interaction],
        label: float = 1.0,
    ) -> EncodedExample:
        """Encode one (user, candidate, history) instance.

        ``history`` must be in chronological order; only the most recent
        ``max_seq_len`` events are kept (paper §III), and shorter histories
        are left-padded with the padding feature.
        """
        if user_id not in self._user_to_index:
            raise KeyError(f"unknown user {user_id}")
        if candidate_object_id not in self._object_to_index:
            raise KeyError(f"unknown object {candidate_object_id}")

        static_indices = np.array(
            [
                self._user_to_index[user_id],
                self.num_users + self._object_to_index[candidate_object_id],
            ],
            dtype=np.int64,
        )

        recent = [
            self._object_to_index[event.object_id] + 1
            for event in list(history)[-self.max_seq_len:]
        ]
        padded, padded_mask = pad_sequences([recent], self.max_seq_len)
        dynamic, mask = padded[0], padded_mask[0]

        return EncodedExample(
            static_indices=static_indices,
            dynamic_indices=dynamic,
            dynamic_mask=mask,
            label=float(label),
            user_id=user_id,
            object_id=candidate_object_id,
        )

    def encode_candidates(
        self,
        user_id: int,
        candidate_object_ids: Sequence[int],
        history: Sequence[Interaction],
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Encode one ranking request: C candidates sharing a user + history.

        Returns ``(static_profile, candidate_indices, dynamic_history)``:

        * ``static_profile`` — one static index row (user feature filled in,
          candidate slot holding the first candidate as a placeholder);
        * ``candidate_indices`` — the static-vocabulary index of every
          candidate object, in input order;
        * ``dynamic_history`` — the raw (unpadded) dynamic-vocabulary indices
          of the most recent ``max_seq_len`` *known* history events.  Events
          whose object is outside the training vocabulary are dropped first
          (the same pre-filtering :meth:`encode_heldout` applies), so older
          known events may backfill the visible window.

        The triple feeds the serving ranking fast path —
        ``InferenceEngine.rank_candidates`` / ``ModelRegistry.rank_topk`` —
        or materialises into the naive per-candidate batch via
        :meth:`FeatureBatch.for_candidates`.
        """
        if user_id not in self._user_to_index:
            raise KeyError(f"unknown user {user_id}")
        candidate_object_ids = list(candidate_object_ids)
        if not candidate_object_ids:
            raise ValueError("need at least one candidate object")
        unknown = [obj for obj in candidate_object_ids if obj not in self._object_to_index]
        if unknown:
            raise KeyError(f"unknown candidate objects {unknown[:5]}")
        candidates = self.static_object_index(np.asarray(candidate_object_ids, dtype=np.int64))
        static_profile = np.array(
            [self._user_to_index[user_id], candidates[0]], dtype=np.int64
        )
        known_objects = [
            event.object_id for event in history
            if event.object_id in self._object_to_index
        ]
        dynamic_history = [
            int(index)
            for index in self.dynamic_object_index(np.asarray(known_objects, dtype=np.int64))
        ]
        return static_profile, candidates, dynamic_history[-self.max_seq_len:]

    def encode_training_instances(
        self,
        log: InteractionLog,
        min_history: int = 1,
        use_ratings: bool = False,
    ) -> List[EncodedExample]:
        """Expand every interaction into a next-object training instance.

        For each user with chronological sequence ``o_1, ..., o_T`` the
        instances are (history = o_1..o_{t-1}, candidate = o_t) for all t with
        at least ``min_history`` preceding events — the standard sequential
        training expansion the paper's protocol implies.
        """
        examples: List[EncodedExample] = []
        for user_id, sequence in log.by_user().items():
            if user_id not in self._user_to_index:
                continue
            for position in range(min_history, len(sequence)):
                event = sequence[position]
                if event.object_id not in self._object_to_index:
                    continue
                history = [
                    past for past in sequence[:position] if past.object_id in self._object_to_index
                ]
                if len(history) < min_history:
                    continue
                label = float(event.rating) if use_ratings and event.rating is not None else 1.0
                examples.append(self.encode(user_id, event.object_id, history, label=label))
        return examples

    def encode_heldout(
        self,
        heldout: Dict[int, Interaction],
        history: Dict[int, List[Interaction]],
        use_ratings: bool = False,
    ) -> List[EncodedExample]:
        """Encode the validation/test records of a leave-one-out split."""
        examples: List[EncodedExample] = []
        for user_id, event in sorted(heldout.items()):
            if user_id not in self._user_to_index or event.object_id not in self._object_to_index:
                continue
            user_history = [
                past for past in history.get(user_id, []) if past.object_id in self._object_to_index
            ]
            if not user_history:
                continue
            label = float(event.rating) if use_ratings and event.rating is not None else 1.0
            examples.append(self.encode(user_id, event.object_id, user_history, label=label))
        return examples
