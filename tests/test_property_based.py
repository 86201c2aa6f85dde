"""Property-based tests (hypothesis) for the core invariants: autograd
gradients, softmax/attention masks, metrics, the feature encoder and the
user-sequence store's snapshot round trip."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, check_gradients
from repro.autograd import functional as F
from repro.core.masks import causal_mask, cross_view_mask
from repro.data.features import FeatureEncoder
from repro.data.interactions import Interaction, InteractionLog
from repro.data.split import leave_one_out_split
from repro.eval.ranking import hit_ratio_at_k, ndcg_at_k
from repro.eval.regression import root_relative_squared_error
from repro.nn.layers import layer_norm
from repro.serving.cache import UserSequenceStore

SETTINGS = settings(max_examples=25, deadline=None)

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def small_arrays(max_side=4, min_dims=1, max_dims=2):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=finite_floats,
    )


class TestAutogradProperties:
    @SETTINGS
    @given(small_arrays())
    def test_addition_gradient_is_ones(self, values):
        x = Tensor(values, requires_grad=True)
        (x + 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(values))

    @SETTINGS
    @given(small_arrays())
    def test_sum_then_scale_gradient(self, values):
        x = Tensor(values, requires_grad=True)
        (x.sum() * 3.0).backward()
        np.testing.assert_allclose(x.grad, np.full_like(values, 3.0))

    @SETTINGS
    @given(small_arrays(max_side=3))
    def test_elementwise_product_gradcheck(self, values):
        x = Tensor(values, requires_grad=True)
        y = Tensor(np.ones_like(values) * 0.5, requires_grad=True)
        assert check_gradients(lambda ts: (ts[0] * ts[1]).sum(), [x, y], rtol=1e-3, atol=1e-5)

    @SETTINGS
    @given(small_arrays(max_side=5, min_dims=2, max_dims=3), st.data())
    def test_gather_rows_gradient_is_the_add_at_scatter(self, values, data):
        rows = values.shape[0]
        indices = data.draw(hnp.arrays(
            dtype=np.int64, shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
            elements=st.integers(-rows, rows - 1)))
        upstream = np.arange(indices.size * values[0].size, dtype=np.float64)
        upstream = upstream.reshape(indices.shape + values.shape[1:])
        table = Tensor(values, requires_grad=True)
        (table.gather_rows(indices) * upstream).sum().backward()
        expected = np.zeros_like(values)
        np.add.at(expected, indices, upstream)
        np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-12)

    @SETTINGS
    @given(small_arrays(max_side=4, min_dims=2, max_dims=4), st.integers(1, 4))
    def test_shared_weight_gradient_sums_over_every_leading_axis(self, values, width):
        weight = np.linspace(-1.0, 1.0, values.shape[-1] * width).reshape(-1, width)
        weight = Tensor(weight, requires_grad=True)
        (Tensor(values) @ weight).sum().backward()
        expected = values.reshape(-1, values.shape[-1]).sum(axis=0)[:, None] * np.ones(width)
        np.testing.assert_allclose(weight.grad, expected, rtol=0, atol=1e-12)

    @SETTINGS
    @given(small_arrays(max_side=4, min_dims=2, max_dims=2))
    def test_softmax_rows_are_distributions(self, values):
        out = F.softmax(Tensor(values), axis=-1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(values.shape[0]), atol=1e-9)

    @SETTINGS
    @given(small_arrays(max_side=4, min_dims=2, max_dims=2))
    def test_layer_norm_output_mean_is_zero(self, values):
        dim = values.shape[-1]
        out = layer_norm(Tensor(values), Tensor(np.ones(dim)), Tensor(np.zeros(dim))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(values.shape[0]), atol=1e-7)

    @SETTINGS
    @given(small_arrays(max_side=5), st.floats(min_value=0.0, max_value=0.8))
    def test_dropout_never_changes_shape_and_eval_is_identity(self, values, ratio):
        x = Tensor(values)
        out_eval = F.dropout(x, ratio, training=False, rng=np.random.default_rng(0))
        np.testing.assert_allclose(out_eval.data, values)
        out_train = F.dropout(x, ratio, training=True, rng=np.random.default_rng(0))
        assert out_train.shape == x.shape


class TestMaskProperties:
    @SETTINGS
    @given(st.integers(min_value=1, max_value=12))
    def test_causal_mask_row_i_allows_exactly_i_plus_one(self, size):
        mask = causal_mask(size)
        allowed_per_row = (mask == 0.0).sum(axis=1)
        np.testing.assert_array_equal(allowed_per_row, np.arange(1, size + 1))

    @SETTINGS
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
    def test_cross_mask_allows_only_cross_pairs(self, num_static, seq_len):
        mask = cross_view_mask(num_static, seq_len)
        allowed = (mask == 0.0).sum()
        assert allowed == 2 * num_static * seq_len

    @SETTINGS
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
    def test_cross_mask_is_symmetric(self, num_static, seq_len):
        mask = cross_view_mask(num_static, seq_len)
        np.testing.assert_array_equal(mask, mask.T)


class TestMetricProperties:
    @SETTINGS
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(2, 30), elements=finite_floats),
           st.integers(min_value=1, max_value=30))
    def test_hr_is_monotone_in_k(self, scores, k):
        position = 0
        smaller = hit_ratio_at_k(scores, position, k=max(1, k // 2))
        larger = hit_ratio_at_k(scores, position, k=k)
        assert larger >= smaller

    @SETTINGS
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(2, 30), elements=finite_floats))
    def test_ndcg_never_exceeds_hr(self, scores):
        for k in (1, 5, 10):
            assert ndcg_at_k(scores, 0, k) <= hit_ratio_at_k(scores, 0, k) + 1e-12

    @SETTINGS
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(3, 40),
                      elements=st.floats(min_value=-10, max_value=10,
                                         allow_nan=False, allow_infinity=False)))
    def test_rrse_perfect_prediction_is_zero(self, targets):
        assert root_relative_squared_error(targets, targets.copy()) == 0.0

    @SETTINGS
    @given(st.integers(min_value=2, max_value=20))
    def test_rrse_of_mean_predictor_is_one_for_varied_targets(self, size):
        targets = np.arange(size, dtype=np.float64)
        predictions = np.full(size, targets.mean())
        assert abs(root_relative_squared_error(targets, predictions) - 1.0) < 1e-9


@st.composite
def interaction_logs(draw):
    """Random small interaction logs with at least 3 events per user."""
    num_users = draw(st.integers(min_value=1, max_value=5))
    log = InteractionLog(name="hypothesis")
    timestamp = 0.0
    for user_id in range(num_users):
        length = draw(st.integers(min_value=3, max_value=8))
        for _ in range(length):
            object_id = draw(st.integers(min_value=0, max_value=12))
            timestamp += 1.0
            log.append(Interaction(user_id=user_id, object_id=object_id, timestamp=timestamp))
    return log


class TestDataProperties:
    @SETTINGS
    @given(interaction_logs())
    def test_leave_one_out_conserves_events(self, log):
        split = leave_one_out_split(log)
        total = len(split.train) + len(split.validation) + len(split.test)
        assert total == len(log)

    @SETTINGS
    @given(interaction_logs())
    def test_heldout_is_latest_event_per_user(self, log):
        split = leave_one_out_split(log)
        for user_id, event in split.test.items():
            sequence = log.user_sequence(user_id)
            assert event.timestamp == sequence[-1].timestamp

    @SETTINGS
    @given(interaction_logs(), st.integers(min_value=1, max_value=6))
    def test_encoder_output_is_well_formed(self, log, max_seq_len):
        encoder = FeatureEncoder(log, max_seq_len=max_seq_len)
        split = leave_one_out_split(log)
        for example in encoder.encode_training_instances(split.train):
            assert example.dynamic_indices.shape == (max_seq_len,)
            assert example.dynamic_mask.shape == (max_seq_len,)
            # Mask marks exactly the non-padding entries.
            np.testing.assert_array_equal(example.dynamic_mask > 0, example.dynamic_indices != 0)
            # Padding (if any) sits strictly on the left.
            valid_positions = np.where(example.dynamic_mask > 0)[0]
            if valid_positions.size:
                assert valid_positions[-1] == max_seq_len - 1
            assert example.static_indices[0] < encoder.num_users
            assert encoder.num_users <= example.static_indices[1] < encoder.static_vocab_size


# --------------------------------------------------------------------------- #
# The user-sequence store
# --------------------------------------------------------------------------- #
@st.composite
def store_operations(draw):
    """A mixed op tape: record / append / encode / stored-read / clock advance."""
    operations = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["record", "append", "encode", "read", "tick"]))
        user_id = draw(st.integers(min_value=0, max_value=12))
        if kind == "record":
            events = draw(st.lists(st.integers(min_value=1, max_value=28),
                                   min_size=1, max_size=4))
            operations.append(("record", user_id, events))
        elif kind == "append":
            operations.append(("append", user_id, draw(st.integers(min_value=1, max_value=28))))
        elif kind == "encode":
            history = draw(st.lists(st.integers(min_value=1, max_value=28),
                                    min_size=0, max_size=6))
            operations.append(("encode", user_id, history))
        elif kind == "read":
            operations.append(("read", user_id, None))
        else:
            operations.append(("tick", None, draw(st.floats(min_value=0.1, max_value=6.0))))
    return operations


def _apply(store, operations, clock):
    """Drive one store through the tape."""
    for kind, user_id, argument in operations:
        if kind == "record":
            store.record(user_id, argument)
        elif kind == "append":
            store.append_event(user_id, argument)
        elif kind == "encode":
            store.encode(user_id, argument)
        elif kind == "read":
            store.history(user_id)
        else:
            clock["now"] += argument


class ReferenceStore:
    """The store's documented semantics as a plain ordered dict.

    Users map to ``(visible suffix, stamp)`` in LRU → MRU order.  Every read
    refreshes recency and drops an entry older than ``ttl``; an explicit
    history replaces the suffix; ``record`` creates or extends; ``append``
    extends resident users only; a put beyond ``capacity`` evicts the LRU user.
    """

    def __init__(self, max_seq_len, capacity, ttl, clock):
        self.max_seq_len, self.capacity, self.ttl = max_seq_len, capacity, ttl
        self.clock = clock
        self.entries = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def _peek(self, user_id):
        if user_id not in self.entries:
            return None
        self.entries.move_to_end(user_id)
        suffix, stamp = self.entries[user_id]
        if self.ttl is not None and self.clock["now"] - stamp > self.ttl:
            del self.entries[user_id]
            self.evictions += 1
            return None
        return suffix

    def _put(self, user_id, suffix):
        if user_id in self.entries:
            self.entries.move_to_end(user_id)
        self.entries[user_id] = (tuple(suffix[-self.max_seq_len:]), self.clock["now"])
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def apply(self, kind, user_id, argument):
        if kind == "record":
            self._put(user_id, (self._peek(user_id) or ()) + tuple(argument))
        elif kind == "append":
            suffix = self._peek(user_id)
            if suffix is not None:
                self._put(user_id, suffix + (argument,))
        elif kind == "encode":
            fingerprint = tuple(argument[-self.max_seq_len:])
            if self._peek(user_id) == fingerprint:
                self.hits += 1
            else:
                self.misses += 1
                self._put(user_id, fingerprint)
        elif kind == "read":
            self._peek(user_id)
        else:
            self.clock["now"] += argument

    def snapshot_entries(self):
        return [[user_id, list(suffix), stamp]
                for user_id, (suffix, stamp) in self.entries.items()]


class TestSequenceStoreProperties:
    @SETTINGS
    @given(store_operations())
    def test_single_store_snapshot_round_trips_exactly(self, operations):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=6, capacity=32, ttl=30.0,
                                  clock=lambda: clock["now"])
        _apply(store, operations, clock)
        clone = UserSequenceStore(max_seq_len=6, capacity=32, ttl=30.0,
                                  clock=lambda: clock["now"])
        clone.restore(store.snapshot())
        assert len(clone) == len(store)
        for user_id in range(13):
            assert clone.history(user_id) == store.history(user_id)

    @SETTINGS
    @given(store_operations(), st.integers(min_value=1, max_value=6))
    def test_store_matches_the_reference_model_after_every_op(self, operations,
                                                              capacity):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=4, capacity=capacity, ttl=8.0,
                                  clock=lambda: clock["now"])
        reference = ReferenceStore(4, capacity, 8.0, clock)
        for operation in operations:
            if operation[0] == "tick":
                reference.apply(*operation)
            else:
                _apply(store, [operation], clock)
                reference.apply(*operation)
            assert store.snapshot()["entries"] == reference.snapshot_entries()
            assert len(store) <= capacity
        stats = store.stats
        assert (stats.hits, stats.misses, stats.evictions) == (
            reference.hits, reference.misses, reference.evictions)

    @SETTINGS
    @given(store_operations(), st.integers(min_value=1, max_value=6))
    def test_journal_replay_reproduces_the_snapshot(self, operations, capacity):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=4, capacity=capacity, ttl=8.0,
                                  clock=lambda: clock["now"])
        records = []
        store.set_journal(records.append)
        _apply(store, operations, clock)
        replica = UserSequenceStore(max_seq_len=4, capacity=capacity, ttl=8.0,
                                    clock=lambda: clock["now"])
        for record in records:
            replica.apply_journal(record)
        assert replica.snapshot() == store.snapshot()

    @SETTINGS
    @given(store_operations(), store_operations())
    def test_a_refusing_journal_leaves_the_state_unchanged(self, warmup, operations):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=4, capacity=5, ttl=8.0,
                                  clock=lambda: clock["now"])
        _apply(store, warmup, clock)

        def refuse(record):
            raise OSError("journal unavailable")

        store.set_journal(refuse)
        for operation in operations:
            before = store.snapshot()
            try:
                _apply(store, [operation], clock)
            except OSError:
                pass
            # A refused journal record aborts its operation before anything
            # lands, and an operation that journals nothing changes nothing.
            assert store.snapshot() == before
