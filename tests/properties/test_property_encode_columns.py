"""Property-based tests: the compiled encode pass ≡ ``encode_pairs``.

A native :class:`~repro.core.state.GroupStateSet` encodes an all-int batch
(a list or tuple of 2-item tuple/list records of plain ``int`` ids inside
int64) with :meth:`~repro.core.interning.NodeInterner._encode_columns`,
whatever the interner already holds; every other batch keeps
:meth:`~repro.core.interning.NodeInterner.encode_pairs`.
These tests feed the same batches to such a state set (``kernel="auto"``)
and to the dict reference (``kernel="python"``, always ``encode_pairs``)
and compare, batch by batch, the interned node table, the stored edges,
the encoded columns and the edge keys, and at the end the estimates;
every entry of the interner's int64 id cache must equal what ``_ids``
holds for its value.  Each batch's encoder is recorded and checked
against the selection rule; with ``REPRO_KERNEL=python`` every batch must
take ``encode_pairs``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.state import GroupStateSet
from tests.conftest import stored_raw_edges

SEED = 20240808
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class RecordingInterner(NodeInterner):
    """A :class:`NodeInterner` that logs every batch it encodes.

    Each entry is ``[encoder, cu, cv, edge_keys, n_records]`` as plain
    lists; ``edge_keys`` is filled by the :meth:`edge_key_array` call that
    follows ``encode_pairs``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log = []
        self.in_columns = False

    def _encode_columns(self, pairs):
        self.in_columns = True
        try:
            out = super()._encode_columns(pairs)
        finally:
            self.in_columns = False
        if out is not None:
            cu, cv, keys, n_records = out
            self.log.append(["columns", cu.tolist(), cv.tolist(), keys.tolist(), n_records])
        return out

    def encode_pairs(self, pairs):
        cu, cv, firsts, n_records = super().encode_pairs(pairs)
        assert firsts is None
        self.log.append(["pairs", list(cu), list(cv), [], n_records])
        return cu, cv, firsts, n_records

    def edge_key_array(self, cu, cv):
        keys = super().edge_key_array(cu, cv)
        if not self.in_columns:
            self.log[-1][3] = keys.tolist()
        return keys


def _states(config):
    """``(subject, reference)``: ``kernel="auto"`` and the dict reference."""
    subject = GroupStateSet(config, interner=RecordingInterner(), kernel="auto")
    reference = GroupStateSet(config, interner=RecordingInterner(), kernel="python")
    return subject, reference


def _qualifies(batch) -> bool:
    """The selection rule, restated: does this batch take the compiled pass?"""
    if type(batch) not in (list, tuple) or not batch:
        return False
    for record in batch:
        if type(record) not in (tuple, list) or len(record) != 2:
            return False
        for node in record:
            if type(node) is not int or not INT64_MIN <= node <= INT64_MAX:
                return False
    return True


def _typed(nodes):
    return [(type(node), node) for node in nodes]


def _stored(state):
    """Every group's stored edges, raw: what decides first occurrence."""
    return [stored_raw_edges({"snapshots": [part]}) for part in state.snapshot()]


def _outcome(state, batch):
    try:
        return state.process_edges(batch), None
    except Exception as exc:  # compared, type and message, across states
        return None, (type(exc), str(exc))


def _step(subject, reference, batch, make=None):
    """Feed one batch to both states and compare everything it touched.

    ``make`` rebuilds the batch for the reference (a generator is consumed
    by the first state).
    """
    before_stored = _stored(subject)
    expect_columns = subject.kernel == "cc" and _qualifies(batch)
    logged = len(subject.interner.log), len(reference.interner.log)
    got = _outcome(subject, batch)
    want = _outcome(reference, make() if make is not None else batch)
    assert got == want
    if got[1] is not None:
        # A failed batch stores nothing on either side.
        assert _stored(subject) == before_stored
    new_subject = subject.interner.log[logged[0]:]
    new_reference = reference.interner.log[logged[1]:]
    if got[1] is None:
        assert [entry[1:] for entry in new_subject] == [
            entry[1:] for entry in new_reference
        ]
        encoders = [entry[0] for entry in new_subject]
        assert encoders == ["columns" if expect_columns else "pairs"]
    assert _typed(subject.interner.nodes) == _typed(reference.interner.nodes)
    assert _stored(subject) == _stored(reference)
    _assert_cache_exact(subject.interner)


def _assert_cache_exact(interner):
    """Every cached ``value -> id`` is what ``_ids`` maps the value to."""
    held = interner._cache_id >= 0
    assert int(held.sum()) == interner._cache_used
    for value, dense in zip(
        interner._cache_val[held].tolist(), interner._cache_id[held].tolist()
    ):
        assert interner._ids[value] == dense


def _assert_estimates_equal(subject, reference, n_records):
    got = subject.estimate(n_records)
    want = reference.estimate(n_records)
    assert got.global_count == want.global_count
    assert got.local_counts == want.local_counts
    assert got.edges_stored == want.edges_stored
    assert subject.summaries() == reference.summaries()


# Small pools so duplicates, self-loops and closures are common; the int64
# extremes and negative ids ride along.
int_nodes = st.one_of(
    st.integers(min_value=-6, max_value=12),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX, -(2**32), 2**32]),
)
int_records = st.tuples(int_nodes, int_nodes) | st.lists(int_nodes, min_size=2, max_size=2)
int_batches = st.lists(int_records, min_size=0, max_size=60)
configs = st.sampled_from([(1, 1), (4, 2), (3, 3), (2, 4), (3, 7), (4, 9)])


class TestIntBatches:
    @given(batches=st.lists(int_batches, max_size=6), shape=configs)
    @settings(max_examples=60, deadline=None)
    def test_batches_match_encode_pairs(self, batches, shape):
        m, c = shape
        subject, reference = _states(ReptConfig(m=m, c=c, seed=SEED, track_eta=True))
        total = 0
        for batch in batches:
            _step(subject, reference, batch)
            total += len(batch)
        _assert_estimates_equal(subject, reference, total)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("batch"), int_batches),
                st.tuples(st.just("edge"), st.tuples(int_nodes, int_nodes)),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_per_edge_calls_interleaved_with_batches(self, ops):
        """process_edge interns outside the compiled pass; the next column
        batch finds those nodes through ``_ids`` and caches them."""
        subject, reference = _states(ReptConfig(m=3, c=7, seed=SEED, track_eta=True))
        total = 0
        for kind, payload in ops:
            if kind == "batch":
                _step(subject, reference, payload)
                total += len(payload)
            else:
                subject.process_edge(*payload)
                reference.process_edge(*payload)
                total += 1
                assert subject.interner.nodes == reference.interner.nodes
                assert _stored(subject) == _stored(reference)
        _assert_estimates_equal(subject, reference, total)

    def test_many_fresh_nodes_in_first_appearance_order(self):
        """Batches where most values are new to the interner, repeated
        within the batch and some seen only in self-loops first, intern in
        first-appearance order, u before v; the id cache grows past its
        initial size on the way."""
        subject, reference = _states(ReptConfig(m=4, c=8, seed=SEED, track_local=True))
        rng = np.random.default_rng(SEED)
        total = 0
        for size, span in ((3000, 4000), (5000, 20000), (400, 30000)):
            pairs = rng.integers(-span, span, (size, 2))
            pairs[::7, 1] = pairs[::7, 0]
            batch = [tuple(pair) for pair in pairs.tolist()]
            _step(subject, reference, batch)
            total += size
        if subject.kernel == "cc":
            assert len(subject.interner._cache_id) > 1024
        _assert_estimates_equal(subject, reference, total)

    def test_restore_then_columns(self):
        """Nodes a restore interns are found by the next column batch."""
        config = ReptConfig(m=3, c=7, seed=SEED, track_eta=True)
        first, reference = _states(config)
        batch = [(u, (u * 7 + 3) % 50) for u in range(200)]
        _step(first, reference, batch)
        restored = GroupStateSet(config, interner=RecordingInterner(), kernel="auto")
        reference_restored = GroupStateSet(
            config, interner=RecordingInterner(), kernel="python"
        )
        # Interning order differs from ``first``: the restore appends.
        for state in (restored, reference_restored):
            state.process_edges([(1000, 1001), (1001, 1002)])
            state.process_edges([("x", "y")])
        restored.restore_portable(first.portable_state())
        reference_restored.restore_portable(reference.portable_state())
        follow = [(u, (u * 11 + 5) % 60) for u in range(300)] + [(1000, 1002)]
        _step(restored, reference_restored, follow)
        _assert_estimates_equal(restored, reference_restored, 501)


def _generator_batch(records):
    return (record for record in records)


#: Records that make a batch fall back to encode_pairs (or raise there).
odd_records = st.sampled_from(
    [
        (True, 3),
        (2, False),
        (1.0, 4),
        (2.5, 3),
        (np.int64(3), 5),
        (5, np.int64(6)),
        ("a", 1),
        ("b", "a"),
        (1, 2, 3),
        (4,),
        (2**70, 1),
        (-(2**64), 3),
        ([1], 2),
        (3, {4}),
        [1, "c"],
    ]
)


class TestFallbackBatches:
    @given(
        batches=st.lists(
            st.tuples(
                st.lists(st.one_of(int_records, odd_records), max_size=20),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_fallbacks_match_encode_pairs(self, batches):
        """bool, float, numpy ints, strings, wrong arities, ints outside
        int64, unhashable nodes and generators: same result or exception
        as encode_pairs, and a failed batch stores nothing."""
        subject, reference = _states(ReptConfig(m=3, c=7, seed=SEED, track_eta=True))
        total = 0
        for records, as_generator in batches:
            if as_generator:
                _step(
                    subject,
                    reference,
                    _generator_batch(records),
                    make=lambda records=records: _generator_batch(records),
                )
            else:
                _step(subject, reference, records)
            total += len(records)
        _assert_estimates_equal(subject, reference, total)

    @pytest.mark.parametrize("held", [1.0, True, np.int64(1)])
    def test_int_maps_to_an_equal_non_int_node(self, held):
        """An int batch takes the compiled pass even when the interner
        holds a node equal to an int without being one, and ``1`` finds
        that node, as in encode_pairs."""
        subject, reference = _states(ReptConfig(m=2, c=4, seed=SEED))
        _step(subject, reference, [(5, 6), (6, 7)])
        for state in (subject, reference):
            state.process_edge(held, 9)
        _step(subject, reference, [(1, 5), (9, 1), (1, 2)])
        for state in (subject, reference):
            nodes = state.interner.nodes
            assert nodes.count(1) == 1 and type(nodes[nodes.index(1)]) is type(held)
        _assert_estimates_equal(subject, reference, 6)


class TestFirstOccurrence:
    def test_groups_store_each_distinct_edge_once(self):
        """Repeats, within a batch and across batches, are not stored again."""
        subject, reference = _states(ReptConfig(m=2, c=2, seed=SEED))
        _step(subject, reference, [(10, 20), (20, 10), (30, 10)])
        _step(subject, reference, [(10, 30), (20, 10)])
        assert _stored(subject) == [{(10, 20), (10, 30)}]
        assert subject.total_edges_stored() == 2

    def test_pickle_drops_the_cache_and_an_older_seen_set(self):
        """The interner pickles without its id cache, and a state pickled
        with the set of consumed edges earlier versions kept resumes
        without it."""
        subject, reference = _states(ReptConfig(m=3, c=6, seed=SEED, track_eta=True))
        batch = [(u, (u * 5 + 1) % 40) for u in range(150)]
        _step(subject, reference, batch)
        subject.__dict__["seen"] = {(0, 1), (1, 2)}
        restored = pickle.loads(pickle.dumps(subject))
        assert restored.interner._cache_used == 0
        assert "seen" not in vars(restored)
        restored.interner.log = []
        restored.interner.in_columns = False
        follow = [(u, (u * 3 + 2) % 45) for u in range(150)]
        _step(restored, reference, follow)
        _assert_estimates_equal(restored, reference, 300)


class TestSharedInterner:
    def test_non_int_nodes_of_one_state_keep_the_other_on_columns(self):
        """Two state sets share one interner (as the service's tenants do).
        Non-int nodes one of them interns change nothing for the other's
        int batches: they still take the compiled pass, ``1`` finds the
        held ``True``, and everything matches encode_pairs."""
        config = ReptConfig(m=3, c=6, seed=SEED, track_eta=True)
        shared, shared_reference = RecordingInterner(), RecordingInterner()
        a = GroupStateSet(config, interner=shared, kernel="auto")
        b = GroupStateSet(config, interner=shared, kernel="auto")
        a_reference = GroupStateSet(config, interner=shared_reference, kernel="python")
        b_reference = GroupStateSet(config, interner=shared_reference, kernel="python")
        _step(a, a_reference, [(True, 3), (2.0, 5), (1.5, 2)])
        follow = [(u % 9, (u * 4 + 1) % 11) for u in range(120)]
        _step(b, b_reference, follow)
        _step(b, b_reference, [(1, 3), (3, 4), (2, 5)])
        _step(a, a_reference, [(4, 1.5), (True, 4)])
        nodes = shared.nodes
        assert type(nodes[shared.id_of(1)]) is bool
        assert type(nodes[shared.id_of(2)]) is float
        _assert_estimates_equal(a, a_reference, 5)
        _assert_estimates_equal(b, b_reference, 123)


class _Unkeyable:
    """A hashable id whose stable key cannot be computed."""

    def __str__(self):
        raise RuntimeError("no key")


#: Ids ``intern`` and ``encode_pairs`` accept, and ids that make them raise:
#: an unhashable list, and an id whose stable key raises.
good_ids = st.integers(min_value=-50, max_value=50) | st.sampled_from(
    ["a", "b", "\ud800", "x\udfff", 2.0, True, INT64_MAX, 2**64 + 1]
)
bad_ids = st.sampled_from(["list", "unkeyable"])
interner_ops = st.lists(
    st.one_of(
        st.tuples(st.just("intern"), good_ids | bad_ids),
        st.tuples(
            st.sampled_from(["encode_pairs", "columns"]),
            st.lists(st.tuples(good_ids | bad_ids, good_ids), max_size=8),
        ),
        st.tuples(st.just("pickle"), st.none()),
    ),
    max_size=30,
)


def _materialise(node):
    if node == "list":
        return [1]
    if node == "unkeyable":
        return _Unkeyable()
    return node


class TestInternerKeys:
    """The key list stays in step with the node table, and ``key_array``
    with the key list, through any mix of calls that succeed and raise."""

    @given(ops=interner_ops)
    @settings(max_examples=60, deadline=None)
    def test_keys_stay_in_sync(self, ops):
        from repro.hashing import stable_node_key

        interner = NodeInterner()
        handed_out = []
        for op, payload in ops:
            try:
                if op == "intern":
                    interner.intern(_materialise(payload))
                elif op == "encode_pairs":
                    interner.encode_pairs([(_materialise(u), v) for u, v in payload])
                elif op == "columns":
                    interner._encode_columns([(_materialise(u), v) for u, v in payload])
                else:
                    interner = pickle.loads(pickle.dumps(interner))
            except (TypeError, RuntimeError):
                pass
            assert len(interner._ids) == len(interner.nodes) == len(interner._keys)
            for dense, node in enumerate(interner.nodes):
                assert interner._keys[dense] == stable_node_key(node)
            keys = interner.key_array()
            assert keys.dtype == np.uint64
            assert np.array_equal(keys, np.array(interner._keys, np.uint64))
            handed_out.append((keys, keys.copy()))
        # Keys are append-only: arrays handed out earlier keep their contents.
        for keys, copy in handed_out:
            assert np.array_equal(keys, copy)
