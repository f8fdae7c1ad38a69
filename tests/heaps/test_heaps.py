"""Unit + property tests for the three heaps of the Dijkstra oracle
(``tests/dijkstra_reference.py``).

The three heaps share one interface; most tests are parametrised over all
of them. The radix heap additionally enforces monotone integer keys, which
gets its own tests.
"""

import numpy as np
import pytest
from dijkstra_reference import (
    HEAP_KINDS,
    IndexedBinaryHeap,
    PairingHeap,
    RadixHeap,
    make_heap,
)
from hypothesis import given, settings
from hypothesis import strategies as st


def build(kind: str, capacity: int = 64, max_key: int = 10_000):
    return make_heap(kind, capacity=capacity, max_key=max_key)


@pytest.mark.parametrize("kind", HEAP_KINDS)
class TestCommonBehaviour:
    def test_push_pop_single(self, kind):
        h = build(kind)
        h.push(3, 5.0)
        assert len(h) == 1
        assert h.pop() == (3, 5.0)
        assert len(h) == 0

    def test_pops_in_key_order(self, kind):
        h = build(kind)
        keys = [7, 1, 9, 3, 5]
        for item, key in enumerate(keys):
            h.push(item, float(key))
        popped = [h.pop()[1] for _ in range(len(keys))]
        assert popped == sorted(float(k) for k in keys)

    def test_contains(self, kind):
        h = build(kind)
        h.push(2, 4.0)
        assert 2 in h
        assert 3 not in h
        h.pop()
        assert 2 not in h

    def test_decrease_key_changes_order(self, kind):
        h = build(kind)
        h.push(0, 10.0)
        h.push(1, 5.0)
        h.decrease_key(0, 1.0)
        assert h.pop()[0] == 0

    def test_decrease_key_missing_item(self, kind):
        h = build(kind)
        with pytest.raises(KeyError):
            h.decrease_key(0, 1.0)

    def test_decrease_key_refuses_increase(self, kind):
        h = build(kind)
        h.push(0, 5.0)
        with pytest.raises(ValueError):
            h.decrease_key(0, 9.0)

    def test_push_existing_item_acts_as_decrease(self, kind):
        h = build(kind)
        h.push(0, 9.0)
        h.push(0, 2.0)
        assert len(h) == 1
        assert h.pop() == (0, 2.0)

    def test_pop_empty_raises(self, kind):
        h = build(kind)
        with pytest.raises(IndexError):
            h.pop()

    def test_peek(self, kind):
        h = build(kind)
        h.push(0, 7.0)
        h.push(1, 3.0)
        assert h.peek() == (1, 3.0)
        assert len(h) == 2  # peek does not remove

    def test_peek_empty_raises(self, kind):
        h = build(kind)
        with pytest.raises(IndexError):
            h.peek()

    def test_key_of(self, kind):
        h = build(kind)
        h.push(4, 8.0)
        assert h.key_of(4) == 8.0

    def test_interleaved_push_pop(self, kind):
        h = build(kind, capacity=16)
        h.push(0, 4.0)
        h.push(1, 2.0)
        assert h.pop()[0] == 1
        h.push(2, 6.0)
        h.push(3, 5.0)
        assert h.pop()[0] == 0
        assert h.pop()[0] == 3
        assert h.pop()[0] == 2


class TestRadixSpecifics:
    def test_requires_max_key(self):
        with pytest.raises(ValueError):
            make_heap("radix", capacity=4)

    def test_rejects_key_above_bound(self):
        h = RadixHeap(4, 10)
        with pytest.raises(ValueError):
            h.push(0, 11)

    def test_rejects_non_monotone_push(self):
        h = RadixHeap(4, 100)
        h.push(0, 50)
        h.pop()
        with pytest.raises(ValueError):
            h.push(1, 10)  # below the monotone floor

    def test_monotone_sequence_ok(self):
        h = RadixHeap(8, 1000)
        h.push(0, 10)
        h.push(1, 20)
        assert h.pop() == (0, 10.0)
        h.push(2, 15)  # >= last popped: allowed
        assert h.pop() == (2, 15.0)
        assert h.pop() == (1, 20.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_heap("fibonacci", capacity=4)


class TestDijkstraLikeWorkload:
    """Simulated monotone workload, checked against a sorted reference."""

    @pytest.mark.parametrize("kind", HEAP_KINDS)
    def test_random_monotone_workload(self, rng, kind):
        capacity = 128
        h = build(kind, capacity=capacity, max_key=100_000)
        keys = {}
        floor = 0
        for item in range(capacity):
            key = floor + int(rng.integers(0, 100))
            h.push(item, float(key))
            keys[item] = key
        # Random decreases that stay above the floor.
        for item in rng.choice(capacity, size=40, replace=False):
            new_key = max(floor, keys[item] - int(rng.integers(0, 30)))
            h.decrease_key(int(item), float(new_key))
            keys[int(item)] = new_key
        popped = []
        while len(h):
            item, key = h.pop()
            popped.append(key)
            assert key == keys[item]
        assert popped == sorted(popped)


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60)
)
@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_heapsort_property(kind, keys):
    """Any batch of keys comes out sorted (hypothesis)."""
    h = make_heap(kind, capacity=len(keys), max_key=1001)
    for item, key in enumerate(keys):
        h.push(item, float(key))
    out = [h.pop()[1] for _ in range(len(keys))]
    assert out == sorted(float(k) for k in keys)


class TestBinaryHeapInternals:
    def test_capacity_zero(self):
        h = IndexedBinaryHeap(0)
        assert len(h) == 0

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            IndexedBinaryHeap(-1)
        with pytest.raises(ValueError):
            PairingHeap(-1)
        with pytest.raises(ValueError):
            RadixHeap(-1, 10)
