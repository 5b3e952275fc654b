"""The content-addressed :class:`~repro.core.store.Store` contract.

:class:`StoreSuite` is one suite run once per codec: the design tier's
pickle codec here (:class:`TestDesignStore`) and the broker's JSON
result codec in ``tests/test_service_schema.py``
(``TestResultStore``).  A subclass supplies ``codec``, ``value(i)`` (a
distinct storable value) and ``invalid_entry(key)`` (bytes the codec
parses but must reject: a wrong-type pickle, a result stored under
another key).
"""

import pickle

import pytest

from repro.core.cache import DESIGN_CODEC
from repro.core.flow import BlockDesign, FlowConfig
from repro.core.store import Store
from repro.obs.metrics import MetricsRegistry, use_registry

class StoreSuite:
    """The contract every codec's store must keep."""

    codec = None

    def value(self, i):
        raise NotImplementedError

    def invalid_entry(self, key):
        raise NotImplementedError

    def key(self, i):
        return str(i) * 64

    def test_memory_round_trip(self):
        store = Store(codec=self.codec)
        key, val = self.key(0), self.value(0)
        assert store.put(key, val) is False  # no disk tier
        assert store.get(key) == val
        assert store.get(self.key(1)) is None
        assert store.load(key) is None

    def test_disk_tier_survives_a_fresh_store(self, tmp_path):
        key, val = self.key(0), self.value(0)
        assert Store(tmp_path, self.codec).put(key, val) is True
        assert [p.name for p in tmp_path.iterdir()] == \
            [key + self.codec.suffix]
        fresh = Store(tmp_path, self.codec)
        assert fresh.get(key) is None
        assert fresh.load(key) == val
        assert fresh.get(key) == val  # the hit moved into memory

    def test_corrupt_disk_entry_is_a_miss_and_dropped(self, tmp_path):
        key = self.key(0)
        Store(tmp_path, self.codec).put(key, self.value(0))
        path = Store(tmp_path, self.codec).path(key)
        whole = path.read_bytes()
        for junk in (whole[:len(whole) // 2], b"\x00garbage{"):
            path.write_bytes(junk)
            fresh = Store(tmp_path, self.codec)
            with use_registry(MetricsRegistry()) as reg:
                assert fresh.load(key) is None
            assert not path.exists()
            assert fresh.drops == 1
            assert reg.snapshot()["counters"]["cache.corrupt_drops"] == 1

    def test_wrong_type_or_key_entry_is_dropped(self, tmp_path):
        key = self.key(0)
        store = Store(tmp_path, self.codec)
        path = store.path(key)
        path.write_bytes(self.invalid_entry(key))
        assert store.load(key) is None
        assert not path.exists()
        assert store.drops == 1

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store directory should go")
        store = Store(blocker / "sub", self.codec)
        key, val = self.key(0), self.value(0)
        assert store.directory is None
        assert store.put(key, val) is False
        assert store.get(key) == val
        assert store.load(key) is None

    def test_memory_tier_is_fifo_capped(self, tmp_path):
        store = Store(tmp_path, self.codec, max_entries=2)
        for i in range(3):
            store.put(self.key(i), self.value(i))
        assert len(store) == 2
        assert store.evictions == 1
        assert store.get(self.key(0)) is None
        assert store.get(self.key(2)) == self.value(2)
        # the disk tier keeps the evicted entry
        assert store.load(self.key(0)) == self.value(0)
        store.clear()
        assert len(store) == 0 and store.evictions == 0


def _design(i):
    """A stand-in design: the codec checks the type, never the fields."""
    return BlockDesign(
        name=f"blk{i}", config=FlowConfig(seed=i), netlist=None,
        outline=None, footprint_um2=float(i), wirelength_um=0.0,
        n_cells=i, n_buffers=0, n_vias=0, tsv_area_um2=0.0,
        long_wires=0, hvt_fraction=0.0, power=None, sta=None, cts=None,
        routing=None)


class TestDesignStore(StoreSuite):
    codec = DESIGN_CODEC

    def value(self, i):
        return _design(i)

    def invalid_entry(self, key):
        return pickle.dumps({"not": "a BlockDesign"})


def test_disk_tier_needs_a_codec(tmp_path):
    with pytest.raises(ValueError, match="codec"):
        Store(tmp_path)

