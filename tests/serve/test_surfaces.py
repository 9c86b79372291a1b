"""SurfaceStore: versioning, atomicity, caching, validation."""

import struct
import threading

import numpy as np
import pytest

from repro.experiments.tradeoff import DesignSurface
from repro.serve.surfaces import SurfaceStore, UnknownSurface, _check_name


def make_surface(c_loads_pF, powers_mW, c_max=5e-12):
    c = np.asarray(c_loads_pF, dtype=float) * 1e-12
    p = np.asarray(powers_mW, dtype=float) * 1e-3
    x = np.arange(len(c), dtype=float).reshape(-1, 1)
    return DesignSurface(x, c, p, c_load_max=c_max)


class TestNames:
    @pytest.mark.parametrize(
        "bad",
        ["", ".hidden", "../escape", "a/b", "a b", "x" * 65, "-lead"],
    )
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            _check_name(bad)

    @pytest.mark.parametrize("good", ["a", "itest", "v1.2-rc_3", "X" * 64])
    def test_valid_accepted(self, good):
        assert _check_name(good) == good

    def test_store_rejects_bad_name_everywhere(self, tmp_path):
        store = SurfaceStore(tmp_path)
        surface = make_surface([1, 2], [1, 2])
        with pytest.raises(ValueError):
            store.register("../oops", surface)
        with pytest.raises(ValueError):
            store.versions("../oops")
        with pytest.raises(ValueError):
            store.path_for("../oops", 1)


class TestVersioning:
    def test_register_assigns_increasing_versions(self, tmp_path):
        store = SurfaceStore(tmp_path)
        s1 = make_surface([1, 2, 3], [1, 2, 3])
        s2 = make_surface([1, 2, 3, 4], [1, 2, 3, 4])
        assert store.register("amp", s1) == 1
        assert store.register("amp", s2) == 2
        assert store.versions("amp") == [1, 2]
        assert store.latest_version("amp") == 2
        assert store.names() == ["amp"]
        assert store.path_for("amp", 2).exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]))
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_unknown_surface_raises(self, tmp_path):
        store = SurfaceStore(tmp_path)
        with pytest.raises(UnknownSurface):
            store.versions("ghost")
        with pytest.raises(UnknownSurface):
            store.load("ghost")
        with pytest.raises(UnknownSurface):
            store.power_at("ghost", 1e-12)
        store.register("amp", make_surface([1, 2], [1, 2]))
        with pytest.raises(UnknownSurface):
            store.load("amp", version=99)

    def test_persistence_across_store_instances(self, tmp_path):
        SurfaceStore(tmp_path).register("amp", make_surface([1, 2, 3], [1, 2, 3]))
        fresh = SurfaceStore(tmp_path)
        assert fresh.names() == ["amp"]
        loaded = fresh.load("amp")
        assert loaded.size == 3

    def test_describe(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2, 3], [1, 2, 3]))
        info = store.describe("amp")
        assert info["name"] == "amp"
        assert info["version"] == 1
        assert info["versions"] == [1]
        assert info["size"] == 3
        assert info["c_load_min"] == pytest.approx(1e-12)
        assert info["power_min"] == pytest.approx(1e-3)
        assert info["path"].endswith("v0001.json")


class TestLatestVersion:
    def test_version_registered_by_another_store_is_served(self, tmp_path):
        first = SurfaceStore(tmp_path)
        first.register("amp", make_surface([1, 2], [1, 2]))
        assert first.power_at("amp", 1.5e-12) == pytest.approx(1.5e-3)
        second = SurfaceStore(tmp_path)
        second.register("amp", make_surface([1, 2], [3, 4]))
        expected = float(second.load("amp").power_at(1.5e-12))
        served = first.power_at("amp", 1.5e-12)
        assert struct.pack("<d", served) == struct.pack("<d", expected)
        assert first.latest_version("amp") == 2

    def test_query_lists_no_directory_once_cached(self, tmp_path, monkeypatch):
        SurfaceStore(tmp_path).register("amp", make_surface([1, 2], [1, 2]))
        store = SurfaceStore(tmp_path)
        listed = []
        real = store._versions_in
        monkeypatch.setattr(
            store, "_versions_in", lambda d: listed.append(d) or real(d)
        )
        for i in range(5):
            store.power_at("amp", (1 + i * 0.1) * 1e-12)
        assert len(listed) == 1  # the cold cache
        store.register("amp", make_surface([1, 2], [3, 4]))
        for i in range(5):
            store.power_at("amp", (1 + i * 0.1) * 1e-12)
        assert len(listed) == 1
        assert store.latest_version("amp") == 2

    def test_missing_cached_version_falls_back_to_listing(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]))
        store.register("amp", make_surface([1, 2], [3, 4]))
        assert store.latest_version("amp") == 2
        store.path_for("amp", 2).unlink()
        assert store.latest_version("amp") == 1
        store.path_for("amp", 1).unlink()
        with pytest.raises(UnknownSurface):
            store.latest_version("amp")


class TestQueries:
    def test_power_at_byte_identical_to_direct_call(self, tmp_path):
        store = SurfaceStore(tmp_path)
        surface = make_surface([1.0, 2.5, 4.0], [1.0, 1.7, 3.1])
        store.register("amp", surface)
        for c in (1.0e-12, 1.7e-12, 2.5e-12, 3.9e-12):
            served = store.power_at("amp", c)
            direct = float(surface.power_at(c))
            assert struct.pack("<d", served) == struct.pack("<d", direct)

    def test_query_cache_hit_counters(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]))
        first = store.power_at("amp", 1.5e-12)
        base = store.stats()
        second = store.power_at("amp", 1.5e-12)
        after = store.stats()
        assert first == second
        assert after["query_hits"] == base["query_hits"] + 1
        assert after["query_misses"] == base["query_misses"]

    def test_design_for_returns_copy(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]))
        answer = store.design_for("amp", 1.5e-12)
        answer["power"] = -1.0
        again = store.design_for("amp", 1.5e-12)
        assert again["power"] > 0

    def test_lru_eviction_bounds_cache(self, tmp_path):
        store = SurfaceStore(tmp_path, cache_size=8)
        store.register("amp", make_surface([1, 2], [1, 2]))
        for i in range(40):
            store.power_at("amp", (1.0 + i * 0.02) * 1e-12)
        stats = store.stats()
        assert stats["query_cache_size"] <= 8
        assert stats["query_evictions"] >= 32

    def test_version_pinning(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1.0, 2.0]))
        store.register("amp", make_surface([1, 2], [0.5, 1.5]))
        assert store.power_at("amp", 2e-12, version=1) == pytest.approx(2e-3)
        assert store.power_at("amp", 2e-12) == pytest.approx(1.5e-3)

    def test_concurrent_register_and_query(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]))
        errors = []

        def writer():
            try:
                for i in range(5):
                    store.register("amp", make_surface([1, 2, 3], [1, 2, 3]))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                for i in range(50):
                    store.power_at("amp", (1 + (i % 10) * 0.1) * 1e-12)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.latest_version("amp") == 6


class TestMetadataSidecar:
    META = {"trace_id": "t1", "job_id": "j1", "worker": "w0", "attempt": 1}

    def test_register_with_metadata_writes_sidecar(self, tmp_path):
        store = SurfaceStore(tmp_path)
        version = store.register("amp", make_surface([1, 2], [1, 2]),
                                 metadata=self.META)
        assert store.metadata("amp", version) == self.META
        assert store.meta_path_for("amp", version).exists()

    def test_metadata_defaults_to_latest_version(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]),
                       metadata={"trace_id": "old"})
        store.register("amp", make_surface([1, 2, 3], [1, 2, 3]),
                       metadata={"trace_id": "new"})
        assert store.metadata("amp")["trace_id"] == "new"
        assert store.metadata("amp", 1)["trace_id"] == "old"

    def test_register_without_metadata_writes_no_sidecar(self, tmp_path):
        store = SurfaceStore(tmp_path)
        version = store.register("amp", make_surface([1, 2], [1, 2]))
        assert store.metadata("amp", version) is None
        assert not store.meta_path_for("amp", version).exists()

    def test_sidecar_is_invisible_to_version_scans(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]), metadata=self.META)
        assert store.versions("amp") == [1]

    def test_surface_payload_bytes_unchanged_by_metadata(self, tmp_path):
        # Provenance must not leak into the surface artifact itself.
        surface = make_surface([1, 2, 3], [1, 2, 3])
        plain = SurfaceStore(tmp_path / "plain")
        tagged = SurfaceStore(tmp_path / "tagged")
        v1 = plain.register("amp", surface)
        v2 = tagged.register("amp", surface, metadata=self.META)
        assert (
            plain.path_for("amp", v1).read_bytes()
            == tagged.path_for("amp", v2).read_bytes()
        )

    def test_describe_includes_metadata_when_present(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.register("amp", make_surface([1, 2], [1, 2]), metadata=self.META)
        assert store.describe("amp")["metadata"] == self.META
        store.register("bare", make_surface([1, 2], [1, 2]))
        assert "metadata" not in store.describe("bare")

    def test_corrupt_sidecar_reads_as_none(self, tmp_path):
        store = SurfaceStore(tmp_path)
        version = store.register("amp", make_surface([1, 2], [1, 2]),
                                 metadata=self.META)
        store.meta_path_for("amp", version).write_text("{broken", encoding="utf-8")
        assert store.metadata("amp", version) is None
