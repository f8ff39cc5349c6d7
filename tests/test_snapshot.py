"""Crash-safe snapshot persistence: format, atomicity, faults, serve parity.

The contract under test (ROADMAP "blue/green index versioning + snapshot
persistence"): ``save_snapshot`` writes every byte through tmp-file + fsync +
atomic rename with the manifest committed last, so a crash anywhere mid-write
leaves either the previous committed generation or the new one — never a
loadable-but-corrupt directory; ``load_snapshot`` cold-starts a replica that
serves **bit-identical** recommendations.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.ann import BruteForceIndex, IVFIndex, ShardedIndex, restore_index
from repro.core import SCCF, RealTimeServer, SCCFConfig
from repro.core.merger import IntegratingMLP
from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotNotFoundError,
    list_generations,
    previous_generation,
    read_snapshot,
    write_snapshot,
)
from repro.testing.faults import FaultInjector, InjectedFault


def _state(tag: int) -> dict:
    return {
        "meta": {"tag": tag, "nested": {"flag": True}},
        "arrays": {"rows": np.arange(6, dtype=np.float64) + tag, "ids": np.arange(6)},
    }


class TestWriteRead:
    def test_round_trip_preserves_tree_and_arrays(self, tmp_path):
        generation = write_snapshot(tmp_path, _state(3), epoch=7)
        payload = read_snapshot(generation)
        assert payload.epoch == 7
        assert payload.generation == 1
        assert payload.state["meta"] == {"tag": 3, "nested": {"flag": True}}
        np.testing.assert_array_equal(
            payload.state["arrays"]["rows"], np.arange(6, dtype=np.float64) + 3
        )
        assert payload.state["arrays"]["rows"].dtype == np.float64

    def test_root_resolves_newest_committed_generation(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        write_snapshot(tmp_path, _state(2), epoch=2)
        payload = read_snapshot(tmp_path)
        assert payload.epoch == 2
        assert payload.path.name == "gen-000002"

    def test_keep_prunes_oldest(self, tmp_path):
        for tag in range(4):
            write_snapshot(tmp_path, _state(tag), epoch=tag, keep=2)
        names = [path.name for path in list_generations(tmp_path)]
        assert names == ["gen-000003", "gen-000004"]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path, _state(0), keep=0)

    def test_empty_root_is_a_clear_error(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError, match="no committed snapshot generation"):
            read_snapshot(tmp_path)

    def test_missing_root_is_a_named_error(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError, match="does not exist"):
            read_snapshot(tmp_path / "never-created")
        # The named error is still a SnapshotError: existing handlers keep working.
        assert issubclass(SnapshotNotFoundError, SnapshotError)

    def test_current_pointing_at_pruned_generation_is_a_named_error(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        generation = write_snapshot(tmp_path, _state(2), epoch=2)
        # The CURRENT-named generation vanishes (over-eager cleanup, lost
        # volume): the loader must name the problem, not KeyError or
        # FileNotFoundError its way through the manifest walk.
        shutil.rmtree(generation)
        with pytest.raises(SnapshotNotFoundError, match="no longer exists"):
            read_snapshot(tmp_path)

    def test_wal_seq_round_trips_through_manifest(self, tmp_path):
        generation = write_snapshot(tmp_path, _state(0), wal_seq=41)
        assert read_snapshot(generation).wal_seq == 41
        # Pre-WAL snapshots (no manifest key) default to 0: replay everything.
        older = write_snapshot(tmp_path, _state(1))
        assert read_snapshot(older).wal_seq == 0

    def test_future_format_version_rejected(self, tmp_path):
        generation = write_snapshot(tmp_path, _state(0))
        manifest_path = generation / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format"):
            read_snapshot(generation)

    def test_missing_segment_rejected(self, tmp_path):
        generation = write_snapshot(tmp_path, _state(0))
        (generation / "arrays.rows.npy").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            read_snapshot(generation)

    def test_duplicate_array_paths_rejected(self, tmp_path):
        # Key "a.b" at the root collides with nested {"a": {"b": array}}.
        state = {"a.b": np.arange(2), "a": {"b": np.arange(2)}}
        with pytest.raises(SnapshotError, match="duplicate"):
            write_snapshot(tmp_path, state)

    def test_non_string_keys_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="key"):
            write_snapshot(tmp_path, {"arrays": {3: np.arange(2)}})

    def test_previous_generation_walks_backwards(self, tmp_path):
        write_snapshot(tmp_path, _state(1))
        newest = write_snapshot(tmp_path, _state(2))
        prev = previous_generation(tmp_path, newest)
        assert prev is not None and prev.name == "gen-000001"
        assert previous_generation(tmp_path, prev) is None


class TestCrashFaults:
    """Each injected fault must fail loudly and spare the previous generation."""

    def test_crash_before_manifest_commit_never_publishes(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        FaultInjector().fail_snapshot_commit(filename="manifest.json")
        with pytest.raises(InjectedFault):
            write_snapshot(tmp_path, _state(2), epoch=2)
        # The root still resolves the previous committed generation...
        assert read_snapshot(tmp_path).epoch == 1
        # ...and the interrupted directory is rejected by name with a clear error.
        interrupted = tmp_path / "gen-000002"
        assert interrupted.is_dir()
        with pytest.raises(SnapshotError, match="no manifest"):
            read_snapshot(interrupted)

    def test_crash_on_segment_commit_never_publishes(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        FaultInjector().fail_snapshot_commit(filename="arrays.rows.npy")
        with pytest.raises(InjectedFault):
            write_snapshot(tmp_path, _state(2), epoch=2)
        assert read_snapshot(tmp_path).epoch == 1

    def test_write_after_interrupted_write_recovers(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        FaultInjector().fail_snapshot_commit(filename="manifest.json")
        with pytest.raises(InjectedFault):
            write_snapshot(tmp_path, _state(2), epoch=2)
        write_snapshot(tmp_path, _state(3), epoch=3)  # patch removed itself
        assert read_snapshot(tmp_path).epoch == 3

    def test_truncated_segment_rejected_previous_loads(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        newest = write_snapshot(tmp_path, _state(2), epoch=2)
        FaultInjector().truncate_snapshot_file(newest, "arrays.rows.npy", keep_bytes=16)
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(newest)
        prev = previous_generation(tmp_path, newest)
        assert prev is not None and read_snapshot(prev).epoch == 1

    def test_corrupt_checksum_rejected_previous_loads(self, tmp_path):
        write_snapshot(tmp_path, _state(1), epoch=1)
        newest = write_snapshot(tmp_path, _state(2), epoch=2)
        FaultInjector().corrupt_snapshot_checksum(newest, "arrays.rows.npy")
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(newest)
        prev = previous_generation(tmp_path, newest)
        assert prev is not None and read_snapshot(prev).epoch == 1


def _search_parity(saved, restored, queries, k=10):
    for before, after in zip(saved.search_batch(queries, k), restored.search_batch(queries, k)):
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])


class TestIndexBackends:
    """snapshot_state → restore_index is bit-identical for every backend."""

    def test_brute_force_round_trip(self, rng):
        vectors = rng.normal(size=(40, 8))
        index = BruteForceIndex().build(vectors)
        restored = restore_index(index.snapshot_state())
        assert restored.epoch == index.epoch
        _search_parity(index, restored, rng.normal(size=(5, 8)))

    def test_ivf_round_trip_including_rng_stream(self, rng):
        index = IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(11)).build(
            rng.normal(size=(60, 8))
        )
        index.add(rng.normal(size=(20, 8)) + 3.0)  # skew some cells
        restored = restore_index(index.snapshot_state())
        assert restored.epoch == index.epoch
        queries = rng.normal(size=(6, 8))
        _search_parity(index, restored, queries)
        # The saved RNG bit-generator state makes even a *future retrain*
        # bit-identical — the replica and the original stay interchangeable.
        index.retrain()
        restored.retrain()
        _search_parity(index, restored, queries)

    def test_thread_sharded_round_trip(self, rng):
        vectors = rng.normal(size=(50, 8))
        index = ShardedIndex(num_shards=3).build(vectors)
        restored = restore_index(index.snapshot_state())
        assert restored.epoch == index.epoch
        _search_parity(index, restored, rng.normal(size=(5, 8)))

    def test_sharded_snapshot_recording_num_threads_still_restores(self, rng):
        # older "sharded" trees carry the thread count the index no longer has
        index = ShardedIndex(num_shards=2).build(rng.normal(size=(30, 8)))
        state = index.snapshot_state()
        assert "num_threads" not in state["meta"]
        state["meta"]["num_threads"] = 2
        restored = restore_index(state)
        assert restored.epoch == index.epoch
        _search_parity(index, restored, rng.normal(size=(5, 8)))

    def test_process_sharded_snapshot_fails_loudly(self, rng):
        # a tree saved by the removed process backend: same layout as
        # "sharded", different kind tag
        state = ShardedIndex(num_shards=2).build(rng.normal(size=(8, 4))).snapshot_state()
        state["kind"] = "process_sharded"
        with pytest.raises(ValueError, match="removed.*re-fit.*'sharded' snapshot"):
            restore_index(state)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown index snapshot kind"):
            restore_index({"kind": "faiss"})


class TestMergerRoundTrip:
    def test_weights_and_frozen_predict_state_survive(self, fitted_sccf, tiny_dataset):
        merger = fitted_sccf.merger
        restored = IntegratingMLP.restore_state(merger.snapshot_state())
        assert restored.generation == merger.generation
        user = tiny_dataset.evaluation_users()[0]
        history = tiny_dataset.train.user_sequence(user)
        [features] = fitted_sccf._candidate_features_batch([user], [history])
        assert features is not None
        np.testing.assert_array_equal(merger.predict(features), restored.predict(features))


class TestServerRoundTrip:
    @pytest.fixture()
    def saved_server(self, tiny_dataset, trained_fism):
        sccf = SCCF(
            trained_fism,
            SCCFConfig(
                num_neighbors=10,
                candidate_list_size=30,
                merger_epochs=2,
                cache_capacity=32,
                seed=3,
            ),
            neighbor_index=IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(7)),
        ).fit(tiny_dataset, fit_ui_model=False)
        server = RealTimeServer(sccf, tiny_dataset, default_deadline_ms=250.0)
        users = tiny_dataset.evaluation_users()
        for user in users[:6]:
            server.observe(user, 1)
        server.maintain(imbalance_threshold=0.5)
        server.observe(users[0], 2)
        return server

    def _fresh_sccf(self, trained_fism):
        return SCCF(
            trained_fism,
            SCCFConfig(
                num_neighbors=10,
                candidate_list_size=30,
                merger_epochs=2,
                cache_capacity=32,
                seed=3,
            ),
            neighbor_index=IVFIndex(num_cells=4, n_probe=2),
        )

    def test_save_load_serve_parity(self, saved_server, tiny_dataset, trained_fism, tmp_path):
        saved_server.save_snapshot(tmp_path)
        restored = RealTimeServer.load_snapshot(
            tmp_path, self._fresh_sccf(trained_fism), tiny_dataset
        )
        assert restored.default_deadline_ms == saved_server.default_deadline_ms
        for user in tiny_dataset.evaluation_users()[:8]:
            assert restored.history(user) == saved_server.history(user)
            assert restored.recommend(user, k=10) == saved_server.recommend(user, k=10)

    def test_snapshot_recording_max_score_bytes_still_restores(
        self, saved_server, tiny_dataset, trained_fism, tmp_path, monkeypatch
    ):
        # older cache configs carry the byte budget of the retired scores layer
        cache = saved_server.sccf.cache
        assert cache.snapshot_config() == {"capacity": 32}
        monkeypatch.setattr(
            cache, "snapshot_config", lambda: {"capacity": 32, "max_score_bytes": None}
        )
        generation = saved_server.save_snapshot(tmp_path)
        assert "max_score_bytes" in read_snapshot(generation).state["sccf"]["cache"]
        restored = RealTimeServer.load_snapshot(
            tmp_path, self._fresh_sccf(trained_fism), tiny_dataset
        )
        assert restored.sccf.cache.snapshot_config() == {"capacity": 32}
        for user in tiny_dataset.evaluation_users()[:8]:
            assert restored.recommend(user, k=10) == saved_server.recommend(user, k=10)

    def test_snapshot_epoch_matches_index(self, saved_server, tmp_path):
        generation = saved_server.save_snapshot(tmp_path)
        payload = read_snapshot(generation)
        assert payload.epoch == saved_server.sccf.neighborhood.index.epoch

    def test_save_snapshot_rejects_nonpositive_keep_before_writing(
        self, saved_server, tmp_path
    ):
        # keep=0 would delete every generation including the one just
        # written; the server must refuse before touching disk, not after.
        with pytest.raises(ValueError, match="keep"):
            saved_server.save_snapshot(tmp_path, keep=0)
        assert not any(tmp_path.iterdir())

    def test_restored_server_keeps_streaming(self, saved_server, tiny_dataset, trained_fism, tmp_path):
        saved_server.save_snapshot(tmp_path)
        restored = RealTimeServer.load_snapshot(
            tmp_path, self._fresh_sccf(trained_fism), tiny_dataset
        )
        user = tiny_dataset.evaluation_users()[0]
        restored.observe(user, 3)
        assert restored.history(user)[-1] == 3
        assert restored.recommend(user, k=5) is not None
        # maintenance still works on the restored stack (rng state restored)
        report = restored.maintain(imbalance_threshold=0.5)
        assert report.retrained and report.error is None

    def test_overrides_replace_saved_config(self, saved_server, tiny_dataset, trained_fism, tmp_path):
        saved_server.save_snapshot(tmp_path)
        restored = RealTimeServer.load_snapshot(
            tmp_path,
            self._fresh_sccf(trained_fism),
            tiny_dataset,
            default_deadline_ms=5.0,
            maintenance_every=16,
        )
        assert restored.default_deadline_ms == 5.0
        assert restored.scheduler is not None and restored.scheduler.every_events == 16

    def test_save_refused_mid_shadow_build(self, saved_server, tmp_path):
        saved_server.observe(0, 1)
        launched = saved_server.begin_shadow_maintenance(imbalance_threshold=0.5)
        if launched is None:
            with pytest.raises(RuntimeError, match="shadow"):
                saved_server.save_snapshot(tmp_path)
            saved_server.poll_shadow_maintenance(wait=True)
        saved_server.save_snapshot(tmp_path)  # fine once published
