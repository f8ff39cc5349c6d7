"""Blue/green shadow retrains: bit-identity, failure containment, background mode.

The contract: every retrain re-clusters a *clone* of the live index while the
old index keeps serving, journals mutations that land meanwhile, replays them
onto the shadow and publishes through one atomic reference swap.  The
published index must be **bit-identical** to what the index's own in-place
``retrain()`` would have produced, and a retrain failure anywhere in the
shadow path must leave the live index serving bit-identically (the regression
this pins: the old in-place path corrupted serving state when kmeans died
mid-pass).  Two drivers run the one build — blocking ``maintain()`` and
``begin_``/``poll_shadow_maintenance`` — and :class:`TestDriverParity` holds
them to the same published index, report, WAL record, health and log lines.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

import repro.ann.ivf as ivf_module
from repro.ann import IVFIndex
from repro.core import SCCF, RealTimeServer, SCCFConfig
from repro.core.realtime import MaintenanceReport, MaintenanceScheduler
from repro.core.wal import decode_payload, replay_wal
from repro.testing.faults import InjectedFault

#: imbalance is always >= 1.0, so this threshold forces a retrain every pass
FORCE_RETRAIN = 0.5


def _ivf_server(tiny_dataset, trained_fism, **server_kwargs):
    sccf = SCCF(
        trained_fism,
        SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
        neighbor_index=IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(7)),
    ).fit(tiny_dataset, fit_ui_model=False)
    return RealTimeServer(sccf, tiny_dataset, **server_kwargs)


def _warm(server, tiny_dataset, items=(1,)):
    for user in tiny_dataset.evaluation_users()[:5]:
        for item in items:
            server.observe(user, item)


def _assert_recommend_parity(a, b, tiny_dataset, k=10):
    for user in tiny_dataset.evaluation_users()[:8]:
        assert a.recommend(user, k=k) == b.recommend(user, k=k), f"user {user}"


class TestShadowParity:
    def test_shadow_publish_bit_identical_to_in_place(self, tiny_dataset, trained_fism):
        shadowed = _ivf_server(tiny_dataset, trained_fism)
        in_place = _ivf_server(tiny_dataset, trained_fism)
        _warm(shadowed, tiny_dataset)
        _warm(in_place, tiny_dataset)
        report = shadowed.maintain(imbalance_threshold=FORCE_RETRAIN)
        # the reference: the twin's index re-clustered in place, on this thread
        twin_index = in_place.sccf.neighborhood.index
        twin_index.retrain()
        assert report.retrained and report.error is None
        assert report.imbalance_after == pytest.approx(twin_index.imbalance())
        assert shadowed.sccf.neighborhood.index.epoch == twin_index.epoch
        _assert_recommend_parity(shadowed, in_place, tiny_dataset)

    def test_swap_bumps_epoch_exactly_once(self, tiny_dataset, trained_fism):
        server = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)
        before = server.sccf.neighborhood.index.epoch
        server.maintain(imbalance_threshold=FORCE_RETRAIN)
        assert server.sccf.neighborhood.index.epoch == before + 1

    def test_report_lands_on_last_maintenance_and_health(self, tiny_dataset, trained_fism):
        server = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)
        report = server.maintain(imbalance_threshold=FORCE_RETRAIN)
        assert server.last_maintenance is report
        assert server.health().last_maintenance_error is None

    def test_journaled_mutations_replayed_bit_identically(
        self, tiny_dataset, trained_fism, monkeypatch
    ):
        """Mutations that land *during* the shadow build end up in the
        published index exactly as if the retrain had been in place."""

        during = _ivf_server(tiny_dataset, trained_fism)
        after = _ivf_server(tiny_dataset, trained_fism)
        _warm(during, tiny_dataset)
        _warm(after, tiny_dataset)
        users = tiny_dataset.evaluation_users()
        mutations = [(users[0], 2), (users[1], 3), (tiny_dataset.num_users + 1, 4)]

        real_kmeans = ivf_module.kmeans
        injected = []

        def mutating_kmeans(*args, **kwargs):
            if not injected:
                injected.append(True)
                # the shadow is mid-retrain: these writes hit the *live*
                # index and the journal, never the half-built shadow
                during.observe_batch(mutations)
            return real_kmeans(*args, **kwargs)

        monkeypatch.setattr(ivf_module, "kmeans", mutating_kmeans)
        report = during.maintain(imbalance_threshold=FORCE_RETRAIN)
        monkeypatch.setattr(ivf_module, "kmeans", real_kmeans)
        assert report.journaled_mutations >= 1

        # Control: retrain first (same RNG stream), then the same mutations.
        after.maintain(imbalance_threshold=FORCE_RETRAIN)
        after.observe_batch(mutations)
        _assert_recommend_parity(during, after, tiny_dataset)
        # the cold-start add journaled during the build grew the shadow too
        assert (
            during.sccf.neighborhood.num_users == after.sccf.neighborhood.num_users
        )


class TestFailureContainment:
    def test_kmeans_failure_leaves_live_index_serving_bit_identically(
        self, tiny_dataset, trained_fism, monkeypatch
    ):
        server = _ivf_server(tiny_dataset, trained_fism)
        control = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)
        _warm(control, tiny_dataset)
        epoch_before = server.sccf.neighborhood.index.epoch

        def exploding_kmeans(*args, **kwargs):
            raise InjectedFault("kmeans died mid-recluster")

        monkeypatch.setattr(ivf_module, "kmeans", exploding_kmeans)
        with pytest.raises(InjectedFault):
            server.maintain(imbalance_threshold=FORCE_RETRAIN)
        monkeypatch.undo()

        # live index untouched: same epoch, bit-identical serving
        assert server.sccf.neighborhood.index.epoch == epoch_before
        _assert_recommend_parity(server, control, tiny_dataset)
        # the failure is on record for operators
        report = server.last_maintenance
        assert report is not None and report.supported and not report.retrained
        assert report.error is not None and "InjectedFault" in report.error
        assert server.health().last_maintenance_error == report.error
        # the journal was closed — the next maintain starts a fresh one
        assert not server.sccf.neighborhood.index_journal_active
        ok = server.maintain(imbalance_threshold=FORCE_RETRAIN)
        assert ok.retrained and ok.error is None

    def test_scheduler_contains_shadow_failure_and_backs_off(
        self, tiny_dataset, trained_fism, monkeypatch
    ):
        server = _ivf_server(tiny_dataset, trained_fism)
        scheduler = MaintenanceScheduler(
            server, every_events=2, imbalance_threshold=FORCE_RETRAIN
        )

        def exploding_kmeans(*args, **kwargs):
            raise InjectedFault("kmeans died mid-recluster")

        monkeypatch.setattr(ivf_module, "kmeans", exploding_kmeans)
        assert scheduler.notify(2) is None  # contained, not propagated
        assert scheduler.maintenance_failures == 1
        assert scheduler.failure_streak == 1
        assert "InjectedFault" in scheduler.last_failure
        # backoff: the next attempt needs every_events * 2 events
        assert scheduler.notify(2) is None
        assert scheduler.maintenance_failures == 1  # no second attempt yet
        monkeypatch.undo()
        report = scheduler.notify(2)  # 4 accumulated >= 2 * 2**1
        assert report is not None and report.retrained
        assert scheduler.failure_streak == 0


class TestBackgroundShadow:
    def test_begin_poll_lifecycle(self, tiny_dataset, trained_fism):
        server = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)
        assert server.begin_shadow_maintenance(imbalance_threshold=FORCE_RETRAIN) is None
        assert server.shadow_maintenance_active()
        with pytest.raises(RuntimeError, match="already running"):
            server.begin_shadow_maintenance()
        with pytest.raises(RuntimeError, match="already running"):
            server.maintain()
        # serving keeps answering while the build runs
        assert server.recommend(tiny_dataset.evaluation_users()[0], k=5) is not None
        report = server.poll_shadow_maintenance(wait=True)
        assert report is not None and report.retrained
        assert not server.shadow_maintenance_active()
        assert server.poll_shadow_maintenance() is None  # idempotent when idle

    def test_balanced_index_returns_report_without_launching(
        self, tiny_dataset, trained_fism
    ):
        server = _ivf_server(tiny_dataset, trained_fism)
        report = server.begin_shadow_maintenance(imbalance_threshold=50.0)
        assert report is not None and report.supported and not report.retrained
        assert not server.shadow_maintenance_active()

    def test_unsupported_index_returns_report(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)  # brute force
        report = server.begin_shadow_maintenance()
        assert report is not None and not report.supported

    def test_mutations_during_background_build_survive_the_swap(
        self, tiny_dataset, trained_fism
    ):
        background = _ivf_server(tiny_dataset, trained_fism)
        control = _ivf_server(tiny_dataset, trained_fism)
        _warm(background, tiny_dataset)
        _warm(control, tiny_dataset)
        users = tiny_dataset.evaluation_users()
        assert background.begin_shadow_maintenance(imbalance_threshold=FORCE_RETRAIN) is None
        background.observe(users[0], 2)  # journaled while the worker builds
        report = background.poll_shadow_maintenance(wait=True)
        assert report is not None and report.journaled_mutations >= 1
        control.maintain(imbalance_threshold=FORCE_RETRAIN)
        control.observe(users[0], 2)
        _assert_recommend_parity(background, control, tiny_dataset)

    def test_background_failure_surfaces_at_poll(
        self, tiny_dataset, trained_fism, monkeypatch
    ):
        server = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)

        def exploding_kmeans(*args, **kwargs):
            raise InjectedFault("kmeans died mid-recluster")

        monkeypatch.setattr(ivf_module, "kmeans", exploding_kmeans)
        assert server.begin_shadow_maintenance(imbalance_threshold=FORCE_RETRAIN) is None
        with pytest.raises(InjectedFault):
            server.poll_shadow_maintenance(wait=True)
        monkeypatch.undo()
        assert not server.shadow_maintenance_active()
        assert not server.sccf.neighborhood.index_journal_active
        assert "InjectedFault" in server.health().last_maintenance_error

    def test_background_scheduler_publishes_on_a_later_notify(
        self, tiny_dataset, trained_fism
    ):
        server = _ivf_server(tiny_dataset, trained_fism)
        scheduler = MaintenanceScheduler(
            server,
            every_events=3,
            imbalance_threshold=FORCE_RETRAIN,
            background=True,
        )
        users = tiny_dataset.evaluation_users()
        for user in users[:5]:
            server.observe(user, 1)
        assert scheduler.notify(3) is None  # trips the counter, launches
        assert server.shadow_maintenance_active()
        server._shadow_build.thread.join()  # let the worker finish re-clustering
        report = scheduler.notify(0)  # a later notify publishes the build
        assert report is not None and report.retrained
        assert scheduler.passes_run == 1


def _blocking(server, threshold):
    return server.maintain(threshold)


def _background(server, threshold):
    report = server.begin_shadow_maintenance(threshold)
    if report is not None:
        return report
    assert server.shadow_maintenance_active()
    return server.poll_shadow_maintenance(wait=True)


@pytest.mark.parametrize("drive", [_blocking, _background], ids=["blocking", "background"])
class TestDriverParity:
    """One build, two drivers: everything observable about a pass is the same."""

    @pytest.fixture(autouse=True)
    def _capture_transitions(self, caplog):
        caplog.set_level(logging.INFO, logger="repro.core.realtime")

    @staticmethod
    def _fields(report):
        fields = dataclasses.asdict(report)
        assert fields.pop("duration_ms") >= 0.0
        return fields

    @staticmethod
    def _maintain_records(wal_dir):
        records = [decode_payload(payload) for _, payload in replay_wal(wal_dir)]
        return [body for kind, body in records if kind == "maintain"]

    @staticmethod
    def _transitions(caplog):
        return [
            (record.levelno, record.getMessage().split(":")[0])
            for record in caplog.records
            if record.name == "repro.core.realtime"
        ]

    def test_success(self, drive, tiny_dataset, trained_fism, tmp_path, caplog):
        server = _ivf_server(
            tiny_dataset, trained_fism, wal_dir=tmp_path / "wal", wal_fsync="always"
        )
        twin = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)
        _warm(twin, tiny_dataset)
        epoch_before = server.sccf.neighborhood.index.epoch
        imbalance_before = server.sccf.neighborhood.index.imbalance()
        twin_index = twin.sccf.neighborhood.index
        twin_index.retrain()

        report = drive(server, FORCE_RETRAIN)

        assert server.sccf.neighborhood.index.epoch == epoch_before + 1
        _assert_recommend_parity(server, twin, tiny_dataset)
        assert self._fields(report) == {
            "supported": True,
            "retrained": True,
            "imbalance_before": imbalance_before,
            "imbalance_after": twin_index.imbalance(),
            "threshold": FORCE_RETRAIN,
            "journaled_mutations": 0,
            "error": None,
        }
        assert server.last_maintenance is report
        assert server.health().last_maintenance_error is None
        assert not server.sccf.neighborhood.index_journal_active
        assert self._maintain_records(tmp_path / "wal") == [{"threshold": FORCE_RETRAIN}]
        assert self._transitions(caplog) == [
            (logging.INFO, "maintenance build started"),
            (logging.INFO, "maintenance build published"),
        ]
        published = caplog.records[-1].getMessage()
        assert "0 journaled mutations" in published and f"epoch {epoch_before + 1}" in published
        server.wal.close()

    def test_below_threshold(self, drive, tiny_dataset, trained_fism, tmp_path, caplog):
        server = _ivf_server(
            tiny_dataset, trained_fism, wal_dir=tmp_path / "wal", wal_fsync="always"
        )
        _warm(server, tiny_dataset)
        index = server.sccf.neighborhood.index
        epoch_before, imbalance = index.epoch, index.imbalance()

        report = drive(server, 50.0)

        assert server.sccf.neighborhood.index is index and index.epoch == epoch_before
        assert self._fields(report) == {
            "supported": True,
            "retrained": False,
            "imbalance_before": imbalance,
            "imbalance_after": imbalance,
            "threshold": 50.0,
            "journaled_mutations": 0,
            "error": None,
        }
        assert server.last_maintenance is report
        assert server.health().last_maintenance_error is None
        assert not server.shadow_maintenance_active()
        assert self._maintain_records(tmp_path / "wal") == []
        assert self._transitions(caplog) == []
        server.wal.close()

    def test_unsupported_index(self, drive, fitted_sccf, tiny_dataset, tmp_path, caplog):
        server = RealTimeServer(  # brute force: nothing to re-cluster
            fitted_sccf, tiny_dataset, wal_dir=tmp_path / "wal", wal_fsync="always"
        )

        report = drive(server, None)

        assert report == MaintenanceReport(supported=False)
        assert server.last_maintenance is report
        assert server.health().last_maintenance_error is None
        assert not server.shadow_maintenance_active()
        assert self._maintain_records(tmp_path / "wal") == []
        assert self._transitions(caplog) == []
        server.wal.close()

    def test_kmeans_failure(
        self, drive, tiny_dataset, trained_fism, tmp_path, caplog, monkeypatch
    ):
        server = _ivf_server(
            tiny_dataset, trained_fism, wal_dir=tmp_path / "wal", wal_fsync="always"
        )
        control = _ivf_server(tiny_dataset, trained_fism)
        _warm(server, tiny_dataset)
        _warm(control, tiny_dataset)
        index = server.sccf.neighborhood.index
        epoch_before, imbalance = index.epoch, index.imbalance()

        def exploding_kmeans(*args, **kwargs):
            raise InjectedFault("kmeans died mid-recluster")

        monkeypatch.setattr(ivf_module, "kmeans", exploding_kmeans)
        with pytest.raises(InjectedFault):
            drive(server, FORCE_RETRAIN)
        monkeypatch.undo()

        # contained: the live index object is still installed and untouched
        assert server.sccf.neighborhood.index is index and index.epoch == epoch_before
        _assert_recommend_parity(server, control, tiny_dataset)
        assert not server.shadow_maintenance_active()
        assert not server.sccf.neighborhood.index_journal_active
        error = "InjectedFault: kmeans died mid-recluster"
        assert self._fields(server.last_maintenance) == {
            "supported": True,
            "retrained": False,
            "imbalance_before": imbalance,
            "imbalance_after": imbalance,
            "threshold": FORCE_RETRAIN,
            "journaled_mutations": 0,
            "error": error,
        }
        assert server.health().last_maintenance_error == error
        assert self._maintain_records(tmp_path / "wal") == []
        assert self._transitions(caplog) == [
            (logging.INFO, "maintenance build started"),
            (logging.WARNING, "maintenance build failed, live index untouched"),
        ]
        assert error in caplog.records[-1].getMessage()
        # the journal was closed, so the next pass opens a fresh one and publishes
        assert drive(server, FORCE_RETRAIN).retrained
        assert server.health().last_maintenance_error is None
        server.wal.close()
