"""Transition-cache persistence: spill on close, warm start on build,
and the kill-and-restart replay guarantee (solved == 0 on the second
run), counter-asserted end to end."""

import json
import logging
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import main
from repro.serve import EngineConfig, SNDService
from repro.serve.http import BackgroundServer
from repro.store import ExperimentStore


@pytest.fixture
def store_path(tmp_path):
    path = str(tmp_path / "exp.sqlite")
    rc = main(
        [
            "generate",
            "--nodes", "60",
            "--states", "5",
            "--seeds", "8",
            "--seed", "3",
            "--store", path,
            "--name", "t",
        ]
    )
    assert rc == 0
    return path


CONFIG = EngineConfig(clusters=2)
PAIRS = [(0, 1), (1, 2), (0, 3), (2, 4)]


def _replay(service):
    return [service.distance_pair("t", i, j) for i, j in PAIRS]


class TestServiceRoundTrip:
    def test_restart_answers_replay_without_solving(self, store_path):
        with SNDService(store_path, config=CONFIG) as first:
            values = _replay(first)
            stats = first.stats()["shards"]["t"]
            assert stats["scheduler"]["solved"] == len(PAIRS)
            assert stats["transitions_loaded"] == 0
        # close() flushed; a brand-new service over the same store warms
        # its transition cache and answers the identical trace with zero
        # fresh solves — the restart-robustness guarantee.
        with SNDService(store_path, config=CONFIG) as second:
            again = _replay(second)
            assert again == values  # bit-identical across restart
            stats = second.stats()["shards"]["t"]
            assert stats["scheduler"]["solved"] == 0
            assert stats["scheduler"]["cache_answered"] == len(PAIRS)
            assert stats["transitions_loaded"] >= len(PAIRS)

    def test_flush_is_incremental(self, store_path):
        with SNDService(store_path, config=CONFIG) as service:
            service.distance_pair("t", 0, 1)
            assert service.flush() > 0
            # Nothing new solved since: the dirty-state snapshot makes
            # the second flush a no-op.
            assert service.flush() == 0
            service.distance_pair("t", 1, 2)
            assert service.flush() > 0
            stats = service.stats()["shards"]["t"]
            assert stats["transitions_persisted"] > 0

    def test_persistence_disabled_writes_nothing(self, store_path):
        config = CONFIG.replace(persist_transitions=False)
        with SNDService(store_path, config=config) as service:
            _replay(service)
            assert service.flush() == 0
        with ExperimentStore(store_path) as store:
            assert store.count_transitions("t") == 0
        # ...and a warm service over the same store has nothing to load.
        with SNDService(store_path, config=CONFIG) as service:
            shard = service.shard("t")
            shard.ensure_snd()
            assert shard.stats()["transitions_loaded"] == 0

    def test_spilled_rows_survive_in_store(self, store_path):
        with SNDService(store_path, config=CONFIG) as service:
            _replay(service)
        with ExperimentStore(store_path) as store:
            n = store.count_transitions("t")
            assert n >= len(PAIRS)
            rows = store.load_transitions("t")
            assert len(rows) == n
            assert all(isinstance(v, float) for _a, _b, v in rows)


def _failing_once(monkeypatch):
    """Make the next ``ExperimentStore.save_transitions`` call raise."""
    original = ExperimentStore.save_transitions
    calls = []

    def save_transitions(self, graph_name, rows):
        calls.append(len(rows))
        if len(calls) == 1:
            raise sqlite3.OperationalError("disk I/O error")
        return original(self, graph_name, rows)

    monkeypatch.setattr(ExperimentStore, "save_transitions", save_transitions)
    return calls


def _stored_rows(store_path):
    with ExperimentStore(store_path) as store:
        return {(a, b): v for a, b, v in store.load_transitions("t")}


class TestFlushFailure:
    """A store write that raises must not mark the snapshot as flushed."""

    def test_next_flush_retries_the_failed_rows(self, store_path, monkeypatch):
        calls = _failing_once(monkeypatch)
        with SNDService(store_path, config=CONFIG) as service:
            _replay(service)
            with pytest.raises(sqlite3.OperationalError):
                service.flush()
            stats = service.stats()["shards"]["t"]
            assert stats["flush_failures"] == 1
            assert stats["transitions_persisted"] == 0
            expected = service.shard("t").context.snd.caches.transitions.export_rows()
            assert service.flush() == len(expected)
            assert service.flush() == 0  # now clean
            stats = service.stats()["shards"]["t"]
            assert stats["transitions_persisted"] == len(expected)
            assert stats["flush_failures"] == 1
        assert calls == [len(expected), len(expected)]
        assert _stored_rows(store_path) == {(a, b): v for a, b, v in expected}

    def test_close_persists_after_a_failed_flush(self, store_path, monkeypatch):
        _failing_once(monkeypatch)
        service = SNDService(store_path, config=CONFIG)
        values = _replay(service)
        with pytest.raises(sqlite3.OperationalError):
            service.flush()
        expected = service.shard("t").context.snd.caches.transitions.export_rows()
        service.close()
        assert _stored_rows(store_path) == {(a, b): v for a, b, v in expected}
        with SNDService(store_path, config=CONFIG) as warm:
            assert _replay(warm) == values
            assert warm.stats()["shards"]["t"]["scheduler"]["solved"] == 0

    def test_failure_counter_is_scraped(self, store_path, monkeypatch):
        from repro.serve.metrics import samples_from_stats

        _failing_once(monkeypatch)
        with SNDService(store_path, config=CONFIG) as service:
            service.distance_pair("t", 0, 1)
            with pytest.raises(sqlite3.OperationalError):
                service.flush()
            samples = samples_from_stats(service.stats())
        failures = [s for s in samples if s.name == "snd_persistence_flush_failures_total"]
        assert [s.value for s in failures] == [1.0]


    def test_one_failing_shard_skips_no_other(self, store_path, monkeypatch):
        rc = main([
            "generate", "--nodes", "60", "--states", "5", "--seeds", "8",
            "--seed", "4", "--store", store_path, "--name", "u",
        ])
        assert rc == 0
        original = ExperimentStore.save_transitions

        def save_transitions(self, graph_name, rows):
            if graph_name == "t":
                raise sqlite3.OperationalError("disk I/O error")
            return original(self, graph_name, rows)

        monkeypatch.setattr(ExperimentStore, "save_transitions", save_transitions)
        service = SNDService(store_path, config=CONFIG)
        engines = [service.shard(name).engine() for name in ("t", "u")]
        service.distance_pair("t", 0, 1)
        service.distance_pair("u", 0, 1)
        with pytest.raises(sqlite3.OperationalError):
            service.flush()
        assert service.stats()["shards"]["u"]["transitions_persisted"] > 0
        with pytest.raises(sqlite3.OperationalError):
            service.close()
        assert all(engine._closed for engine in engines)

    def test_flush_loop_logs_and_retries(self, store_path, monkeypatch, caplog):
        _failing_once(monkeypatch)
        config = CONFIG.replace(flush_interval=0.02)
        service = SNDService(store_path, config=config)
        with caplog.at_level(logging.ERROR, logger="repro.serve.http"):
            with BackgroundServer(service) as server:
                url = f"http://{server.host}:{server.port}/v1/distance"
                request = urllib.request.Request(
                    url, data=json.dumps({"name": "t", "i": 0, "j": 1}).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60) as resp:
                    value = json.loads(resp.read().decode())["distance"]
                shard = service.shard("t")
                deadline = time.monotonic() + 30
                while shard.transitions_persisted == 0 and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert shard.flush_failures == 1
                assert shard.transitions_persisted > 0  # a later tick retried
        assert "transition flush failed" in caplog.text
        with SNDService(store_path, config=CONFIG) as warm:
            assert warm.distance_pair("t", 0, 1) == value
            assert warm.stats()["shards"]["t"]["scheduler"]["solved"] == 0


class TestRestartOverHttp:
    def _post(self, server, path, payload):
        url = f"http://{server.host}:{server.port}{path}"
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            return json.loads(resp.read().decode())

    def _stats(self, server):
        url = f"http://{server.host}:{server.port}/v1/stats"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read().decode())

    def test_kill_and_restart_replay(self, store_path):
        """Full server lifecycle: serve a trace, tear the server down,
        start a fresh one on the same store, replay — zero solves."""
        trace = [{"name": "t", "i": i, "j": j} for i, j in PAIRS]
        with BackgroundServer(SNDService(store_path, config=CONFIG)) as server:
            cold = [self._post(server, "/v1/distance", r)["distance"] for r in trace]
            assert self._stats(server)["shards"]["t"]["scheduler"]["solved"] == len(PAIRS)
        with BackgroundServer(SNDService(store_path, config=CONFIG)) as server:
            warm = [self._post(server, "/v1/distance", r)["distance"] for r in trace]
            stats = self._stats(server)["shards"]["t"]
            assert warm == cold
            assert stats["scheduler"]["solved"] == 0
            assert stats["transitions_loaded"] >= len(PAIRS)

    def test_sigterm_flushes_before_exit(self, store_path):
        """Process managers stop services with SIGTERM: the server must
        flush the transition cache on the way down, exactly like SIGINT,
        so the next process warm-starts."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", store_path, "--port", "0", "--clusters", "2",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, bufsize=1,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1])

            class _Addr:
                host = "127.0.0.1"

            server = _Addr()
            server.port = port
            cold = [
                self._post(server, "/v1/distance", {"name": "t", "i": i, "j": j})
                for i, j in PAIRS
            ]
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                proc.kill()
                raise
        assert proc.returncode == 0, err
        assert "shutting down" in out
        with ExperimentStore(store_path) as store:
            assert store.count_transitions("t") >= len(PAIRS)
        with SNDService(store_path, config=CONFIG) as service:
            warm = _replay(service)
            assert warm == [r["distance"] for r in cold]
            assert service.stats()["shards"]["t"]["scheduler"]["solved"] == 0
