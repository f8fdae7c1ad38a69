"""Tests for the SQLite experiment store."""

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.state import NetworkState, StateSeries
from repro.store import ExperimentStore


@pytest.fixture
def store():
    with ExperimentStore(":memory:") as s:
        yield s


@pytest.fixture
def graph():
    return erdos_renyi_graph(20, 0.2, seed=0)


class TestGraphs:
    def test_roundtrip(self, store, graph):
        store.save_graph("g", graph)
        assert store.load_graph("g") == graph

    def test_missing_graph(self, store):
        with pytest.raises(StoreError):
            store.load_graph("nope")

    def test_replace(self, store, graph):
        store.save_graph("g", graph)
        other = erdos_renyi_graph(10, 0.3, seed=1)
        store.save_graph("g", other)
        assert store.load_graph("g") == other

    def test_list(self, store, graph):
        store.save_graph("a", graph)
        store.save_graph("b", graph)
        names = [name for name, *_ in store.list_graphs()]
        assert names == ["a", "b"]


class TestSeries:
    def test_roundtrip_with_labels(self, store, graph):
        store.save_graph("g", graph)
        series = StateSeries(
            [NetworkState.neutral(20), NetworkState.from_active_sets(20, positive=[1])],
            labels=["normal", "anomalous"],
        )
        store.save_series("g", "s", series)
        back = store.load_series("g", "s")
        assert len(back) == 2
        assert back.labels == ["normal", "anomalous"]
        assert back[1] == series[1]

    def test_roundtrip_without_labels(self, store, graph):
        store.save_graph("g", graph)
        series = StateSeries([NetworkState.neutral(20)])
        store.save_series("g", "s", series)
        assert store.load_series("g", "s").labels is None

    def test_series_requires_graph(self, store):
        series = StateSeries([NetworkState.neutral(5)])
        with pytest.raises(StoreError):
            store.save_series("missing", "s", series)

    def test_missing_series(self, store, graph):
        store.save_graph("g", graph)
        with pytest.raises(StoreError):
            store.load_series("g", "nope")


class TestResults:
    def test_record_and_query(self, store):
        store.record_result("fig8", "tpr_at_0.3", 0.83, params={"measure": "snd"})
        store.record_result("fig8", "tpr_at_0.3", 0.40, params={"measure": "hamming"})
        rows = store.results("fig8")
        assert len(rows) == 2
        metric, params, value = rows[0]
        assert metric == "tpr_at_0.3"
        assert params == {"measure": "snd"}
        assert value == 0.83

    def test_distance_rows(self, store, graph):
        store.save_graph("g", graph)
        series = StateSeries([NetworkState.neutral(20), NetworkState.neutral(20)])
        sid = store.save_series("g", "s", series)
        store.record_distance(sid, "snd", 0, 1, 3.5, elapsed_s=0.01)
        # No exception and queryable through raw connection:
        rows = store._conn.execute(
            "SELECT measure, value FROM distance_runs WHERE series_id = ?", (sid,)
        ).fetchall()
        assert rows == [("snd", 3.5)]

    def test_file_persistence(self, tmp_path, graph):
        path = tmp_path / "exp.sqlite"
        with ExperimentStore(path) as store:
            store.save_graph("g", graph)
        with ExperimentStore(path) as store:
            assert store.load_graph("g") == graph


class TestLabelRoundtrip:
    def test_long_labels_not_truncated(self, store, graph):
        # dtype="U64" used to clip labels beyond 64 characters on save.
        long_label = "quarter-" + "x" * 100
        store.save_graph("g", graph)
        series = StateSeries(
            [NetworkState.neutral(20), NetworkState.neutral(20)],
            labels=[long_label, "short"],
        )
        store.save_series("g", "s", series)
        back = store.load_series("g", "s")
        assert back.labels == [long_label, "short"]
        assert len(back.labels[0]) == len(long_label)

    def test_series_id(self, store, graph):
        store.save_graph("g", graph)
        sid = store.save_series("g", "s", StateSeries([NetworkState.neutral(20)]))
        assert store.series_id("g", "s") == sid
        with pytest.raises(StoreError):
            store.series_id("g", "nope")


class TestCorpora:
    def test_roundtrip(self, store, graph):
        store.save_graph("g", graph)
        series = StateSeries(
            [NetworkState.neutral(20), NetworkState.from_active_sets(20, positive=[3])]
        )
        matrix = np.array([[0.0, 1.5], [1.5, 0.0]])
        store.save_corpus("g", "c", series, matrix)
        states, back = store.load_corpus("g", "c")
        assert np.array_equal(back, matrix)
        assert len(states) == 2 and states[1] == series[1]

    def test_replace(self, store, graph):
        store.save_graph("g", graph)
        one = StateSeries([NetworkState.neutral(20)])
        store.save_corpus("g", "c", one, np.zeros((1, 1)))
        two = StateSeries([NetworkState.neutral(20), NetworkState.neutral(20)])
        store.save_corpus("g", "c", two, np.zeros((2, 2)))
        states, matrix = store.load_corpus("g", "c")
        assert len(states) == 2 and matrix.shape == (2, 2)

    def test_shape_mismatch_rejected(self, store, graph):
        store.save_graph("g", graph)
        series = StateSeries([NetworkState.neutral(20)])
        with pytest.raises(StoreError):
            store.save_corpus("g", "c", series, np.zeros((2, 2)))

    def test_requires_graph(self, store):
        series = StateSeries([NetworkState.neutral(5)])
        with pytest.raises(StoreError):
            store.save_corpus("missing", "c", series, np.zeros((1, 1)))

    def test_missing_corpus(self, store, graph):
        store.save_graph("g", graph)
        with pytest.raises(StoreError):
            store.load_corpus("g", "nope")

    def test_list_corpora(self, store, graph):
        store.save_graph("g", graph)
        series = StateSeries([NetworkState.neutral(20)])
        store.save_corpus("g", "b", series, np.zeros((1, 1)))
        store.save_corpus("g", "a", series, np.zeros((1, 1)))
        assert store.list_corpora() == [("g", "a", 1), ("g", "b", 1)]
        assert store.list_corpora("other") == []


class TestMigration:
    V1_DDL = """
    CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
    CREATE TABLE graphs (
        id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL UNIQUE,
        n_nodes INTEGER NOT NULL, n_edges INTEGER NOT NULL, blob BLOB NOT NULL,
        created_at TEXT NOT NULL DEFAULT (datetime('now'))
    );
    CREATE TABLE state_series (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        graph_id INTEGER NOT NULL REFERENCES graphs(id) ON DELETE CASCADE,
        name TEXT NOT NULL, n_states INTEGER NOT NULL, blob BLOB NOT NULL,
        created_at TEXT NOT NULL DEFAULT (datetime('now')),
        UNIQUE (graph_id, name)
    );
    CREATE TABLE distance_runs (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        series_id INTEGER REFERENCES state_series(id) ON DELETE CASCADE,
        measure TEXT NOT NULL, t_from INTEGER NOT NULL, t_to INTEGER NOT NULL,
        value REAL NOT NULL, elapsed_s REAL,
        created_at TEXT NOT NULL DEFAULT (datetime('now'))
    );
    CREATE TABLE experiment_results (
        id INTEGER PRIMARY KEY AUTOINCREMENT, experiment TEXT NOT NULL,
        metric TEXT NOT NULL, params TEXT NOT NULL DEFAULT '{}',
        value REAL NOT NULL,
        created_at TEXT NOT NULL DEFAULT (datetime('now'))
    );
    INSERT INTO meta (key, value) VALUES ('schema_version', '1');
    """

    def test_v1_database_upgrades_in_place(self, tmp_path, graph):
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(self.V1_DDL)
        conn.commit()
        conn.close()
        with ExperimentStore(path) as store:
            assert store.schema_version == 4
            # The v2 table exists and is usable.
            store.save_graph("g", graph)
            series = StateSeries([NetworkState.neutral(20)])
            store.save_corpus("g", "c", series, np.zeros((1, 1)))
            assert store.list_corpora() == [("g", "c", 1)]

    def test_newer_schema_rejected(self, tmp_path):
        import sqlite3

        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta (key, value) VALUES ('schema_version', '99');"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            ExperimentStore(path)

    def test_fresh_database_lands_on_current_version(self, store):
        assert store.schema_version == 4


class TestTransitionCachePersistence:
    """The v3 transition_cache table: upsert semantics, ordering, and
    cascade deletion with the owning graph."""

    def test_round_trip(self, store, graph):
        store.save_graph("g", graph)
        rows = [(b"ka1", b"kb1", 0.25), (b"ka2", b"kb2", 1.5)]
        assert store.save_transitions("g", rows) == 2
        assert store.count_transitions("g") == 2
        loaded = store.load_transitions("g")
        assert sorted(loaded) == sorted(rows)
        assert all(isinstance(a, bytes) and isinstance(b, bytes)
                   for a, b, _v in loaded)

    def test_upsert_overwrites_value(self, store, graph):
        store.save_graph("g", graph)
        store.save_transitions("g", [(b"a", b"b", 1.0)])
        store.save_transitions("g", [(b"a", b"b", 2.0)])
        assert store.count_transitions("g") == 1
        assert store.load_transitions("g")[0][2] == 2.0

    def test_empty_rows_noop(self, store, graph):
        store.save_graph("g", graph)
        assert store.save_transitions("g", []) == 0
        assert store.load_transitions("g") == []

    def test_unknown_graph_rejected(self, store):
        with pytest.raises(StoreError):
            store.save_transitions("missing", [(b"a", b"b", 1.0)])
        with pytest.raises(StoreError):
            store.load_transitions("missing")

    def test_per_graph_isolation(self, store, graph):
        store.save_graph("g1", graph)
        store.save_graph("g2", graph)
        store.save_transitions("g1", [(b"a", b"b", 1.0)])
        assert store.load_transitions("g2") == []

    def test_v2_database_gains_transition_table(self, tmp_path, graph):
        """A pre-v3 store (no transition_cache table) upgrades in place
        on open and immediately accepts spills."""
        import sqlite3

        path = tmp_path / "v2.sqlite"
        with ExperimentStore(path) as store:
            store.save_graph("g", graph)
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE transition_cache")
        conn.execute(
            "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with ExperimentStore(path) as store:
            assert store.schema_version == 4
            store.save_transitions("g", [(b"a", b"b", 0.5)])
            assert store.count_transitions("g") == 1

    def test_v3_rows_dropped_on_upgrade(self, tmp_path, graph):
        """A v3 store's rows are keyed by raw opinion bytes, which no
        32-byte state digest can match: opening it as v4 empties the
        spilled cache, and new 32-byte rows go in as usual."""
        import sqlite3

        path = tmp_path / "v3.sqlite"
        with ExperimentStore(path) as store:
            store.save_graph("g", graph)
        raw = bytes(graph.num_nodes)  # a v3 key: one int8 per user
        conn = sqlite3.connect(path)
        conn.executemany(
            "INSERT INTO transition_cache (graph_id, key_a, key_b, value) "
            "VALUES (1, ?, ?, ?)",
            [(raw, raw[:-1] + b"\x01", 0.5), (raw[:-1] + b"\x01", raw, 0.5)],
        )
        conn.execute("UPDATE meta SET value = '3' WHERE key = 'schema_version'")
        conn.commit()
        assert conn.execute("SELECT COUNT(*) FROM transition_cache").fetchone() == (2,)
        conn.close()
        with ExperimentStore(path) as store:
            assert store.schema_version == 4
            assert store.count_transitions("g") == 0
            digest = bytes(32)
            store.save_transitions("g", [(digest, b"\x01" * 32, 0.25)])
        with ExperimentStore(path) as store:  # a v4 store keeps its rows
            assert store.load_transitions("g") == [(digest, b"\x01" * 32, 0.25)]
