"""Tests for SNDService — the shared backend behind the CLI and HTTP tier."""

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import StoreError, ValidationError
from repro.serve import EngineConfig, SNDService


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "exp.sqlite")
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


@pytest.fixture
def service(store_path):
    with SNDService(store_path, config=EngineConfig(clusters=2)) as svc:
        yield svc


class TestDistances:
    def test_series_distances_match_direct_registry(self, service, store_path):
        from repro.distances import DistanceContext, default_registry
        from repro.store import ExperimentStore

        got = service.series_distances("t")
        with ExperimentStore(store_path) as store:
            graph = store.load_graph("t")
            series = store.load_series("t", "series")
        context = DistanceContext(graph=graph)
        context.ensure_snd(n_clusters=2, seed=0, solver="auto")
        expected = default_registry().series("snd", series, context)
        assert np.array_equal(got, expected)

    def test_non_snd_measure(self, service):
        values = service.series_distances("t", measure="hamming")
        assert len(values) == 4
        # Baseline measures must not force an SND instance into existence.
        assert all(v >= 0 for v in values)

    def test_matrix_symmetric_zero_diagonal(self, service):
        matrix = service.matrix("t")
        assert matrix.shape == (5, 5)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_distance_pair_bit_identical_to_series(self, service):
        series_values = service.series_distances("t")
        assert service.distance_pair("t", 0, 1) == series_values[0]
        assert service.distance_pair("t", 3, 4) == series_values[3]

    def test_measure_request_counters(self, service):
        assert service.measure_requests() == {}
        service.series_distances("t", measure="hamming")
        service.series_distances("t", measure="esp")
        service.series_distances("t", measure="esp")
        service.distance_pair("t", 0, 1)
        counts = service.measure_requests()
        assert counts == {"hamming": 1, "esp": 2, "snd": 1}
        assert service.stats()["measures"] == counts

    def test_distance_pair_out_of_range(self, service):
        with pytest.raises(ValidationError, match="out of range"):
            service.distance_pair("t", 0, 99)
        with pytest.raises(ValidationError, match="out of range"):
            service.distance_pair("t", -1, 0)

    def test_unknown_graph_raises_store_error(self, service):
        with pytest.raises(StoreError, match="no graph"):
            service.series_distances("missing")

    def test_windowed_series(self, service):
        full = service.series_distances("t")
        windowed = service.series_distances("t", window=2)
        assert len(windowed) == len(full)
        assert np.array_equal(windowed, full)  # window caps history, not values


class TestWatch:
    def test_watch_yields_scored_updates(self, service):
        # One update per state (the first carries no distance) plus the
        # detector's final flush: 5 states -> 6 updates, 4 transitions.
        updates = list(service.watch("t", window=3))
        assert len(updates) == 6
        distances = [u.distance for u in updates if u.distance is not None]
        assert len(distances) == 4
        scored = [u.scored for u in updates if u.scored is not None]
        assert len(scored) == 4  # one score per transition (lagged + flush)
        # Watch goes through the scheduler like everything else.
        assert service.shard("t").engine().scheduler.requested >= 4

    def test_watch_threshold_propagates(self, service):
        updates = list(service.watch("t", window=3, threshold=1e9))
        scored = [u.scored for u in updates if u.scored is not None]
        assert scored
        assert all(s.threshold == 1e9 for s in scored)
        assert not any(s.flagged for s in scored)


class TestCorpora:
    def test_build_extend_query_lifecycle(self, service):
        built = service.corpus_build("t", "c", first=3)
        assert built == {"corpus": "c", "n_states": 3, "pairs_solved": 3}

        extended = service.corpus_extend("t", "c", take=2)
        assert extended["old_n"] == 3
        assert extended["n_states"] == 5
        assert extended["added"] == 2

        neighbours = service.corpus_query("t", "c", 0, k=2)
        assert len(neighbours) == 2
        assert neighbours[0][1] <= neighbours[1][1]
        rows = service.list_corpora("t")
        assert ("t", "c", 5) in rows

    def test_extend_exhausted_series(self, service):
        service.corpus_build("t", "full")
        result = service.corpus_extend("t", "full")
        assert result["added"] == 0
        assert result["solved"] == 0
        assert result["n_states"] == result["old_n"] == 5
        assert result["series_states"] == 5

    def test_query_out_of_range(self, service):
        service.corpus_build("t", "q", first=2)
        with pytest.raises(ValidationError, match="out of range"):
            service.corpus_query("t", "q", 99)

    def test_query_self_distance_zero(self, service):
        service.corpus_build("t", "self")
        neighbours = service.corpus_query("t", "self", 0, k=1)
        assert neighbours[0][1] == 0.0


class TestStatsAndLifecycle:
    def test_stats_structure(self, service):
        service.distance_pair("t", 0, 1)  # forces the shard engine into being
        stats = service.stats()
        assert stats["store"] == service.store_path
        shard = stats["shards"]["t"]
        assert shard["n_states"] == 5
        assert "scheduler" in shard
        for key in ("requested", "solved", "coalesced", "cache_answered"):
            assert key in shard["scheduler"]

    def test_stats_before_engine_exists(self, service):
        # A shard loaded for a non-SND measure has no engine yet: stats
        # must still answer (with bare cache counters).
        service.series_distances("t", measure="hamming")
        shard_stats = service.stats()["shards"]["t"]
        assert shard_stats["n_states"] == 5
        assert "scheduler" not in shard_stats

    def test_cache_stats_surface(self, service):
        service.series_distances("t")
        stats = service.cache_stats("t")
        assert stats is not None
        assert "transitions" in stats

    def test_names_lists_loaded_shards(self, service):
        assert service.names() == []
        service.shard("t")
        assert service.names() == ["t"]

    def test_close_idempotent(self, store_path):
        svc = SNDService(store_path, config=EngineConfig(clusters=2))
        svc.series_distances("t")
        svc.close()
        svc.close()  # second close must be a no-op
        assert svc.names() == []


class TestOneEnginePerShard:
    def test_every_snd_operation_shares_the_shard_engine(
        self, store_path, monkeypatch
    ):
        import repro.snd.engine as engine_module

        created = []

        class CountingEngine(engine_module.SNDEngine):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("jobs"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "SNDEngine", CountingEngine)
        config = EngineConfig(clusters=2, jobs=1, persist_transitions=False)
        with SNDService(store_path, config=config) as svc:
            svc.distance_pair("t", 0, 1)
            svc.series_distances("t")
            svc.series_distances("t", window=3)
            svc.matrix("t")
            list(svc.watch("t", window=3))
            svc.corpus_build("t", "one-engine", first=3)
            svc.corpus_extend("t", "one-engine", take=1)
            svc.corpus_query("t", "one-engine", 4, k=2)
        assert created == [1]


class TestSolverCountsPerShard:
    def test_two_shards_count_separately(self, tmp_path):
        """Each shard reports the solves of its own engine: work on one
        graph never shows in another's counts."""
        path = str(tmp_path / "two.sqlite")
        for name, seed in (("a", "3"), ("b", "4")):
            assert main([
                "generate", "--nodes", "60", "--states", "3", "--seeds", "8",
                "--seed", seed, "--store", path, "--name", name,
            ]) == 0
        config = EngineConfig(clusters=2, persist_transitions=False)
        with SNDService(path, config=config) as svc:
            svc.shard("b").engine()  # both engines exist, only "a" solves
            assert svc.distance_pair("a", 0, 2) > 0
            shards = svc.stats()["shards"]
        assert shards["a"]["network_simplex"]["solves"] > 0
        assert shards["b"]["network_simplex"]["solves"] == 0
