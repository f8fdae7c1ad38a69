"""CLI smoke tests and public-API surface checks."""

import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_docstring_flow(self):
        """The README/docstring quickstart must actually run."""
        from repro import SND, NetworkState
        from repro.graph import powerlaw_configuration_graph

        graph = powerlaw_configuration_graph(200, -2.3, k_min=2, seed=0)
        snd = SND(graph, seed=0)
        a = NetworkState.from_active_sets(200, positive=[1, 2], negative=[3])
        b = NetworkState.from_active_sets(200, positive=[1, 5], negative=[3])
        assert snd.distance(a, b) > 0


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--nodes", "100"])
        assert args.command == "generate"
        assert args.nodes == 100

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_solver_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["distance", "--store", "x", "--name", "t", "--solver", "sinkhorn-hybrid"]
            )

    def test_generate_and_distance_roundtrip(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        rc = main(
            [
                "generate",
                "--nodes", "120",
                "--states", "4",
                "--seeds", "15",
                "--seed", "3",
                "--store", store_path,
                "--name", "t",
            ]
        )
        assert rc == 0
        rc = main(
            ["distance", "--store", store_path, "--name", "t", "--measure", "hamming"]
        )
        assert rc == 0

    def test_snd_distance_command(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        main(
            [
                "generate",
                "--nodes", "80",
                "--states", "3",
                "--seeds", "10",
                "--store", store_path,
                "--name", "t",
            ]
        )
        rc = main(
            [
                "distance",
                "--store", store_path,
                "--name", "t",
                "--measure", "snd",
                "--clusters", "2",
            ]
        )
        assert rc == 0

    def test_measure_choices_derived_from_registry(self):
        from repro.distances import default_registry

        parser = build_parser()
        for measure in default_registry().names():
            args = parser.parse_args(["distance", "--measure", measure])
            assert args.measure == measure

    def test_distance_matrix_command(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        main(
            [
                "generate",
                "--nodes", "80",
                "--states", "3",
                "--seeds", "10",
                "--store", store_path,
                "--name", "t",
            ]
        )
        rc = main(
            [
                "distance-matrix",
                "--store", store_path,
                "--name", "t",
                "--measure", "snd",
                "--clusters", "2",
                "--jobs", "2",
            ]
        )
        assert rc == 0

    def test_distance_matrix_output_file(self, tmp_path):
        import numpy as np

        store_path = str(tmp_path / "exp.sqlite")
        out_path = str(tmp_path / "matrix.npy")
        main(
            [
                "generate",
                "--nodes", "60",
                "--states", "3",
                "--seeds", "8",
                "--store", store_path,
                "--name", "t",
            ]
        )
        rc = main(
            [
                "distance-matrix",
                "--store", store_path,
                "--name", "t",
                "--measure", "hamming",
                "--output", out_path,
            ]
        )
        assert rc == 0
        matrix = np.load(out_path)
        assert matrix.shape == (3, 3)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert repro.__version__ in result.stdout


class TestEngineCli:
    @pytest.fixture
    def seeded_store(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        rc = main(
            [
                "generate",
                "--nodes", "60",
                "--states", "5",
                "--seeds", "8",
                "--store", store_path,
                "--name", "t",
            ]
        )
        assert rc == 0
        return store_path

    def test_distance_save_persists_rows(self, seeded_store):
        rc = main(
            [
                "distance",
                "--store", seeded_store,
                "--name", "t",
                "--measure", "snd",
                "--clusters", "2",
                "--save",
                "--cache-stats",
            ]
        )
        assert rc == 0
        from repro.store import ExperimentStore

        with ExperimentStore(seeded_store) as store:
            sid = store.series_id("t", "series")
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM distance_runs WHERE series_id = ?", (sid,)
            ).fetchone()
        assert rows[0] == 4  # 5 states -> 4 transitions

    def test_distance_matrix_save_creates_corpus(self, seeded_store):
        rc = main(
            [
                "distance-matrix",
                "--store", seeded_store,
                "--name", "t",
                "--measure", "snd",
                "--clusters", "2",
                "--save", "mat",
            ]
        )
        assert rc == 0
        from repro.store import ExperimentStore

        with ExperimentStore(seeded_store) as store:
            states, matrix = store.load_corpus("t", "mat")
        assert matrix.shape == (5, 5)
        assert len(states) == 5

    def test_watch_command(self, seeded_store, capsys):
        rc = main(
            [
                "watch",
                "--store", seeded_store,
                "--name", "t",
                "--clusters", "2",
                "--window", "3",
                "--cache-stats",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "transitions solved" in out
        assert "cache stats" in out
        assert "settled=" in out and "terms=" in out and "mirrored=" in out
        assert "extensions=" not in out and "skipped=" not in out

    def test_corpus_lifecycle(self, seeded_store, capsys):
        rc = main(
            [
                "corpus", "build",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
                "--first", "3",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "corpus", "extend",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
                "--take", "2",
            ]
        )
        assert rc == 0
        assert "solved" in capsys.readouterr().out
        rc = main(
            [
                "corpus", "query",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
                "--state", "0",
                "-k", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "nearest corpus members" in out

    def test_corpus_extend_exhausted_series(self, seeded_store, capsys):
        main(
            [
                "corpus", "build",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
            ]
        )
        rc = main(
            [
                "corpus", "extend",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
            ]
        )
        assert rc == 0
        assert "nothing to extend" in capsys.readouterr().out

    def test_corpus_query_bad_state(self, seeded_store):
        main(
            [
                "corpus", "build",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
            ]
        )
        rc = main(
            [
                "corpus", "query",
                "--store", seeded_store,
                "--name", "t",
                "--corpus", "c",
                "--clusters", "2",
                "--state", "99",
            ]
        )
        assert rc == 1

    def test_corpus_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["corpus"])

    def test_watch_jobs_zero_is_serial(self, seeded_store, capsys):
        # --jobs 0 documents "serial"; it must not be coerced to auto.
        rc = main(
            [
                "watch",
                "--store", seeded_store,
                "--name", "t",
                "--clusters", "2",
                "--jobs", "0",
            ]
        )
        assert rc == 0
        assert "transitions solved" in capsys.readouterr().out
