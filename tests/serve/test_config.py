"""EngineConfig: validation, mapping round-trips, per-layer keyword
views, and the legacy SNDService keyword shim."""

import warnings

import pytest

from repro.exceptions import ValidationError
from repro.serve import EngineConfig, SNDService
from repro.serve.config import DEFAULT_FLUSH_INTERVAL, PRIORITY_CLASSES


class TestValidation:
    def test_defaults_validate(self):
        config = EngineConfig()
        assert config.solver == "auto"
        assert config.flush_interval == DEFAULT_FLUSH_INTERVAL

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"priority": ""},
            {"priority": "urgent"},
            {"max_pending": 0},
            {"client_max_pending": 0},
            {"memory_budget": 0},
            {"flush_interval": 0},
            {"flush_interval": -1.0},
            {"max_pending": -1},
            {"client_max_pending": -3},
            {"memory_budget": -1},
            {"jobs": 0},
            {"jobs": "many"},
            {"jobs": True},
            {"solver": "nope"},
            {"solver": "exact"},
            {"solver": "sinkhorn-hybrid"},
            {"clusters": 0},
            {"clusters": -3},
            {"clusters": "3"},
            {"clusters": 2.5},
            {"clusters": True},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["hybrid_cells", "executor", "use_row_cache", "use_basis_cache"]
    )
    def test_removed_fields_rejected(self, name):
        with pytest.raises(TypeError, match=name):
            EngineConfig(**{name: None})
        with pytest.raises(ValidationError, match=name):
            EngineConfig.from_mapping({name: 1}, strict=True)

    def test_priority_classes_cover_scheduler_weights(self):
        assert set(PRIORITY_CLASSES) == {"low", "normal", "high"}


class TestMappingRoundTrip:
    def test_from_mapping_skips_none_and_unknown(self):
        config = EngineConfig.from_mapping(
            {"clusters": 4, "jobs": None, "not_a_field": 1}
        )
        assert config.clusters == 4
        assert config.jobs == "auto"  # None fell back to the default

    def test_from_mapping_strict_rejects_unknown(self):
        with pytest.raises(ValidationError):
            EngineConfig.from_mapping({"not_a_field": 1}, strict=True)

    def test_to_dict_round_trips(self):
        config = EngineConfig(clusters=3, solver="network-simplex", seed=7)
        clone = EngineConfig.from_mapping(config.to_dict())
        assert clone == config

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(clusters=5).clusters == 5
        assert config.clusters is None  # original untouched
        with pytest.raises(ValidationError):
            config.replace(max_pending=0)


class TestLayerViews:
    def test_snd_kwargs(self):
        config = EngineConfig(clusters=2, seed=9, solver="lp")
        assert config.snd_kwargs() == {
            "n_clusters": 2,
            "seed": 9,
            "solver": "lp",
        }

    def test_engine_kwargs_defaults_max_pending(self):
        from repro.snd.scheduler import DEFAULT_MAX_PENDING

        kwargs = EngineConfig().engine_kwargs()
        assert set(kwargs) == {"jobs", "max_pending", "client_max_pending"}
        assert kwargs["max_pending"] == DEFAULT_MAX_PENDING
        assert kwargs["client_max_pending"] is None
        assert EngineConfig(max_pending=7).engine_kwargs()["max_pending"] == 7


class TestLegacyServiceShim:
    """The keyword spellings that predate ``EngineConfig`` are gone:
    ``SNDService`` takes its configuration only as ``config=``."""

    def test_legacy_kwargs_rejected(self, tmp_path):
        from repro.store import ExperimentStore

        path = str(tmp_path / "exp.sqlite")
        ExperimentStore(path).close()
        for name, value in [("clusters", 3), ("solver", "auto"), ("jobs", 2),
                            ("seed", 1), ("max_pending", 8)]:
            with pytest.raises(TypeError, match=name):
                SNDService(path, **{name: value})

    def test_config_plus_legacy_kwargs_rejected(self, tmp_path):
        from repro.store import ExperimentStore

        path = str(tmp_path / "exp.sqlite")
        ExperimentStore(path).close()
        with pytest.raises(TypeError):
            SNDService(path, config=EngineConfig(), clusters=3)

    def test_config_only_emits_no_warning(self, tmp_path):
        from repro.store import ExperimentStore

        path = str(tmp_path / "exp.sqlite")
        ExperimentStore(path).close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with SNDService(path, config=EngineConfig(clusters=2)) as service:
                assert service.config.clusters == 2
