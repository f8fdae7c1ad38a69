"""Prometheus exposition tests: registry instruments, the stats-tree
bridge, and a real-socket scrape of /v1/metrics with counter
monotonicity across requests."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.exceptions import ValidationError
from repro.serve import EngineConfig, SNDService
from repro.serve.http import BackgroundServer
from repro.serve.metrics import (
    CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    ServeMetrics,
    render_samples,
    samples_from_stats,
)


def parse_exposition(text: str):
    """Parse exposition text into ({family: type}, {sample_line_name: value})."""
    types: dict[str, str] = {}
    values: dict[str, float] = {}
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, family, mtype = line.split(" ", 3)
            types[family] = mtype
            continue
        if line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        assert name_part, f"malformed sample line: {line!r}"
        values[name_part] = float(value_part)
    return types, values


class TestInstruments:
    def test_counter_requires_total_suffix(self):
        with pytest.raises(ValidationError):
            Counter("snd_things", "h")

    def test_counter_labels_and_monotonicity(self):
        c = Counter("snd_reqs_total", "h", ("route",))
        c.inc(route="/a")
        c.inc(2, route="/a")
        c.inc(route="/b")
        assert c.value(route="/a") == 3
        with pytest.raises(ValidationError):
            c.inc(-1, route="/a")
        with pytest.raises(ValidationError):
            c.inc(other="x")
        lines = render_samples(c.collect())
        assert '# TYPE snd_reqs_total counter' in lines
        assert 'snd_reqs_total{route="/a"} 3' in lines

    def test_gauge_set(self):
        g = Gauge("snd_depth", "h")
        g.set(4)
        g.set(2)
        _types, values = parse_exposition(render_samples(g.collect()))
        assert values["snd_depth"] == 2

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("snd_lat_seconds", "h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        _types, values = parse_exposition(render_samples(h.collect()))
        assert values['snd_lat_seconds_bucket{le="0.1"}'] == 1
        assert values['snd_lat_seconds_bucket{le="1"}'] == 3
        assert values['snd_lat_seconds_bucket{le="10"}'] == 4
        assert values['snd_lat_seconds_bucket{le="+Inf"}'] == 4
        assert values["snd_lat_seconds_count"] == 4
        assert values["snd_lat_seconds_sum"] == pytest.approx(6.05)

    def test_label_escaping(self):
        c = Counter("snd_esc_total", "h", ("who",))
        c.inc(who='a"b\\c\nd')
        line = render_samples(c.collect())
        assert '{who="a\\"b\\\\c\\nd"}' in line

    def test_registry_collects_in_order(self):
        reg = MetricRegistry()
        reg.counter("snd_a_total", "ha")
        reg.gauge("snd_b", "hb")
        fams = [s.family for s in reg.collect()]
        assert fams == []  # nothing observed yet -> no samples

    def test_help_and_type_emitted_once_per_family(self):
        c = Counter("snd_multi_total", "h", ("k",))
        c.inc(k="1")
        c.inc(k="2")
        text = render_samples(c.collect())
        assert text.count("# TYPE snd_multi_total counter") == 1
        assert text.count("# HELP snd_multi_total") == 1


class TestStatsBridge:
    def test_bare_engine_stats_accepted(self):
        stats = {
            "scheduler": {"requested": 5, "solved": 2, "pending": 0,
                          "clients": {"a": {"requested": 3, "pending": 1}}},
            "caches": {"transitions": {"hits": 1, "misses": 2, "size": 3},
                       "total_nbytes": 64},
            "pool_starts": 1,
            "corpus_query": {"queries": 2, "bounded": 16, "solved": 7},
        }
        _types, values = parse_exposition(
            render_samples(samples_from_stats(stats))
        )
        assert values['snd_scheduler_requested_total{graph="default"}'] == 5
        assert values['snd_client_requested_total{client="a",graph="default"}'] == 3
        assert values['snd_client_pending{client="a",graph="default"}'] == 1
        assert values['snd_cache_hits_total{cache="transitions",graph="default"}'] == 1
        assert values['snd_cache_total_nbytes{graph="default"}'] == 64
        assert values['snd_engine_pool_starts_total{graph="default"}'] == 1
        assert values['snd_corpus_query_bounded_total{graph="default"}'] == 16
        assert values['snd_corpus_query_solved_total{graph="default"}'] == 7

    def test_measure_request_counters(self):
        stats = {
            "measures": {"snd": 4, "esp": 2},
            "shards": {},
        }
        types, values = parse_exposition(
            render_samples(samples_from_stats(stats))
        )
        assert types["snd_measure_requests_total"] == "counter"
        assert values['snd_measure_requests_total{measure="snd"}'] == 4
        assert values['snd_measure_requests_total{measure="esp"}'] == 2

    def test_solver_families_per_shard(self):
        """Each shard's solver counts are its own samples, labelled by
        graph, through the same path as the cache families."""
        g1 = {
            "scheduler": {"requested": 1},
            "network_simplex": {"solves": 7, "warm_solves": 3,
                                "warm_pivots_per_solve": 1.5},
            "hybrid": {"solves": 2, "support_density": 0.5},
        }
        g2 = {"scheduler": {"requested": 1},
              "network_simplex": {"solves": 0}, "hybrid": {"solves": 0}}
        stats = {"shards": {"g1": g1, "g2": g2}}
        types, values = parse_exposition(render_samples(samples_from_stats(stats)))
        assert values['snd_simplex_solves_total{graph="g1"}'] == 7
        assert values['snd_simplex_warm_solves_total{graph="g1"}'] == 3
        assert values['snd_simplex_warm_pivots_per_solve{graph="g1"}'] == 1.5
        assert values['snd_hybrid_solves_total{graph="g1"}'] == 2
        assert values['snd_hybrid_support_density{graph="g1"}'] == 0.5
        assert values['snd_simplex_solves_total{graph="g2"}'] == 0
        assert values['snd_hybrid_solves_total{graph="g2"}'] == 0
        assert types["snd_simplex_solves_total"] == "counter"
        assert types["snd_hybrid_support_density"] == "gauge"
        assert not any(name.startswith("snd_simplex_last") for name in types)

    def test_route_bucket_bounds_cardinality(self):
        m = ServeMetrics()
        assert m.route_bucket("/distance") == "/distance"
        assert m.route_bucket("/../../etc/passwd") == "other"


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve-metrics") / "exp.sqlite")
    rc = main(
        [
            "generate",
            "--nodes", "60",
            "--states", "4",
            "--seeds", "8",
            "--seed", "3",
            "--store", path,
            "--name", "t",
        ]
    )
    assert rc == 0
    return path


class TestScrapeOverHttp:
    def _fetch(self, server, path):
        url = f"http://{server.host}:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode("utf-8")

    def _post(self, server, path, payload):
        url = f"http://{server.host}:{server.port}{path}"
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status

    def test_metrics_endpoint_covers_all_families(self, store_path):
        config = EngineConfig(
            clusters=2, client_max_pending=8, persist_transitions=False
        )
        with BackgroundServer(SNDService(store_path, config=config)) as server:
            # States 0 and 2 differ (0 and 1 are equal: no solve at all).
            assert self._post(server, "/v1/distance",
                              {"name": "t", "i": 0, "j": 2}) == 200
            status, headers, text = self._fetch(server, "/v1/metrics")
            assert status == 200
            assert headers["Content-Type"] == CONTENT_TYPE
            types, values = parse_exposition(text)
            # HTTP instruments
            assert types["snd_http_requests_total"] == "counter"
            assert types["snd_http_request_duration_seconds"] == "histogram"
            assert values[
                'snd_http_requests_total{route="/distance",status="200"}'
            ] == 1
            # scheduler + caches, labelled by graph
            assert types["snd_scheduler_requested_total"] == "counter"
            assert values['snd_scheduler_requested_total{graph="t"}'] == 1
            assert types["snd_scheduler_client_max_pending"] == "gauge"
            for cache in ("ground", "rows", "transitions", "bases"):
                key = f'snd_cache_size{{cache="{cache}",graph="t"}}'
                assert key in values, key
            # the row searches' settled nodes, extensions and unstored rows
            assert types["snd_cache_settled_total"] == "counter"
            assert 'snd_cache_settled_total{cache="rows",graph="t"}' in values
            assert 'snd_cache_extensions_total{cache="rows",graph="t"}' in values
            assert types["snd_cache_skipped_total"] == "counter"
            assert values['snd_cache_skipped_total{cache="rows",graph="t"}'] == 0
            # solver metric families, the shard's own engine counts
            assert values['snd_simplex_solves_total{graph="t"}'] > 0
            assert 'snd_hybrid_solves_total{graph="t"}' in values
            # uptime gauge present
            assert types["snd_serve_uptime_seconds"] == "gauge"

    def test_counters_monotonic_across_scrapes(self, store_path):
        config = EngineConfig(clusters=2, persist_transitions=False)
        with BackgroundServer(SNDService(store_path, config=config)) as server:
            _s, _h, text1 = self._fetch(server, "/v1/metrics")
            _types, before = parse_exposition(text1)
            for j in (1, 2, 3):
                assert self._post(server, "/v1/distance",
                                  {"name": "t", "i": 0, "j": j}) == 200
            _s, _h, text2 = self._fetch(server, "/v1/metrics")
            _types, after = parse_exposition(text2)
            key = 'snd_http_requests_total{route="/distance",status="200"}'
            assert after[key] == before.get(key, 0) + 3
            assert after['snd_scheduler_requested_total{graph="t"}'] == 3
            # every counter is monotone non-decreasing between scrapes
            for name, value in before.items():
                if name.endswith("_total"):
                    assert after.get(name, value) >= value, name
            # histogram invariants on the live scrape
            assert (
                after['snd_http_request_duration_seconds_bucket{le="+Inf",route="/distance"}']
                == after['snd_http_request_duration_seconds_count{route="/distance"}']
            )

    def test_metrics_alias_not_found(self, store_path):
        config = EngineConfig(clusters=2, persist_transitions=False)
        with BackgroundServer(SNDService(store_path, config=config)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._fetch(server, "/metrics")
            assert excinfo.value.code == 404
            assert "Deprecation" not in excinfo.value.headers
            _status, _headers, text = self._fetch(server, "/v1/metrics")
            assert 'snd_http_requests_total{route="other",status="404"} 1' in text
