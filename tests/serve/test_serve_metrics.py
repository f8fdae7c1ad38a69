"""Prometheus exposition tests: a golden scrape, the live HTTP families,
the stats-tree bridge, and a real-socket scrape of /v1/metrics with
counter monotonicity across requests."""

import json
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.serve import EngineConfig, SNDService
from repro.serve.http import BackgroundServer
from repro.serve.metrics import (
    CONTENT_TYPE,
    ServeMetrics,
    render_samples,
    samples_from_stats,
)

FIXTURES = Path(__file__).parent


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


#: Fixed HTTP observations rendered into the golden scrape: latencies
#: spread over the buckets and one past the last, an unknown path, and a
#: status other than 200.
GOLDEN_REQUESTS = (
    ("/distance", 200, 0.0042),
    ("/distance", 200, 0.0191),
    ("/distance", 400, 0.0007),
    ("/no/such/path", 404, 0.0003),
    ("/metrics", 200, 0.03),
    ("/watch", 200, 7.5),
    ("/matrix", 200, 12.0),
)


def golden_render() -> str:
    """The scrape of ``golden_stats.json`` plus :data:`GOLDEN_REQUESTS`,
    without the uptime gauge (the one family that reads the clock)."""
    metrics = ServeMetrics()
    for path, status, seconds in GOLDEN_REQUESTS:
        metrics.observe_request(path, status, seconds)
    stats = json.loads((FIXTURES / "golden_stats.json").read_text())
    return "".join(
        line + "\n"
        for line in metrics.render(stats).splitlines()
        if "snd_serve_uptime_seconds" not in line
    )


def family_of(line: str) -> str:
    """The metric family a HELP, TYPE or sample line belongs to."""
    if line.startswith("#"):
        return line.split(" ")[2]
    name = line.split("{")[0].split(" ")[0]
    histogram = "snd_http_request_duration_seconds"
    return histogram if name.startswith(histogram) else name


class TestGoldenScrape:
    """``golden_scrape.txt`` is the render of the same stats tree and HTTP
    observations by the table-driven exporter this one replaced, except
    the ``snd_client_rejected_total`` HELP line, corrected since: a
    client's ``rejected`` also counts its quota refusals."""

    def test_every_golden_line_rendered(self):
        rendered = set(golden_render().splitlines())
        golden = (FIXTURES / "golden_scrape.txt").read_text().splitlines()
        assert [line for line in golden if line not in rendered] == []

    def test_new_lines_only_for_keys_the_tables_dropped(self):
        golden = set((FIXTURES / "golden_scrape.txt").read_text().splitlines())
        new = [line for line in golden_render().splitlines() if line not in golden]
        assert {family_of(line) for line in new} == {
            "snd_cache_exact_hits_total",
            "snd_cache_reverse_hits_total",
            "snd_cache_supplier_hits_total",
            "snd_engine_jobs",
            "snd_engine_capacity",
            "snd_engine_n_states",
        }

    def test_one_contiguous_block_per_family(self):
        seen: list[str] = []
        for line in golden_render().splitlines():
            family = family_of(line)
            if not seen or seen[-1] != family:
                assert family not in seen, f"{family} split in two blocks"
                seen.append(family)


class TestInstruments:
    """The two live HTTP families, recorded by :class:`ServeMetrics`."""

    def test_counter_requires_total_suffix(self):
        """Every counter family in a full scrape ends in ``_total``."""
        types, _values = parse_exposition(golden_render())
        counters = [name for name, mtype in types.items() if mtype == "counter"]
        assert counters and all(name.endswith("_total") for name in counters)

    def test_counter_labels_and_monotonicity(self):
        m = ServeMetrics()
        m.observe_request("/distance", 200, 0.01)
        m.observe_request("/distance", 200, 0.01)
        m.observe_request("/distance", 400, 0.01)
        m.observe_request("/series", 200, 0.01)
        text = m.render()
        assert "# TYPE snd_http_requests_total counter" in text
        _types, values = parse_exposition(text)
        assert values['snd_http_requests_total{route="/distance",status="200"}'] == 2
        assert values['snd_http_requests_total{route="/distance",status="400"}'] == 1
        m.observe_request("/distance", 200, 0.01)
        _types, after = parse_exposition(m.render())
        assert after['snd_http_requests_total{route="/distance",status="200"}'] == 3
        assert all(after[name] >= value for name, value in values.items()
                   if name.endswith("_total") or "_bucket" in name)

    def test_gauges_read_the_current_stats_value(self):
        m = ServeMetrics()
        for pending in (4, 2):
            _types, values = parse_exposition(
                m.render({"scheduler": {"pending": pending}})
            )
        assert values['snd_scheduler_pending{graph="default"}'] == 2

    def test_histogram_buckets_are_cumulative(self):
        m = ServeMetrics()
        for v in (0.0005, 0.02, 0.02, 5.0, 60.0):
            m.observe_request("/distance", 200, v)
        _types, values = parse_exposition(m.render())

        def bucket(le):
            return values[
                f'snd_http_request_duration_seconds_bucket{{le="{le}",route="/distance"}}'
            ]

        assert bucket("0.001") == 1
        assert bucket("0.01") == 1
        assert bucket("0.025") == 3
        assert bucket("5") == 4
        assert bucket("10") == 4
        assert bucket("+Inf") == 5
        assert values['snd_http_request_duration_seconds_count{route="/distance"}'] == 5
        assert values['snd_http_request_duration_seconds_sum{route="/distance"}'] == (
            pytest.approx(65.0405)
        )

    def test_label_escaping(self):
        stats = {"scheduler": {"clients": {'a"b\\c\nd': {"requested": 1}}}}
        text = ServeMetrics().render(stats)
        assert 'snd_client_requested_total{client="a\\"b\\\\c\\nd",graph="default"} 1' in text

    def test_no_http_rows_before_the_first_request(self):
        types, _values = parse_exposition(ServeMetrics().render())
        assert list(types) == ["snd_serve_uptime_seconds"]

    def test_threads_lose_no_observations(self):
        """Eight threads recording at once, switching every microsecond:
        every request is counted once and bucketed once."""
        import sys
        import threading

        m = ServeMetrics()

        def record():
            for _ in range(500):
                m.observe_request("/distance", 200, 0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        _types, values = parse_exposition(m.render())
        assert values['snd_http_requests_total{route="/distance",status="200"}'] == 4000
        assert values['snd_http_request_duration_seconds_bucket{le="0.005",route="/distance"}'] == 4000
        assert values['snd_http_request_duration_seconds_bucket{le="0.001",route="/distance"}'] == 0

    def test_help_and_type_emitted_once_per_family(self):
        m = ServeMetrics()
        for route in ("/distance", "/series", "/matrix"):
            m.observe_request(route, 200, 0.01)
        text = m.render()
        for family in ("snd_http_requests_total", "snd_http_request_duration_seconds"):
            assert text.count(f"# TYPE {family} ") == 1
            assert text.count(f"# HELP {family} ") == 1
        assert text.count("# TYPE ") == text.count("# HELP ") == 3


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
        }
        g2 = {"scheduler": {"requested": 1}, "network_simplex": {"solves": 0}}
        stats = {"shards": {"g1": g1, "g2": g2}}
        types, values = parse_exposition(render_samples(samples_from_stats(stats)))
        assert values['snd_simplex_solves_total{graph="g1"}'] == 7
        assert values['snd_simplex_warm_solves_total{graph="g1"}'] == 3
        assert values['snd_simplex_warm_pivots_per_solve{graph="g1"}'] == 1.5
        assert values['snd_simplex_solves_total{graph="g2"}'] == 0
        assert types["snd_simplex_solves_total"] == "counter"
        assert types["snd_simplex_warm_pivots_per_solve"] == "gauge"
        assert not any(name.startswith("snd_simplex_last") for name in types)

    def test_basis_channel_hits_exported(self):
        """The basis store's per-channel warm hits reach the scrape with
        the values ``engine.stats()`` reports."""
        from repro.graph.generators import erdos_renyi_graph
        from repro.opinions.state import NetworkState
        from repro.snd import SND, SNDEngine

        rng = np.random.default_rng(1)
        values = np.zeros(60, dtype=np.int8)
        states = []
        for _ in range(5):
            values = values.copy()
            idx = rng.integers(0, 60, size=6)
            values[idx] = rng.integers(-1, 2, size=idx.size)
            states.append(NetworkState(values))
        snd = SND(erdos_renyi_graph(60, 0.1, seed=4), n_clusters=3, seed=0,
                  solver="network-simplex")
        with SNDEngine(snd, jobs=None) as engine:
            engine.pairwise_matrix(states)
            stats = engine.stats()
        bases = stats["caches"]["bases"]
        assert bases["reverse_hits"] + bases["supplier_hits"] > 0
        types, values = parse_exposition(render_samples(samples_from_stats(stats)))
        for channel in ("exact", "reverse", "supplier"):
            name = f"snd_cache_{channel}_hits_total"
            assert types[name] == "counter"
            assert values[f'{name}{{cache="bases",graph="default"}}'] == (
                bases[f"{channel}_hits"]
            )

    # Explicit ids, frozen at the names pytest first generated from each
    # case's position, so that removing a case renames no other.
    @pytest.mark.parametrize(
        "path, sample",
        [
            pytest.param(path, sample, id=f"{name}-{sample}")
            for name, path, sample in [
                ("path0", ("scheduler",), 'snd_scheduler_novel_total{graph="default"}'),
                ("path1", ("scheduler", "clients", "a"),
                 'snd_client_novel_total{client="a",graph="default"}'),
                ("path2", ("caches", "rows"),
                 'snd_cache_novel_total{cache="rows",graph="default"}'),
                ("path3", ("caches",), 'snd_cache_novel_total{graph="default"}'),
                ("path4", ("network_simplex",), 'snd_simplex_novel_total{graph="default"}'),
                ("path5", ("corpus_query",),
                 'snd_corpus_query_novel_total{graph="default"}'),
                ("path6", (), 'snd_engine_novel_total{graph="default"}'),
            ]
        ],
    )
    def test_new_stats_key_exported(self, path, sample):
        """A numeric key added to any stats dict is scraped as a counter
        with no exporter edit."""
        stats = {
            "scheduler": {"requested": 1, "clients": {"a": {"requested": 1}}},
            "caches": {"rows": {"hits": 1}, "total_nbytes": 8},
            "network_simplex": {"solves": 1},
            "corpus_query": {"queries": 0},
        }
        node = stats
        for key in path:
            node = node[key]
        node["novel"] = 7
        types, values = parse_exposition(render_samples(samples_from_stats(stats)))
        assert values[sample] == 7
        assert types[sample.split("{")[0]] == "counter"

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
            # the row searches' settled nodes and the certified terms
            assert types["snd_cache_settled_total"] == "counter"
            assert 'snd_cache_settled_total{cache="rows",graph="t"}' in values
            assert types["snd_cache_terms_total"] == "counter"
            assert 'snd_cache_terms_total{cache="rows",graph="t"}' in values
            # solver metric families, the shard's own engine counts
            assert values['snd_simplex_solves_total{graph="t"}'] > 0
            assert 'snd_simplex_warm_solves_total{graph="t"}' in values
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
