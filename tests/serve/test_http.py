"""HTTP tier tests: every route, error mapping, streaming watch, and the
counter-asserted duplicate-burst coalescing guarantee over real sockets."""

import json
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import SchedulerSaturatedError
from repro.serve import EngineConfig, SNDService
from repro.serve.http import BackgroundServer


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve-http") / "exp.sqlite")
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
    main(
        [
            "corpus", "build",
            "--store", path,
            "--name", "t",
            "--corpus", "c",
            "--clusters", "2",
            "--first", "3",
        ]
    )
    return path


@pytest.fixture
def server(store_path):
    # persistence off: these tests share one module-scoped store, and a
    # warm-loaded transition cache would break the counter-asserted
    # solve/coalesce invariants (persistence has its own test module).
    config = EngineConfig(clusters=2, persist_transitions=False)
    with BackgroundServer(SNDService(store_path, config=config)) as srv:
        yield srv


def _get(server, path, timeout=30):
    url = f"http://{server.host}:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _post(server, path, payload, timeout=60, method="POST"):
    url = f"http://{server.host}:{server.port}{path}"
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestRoutes:
    def test_healthz(self, server):
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body == {"ok": True}

    def test_distance(self, server):
        status, body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 1})
        assert status == 200
        assert body["distance"] >= 0

    def test_series_matches_service(self, server):
        status, body = _post(server, "/v1/series", {"name": "t"})
        assert status == 200
        expected = server.server.service.series_distances("t")
        assert np.array_equal(np.array(body["distances"]), expected)

    def test_series_non_snd_measure(self, server):
        status, body = _post(server, "/v1/series", {"name": "t", "measure": "hamming"})
        assert status == 200
        assert len(body["distances"]) == 4

    def test_matrix(self, server):
        status, body = _post(server, "/v1/matrix", {"name": "t"})
        assert status == 200
        matrix = np.array(body["matrix"])
        assert matrix.shape == (5, 5)
        assert np.array_equal(matrix, matrix.T)

    def test_corpora_listing(self, server):
        status, body = _get(server, "/v1/corpora")
        assert status == 200
        assert {"graph": "t", "corpus": "c", "n_states": 3} in body

    def test_corpus_query(self, server):
        status, body = _post(
            server, "/v1/corpus/query",
            {"name": "t", "corpus": "c", "state": 0, "k": 2},
        )
        assert status == 200
        neighbours = body["neighbours"]
        assert len(neighbours) == 2
        assert neighbours[0]["distance"] <= neighbours[1]["distance"]

    def test_stats_after_work(self, server):
        _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 1})
        status, body = _get(server, "/v1/stats")
        assert status == 200
        shard = body["shards"]["t"]
        assert shard["scheduler"]["requested"] >= 1
        assert "caches" in shard

    def test_keep_alive_reuses_connection(self, server):
        # Two sequential requests over default urllib behaviour plus an
        # explicit probe that the server answers repeatedly.
        for _ in range(3):
            status, _body = _get(server, "/v1/healthz")
            assert status == 200


class TestWatchStreaming:
    def test_watch_streams_ndjson(self, server):
        url = f"http://{server.host}:{server.port}/v1/watch"
        request = urllib.request.Request(
            url, data=json.dumps({"name": "t", "window": 3}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [line for line in resp.read().decode().splitlines() if line]
        updates = [json.loads(line) for line in lines]
        # One line per state (first has no distance) + the final flush.
        assert len(updates) == 6
        distances = [u["distance"] for u in updates if u["distance"] is not None]
        assert len(distances) == 4
        assert all(d >= 0 for d in distances)
        scored = [u["scored"] for u in updates if u["scored"] is not None]
        assert len(scored) == 4
        assert all(s["flagged"] in (True, False) for s in scored)

    def test_watch_threshold(self, server):
        url = f"http://{server.host}:{server.port}/v1/watch"
        request = urllib.request.Request(
            url,
            data=json.dumps({"name": "t", "window": 3, "threshold": 1e9}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            updates = [
                json.loads(line)
                for line in resp.read().decode().splitlines()
                if line
            ]
        scored = [u["scored"] for u in updates if u["scored"] is not None]
        assert scored
        assert all(s["threshold"] == 1e9 for s in scored)
        assert not any(s["flagged"] for s in scored)


class TestErrorMapping:
    def test_unknown_route_404(self, server):
        status, body = _get(server, "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "no such route" in body["error"]["message"]

    def test_unknown_post_route_404(self, server):
        status, body = _post(server, "/nope", {})
        assert status == 404

    def test_unknown_graph_404(self, server):
        status, body = _post(server, "/v1/series", {"name": "missing"})
        assert status == 404
        assert "no graph" in body["error"]["message"]

    def test_unknown_corpus_404(self, server):
        status, body = _post(
            server, "/v1/corpus/query", {"name": "t", "corpus": "missing", "state": 0}
        )
        assert status == 404

    def test_missing_field_400(self, server):
        status, body = _post(server, "/v1/distance", {"name": "t", "i": 0})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "missing required field 'j'" in body["error"]["message"]
        assert body["error"]["detail"] == {"field": "j"}

    def test_malformed_json_400(self, server):
        status, body = _post(server, "/v1/distance", b"{not json")
        assert status == 400

    def test_non_object_body_400(self, server):
        status, body = _post(server, "/v1/distance", b"[1, 2]")
        assert status == 400
        assert "JSON object" in body["error"]["message"]

    def test_out_of_range_index_400(self, server):
        status, body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 99})
        assert status == 400
        assert "out of range" in body["error"]["message"]

    def test_unsupported_method_405(self, server):
        status, body = _post(server, "/v1/distance", {}, method="PUT")
        assert status == 405

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_invalid_content_length_400(self, server, length):
        """A Content-Length that is not a non-negative integer gets the 400
        envelope (the connection then closes: the body framing is unknown)
        and is counted in the route metrics."""
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/distance HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
            )
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert length in error["message"]
        url = f"http://{server.host}:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            metrics = resp.read().decode("utf-8")
        assert 'snd_http_requests_total{route="/distance",status="400"} 1' in metrics

    def test_saturated_scheduler_503(self, server, monkeypatch):
        def saturated(*args, **kwargs):
            raise SchedulerSaturatedError("scheduler queue full (4096 pending)")

        monkeypatch.setattr(server.server.service, "distance_pair", saturated)
        status, body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 1})
        assert status == 503
        assert body["error"]["code"] == "saturated"
        assert "full" in body["error"]["message"]


class TestApiVersioning:
    """The /v1 prefix is canonical; unversioned paths are deprecated
    aliases that keep serving but carry a ``Deprecation: true`` header."""

    def _raw_get(self, server, path):
        url = f"http://{server.host}:{server.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def test_versioned_route_no_deprecation_header(self, server):
        status, headers, _body = self._raw_get(server, "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers

    def test_unversioned_alias_still_serves(self, server):
        status, headers, body = self._raw_get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}
        assert headers["Deprecation"] == "true"

    def test_unversioned_post_alias(self, server):
        status, body = _post(server, "/distance", {"name": "t", "i": 0, "j": 1})
        assert status == 200
        assert body["distance"] >= 0

    def test_unversioned_error_carries_deprecation(self, server):
        status, headers, body = self._raw_get(server, "/bogus")
        assert status == 404
        assert headers["Deprecation"] == "true"
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_client_identity_headers_reach_scheduler(self, server):
        url = f"http://{server.host}:{server.port}/v1/distance"
        request = urllib.request.Request(
            url,
            data=json.dumps({"name": "t", "i": 0, "j": 1}).encode(),
            method="POST",
            headers={"X-Client": "TestClient-A", "X-Priority": "high"},
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            assert resp.status == 200
        _status, stats = _get(server, "/v1/stats")
        clients = stats["shards"]["t"]["scheduler"]["clients"]
        # Identity case is preserved end to end (header values must not
        # be lowercased by the request parser).
        assert "TestClient-A" in clients
        assert clients["TestClient-A"]["requested"] == 1


class TestCoalescingOverHttp:
    def test_duplicate_pair_burst_solved_once(self, store_path):
        """N concurrent clients requesting the same pair: exactly one
        solve, everyone gets the same float — asserted via /stats."""
        n_clients = 8
        config = EngineConfig(clusters=2, persist_transitions=False)
        with BackgroundServer(SNDService(store_path, config=config)) as server:
            results: list[float] = [None] * n_clients
            errors: list[BaseException] = []
            barrier = threading.Barrier(n_clients)

            def client(idx: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    status, body = _post(
                        server, "/v1/distance", {"name": "t", "i": 0, "j": 1}
                    )
                    assert status == 200
                    results[idx] = body["distance"]
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(set(results)) == 1

            _status, stats = _get(server, "/v1/stats")
            sched = stats["shards"]["t"]["scheduler"]
            assert sched["requested"] == n_clients
            assert sched["solved"] == 1  # the counter-asserted guarantee
            assert sched["coalesced"] + sched["cache_answered"] == n_clients - 1


class TestHybridOverHttp:
    """The approximate tier exercised end-to-end over real sockets: the
    hybrid diagnostics surface in /stats, and genuine scheduler saturation
    (not a stubbed raise) maps to HTTP 503 with the rejected counter."""

    def test_hybrid_service_distance_and_stats(self, store_path):
        from repro.flow.sinkhorn_hybrid import HYBRID_METRICS

        before = HYBRID_METRICS.snapshot()["solves"]
        service = SNDService(
            store_path, config=EngineConfig(
                clusters=2, solver="sinkhorn-hybrid", persist_transitions=False
            )
        )
        with BackgroundServer(service) as server:
            # States 0 and 2 differ (0/1 are identical -> distance 0 with
            # no transportation solve, which would leave the metrics flat).
            status, body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 2})
            assert status == 200
            assert body["distance"] > 0
            _status, stats = _get(server, "/v1/stats")
            hybrid = stats["shards"]["t"]["hybrid"]
            assert hybrid["solves"] > before
            assert 0.0 <= hybrid["last_support_density"] <= 1.0

    def test_real_saturation_maps_to_503(self, store_path, monkeypatch):
        import repro.flow as flow_mod

        real = flow_mod._TRANSPORT_SOLVERS["sinkhorn-hybrid"]
        hold = threading.Event()
        started = threading.Event()

        def throttled(problem, **kw):
            started.set()
            hold.wait(timeout=30)
            return real(problem, **kw)

        monkeypatch.setitem(
            flow_mod._TRANSPORT_SOLVERS, "sinkhorn-hybrid", throttled
        )
        service = SNDService(
            store_path,
            config=EngineConfig(
                clusters=2,
                solver="sinkhorn-hybrid",
                max_pending=1,
                persist_transitions=False,
            ),
        )
        with BackgroundServer(service) as server:
            first: list = []

            def slow_client() -> None:
                first.append(_post(server, "/v1/distance", {"name": "t", "i": 0, "j": 2}))

            t = threading.Thread(target=slow_client)
            t.start()
            assert started.wait(timeout=30)  # hybrid solve now holds the slot

            # Swap in a non-blocking submit over the same genuine path so the
            # second request observes saturation instead of queueing behind it.
            def nonblocking_distance_pair(graph_name, i, j, **_kwargs):
                shard = service.shard(graph_name)
                engine = shard.engine()
                return engine.scheduler.submit(
                    shard.series[i],
                    shard.series[j],
                    transitions=engine.caches.transitions,
                    block=False,
                )

            monkeypatch.setattr(
                service, "distance_pair", nonblocking_distance_pair
            )
            status, body = _post(server, "/v1/distance", {"name": "t", "i": 2, "j": 3})
            assert status == 503
            assert "error" in body

            hold.set()
            t.join(timeout=120)
            assert first and first[0][0] == 200

            _status, stats = _get(server, "/v1/stats")
            sched = stats["shards"]["t"]["scheduler"]
            assert sched["rejected"] == 1
            assert sched["solved"] >= 1
            assert stats["shards"]["t"]["hybrid"]["solves"] >= 1


class TestServeSubprocess:
    def test_cli_serve_end_to_end(self, store_path):
        """`repro-snd serve` as a real subprocess: parse the bound port
        from stdout, drive the API, then shut down cleanly on SIGINT."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "serve",
                "--store", store_path,
                "--port", "0",
                "--clusters", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1])

            class _Addr:
                host = "127.0.0.1"

            addr = _Addr()
            addr.port = port
            status, body = _get(addr, "/v1/healthz")
            assert (status, body) == (200, {"ok": True})
            status, body = _post(addr, "/v1/distance", {"name": "t", "i": 0, "j": 1})
            assert status == 200
            assert body["distance"] >= 0
            status, _stats = _get(addr, "/v1/stats")
            assert status == 200
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                proc.kill()
                raise
        assert proc.returncode == 0, err
        assert "shutting down" in out
