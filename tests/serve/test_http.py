"""HTTP tier tests: every route, error mapping, streaming watch, and the
counter-asserted duplicate-burst coalescing guarantee over real sockets."""

import json
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import SchedulerSaturatedError
from repro.serve import EngineConfig, SNDService
import repro.serve.http as http
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES, BackgroundServer


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

    @pytest.mark.parametrize("value", [1.7, True, "1", "abc", None, [1]])
    @pytest.mark.parametrize("field", ["i", "j"])
    def test_distance_index_must_be_json_integer_400(self, server, field, value):
        """A pair index that is not a JSON integer (a float, a bool, a
        string, null, a list) gets the 400 envelope naming the field,
        not a silent cast or a 500."""
        payload = {"name": "t", "i": 0, "j": 1, field: value}
        status, body = _post(server, "/v1/distance", payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert repr(field) in body["error"]["message"]
        assert body["error"]["detail"] == {"field": field}

    @pytest.mark.parametrize("value", [1.7, True, "1", "abc", None, [1]])
    @pytest.mark.parametrize("field", ["state", "k"])
    def test_corpus_query_fields_must_be_json_integers_400(self, server, field, value):
        payload = {"name": "t", "corpus": "c", "state": 0, "k": 2, field: value}
        status, body = _post(server, "/v1/corpus/query", payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert repr(field) in body["error"]["message"]
        assert body["error"]["detail"] == {"field": field}

    @pytest.mark.parametrize("value", ["3", "abc", 2.5, True, [1], {}])
    @pytest.mark.parametrize("path", ["/v1/series", "/v1/watch"])
    def test_window_must_be_json_integer_or_null_400(self, server, path, value):
        """A window that is not a JSON integer or null gets the 400
        envelope naming the field before any work: no 500 for a string,
        no silent 200 for a float, and no chunked head on /v1/watch."""
        status, body = _post(server, path, {"name": "t", "window": value})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "'window'" in body["error"]["message"]
        assert body["error"]["detail"] == {"field": "window"}
        _status, stats = _get(server, "/v1/stats")
        assert stats["shards"].get("t", {}).get("scheduler", {}).get("requested", 0) == 0

    @pytest.mark.parametrize("value", ["1e9", True, [1], {}])
    def test_watch_threshold_must_be_json_number_or_null_400(self, server, value):
        status, body = _post(
            server, "/v1/watch", {"name": "t", "window": 3, "threshold": value}
        )
        assert status == 400
        assert "'threshold'" in body["error"]["message"]
        assert body["error"]["detail"] == {"field": "threshold"}

    def test_watch_window_out_of_range_400_before_the_stream(self, server):
        """A window the engine refuses is answered with the 400 envelope,
        not inside an already-sent chunked 200."""
        status, body = _post(server, "/v1/watch", {"name": "t", "window": 1})
        assert status == 400
        assert "window" in body["error"]["message"]

    def test_null_window_and_threshold_accepted(self, server):
        status, body = _post(server, "/v1/series", {"name": "t", "window": None})
        assert status == 200 and len(body["distances"]) == 4
        url = f"http://{server.host}:{server.port}/v1/watch"
        for payload in (
            {"name": "t", "window": None, "threshold": None},
            {"name": "t", "window": 3, "threshold": 5},
        ):
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(), method="POST"
            )
            with urllib.request.urlopen(request, timeout=120) as resp:
                assert resp.status == 200
                lines = [line for line in resp.read().decode().splitlines() if line]
            assert len(lines) == 6

    @pytest.mark.parametrize(
        "field, value",
        [("client", ["a"]), ("client", {"a": 1}), ("client", 7), ("client", True),
         ("priority", ["high"]), ("priority", 3), ("priority", False)],
    )
    def test_client_and_priority_must_be_json_string_or_null_400(
        self, server, field, value
    ):
        """A client identity or priority that is not a JSON string (a
        list, an object, a number, a bool) gets the 400 envelope naming
        the field: not a 500, and not a client served as ``"7"``."""
        payload = {"name": "t", "i": 0, "j": 1, field: value}
        status, body = _post(server, "/v1/distance", payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert repr(field) in body["error"]["message"]
        assert body["error"]["detail"] == {"field": field}
        _status, stats = _get(server, "/v1/stats")
        shard = stats["shards"].get("t", {})
        assert shard.get("scheduler", {}).get("requested", 0) == 0

    def test_string_or_null_client_and_priority_accepted(self, server):
        for extra in ({"client": None, "priority": None},
                      {"client": "alice", "priority": "high"}):
            status, _body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 1, **extra})
            assert status == 200
        _status, stats = _get(server, "/v1/stats")
        assert list(stats["shards"]["t"]["scheduler"]["clients"]) == ["alice"]

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

    def test_bare_key_error_is_500(self, server, monkeypatch, caplog):
        """A plain KeyError inside a service call is a bug, not a lookup
        miss: it gets the 500 envelope, is counted as a 500 and its
        traceback is logged."""
        def broken(*args, **kwargs):
            raise KeyError("stale index")

        monkeypatch.setattr(server.server.service, "distance_pair", broken)
        status, body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 1})
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "stale index" in caplog.text
        url = f"http://{server.host}:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            metrics = resp.read().decode("utf-8")
        assert 'snd_http_requests_total{route="/distance",status="500"} 1' in metrics

    def test_saturated_scheduler_503(self, server, monkeypatch):
        def saturated(*args, **kwargs):
            raise SchedulerSaturatedError("scheduler queue full (4096 pending)")

        monkeypatch.setattr(server.server.service, "distance_pair", saturated)
        status, body = _post(server, "/v1/distance", {"name": "t", "i": 0, "j": 1})
        assert status == 503
        assert body["error"]["code"] == "saturated"
        assert "full" in body["error"]["message"]


def _raw_exchange(server, data: bytes, timeout: float = 10.0) -> bytes:
    """Send *data* on a fresh connection and read the answer to EOF (a
    ``socket.timeout`` fails the test: the server must close)."""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(data)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    return raw


class TestFramingLimits:
    """Requests past the framing caps get a 413 / 431 envelope and a
    closed connection, and the server keeps answering new ones."""

    def _assert_refused(self, server, raw: bytes, status: int, code: str) -> None:
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), raw[:200]
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == code
        assert _get(server, "/v1/healthz") == (200, {"ok": True})

    def test_overlong_request_line_431(self, server):
        path = b"/v1/" + b"a" * MAX_LINE_BYTES
        raw = _raw_exchange(server, b"GET " + path + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        self._assert_refused(server, raw, 431, "header_fields_too_large")

    def test_overlong_header_line_431(self, server):
        raw = _raw_exchange(
            server,
            b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Pad: "
            + b"p" * MAX_LINE_BYTES + b"\r\n\r\n",
        )
        self._assert_refused(server, raw, 431, "header_fields_too_large")

    def test_too_many_headers_431(self, server):
        # Repeating one name still counts every line.
        lines = b"X-Pad: 1\r\n" * MAX_HEADERS
        raw = _raw_exchange(server, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n" + lines + b"\r\n")
        self._assert_refused(server, raw, 431, "header_fields_too_large")

    def test_header_count_at_the_cap_is_served(self, server):
        lines = b"X-Pad: 1\r\n" * (MAX_HEADERS - 2)
        raw = _raw_exchange(
            server,
            b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n" + lines + b"\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 200 "), raw[:200]

    def test_oversized_content_length_413_without_reading_the_body(self, server):
        # No body follows: a server that waited for it would never answer.
        raw = _raw_exchange(
            server,
            b"POST /v1/distance HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1),
        )
        self._assert_refused(server, raw, 413, "content_too_large")
        url = f"http://{server.host}:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            metrics = resp.read().decode("utf-8")
        assert 'snd_http_requests_total{route="/distance",status="413"} 1' in metrics

    def test_body_at_the_cap_is_read(self, server):
        body = json.dumps({"name": "t", "i": 0, "j": 1}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, payload = _post(server, "/v1/distance", body)
        assert status == 200
        assert payload["distance"] >= 0


class TestTimeouts:
    """A request that stops arriving gets a 408 and a closed connection;
    a keep-alive connection left idle is closed; a slow request that
    arrives in time is served."""

    def test_stalled_request_line_408(self, server, monkeypatch):
        monkeypatch.setattr(http, "READ_TIMEOUT_S", 0.3, raising=False)
        raw = _raw_exchange(server, b"GET /v1/heal")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), raw[:200]
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "request_timeout"
        assert _get(server, "/v1/healthz") == (200, {"ok": True})

    def test_stalled_body_408(self, server, monkeypatch):
        monkeypatch.setattr(http, "READ_TIMEOUT_S", 0.3, raising=False)
        raw = _raw_exchange(
            server,
            b"POST /v1/distance HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n{\"name\"",
        )
        assert raw.startswith(b"HTTP/1.1 408 "), raw[:200]
        url = f"http://{server.host}:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            metrics = resp.read().decode("utf-8")
        assert 'snd_http_requests_total{route="/distance",status="408"} 1' in metrics

    def test_idle_keep_alive_connection_closes(self, server, monkeypatch):
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.3, raising=False)
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            raw = b""
            while b"\r\n\r\n" not in raw or not raw.endswith(b"}"):
                raw += sock.recv(65536)
            assert raw.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: keep-alive" in raw
            # Idle past the timeout: the server closes (a socket.timeout
            # here fails the test).
            assert sock.recv(65536) == b""

    def test_slow_request_within_the_timeout_is_served(self, server, monkeypatch):
        monkeypatch.setattr(http, "READ_TIMEOUT_S", 5.0, raising=False)
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            for part in (b"GET /v1/healthz HTTP/1.1\r\n", b"Host: x\r\n",
                         b"Connection: close\r\n\r\n"):
                sock.sendall(part)
                time.sleep(0.1)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 200 "), raw[:200]


class TestApiVersioning:
    """Routes live under /v1 only; the old unversioned spellings get the
    404 envelope like any other unknown path."""

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
        """An old unversioned spelling is answered with the 404 not_found
        envelope, like any unknown path, and the server keeps serving."""
        for path in ("/healthz", "/stats", "/metrics", "/corpora", "/bogus"):
            status, _headers, body = self._raw_get(server, path)
            assert status == 404
            error = json.loads(body)["error"]
            assert error["code"] == "not_found"
            assert error["message"] == f"no such route: GET {path}"
        status, _headers, body = self._raw_get(server, "/v1/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_unversioned_error_carries_deprecation(self, server):
        """Unversioned paths are no longer deprecated aliases but unknown
        routes: their 404 carries no ``Deprecation`` header."""
        for path in ("/healthz", "/stats", "/metrics", "/corpora", "/bogus"):
            status, headers, _body = self._raw_get(server, path)
            assert status == 404
            assert "Deprecation" not in headers

    def test_unversioned_post_alias(self, server):
        status, body = _post(server, "/distance", {"name": "t", "i": 0, "j": 1})
        assert status == 404
        assert body["error"]["code"] == "not_found"
        _status, stats = _get(server, "/v1/stats")
        assert stats["shards"] == {}  # nothing reached the service

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


class TestSaturationOverHttp:
    """Genuine scheduler saturation over real sockets (not a stubbed
    raise) maps to HTTP 503 with the rejected counter."""

    def test_real_saturation_maps_to_503(self, store_path, monkeypatch):
        import repro.flow as flow_mod

        real = flow_mod._TRANSPORT_SOLVERS["ssp"]
        hold = threading.Event()
        started = threading.Event()

        def throttled(problem, **kw):
            started.set()
            hold.wait(timeout=30)
            return real(problem, **kw)

        monkeypatch.setitem(flow_mod._TRANSPORT_SOLVERS, "ssp", throttled)
        service = SNDService(
            store_path,
            config=EngineConfig(
                clusters=2,
                solver="ssp",
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
            assert started.wait(timeout=30)  # the solve now holds the slot

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


def _post_until_eof(server, path, payload, timeout):
    """Send one ``Connection: close`` POST over a raw socket and read to
    EOF; fail if the server has not closed the connection by *timeout*
    seconds (``urllib`` reads by ``Content-Length`` and would not notice)."""
    body = json.dumps(payload).encode()
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + body
    deadline = time.monotonic() + timeout
    chunks = []
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(request)
        while True:
            sock.settimeout(max(0.01, deadline - time.monotonic()))
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                pytest.fail(f"no EOF on {path} within {timeout}s")
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestPooledConnectionClose:
    """Pool workers must not inherit the server's sockets: the request that
    starts a shard's process pool still gets its connection closed."""

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/v1/corpus/query", {"name": "t", "corpus": "c", "state": 4, "k": 2}),
            ("/v1/series", {"name": "t"}),
        ],
        ids=["corpus-query", "series"],
    )
    def test_first_pooled_request_reaches_eof(self, store_path, path, payload):
        config = EngineConfig(clusters=2, jobs=2, persist_transitions=False)
        with BackgroundServer(SNDService(store_path, config=config)) as server:
            response = _post_until_eof(server, path, payload, timeout=10)
            stats = server.server.service.stats()["shards"]["t"]
        assert response.startswith(b"HTTP/1.1 200")
        assert stats["pool_starts"] == 1


class TestShardEngineRouting:
    """SND series and matrix requests run on the shard's one engine: they
    show up in its counters, and the request body cannot size its pool."""

    def test_series_and_matrix_counted(self, server):
        n = len(server.server.service.shard("t").series)
        assert _post(server, "/v1/series", {"name": "t"})[0] == 200
        assert _post(server, "/v1/matrix", {"name": "t"})[0] == 200
        expected = (n - 1) + n * (n - 1) // 2
        status, stats = _get(server, "/v1/stats")
        assert status == 200
        assert stats["shards"]["t"]["scheduler"]["requested"] == expected
        url = f"http://{server.host}:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            text = resp.read().decode("utf-8")
        sample = 'snd_scheduler_requested_total{graph="t"} '
        lines = [line for line in text.splitlines() if line.startswith(sample)]
        assert len(lines) == 1
        assert float(lines[0][len(sample):]) == expected

    def test_hostile_jobs_field_ignored(self, store_path, monkeypatch):
        import repro.snd.engine as engine_module

        pools = []

        class CountingPool(engine_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", CountingPool)
        config = EngineConfig(clusters=2, jobs=1, persist_transitions=False)
        with BackgroundServer(SNDService(store_path, config=config)) as server:
            plain = {
                path: _post(server, path, {"name": "t"})
                for path in ("/v1/series", "/v1/matrix")
            }
            hostile = {
                path: _post(server, path, {"name": "t", "jobs": 32})
                for path in ("/v1/series", "/v1/matrix")
            }
            stats = server.server.service.stats()["shards"]["t"]
        assert hostile == plain
        assert all(status == 200 for status, _body in plain.values())
        assert pools == []
        assert (stats["jobs"], stats["pool_starts"]) == (1, 0)


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

    def test_cli_serve_jobs_zero_is_serial(self, store_path):
        """`serve --jobs 0` builds a serial config: /v1/distance answers
        from an engine with one worker and no pool."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "serve",
                "--store", store_path,
                "--port", "0",
                "--clusters", "2",
                "--jobs", "0",
                "--no-persist",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            assert "jobs=1 " in proc.stdout.readline()

            class _Addr:
                host = "127.0.0.1"
                port = int(line.rsplit(":", 1)[1])

            status, body = _post(_Addr, "/v1/distance", {"name": "t", "i": 0, "j": 1})
            assert status == 200, body
            status, stats = _get(_Addr, "/v1/stats")
            assert status == 200
            shard = stats["shards"]["t"]
            assert (shard["jobs"], shard["pool_starts"]) == (1, 0)
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                _out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                proc.kill()
                raise
        assert proc.returncode == 0, err
