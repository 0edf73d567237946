"""Benchmark: serving-tier latency and throughput gates.

Two acceptance gates lock in the value of the release cache:

* ``test_cached_release_is_50x_faster_than_first_compute`` — the first
  request for a release pays the full anonymize + render cost; every
  subsequent identical request must be served from the fingerprint-keyed
  cache at least **50x** faster (10x in ``REPRO_BENCH_QUICK=1`` CI mode,
  where the small dataset makes the first compute cheap), measured end to
  end over HTTP including connection setup.
* ``test_concurrent_cached_throughput`` — 8 parallel HTTP clients hammering
  cached releases must sustain a floor of requests/second and receive
  byte-identical bodies.
* ``test_multiprocess_sustained_rps`` — a ``workers=N`` SO_REUSEPORT front
  over a shared spill directory must sustain a requests/second floor on a
  large (1M rows full mode) cached release under >= 100 concurrent clients,
  serve byte-identical chunked bodies from at least two worker processes,
  and (on machines with >= 4 cores) beat a single-process front by >= 2x.

A plain ``benchmark`` target records the cached-request latency for the
pytest-benchmark report.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.census import CensusConfig, generate_census
from repro.dataset.io import render_csv
from repro.service import AnonymizationService, ServiceConfig, build_server

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
# The full-mode size sets the first compute near 0.1 s, the cost the 50x
# floor was set against; a cached hit costs the same HTTP round trip (about
# 1 ms on 2 cores) at any size.  Filter-and-verify MDAV halved the compute
# at 8,000 rows, which left the ratio near 60x, so the table grew to 12,000.
RECORD_COUNT = 1_500 if QUICK else 12_000
K = 10 if QUICK else 25
REQUIRED_SPEEDUP = 10.0 if QUICK else 50.0
CLIENTS = 8
REQUESTS_PER_CLIENT = 5 if QUICK else 12
REQUIRED_THROUGHPUT = 40.0  # cached requests/second across all clients

# -- multi-process sustained-RPS gate ---------------------------------------
RPS_WORKERS = 2 if QUICK else max(2, min(4, os.cpu_count() or 2))
RPS_RECORDS = 20_000 if QUICK else 1_000_000
RPS_CLIENTS = 24 if QUICK else 100
RPS_REQUESTS_PER_CLIENT = 4 if QUICK else 5
RPS_K = 25 if QUICK else 100
RPS_FLOOR = 20.0 if QUICK else 30.0  # sustained requests/second
RPS_SPEEDUP_MIN_CORES = 4  # the >= 2x multi-vs-single assertion needs cores
RPS_STREAM_THRESHOLD = 256 * 1024  # quick mode's ~900KB CSV must chunk too


@pytest.fixture(scope="module")
def service_setup():
    """A running HTTP service with the census table registered."""
    census = generate_census(CensusConfig(count=RECORD_COUNT, seed=11)).private
    service = AnonymizationService(cache_capacity=32)
    server = build_server(port=0, service=service).serve_in_background()
    base = f"http://127.0.0.1:{server.port}"
    request = urllib.request.Request(
        f"{base}/datasets",
        data=render_csv(census).encode(),
        headers={"Content-Type": "text/csv"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        fingerprint = json.loads(response.read())["fingerprint"]
    yield base, fingerprint, service
    server.close()


def _release_request(base: str, fingerprint: str, k: int) -> urllib.request.Request:
    return urllib.request.Request(
        f"{base}/release",
        data=json.dumps({"dataset": fingerprint, "k": k}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )


def _timed_release(base: str, fingerprint: str, k: int) -> tuple[float, bytes]:
    start = time.perf_counter()
    with urllib.request.urlopen(_release_request(base, fingerprint, k), timeout=600) as r:
        body = r.read()
    return time.perf_counter() - start, body


def test_cached_release_is_50x_faster_than_first_compute(service_setup, bench_gate):
    """Acceptance gate: cached releases are >= 50x the first compute (10x quick)."""
    base, fingerprint, service = service_setup
    first_seconds, first_body = _timed_release(base, fingerprint, K)
    assert service.stats()["cache"]["computations"] >= 1

    cached_seconds = float("inf")
    for _ in range(7):
        seconds, body = _timed_release(base, fingerprint, K)
        assert body == first_body, "cached responses must be byte-identical"
        cached_seconds = min(cached_seconds, seconds)

    speedup = first_seconds / cached_seconds
    bench_gate(
        "service-cached-release",
        records=RECORD_COUNT,
        k=K,
        first_seconds=round(first_seconds, 4),
        cached_seconds=round(cached_seconds, 5),
        speedup=round(speedup, 2),
        required=REQUIRED_SPEEDUP,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cached release is only {speedup:.1f}x the first compute on "
        f"{RECORD_COUNT} records at k={K} (required {REQUIRED_SPEEDUP:.0f}x): "
        f"first {first_seconds:.3f}s vs cached {cached_seconds:.4f}s"
    )


def test_concurrent_cached_throughput(service_setup):
    """8 parallel clients sustain the cached-request throughput floor."""
    base, fingerprint, service = service_setup
    # Ensure the artifact is computed before the measured window.
    _, reference = _timed_release(base, fingerprint, K)
    computations_before = service.stats()["cache"]["computations"]

    barrier = threading.Barrier(CLIENTS)
    bodies: list[bytes] = []
    lock = threading.Lock()

    def client(_):
        barrier.wait(timeout=60)
        for _ in range(REQUESTS_PER_CLIENT):
            with urllib.request.urlopen(
                _release_request(base, fingerprint, K), timeout=600
            ) as response:
                body = response.read()
            with lock:
                bodies.append(body)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        list(pool.map(client, range(CLIENTS)))
    elapsed = time.perf_counter() - start

    total_requests = CLIENTS * REQUESTS_PER_CLIENT
    assert len(bodies) == total_requests
    assert set(bodies) == {reference}, "every client must see identical bytes"
    assert service.stats()["cache"]["computations"] == computations_before, (
        "cached load must not trigger any recomputation"
    )
    throughput = total_requests / elapsed
    assert throughput >= REQUIRED_THROUGHPUT, (
        f"cached throughput {throughput:.0f} req/s below the "
        f"{REQUIRED_THROUGHPUT:.0f} req/s floor ({total_requests} requests in {elapsed:.2f}s)"
    )


def test_cached_release_latency(benchmark, service_setup):
    """pytest-benchmark record of end-to-end cached release latency."""
    base, fingerprint, service = service_setup
    _timed_release(base, fingerprint, K)  # warm the cache

    def fetch():
        with urllib.request.urlopen(_release_request(base, fingerprint, K), timeout=600) as r:
            return r.read()

    body = benchmark.pedantic(fetch, rounds=10, iterations=1)
    assert body
    benchmark.extra_info["records"] = RECORD_COUNT
    benchmark.extra_info["requests_per_second"] = round(1.0 / benchmark.stats.stats.mean)


# -- multi-process sustained-RPS gate ---------------------------------------


@pytest.fixture(scope="module")
def cluster_setup(tmp_path_factory):
    """A multi-worker SO_REUSEPORT front over a shared spill directory."""
    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - platform gate
        pytest.skip("multi-process serving requires SO_REUSEPORT")
    census = generate_census(CensusConfig(count=RPS_RECORDS, seed=11)).private
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    config = ServiceConfig(
        cache_capacity=32, cache_dir=str(cache_dir), job_workers=1
    )
    service = AnonymizationService.from_config(config)
    # Registering through the parent writes the dataset store; the sibling
    # workers adopt the table from the shared mapping on their first miss.
    service.register(census)
    server = build_server(
        port=0,
        service=service,
        workers=RPS_WORKERS,
        config=config,
        stream_threshold_bytes=RPS_STREAM_THRESHOLD,
    ).serve_in_background()
    yield f"http://127.0.0.1:{server.port}", census.fingerprint, server, service
    server.close()


def _info_request(base: str, fingerprint: str) -> urllib.request.Request:
    """A cheap cached request: release metadata, no body rendering."""
    return urllib.request.Request(
        f"{base}/release",
        data=json.dumps(
            {
                "dataset": fingerprint,
                "k": RPS_K,
                "algorithm": "mondrian",
                "format": "info",
            }
        ).encode(),
        headers={"Content-Type": "application/json", "Connection": "close"},
        method="POST",
    )


def _fetch_csv_with_headers(port: int, fingerprint: str) -> tuple[dict, bytes]:
    """POST /release for CSV on a fresh HTTP/1.1 connection -> (headers, body).

    A fresh connection per call matters twice over: SO_REUSEPORT balances at
    accept time (keep-alive would pin one worker), and the raw headers show
    whether the body actually went out chunked.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        connection.request(
            "POST",
            "/release",
            body=json.dumps(
                {"dataset": fingerprint, "k": RPS_K, "algorithm": "mondrian"}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200, response.read()[:500]
        return dict(response.headers), response.read()
    finally:
        connection.close()


def _measure_rps(base: str, fingerprint: str, clients: int, per_client: int) -> float:
    """Sustained requests/second of ``clients`` concurrent cached fetchers."""
    # Warm this front's in-memory tier so the window measures steady state.
    with urllib.request.urlopen(_info_request(base, fingerprint), timeout=600) as r:
        r.read()
    barrier = threading.Barrier(clients)

    def client(_):
        barrier.wait(timeout=120)
        for _ in range(per_client):
            with urllib.request.urlopen(
                _info_request(base, fingerprint), timeout=600
            ) as response:
                response.read()

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(client, range(clients)))
    elapsed = time.perf_counter() - start
    return clients * per_client / elapsed


def test_multiprocess_sustained_rps(cluster_setup, bench_gate):
    """Acceptance gate: the multi-process front sustains the RPS floor.

    The gate also pins the cross-process cache contract: at least two worker
    processes answer, their chunked release bodies are byte-identical, and on
    a machine with >= ``RPS_SPEEDUP_MIN_CORES`` cores the multi-process front
    is >= 2x a single-process front over the same warm service.
    """
    base, fingerprint, server, service = cluster_setup
    port = server.port

    # First fetch computes the release (mondrian at scale) and spills it;
    # subsequent fetches from sibling workers map the shared container.
    headers, reference = _fetch_csv_with_headers(port, fingerprint)
    assert headers.get("Transfer-Encoding") == "chunked", (
        "a release this large must stream chunked"
    )
    bodies_by_pid = {headers["X-Repro-Worker"]: reference}
    deadline = time.monotonic() + 600
    while len(bodies_by_pid) < 2:
        assert time.monotonic() < deadline, (
            f"only worker(s) {sorted(bodies_by_pid)} answered before the deadline"
        )
        headers, body = _fetch_csv_with_headers(port, fingerprint)
        assert headers.get("Transfer-Encoding") == "chunked"
        bodies_by_pid.setdefault(headers["X-Repro-Worker"], body)
    assert len(set(bodies_by_pid.values())) == 1, (
        "workers sharing the spill directory must serve byte-identical bodies"
    )

    # Single-process reference: the same warm service on its own port.  Torn
    # down by hand — ServiceServer.close() would close the shared service.
    single = build_server(port=0, service=service).serve_in_background()
    try:
        single_rps = _measure_rps(
            f"http://127.0.0.1:{single.port}",
            fingerprint,
            RPS_CLIENTS,
            RPS_REQUESTS_PER_CLIENT,
        )
    finally:
        single.shutdown()
        single.server_close()

    multi_rps = _measure_rps(base, fingerprint, RPS_CLIENTS, RPS_REQUESTS_PER_CLIENT)
    cores = os.cpu_count() or 1
    ratio = multi_rps / single_rps
    bench_gate(
        "service-multiprocess-rps",
        records=RPS_RECORDS,
        clients=RPS_CLIENTS,
        workers=RPS_WORKERS,
        cores=cores,
        k=RPS_K,
        multi_rps=round(multi_rps, 1),
        single_rps=round(single_rps, 1),
        ratio=round(ratio, 2),
        required=RPS_FLOOR,
    )
    assert multi_rps >= RPS_FLOOR, (
        f"multi-process front sustained only {multi_rps:.1f} req/s with "
        f"{RPS_CLIENTS} clients on {RPS_RECORDS} records "
        f"(required {RPS_FLOOR:.0f} req/s)"
    )
    if cores >= RPS_SPEEDUP_MIN_CORES:
        assert ratio >= 2.0, (
            f"multi-process front is only {ratio:.2f}x the single-process "
            f"front on a {cores}-core machine (required 2x): "
            f"{multi_rps:.1f} vs {single_rps:.1f} req/s"
        )
