"""The serve-mixed workload: ``repro serve`` in its own process under a closed loop.

One client process (this one) drives the server over two keep-alive
connections; each sends its next request only after the previous reply has
arrived, so the loop is closed.  A run is a series of identical rounds, each
on a fresh server; in each round

* the **writer** runs ``WRITER_CYCLES`` cycles on the ``live`` dataset:
  ``POST /append/<fp>`` with a ``DELTA_ROWS``-row delta, ``POST /release``
  at ``WRITER_K`` on the new fingerprint (a cache miss: MDAV plus the CSV
  render), then ``POST /attack`` there (a harvest miss plus fusion);
* the **reader** makes ``READS_PER_CYCLE`` ``POST /release`` (CSV) calls on
  ``stable`` per cycle, rotating over ``READER_LEVELS``, all warmed at
  set-up.

Reader and writer start each cycle together and the cycle ends when both
are done.  Within a cycle they compete for the server's cores and cache;
across cycles the work is fixed, so a run's figures do not swing with how
the server happened to split its time between the two connections.

The server keeps ``CACHE_SIZE`` entries in memory, fewer than the reader's
working set, so some reads come from the on-disk tier.  The writer's cycle
count is fixed rather than time-bounded: an append decodes every spilled
container, harvest entries pile up at about one per cycle, so append cost
grows as the round goes on, and a time-bounded writer would make it depend
on how fast everything else ran.

Set-up (timed as ``setup_s``) starts a server, registers the datasets and
warms the reader's releases, which computes them.  Every round's server
starts from a copy of that warmed spill directory, so each round begins in
the same state and its warm-up is a disk read.  Rounds repeat for
``--seconds``; ``cycle_ms`` takes, for each cycle of the round, the median
over rounds, and averages over the cycles.  After every cycle, with both
connections idle, the client times slices of fixed work (see
``common.HostSpeed``); ``cycle_ms`` is divided by the host speed they give.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import HostSpeed, Outcome, median, peak_rss_mb, percentile
from repro.data.census import CensusConfig, generate_census
from repro.dataset.io import render_csv, stream_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.service import AnonymizationService
from spans import Tracer

STABLE_ROWS = 20_000
LIVE_ROWS = 5_000
DELTA_ROWS = 10
WRITER_CYCLES = 6
WRITER_K = 25
READS_PER_CYCLE = 400
READER_LEVELS = (5, 10, 25, 50)
CACHE_SIZE = 4
CONNECTIONS = 2
MIN_ROUNDS = 3
PROBE_REPEATS = 5
SETUP_REPEATS = 3
SERVER_START_TIMEOUT_S = 60.0

_CACHE_COUNTERS = (
    "memory_hits",
    "disk_hits",
    "misses",
    "computations",
    "coalesced_waits",
    "container_spills",
    "spill_evictions",
    "invalidations",
)


class _Connection:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(
        self, method: str, path: str, body: bytes | None = None, content_type: str = ""
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": content_type} if body is not None else {}
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def post_json(self, path: str, document: dict) -> tuple[int, bytes]:
        return self.request("POST", path, json.dumps(document).encode(), "application/json")

    def close(self) -> None:
        self._connection.close()


def _inputs(seed: int) -> dict[str, object]:
    """CSV bodies of the three datasets and a round's deltas, from one census draw."""
    base_rows = STABLE_ROWS + LIVE_ROWS
    population = generate_census(
        CensusConfig(count=base_rows + WRITER_CYCLES * DELTA_ROWS, seed=seed)
    )
    private = population.private
    attributes = population.auxiliary_attributes
    schema = Schema(
        [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [Attribute(name, AttributeRole.QUASI_IDENTIFIER) for name in attributes]
    )
    profiles = population.profiles
    auxiliary = Table(
        schema,
        {
            "name": [profile["name"] for profile in profiles],
            **{name: [profile[name] for profile in profiles] for name in attributes},
        },
    )

    def body(table: Table) -> bytes:
        return render_csv(table).encode("utf-8")

    return {
        "stable": body(private.take(range(STABLE_ROWS))),
        "live": body(private.take(range(STABLE_ROWS, base_rows))),
        "auxiliary": body(auxiliary),
        "deltas": [
            body(private.take(range(start, start + DELTA_ROWS)))
            for start in range(base_rows, private.num_rows, DELTA_ROWS)
        ],
    }


def _start_server(root: Path, spill_dir: Path, log_path: Path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--cache-dir", str(spill_dir), "--cache-size", str(CACHE_SIZE),
    ]
    with log_path.open("w") as log:
        process = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root
        )
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while time.monotonic() < deadline:
        for line in log_path.read_text().splitlines():
            if line.startswith("serving on http://"):
                return process, int(line.rsplit(":", 1)[1])
        if process.poll() is not None:
            break
        time.sleep(0.02)
    _stop_server(process)
    raise RuntimeError(f"server did not start; see {log_path}")


def _stop_server(process: subprocess.Popen) -> None:
    """Interrupt the server (a clean shutdown) and wait until it has exited."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)


class _Server:
    """A server with the three datasets registered and the reader's releases warm."""

    def __init__(self, work_dir: Path, template: Path | None = None) -> None:
        self.spill_dir = Path(tempfile.mkdtemp(prefix="serve-spill-", dir=work_dir))
        self.log_path = self.spill_dir.with_suffix(".log")
        if template is not None:
            shutil.copytree(
                template, self.spill_dir, dirs_exist_ok=True,
                ignore=shutil.ignore_patterns("jobs"),
            )
        self.process: subprocess.Popen | None = None
        self.connections: list[_Connection] = []

    def set_up(
        self, root: Path, inputs: dict[str, object], outcome: Outcome,
        reference: dict[int, bytes] | None = None,
    ) -> bool:
        """Start, register and warm; ``setup_s`` times all of it.

        Without ``reference`` the warm-up bodies become the reference every
        later read is checked against; with it, they are checked too.
        """
        start = time.perf_counter()
        self.process, self.port = _start_server(root, self.spill_dir, self.log_path)
        self.writer = self.connect()
        register_start = time.perf_counter()
        self.fingerprints = {}
        for label in ("stable", "live", "auxiliary"):
            status, body = self.writer.request(
                "POST", f"/datasets?label={label}", inputs[label], "text/csv"
            )
            if not outcome.check(status in (200, 201), f"register {label}: HTTP {status}"):
                return False
            self.fingerprints[label] = json.loads(body)["fingerprint"]
        self.register_s = time.perf_counter() - register_start
        self.reference = {}
        for k in READER_LEVELS:
            status, body = self.writer.post_json(
                "/release", {"dataset": self.fingerprints["stable"], "k": k, "format": "csv"}
            )
            expected = body if reference is None else reference[k]
            if not outcome.check(
                status == 200 and body == expected, f"warm release k={k}: HTTP {status}"
            ):
                return False
            self.reference[k] = body
        self.setup_s = time.perf_counter() - start
        return True

    def connect(self) -> _Connection:
        connection = _Connection(self.port)
        self.connections.append(connection)
        return connection

    def close(self, keep_spill: bool = False) -> None:
        """Close the connections, stop the server, delete its spill directory."""
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.process is not None:
            _stop_server(self.process)
        if not keep_spill:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


def _spill_listing(spill_dir: Path) -> tuple[int, int]:
    """Top-level cache files (``.npc``/``.pkl``) in the spill directory: count, bytes."""
    files = [
        path for path in spill_dir.iterdir()
        if path.is_file() and path.suffix in (".npc", ".pkl")
    ]
    return len(files), sum(path.stat().st_size for path in files)


def _round(
    server: _Server, inputs: dict[str, object], outcome: Outcome, host: HostSpeed
) -> dict[str, object]:
    """One round of the closed loop on a set-up server; its timings and counters."""
    writer, fingerprints, reference = server.writer, server.fingerprints, server.reference
    stats_before = json.loads(writer.request("GET", "/stats")[1])["cache"]
    reader = server.connect()
    # Both connections start each cycle together and the cycle ends when
    # both are done, so every cycle holds the same work however the
    # server happens to split its time between the two.
    barrier = threading.Barrier(2, timeout=300)
    reads: list[tuple[float, bool, int]] = []
    read_errors: list[str] = []

    def read_loop() -> None:
        turn = 0
        try:
            while True:
                barrier.wait()
                for _ in range(READS_PER_CYCLE):
                    k = READER_LEVELS[turn % len(READER_LEVELS)]
                    turn += 1
                    start = time.perf_counter()
                    try:
                        status, body = reader.post_json(
                            "/release",
                            {"dataset": fingerprints["stable"], "k": k, "format": "csv"},
                        )
                    except (OSError, http.client.HTTPException) as error:
                        read_errors.append(f"reader k={k}: {error!r}")
                        if len(read_errors) > 5:
                            break
                        continue
                    ok = status == 200 and body == reference[k]
                    reads.append((time.perf_counter() - start, ok, len(body)))
                barrier.wait()
        except threading.BrokenBarrierError:
            return  # the writer is done (or gave up)

    result = {
        "cycles": [], "appends": [], "misses": [], "attacks": [], "match_rates": [],
        "reads": reads,
    }
    reader_thread = threading.Thread(target=read_loop, name="reader")
    reader_thread.start()
    try:
        fingerprint, rows = fingerprints["live"], LIVE_ROWS
        for cycle, delta in enumerate(inputs["deltas"]):
            barrier.wait()
            cycle_start = time.perf_counter()
            status, body = writer.request("POST", f"/append/{fingerprint}", delta, "text/csv")
            result["appends"].append(time.perf_counter() - cycle_start)
            info = json.loads(body) if status == 200 else {}
            rows += DELTA_ROWS
            appended = outcome.check(
                info.get("superseded") == fingerprint and info.get("rows") == rows,
                f"append {cycle}: HTTP {status} {body[:200]!r}",
            )
            if appended:
                fingerprint = info["fingerprint"]
                start = time.perf_counter()
                status, body = writer.post_json(
                    "/release", {"dataset": fingerprint, "k": WRITER_K, "format": "csv"}
                )
                result["misses"].append(time.perf_counter() - start)
                outcome.check(
                    status == 200 and body.count(b"\n") == rows + 2,
                    f"release after append {cycle}: HTTP {status}",
                )
                start = time.perf_counter()
                status, body = writer.post_json(
                    "/attack",
                    {"dataset": fingerprint, "auxiliary": fingerprints["auxiliary"], "k": WRITER_K},
                )
                result["attacks"].append(time.perf_counter() - start)
                match_rate = json.loads(body).get("match_rate") if status == 200 else None
                outcome.check(match_rate == 1.0, f"attack {cycle}: match rate {match_rate}")
                if match_rate is not None:
                    result["match_rates"].append(match_rate)
            barrier.wait()
            result["cycles"].append(time.perf_counter() - cycle_start)
            host.sample()  # both connections idle until the next cycle
            if not appended or read_errors:
                break
    except threading.BrokenBarrierError:
        outcome.check(False, "the reader stopped mid-cycle")
    finally:
        barrier.abort()
        reader_thread.join(timeout=120)
    outcome.check(not reader_thread.is_alive(), "reader did not stop")
    for _, ok, _ in reads:
        outcome.check(ok, "reader body differs from its set-up body")
    for message in read_errors:
        outcome.check(False, message)

    stats_after = json.loads(writer.request("GET", "/stats")[1])["cache"]
    result["cache"] = {name: stats_after[name] - stats_before[name] for name in _CACHE_COUNTERS}
    result["spill_files"], result["spill_bytes"] = _spill_listing(server.spill_dir)
    result["rss_mb"] = peak_rss_mb(server.process.pid)
    return result


def run(seed: int, seconds: float, traced: bool, root: Path, work_dir: Path) -> Outcome:
    outcome = Outcome()
    tracer = Tracer(enabled=traced)
    outcome.tracer = tracer
    work_dir.mkdir(parents=True, exist_ok=True)

    with tracer.span("data.generate"):
        inputs = _inputs(seed)
    setup_times: list[float] = []
    register_times: list[float] = []
    rounds: list[dict[str, object]] = []
    template = None
    reference = None
    host = HostSpeed()
    try:
        # Set up several times; the first server's warmed spill directory is
        # the starting state of every round.
        for _ in range(SETUP_REPEATS):
            server = _Server(work_dir)
            ok = False
            try:
                ok = server.set_up(root, inputs, outcome, reference)
            finally:
                keep = ok and template is None
                server.close(keep_spill=keep)
            if not ok:
                return outcome
            if keep:
                template, reference = server.spill_dir, server.reference
            setup_times.append(server.setup_s)
            register_times.append(server.register_s)

        window_start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - window_start < seconds:
            server = _Server(work_dir, template)
            try:
                if not server.set_up(root, inputs, outcome, reference):
                    return outcome
                rounds.append(_round(server, inputs, outcome, host))
            finally:
                server.close()
            if outcome.failures:
                break
        window_s = time.perf_counter() - window_start
    finally:
        if template is not None:
            shutil.rmtree(template, ignore_errors=True)

    complete = [result for result in rounds if len(result["cycles"]) == WRITER_CYCLES]
    if not complete or outcome.failures:
        outcome.check(False, "no round completed every writer cycle")
        return outcome
    setup_s = median(setup_times)
    # For each cycle of the round, the median over rounds.  Not the lower
    # decile of the FRED workloads: a cycle's cost also depends on how the
    # two connections happened to interleave in the server, so the fastest
    # rounds are the lucky interleavings rather than the quiet host.
    cycle_s = [
        median([result["cycles"][cycle] for result in complete])
        for cycle in range(WRITER_CYCLES)
    ]

    def pooled(name: str) -> list:
        return [value for result in complete for value in result[name]]

    hit_latencies = [latency for latency, _, _ in pooled("reads")]
    requests = sum(
        len(result[name]) for result in complete
        for name in ("reads", "appends", "misses", "attacks")
    )
    busy_s = sum(sum(result["cycles"]) for result in complete)
    outcome.sizes = {
        "stable_rows": STABLE_ROWS,
        "live_rows": LIVE_ROWS,
        "auxiliary_rows": STABLE_ROWS + LIVE_ROWS + WRITER_CYCLES * DELTA_ROWS,
        "delta_rows_per_append": DELTA_ROWS,
        "writer_cycles": WRITER_CYCLES,
        "rounds": len(complete),
        "reads_per_cycle": READS_PER_CYCLE,
        "reader_levels": len(READER_LEVELS),
        "server_cache_entries": CACHE_SIZE,
        "connections": CONNECTIONS,
        "reads": len(hit_latencies),
    }
    outcome.notes.append(
        f"load: closed loop, 1 client process, {CONNECTIONS} connections "
        f"(reader, writer); {len(complete)} rounds on fresh servers, each "
        f"{WRITER_CYCLES} cycles of append + release + attack against "
        f"{READS_PER_CYCLE} reads; window {window_s:.2f} s"
    )
    for number, result in enumerate(complete, 1):
        outcome.notes.append(
            f"round {number} writer cycles (s): "
            + ", ".join(f"{value:.3f}" for value in result["cycles"])
        )
    server_rss = median([result["rss_mb"] for result in complete])
    cycle_ms = sum(cycle_s) / len(cycle_s) * 1000.0
    # The median of the slices, like the median over rounds it divides.
    factor = host.factor("median")
    outcome.end_to_end = {
        "setup_s": setup_s,
        # Averaged over the cycles, not their median: cycle cost grows across
        # a round by design, and the mean covers every cycle.
        "cycle_ms": cycle_ms / factor,
        "peak_rss_mb": server_rss,
    }
    hit_p50_ms = median(hit_latencies) * 1000.0
    outcome.report = {
        "serve_rps": (requests / busy_s, "req/s"),
        "release_hit_p50_ms": (hit_p50_ms, "ms"),
        "release_hit_p99_ms": (percentile(hit_latencies, 99) * 1000.0, "ms"),
        "release_miss_p50_ms": (median(pooled("misses")) * 1000.0, "ms"),
        "attack_p50_ms": (median(pooled("attacks")) * 1000.0, "ms"),
        "append_p50_ms": (median(pooled("appends")) * 1000.0, "ms"),
        "writer_cycle_ms": (cycle_ms, "ms"),
        "peak_rss_mb": (server_rss, "MB"),
        "setup_s": (setup_s, "s"),
        "host_factor": (factor, "ratio"),
    }
    if not traced:
        return outcome

    # Counters per round: the median over the rounds.
    delta = {
        name: median([result["cache"][name] for result in complete])
        for name in _CACHE_COUNTERS
    }
    lookups = delta["memory_hits"] + delta["disk_hits"] + delta["misses"]
    outcome.layers = {f"cache.{name}": value for name, value in delta.items()}
    outcome.layers.update(
        {
            "cache.hit_ratio": (delta["memory_hits"] + delta["disk_hits"]) / lookups,
            "cache.spill_files": median([result["spill_files"] for result in complete]),
            "cache.spill_bytes": median([result["spill_bytes"] for result in complete]),
            "http.release_bytes": median([size for _, _, size in pooled("reads")]),
            "service.register_s": median(register_times),
            "data.generate_s": tracer.seconds("data.generate"),
            "fusion.match_rate": min(pooled("match_rates")),
        }
    )
    outcome.layers.update(_in_process_probes(inputs, tracer, outcome, work_dir))
    outcome.layers["http.release_overhead_ms"] = (
        hit_p50_ms - outcome.layers["service.release_csv_hit_ms"]
    )
    return outcome


def _parse(body: bytes) -> Table:
    return stream_csv(body.decode("utf-8").splitlines(keepends=True))


def _in_process_probes(
    inputs: dict[str, object], tracer: Tracer, outcome: Outcome, work_dir: Path
) -> dict[str, float]:
    """Time the service's layers in this process, with the server stopped."""
    stable, live, auxiliary = (_parse(inputs[label]) for label in ("stable", "live", "auxiliary"))
    delta_text = inputs["deltas"][0].decode("utf-8")

    service = AnonymizationService(cache_capacity=CACHE_SIZE)
    try:
        fingerprint = service.register(stable)["fingerprint"]
        service.release_csv(fingerprint, READER_LEVELS[-1])
        for _ in range(200):
            with tracer.span("service.release_csv_hit"):
                service.release_csv(fingerprint, READER_LEVELS[-1])
    finally:
        service.close()

    for _ in range(PROBE_REPEATS):
        service = AnonymizationService(cache_capacity=CACHE_SIZE)
        try:
            fingerprint = service.register(live)["fingerprint"]
            with tracer.span("anonymize.release_compute"):
                artifact = service.release(fingerprint, WRITER_K)
            with tracer.span("dataset.render_csv"):
                render_csv(artifact.table)
        finally:
            service.close()

    for _ in range(50):
        with tracer.span("dataset.parse_delta"):
            delta = stream_csv(delta_text.splitlines(keepends=True))
        with tracer.span("dataset.append"):
            live.append(delta).fingerprint  # noqa: B018 - the hash is the work

    for _ in range(PROBE_REPEATS):
        spill = Path(tempfile.mkdtemp(prefix="probe-spill-", dir=work_dir))
        service = AnonymizationService(cache_capacity=CACHE_SIZE, cache_dir=spill)
        try:
            fingerprint = service.register(live)["fingerprint"]
            delta = stream_csv(delta_text.splitlines(keepends=True))
            with tracer.span("service.append"):
                service.append_table(fingerprint, delta)
        finally:
            service.close()
            shutil.rmtree(spill, ignore_errors=True)

    for _ in range(PROBE_REPEATS):
        service = AnonymizationService(cache_capacity=CACHE_SIZE)
        try:
            fingerprint = service.register(live)["fingerprint"]
            auxiliary_fp = service.register(auxiliary)["fingerprint"]
            service.release(fingerprint, WRITER_K)
            with tracer.span("fusion.attack_compute"):
                result = service.attack(fingerprint, auxiliary_fp, WRITER_K)
            outcome.check(result["match_rate"] == 1.0, "in-process attack missed names")
        finally:
            service.close()

    def ms(name: str) -> float:
        return median(tracer.durations(name)) * 1000.0

    return {
        "service.release_csv_hit_ms": ms("service.release_csv_hit"),
        "anonymize.release_compute_ms": ms("anonymize.release_compute"),
        "dataset.render_csv_ms": ms("dataset.render_csv"),
        "dataset.parse_delta_ms": ms("dataset.parse_delta"),
        "dataset.append_ms": ms("dataset.append"),
        "service.append_ms": ms("service.append"),
        "fusion.attack_compute_ms": ms("fusion.attack_compute"),
    }
