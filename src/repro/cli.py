"""Command-line interface.

The CLI exposes the three operations a downstream user actually runs on their
own data, all operating on the CSV format of :mod:`repro.dataset.io` (two
header lines: column names, then ``role:kind`` declarations):

* ``repro anonymize``  — k-anonymize a private table and write the enterprise
  release (identifiers kept, quasi-identifiers generalized, sensitive column
  dropped);
* ``repro attack``     — run the web-based information-fusion attack against a
  release, using an auxiliary CSV as the harvested web data, and write the
  per-record sensitive-attribute estimates; ``--linkage-threshold`` switches
  the name lookup from exact to approximate record linkage (with
  ``--blocking`` / ``--qgram-size`` knobs), for auxiliary CSVs holding
  scraped web-name spellings;
* ``repro fred``       — run the FRED sweep on a private table plus auxiliary
  CSV and report the selected anonymization level (optionally writing the
  chosen release);
* ``repro serve``      — run the long-lived anonymization service: a threaded
  JSON/HTTP server with CSV dataset registration and synchronous appends,
  fingerprint-keyed release and attack caching, and asynchronous FRED jobs
  (see :mod:`repro.service`);
* ``repro append``     — append delta rows from one CSV onto a base CSV using
  the chunked streaming reader, writing the combined table and reporting its
  *chained* content fingerprint (``sha256(base_fp ‖ delta_fp)`` — the same
  identity ``POST /append/<fp>`` registers, so offline and served pipelines
  agree on what an appended dataset is called).

Example
-------
::

    python -m repro.cli anonymize --input private.csv --k 5 --output release.csv
    python -m repro.cli attack --release release.csv --auxiliary web.csv \
        --sensitive-low 40000 --sensitive-high 160000 --output estimates.csv
    python -m repro.cli fred --input private.csv --auxiliary web.csv \
        --kmin 2 --kmax 16 --output fused_release.csv
    python -m repro.cli serve --port 8080 --cache-dir /tmp/repro-cache
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

import numpy as np

from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.mdav import MDAVAnonymizer
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.core.objective import WeightedObjective
from repro.dataset.io import append_csv, read_csv, write_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import ReproError
from repro.fusion.attack import AttackConfig, WebFusionAttack
from repro.fusion.auxiliary import TableAuxiliarySource
from repro.linkage import BLOCKING_SCHEMES

__all__ = ["main", "build_parser"]

_ANONYMIZERS = {
    "mdav": MDAVAnonymizer,
    "mondrian": MondrianAnonymizer,
    "greedy-cluster": GreedyClusterAnonymizer,
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fusion attacks and fusion-resilient anonymization for enterprise data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    anonymize = subparsers.add_parser("anonymize", help="k-anonymize a private CSV table")
    anonymize.add_argument("--input", type=Path, required=True, help="private table CSV")
    anonymize.add_argument("--output", type=Path, required=True, help="release CSV to write")
    anonymize.add_argument("--k", type=int, required=True, help="anonymity parameter k")
    anonymize.add_argument(
        "--algorithm", choices=sorted(_ANONYMIZERS), default="mdav", help="partitioning scheme"
    )
    anonymize.add_argument(
        "--style", choices=("interval", "centroid"), default="interval",
        help="how generalized quasi-identifier cells are published",
    )

    attack = subparsers.add_parser(
        "attack", help="run the web-based information-fusion attack on a release CSV"
    )
    attack.add_argument("--release", type=Path, required=True, help="anonymized release CSV")
    attack.add_argument(
        "--auxiliary", type=Path, required=True,
        help="auxiliary (web) CSV keyed by a name column",
    )
    attack.add_argument("--name-column", default="name", help="identifier column in the auxiliary CSV")
    attack.add_argument("--output", type=Path, default=None, help="estimates CSV to write")
    attack.add_argument("--sensitive-name", default="sensitive_estimate", help="name of the estimated attribute")
    attack.add_argument("--sensitive-low", type=float, required=True, help="assumed sensitive range low end")
    attack.add_argument("--sensitive-high", type=float, required=True, help="assumed sensitive range high end")
    attack.add_argument(
        "--engine", choices=("mamdani", "sugeno"), default="mamdani", help="fusion engine"
    )
    _add_linkage_arguments(attack)

    fred = subparsers.add_parser("fred", help="run the FRED sweep on a private CSV table")
    fred.add_argument("--input", type=Path, required=True, help="private table CSV")
    fred.add_argument("--auxiliary", type=Path, required=True, help="auxiliary (web) CSV")
    fred.add_argument("--name-column", default="name", help="identifier column in the auxiliary CSV")
    fred.add_argument("--output", type=Path, default=None, help="write the selected release CSV")
    fred.add_argument("--kmin", type=int, default=2)
    fred.add_argument("--kmax", type=int, default=16)
    fred.add_argument("--sensitive-low", type=float, default=None, help="assumed sensitive range low end")
    fred.add_argument("--sensitive-high", type=float, default=None, help="assumed sensitive range high end")
    fred.add_argument("--protection-weight", type=float, default=0.5, help="W1")
    fred.add_argument("--utility-weight", type=float, default=0.5, help="W2")
    fred.add_argument("--protection-threshold", type=float, default=None, help="Tp")
    fred.add_argument("--utility-threshold", type=float, default=None, help="Tu")
    fred.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="number of worker processes evaluating anonymization levels",
    )
    _add_linkage_arguments(fred)

    append = subparsers.add_parser(
        "append",
        help="append delta CSV rows onto a base CSV (chained content fingerprint)",
    )
    append.add_argument("--base", type=Path, required=True, help="base table CSV")
    append.add_argument("--delta", type=Path, required=True, help="delta rows CSV (same schema)")
    append.add_argument("--output", type=Path, required=True, help="combined CSV to write")
    append.add_argument(
        "--chunk-rows", type=int, default=65536,
        help="rows per streamed parse chunk of the delta read",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the anonymization service (threaded JSON/HTTP server with "
        "CSV dataset registration and appends, release/attack caching and "
        "async FRED jobs)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 picks a free one)")
    serve.add_argument(
        "--cache-size", type=int, default=128,
        help="in-memory LRU entry budget of the release/result cache",
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=None,
        help="optional on-disk spill directory for cached artifacts",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2, help="worker threads for async FRED jobs"
    )
    serve.add_argument(
        "--max-body-mb", type=int, default=64,
        help="largest accepted request body in MiB (oversize requests get 413)",
    )
    serve.add_argument(
        "--max-spill-mb", type=int, default=None,
        help="optional spill-directory budget in MiB (LRU files evicted past it)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    return parser


def _add_linkage_arguments(parser: argparse.ArgumentParser) -> None:
    """Record-linkage knobs shared by ``attack`` and ``fred``."""
    parser.add_argument(
        "--linkage-threshold",
        type=float,
        default=None,
        help="minimum composite name similarity for an auxiliary row to match; "
        "omit for exact name lookups",
    )
    parser.add_argument(
        "--blocking",
        choices=BLOCKING_SCHEMES,
        default="qgram",
        help="candidate blocking scheme of the linkage index "
        "(only used with --linkage-threshold)",
    )
    parser.add_argument(
        "--qgram-size",
        type=int,
        default=2,
        help="character q-gram width of the 'qgram' blocking scheme",
    )


def _auxiliary_source(path: Path, arguments: argparse.Namespace) -> TableAuxiliarySource:
    auxiliary = read_csv(path)
    return TableAuxiliarySource(
        table=auxiliary,
        name_column=arguments.name_column,
        linkage_threshold=arguments.linkage_threshold,
        blocking=arguments.blocking,
        qgram_size=arguments.qgram_size,
    )


def _attack_config(
    release: Table,
    source: TableAuxiliarySource,
    output_name: str,
    output_universe: tuple[float, float],
    engine: str,
) -> AttackConfig:
    release_inputs = tuple(release.schema.numeric_quasi_identifiers)
    auxiliary_inputs = tuple(source.attribute_names)
    return AttackConfig(
        release_inputs=release_inputs,
        auxiliary_inputs=auxiliary_inputs,
        output_name=output_name,
        output_universe=output_universe,
        engine=engine,
    )


def _command_anonymize(arguments: argparse.Namespace) -> int:
    private = read_csv(arguments.input)
    anonymizer_class = _ANONYMIZERS[arguments.algorithm]
    if arguments.algorithm == "mdav":
        anonymizer = anonymizer_class(release_style=arguments.style)
    else:
        anonymizer = anonymizer_class()
    result = anonymizer.anonymize(private, arguments.k)
    write_csv(result.release, arguments.output)
    print(
        f"wrote {arguments.output} (k={arguments.k}, algorithm={arguments.algorithm}, "
        f"{len(result.classes)} equivalence classes, smallest={result.minimum_class_size})"
    )
    return 0


def _command_attack(arguments: argparse.Namespace) -> int:
    if arguments.sensitive_low >= arguments.sensitive_high:
        raise ReproError("--sensitive-low must be below --sensitive-high")
    release = read_csv(arguments.release)
    source = _auxiliary_source(arguments.auxiliary, arguments)
    config = _attack_config(
        release,
        source,
        arguments.sensitive_name,
        (arguments.sensitive_low, arguments.sensitive_high),
        arguments.engine,
    )
    result = WebFusionAttack(source, config).run(release)

    names = [str(n) for n in release.identifier_column()]
    print(f"matched auxiliary data for {result.match_rate:.0%} of {len(names)} records")
    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute(arguments.sensitive_name, AttributeRole.SENSITIVE),
        ]
    )
    estimates_table = Table(
        schema,
        {
            "name": names,
            arguments.sensitive_name: [float(v) for v in result.estimates],
        },
    )
    if arguments.output is not None:
        write_csv(estimates_table, arguments.output)
        print(f"wrote {arguments.output}")
    else:
        print(estimates_table.to_text(max_rows=None))
    return 0


def _command_fred(arguments: argparse.Namespace) -> int:
    private = read_csv(arguments.input)
    source = _auxiliary_source(arguments.auxiliary, arguments)
    sensitive = private.sensitive_vector()
    low = arguments.sensitive_low
    high = arguments.sensitive_high
    if low is None:
        low = float(np.floor(sensitive.min()))
    if high is None:
        high = float(np.ceil(sensitive.max()))
    if low >= high:
        raise ReproError("the assumed sensitive range is empty; pass --sensitive-low/high")

    release_view = private.release_view()
    config = _attack_config(
        release_view, source, private.schema.sensitive_attribute, (low, high), "mamdani"
    )
    fred = FREDAnonymizer(
        source,
        config,
        FREDConfig(
            levels=tuple(range(arguments.kmin, arguments.kmax + 1)),
            protection_threshold=arguments.protection_threshold,
            utility_threshold=arguments.utility_threshold,
            objective=WeightedObjective(arguments.protection_weight, arguments.utility_weight),
            stop_below_utility=arguments.utility_threshold is not None,
            parallelism=arguments.parallelism,
        ),
    )
    result = fred.run(private)
    print(result.summary())
    if arguments.output is not None:
        write_csv(result.optimal_release, arguments.output)
        print(f"wrote {arguments.output} (k={result.optimal_level})")
    return 0


def _interrupt_on_signal(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def _command_serve(arguments: argparse.Namespace) -> int:
    from repro.service import AnonymizationService, build_server

    service = AnonymizationService(
        cache_capacity=arguments.cache_size,
        cache_dir=arguments.cache_dir,
        job_workers=arguments.job_workers,
        max_spill_bytes=(
            arguments.max_spill_mb * 1024 * 1024
            if arguments.max_spill_mb is not None
            else None
        ),
    )
    server = build_server(
        host=arguments.host,
        port=arguments.port,
        service=service,
        verbose=arguments.verbose,
        max_body_bytes=arguments.max_body_mb * 1024 * 1024,
    )
    # SIGTERM and SIGINT both take the drain path below.  A shell starts a
    # background job with SIGINT ignored, and Python then installs no SIGINT
    # handler of its own, so the default one is restored explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _interrupt_on_signal)
    try:
        print(f"serving on http://{arguments.host}:{server.port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight jobs)", flush=True)
    finally:
        server.close(wait_jobs=True)
    return 0


def _command_append(arguments: argparse.Namespace) -> int:
    base = read_csv(arguments.base)
    combined = append_csv(arguments.delta, base, chunk_rows=arguments.chunk_rows)
    write_csv(combined, arguments.output)
    appended = combined.num_rows - base.num_rows
    print(
        f"wrote {arguments.output} ({base.num_rows} + {appended} rows, "
        f"chained fingerprint {combined.fingerprint})"
    )
    return 0


_COMMANDS = {
    "anonymize": _command_anonymize,
    "append": _command_append,
    "attack": _command_attack,
    "fred": _command_fred,
    "serve": _command_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _COMMANDS[arguments.command](arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module shim
    raise SystemExit(main())
