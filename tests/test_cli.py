"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.dataset.io import read_csv, write_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.anonymize.kanonymity import is_k_anonymous


@pytest.fixture()
def csv_paths(tmp_path, faculty_population):
    """Write the faculty private table and its auxiliary web data as CSVs."""
    private_path = tmp_path / "private.csv"
    write_csv(faculty_population.private, private_path)

    aux_schema = Schema(
        [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [
            Attribute(name, AttributeRole.QUASI_IDENTIFIER)
            for name in faculty_population.auxiliary_attributes
        ]
    )
    aux_rows = [
        {
            "name": profile["name"],
            **{name: profile[name] for name in faculty_population.auxiliary_attributes},
        }
        for profile in faculty_population.profiles
    ]
    aux_path = tmp_path / "web.csv"
    write_csv(Table.from_rows(aux_schema, aux_rows), aux_path)
    return private_path, aux_path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_anonymize(self):
        arguments = build_parser().parse_args(
            ["anonymize", "--input", "a.csv", "--output", "b.csv", "--k", "3"]
        )
        assert arguments.command == "anonymize"
        assert arguments.k == 3
        assert arguments.algorithm == "mdav"

    def test_help_lists_every_subcommand(self):
        help_text = build_parser().format_help()
        for command in ("anonymize", "append", "attack", "fred", "serve"):
            assert command in help_text

    def test_parses_serve_with_defaults(self):
        arguments = build_parser().parse_args(["serve"])
        assert arguments.command == "serve"
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 8080
        assert arguments.cache_size == 128
        assert arguments.cache_dir is None
        assert arguments.job_workers == 2
        assert arguments.verbose is False

    def test_parses_serve_overrides(self):
        arguments = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-size", "16", "--cache-dir", "/tmp/c"]
        )
        assert arguments.port == 0
        assert arguments.cache_size == 16
        assert str(arguments.cache_dir) == "/tmp/c"


class TestAnonymizeCommand:
    def test_writes_k_anonymous_release(self, csv_paths, tmp_path, capsys):
        private_path, _ = csv_paths
        output = tmp_path / "release.csv"
        exit_code = main(
            ["anonymize", "--input", str(private_path), "--output", str(output), "--k", "4"]
        )
        assert exit_code == 0
        release = read_csv(output)
        assert "salary" not in release.schema
        assert is_k_anonymous(release, 4)
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["mondrian", "greedy-cluster"])
    def test_other_algorithms(self, csv_paths, tmp_path, algorithm):
        private_path, _ = csv_paths
        output = tmp_path / "release.csv"
        exit_code = main(
            [
                "anonymize", "--input", str(private_path), "--output", str(output),
                "--k", "3", "--algorithm", algorithm,
            ]
        )
        assert exit_code == 0
        assert is_k_anonymous(read_csv(output), 3)

    def test_infeasible_k_reports_error(self, csv_paths, tmp_path, capsys):
        private_path, _ = csv_paths
        exit_code = main(
            [
                "anonymize", "--input", str(private_path),
                "--output", str(tmp_path / "r.csv"), "--k", "10000",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestAppendCommand:
    def test_appends_delta_under_a_chained_fingerprint(
        self, csv_paths, tmp_path, capsys
    ):
        from repro.dataset.table import chain_fingerprints

        private_path, _ = csv_paths
        base = read_csv(private_path)
        delta = base.take([0, 1, 2])
        delta_path = tmp_path / "delta.csv"
        write_csv(delta, delta_path)
        output = tmp_path / "combined.csv"
        exit_code = main(
            [
                "append", "--base", str(private_path),
                "--delta", str(delta_path), "--output", str(output),
            ]
        )
        assert exit_code == 0
        combined = read_csv(output)
        assert combined.num_rows == base.num_rows + 3
        printed = capsys.readouterr().out
        assert chain_fingerprints(base.fingerprint, delta.fingerprint) in printed

    def test_schema_mismatch_reports_error(self, csv_paths, tmp_path, capsys):
        private_path, aux_path = csv_paths
        exit_code = main(
            [
                "append", "--base", str(private_path),
                "--delta", str(aux_path), "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestAttackCommand:
    def test_estimates_written(self, csv_paths, tmp_path, faculty_population, capsys):
        private_path, aux_path = csv_paths
        release_path = tmp_path / "release.csv"
        main(["anonymize", "--input", str(private_path), "--output", str(release_path), "--k", "3"])

        estimates_path = tmp_path / "estimates.csv"
        low, high = faculty_population.assumed_salary_range
        exit_code = main(
            [
                "attack", "--release", str(release_path), "--auxiliary", str(aux_path),
                "--sensitive-low", str(low), "--sensitive-high", str(high),
                "--output", str(estimates_path), "--sensitive-name", "salary_estimate",
            ]
        )
        assert exit_code == 0
        estimates = read_csv(estimates_path)
        assert estimates.num_rows == faculty_population.private.num_rows
        values = estimates.numeric_column("salary_estimate")
        assert (values >= low).all() and (values <= high).all()
        assert "matched auxiliary data" in capsys.readouterr().out

    def test_prints_when_no_output(self, csv_paths, tmp_path, faculty_population, capsys):
        private_path, aux_path = csv_paths
        release_path = tmp_path / "release.csv"
        main(["anonymize", "--input", str(private_path), "--output", str(release_path), "--k", "3"])
        low, high = faculty_population.assumed_salary_range
        exit_code = main(
            [
                "attack", "--release", str(release_path), "--auxiliary", str(aux_path),
                "--sensitive-low", str(low), "--sensitive-high", str(high),
            ]
        )
        assert exit_code == 0
        assert "sensitive_estimate" in capsys.readouterr().out

    def test_invalid_range(self, csv_paths, tmp_path, capsys):
        private_path, aux_path = csv_paths
        release_path = tmp_path / "release.csv"
        main(["anonymize", "--input", str(private_path), "--output", str(release_path), "--k", "3"])
        exit_code = main(
            [
                "attack", "--release", str(release_path), "--auxiliary", str(aux_path),
                "--sensitive-low", "10", "--sensitive-high", "5",
            ]
        )
        assert exit_code == 2

    def test_infinite_range_names_the_field(self, csv_paths, tmp_path, capsys):
        private_path, aux_path = csv_paths
        release_path = tmp_path / "release.csv"
        main(["anonymize", "--input", str(private_path), "--output", str(release_path), "--k", "3"])
        capsys.readouterr()
        exit_code = main(
            [
                "attack", "--release", str(release_path), "--auxiliary", str(aux_path),
                "--sensitive-low", "0", "--sensitive-high", "inf",
            ]
        )
        assert exit_code == 2
        assert "output_universe bounds must be finite" in capsys.readouterr().err


class TestFredCommand:
    def test_selects_level_and_writes_release(self, csv_paths, tmp_path, capsys):
        private_path, aux_path = csv_paths
        output = tmp_path / "fused.csv"
        exit_code = main(
            [
                "fred", "--input", str(private_path), "--auxiliary", str(aux_path),
                "--kmin", "2", "--kmax", "5", "--output", str(output),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "optimal level" in out
        release = read_csv(output)
        assert "salary" not in release.schema
        assert is_k_anonymous(release, 2)

    def test_parallel_sweep_matches_serial(self, csv_paths, capsys):
        private_path, aux_path = csv_paths
        base = [
            "fred", "--input", str(private_path), "--auxiliary", str(aux_path),
            "--kmin", "2", "--kmax", "5",
        ]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--parallelism", "4"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out


def _start_serve(tmp_path, preexec_fn=None):
    """Start ``repro serve`` on a free port; returns ``(process, base URL)``."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "spill")],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        preexec_fn=preexec_fn,
    )
    try:
        banner = process.stdout.readline()
        assert "serving on http://" in banner, banner
    except BaseException:
        _stop_serve(process)
        raise
    port = int(banner.strip().rsplit(":", 1)[1])
    return process, f"http://127.0.0.1:{port}"


def _stop_serve(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)
    process.stdout.close()


def _ignore_sigint():
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


DRAIN_LINE = "shutting down (draining in-flight jobs)"


class TestServeCommand:
    def test_serve_subprocess_answers_http(self, csv_paths, tmp_path):
        """``repro serve`` boots, registers a dataset, serves a release, dies."""
        import json
        import signal
        import urllib.request

        private_path, _ = csv_paths
        process, base = _start_serve(tmp_path)
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
                assert json.loads(response.read()) == {"status": "ok"}

            request = urllib.request.Request(
                f"{base}/datasets",
                data=private_path.read_bytes(),
                headers={"Content-Type": "text/csv"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                fingerprint = json.loads(response.read())["fingerprint"]

            release_request = urllib.request.Request(
                f"{base}/release",
                data=json.dumps({"dataset": fingerprint, "k": 3}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(release_request, timeout=60) as response:
                first = response.read()
            with urllib.request.urlopen(release_request, timeout=60) as response:
                second = response.read()
            assert first == second and b"salary" not in first

            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
            assert DRAIN_LINE in process.stdout.read()
        finally:
            _stop_serve(process)

    @pytest.mark.parametrize(
        ("signal_name", "preexec_fn"),
        [("SIGINT", None), ("SIGTERM", None), ("SIGINT", _ignore_sigint)],
        ids=["sigint", "sigterm", "sigint-inherited-ignored"],
    )
    def test_stop_signal_drains_and_exits_cleanly(self, tmp_path, signal_name, preexec_fn):
        """SIGTERM, and SIGINT even when started with SIGINT ignored (a shell's
        ``&`` background job), take the drain path and exit 0."""
        import json
        import signal
        import urllib.request

        process, base = _start_serve(tmp_path, preexec_fn=preexec_fn)
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
                assert json.loads(response.read()) == {"status": "ok"}
            process.send_signal(getattr(signal, signal_name))
            assert process.wait(timeout=30) == 0
            assert DRAIN_LINE in process.stdout.read()
        finally:
            _stop_serve(process)
