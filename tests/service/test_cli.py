"""Tests for the ``python -m repro.service`` command line."""

from __future__ import annotations

import json

import pytest

from repro.service.__main__ import main

pytestmark = pytest.mark.service

SPEC = {
    "protocol": "bellman-ford-sssp",
    "graph": {"generator": "path", "params": {"num_nodes": 6}},
    "params": {"source": 0},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRun:
    def test_run_from_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        code, document = run_cli(capsys, "run", str(spec_path))
        assert code == 0
        assert document["status"]["state"] == "completed"
        assert document["spec"]["protocol"] == "bellman-ford-sssp"
        assert document["result"]["report"]["protocol"] == "bellman-ford"

    def test_run_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SPEC)))
        code, document = run_cli(capsys, "run", "-")
        assert code == 0
        assert document["result"]["report"]["rounds"] == 6

    def test_run_reports_failure_with_exit_1(self, capsys, tmp_path):
        bad = dict(SPEC, params={})  # bellman-ford-sssp requires a source
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(bad))
        code, document = run_cli(capsys, "run", str(spec_path))
        assert code == 1
        assert "error" in document
        assert "source" in document["error"]

    def test_invalid_spec_names_registry(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, protocol="nope")))
        with pytest.raises(SystemExit):
            main(["run", str(spec_path)])

    def test_invalid_json_is_a_clean_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{broken")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["run", str(spec_path)])


class TestBatch:
    def test_batch_with_cache_dir(self, capsys, tmp_path):
        specs_path = tmp_path / "batch.json"
        specs_path.write_text(json.dumps([SPEC, SPEC]))
        cache_dir = tmp_path / "cache"
        code, document = run_cli(
            capsys, "batch", str(specs_path), "--cache-dir", str(cache_dir), "--workers", "1"
        )
        assert code == 0
        assert len(document["jobs"]) == 2
        assert document["stats"]["jobs"]["completed"] == 2
        # workers=1 serializes the two identical specs: the second hits.
        assert document["jobs"][1]["status"]["cache_hit"] is True
        assert list(cache_dir.glob("*.json"))

    def test_batch_rejects_non_list(self, tmp_path):
        specs_path = tmp_path / "batch.json"
        specs_path.write_text(json.dumps(SPEC))
        with pytest.raises(SystemExit, match="JSON list"):
            main(["batch", str(specs_path)])

    def test_warm_batch_from_disk_cache(self, capsys, tmp_path):
        specs_path = tmp_path / "batch.json"
        specs_path.write_text(json.dumps([SPEC]))
        cache_dir = tmp_path / "cache"
        run_cli(capsys, "batch", str(specs_path), "--cache-dir", str(cache_dir))
        code, document = run_cli(
            capsys, "batch", str(specs_path), "--cache-dir", str(cache_dir)
        )
        assert code == 0
        assert document["jobs"][0]["status"]["cache_hit"] is True


class TestStats:
    def test_stats_lists_registries(self, capsys):
        code, document = run_cli(capsys, "stats")
        assert code == 0
        assert "bellman-ford-sssp" in document["protocols"]
        assert "sparse" in document["engines"]
        assert "python" in document["kernel_backends"]
        assert "path" in document["generators"]
        assert set(document) == {"protocols", "engines", "kernel_backends", "generators"}

    def test_stats_with_cache_dir(self, capsys, tmp_path):
        code, document = run_cli(
            capsys, "stats", "--cache-dir", str(tmp_path / "cache")
        )
        assert code == 0
        assert document["cache"]["entries"] == 0

    def test_pretty_flag(self, capsys):
        code = main(["--pretty", "stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("{\n")
