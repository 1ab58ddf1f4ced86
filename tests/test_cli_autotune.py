"""CLI tests for `python -m repro autotune` (exit codes 0/2)."""

import json

import pytest

from repro.cli import main


class TestSearch:
    def test_search_creates_db(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        rc = main(
            ["autotune", "search", "SK-M-0.5", "--device", "3090",
             "--db", str(db), "--scale", "0.1"]
        )
        assert rc == 0
        assert db.exists()
        assert "entries" in capsys.readouterr().out

    def test_search_deterministic_dbs(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = main(
                ["autotune", "search", "SK-M-0.5", "--device", "3090",
                 "--db", str(path), "--scale", "0.1", "--json"]
            )
            assert rc == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_second_search_all_hits(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        args = ["autotune", "search", "SK-M-0.5", "--device", "3090",
                "--db", str(db), "--scale", "0.1", "--json"]
        main(args)
        capsys.readouterr()
        rc = main(args)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["db_misses"] == 0
        assert doc["tuned"] is False

    def test_search_fills_the_key_serving_reads(self, tmp_path, capsys):
        """Default seed and scale match serve-bench's background tune, so
        a searched store serves its first batch tuned."""
        from repro.serve import ServeConfig, ServingRuntime
        from repro.serve.traffic import generate_requests, parse_traffic

        db = tmp_path / "db.json"
        rc = main(["autotune", "search", "SK-M-0.5", "--device", "3090",
                   "--db", str(db), "--scale", "0.1"])
        assert rc == 0
        runtime = ServingRuntime(
            ServeConfig(device="3090", scene_scale=0.1, tuning_db=str(db))
        )
        metrics = runtime.serve(
            generate_requests(
                "SK-M-0.5", parse_traffic("steady:rate=40", seed=3), count=4
            )
        ).metrics
        assert (metrics.tuning_db_hits, metrics.tuning_db_misses) == (1, 0)
        assert metrics.degraded == 0

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        rc = main(
            ["autotune", "search", "nope", "--db", str(tmp_path / "db.json")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestInspectMerge:
    @pytest.fixture()
    def seeded_db(self, tmp_path):
        db = tmp_path / "db.json"
        main(["autotune", "search", "SK-M-0.5", "--device", "3090",
              "--db", str(db), "--scale", "0.1"])
        return db

    def test_inspect_lists_entries(self, seeded_db, capsys):
        capsys.readouterr()
        rc = main(["autotune", "inspect", str(seeded_db)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy store" in out
        assert "RTX 3090" in out

    def test_inspect_json_is_db_document(self, seeded_db, capsys):
        capsys.readouterr()
        rc = main(["autotune", "inspect", str(seeded_db), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "schema" in doc and "entries" in doc

    def test_inspect_missing_db_exits_2(self, tmp_path, capsys):
        rc = main(["autotune", "inspect", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_merge_two_replicas(self, seeded_db, tmp_path, capsys):
        other = tmp_path / "other.json"
        main(["autotune", "search", "SK-M-0.5", "--device", "a100",
              "--db", str(other), "--scale", "0.1"])
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        rc = main(
            ["autotune", "merge", str(seeded_db), str(other),
             "--output", str(merged), "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        merged_doc = json.loads(merged.read_text())
        assert doc["entries"] == len(merged_doc["entries"])
        # Different devices: merged holds both replicas' rows.
        a = json.loads(seeded_db.read_text())["entries"]
        b = json.loads(other.read_text())["entries"]
        assert doc["entries"] == len(a) + len(b)

    def test_merge_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(
            ["autotune", "merge", str(tmp_path / "missing.json"),
             "--output", str(tmp_path / "out.json")]
        )
        assert rc == 2


class TestUsageErrors:
    def test_unknown_subcommand_exits_2_with_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["autotune", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "inspect" in err and "search" in err and "merge" in err

    def test_bare_autotune_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["autotune"])
        assert exc.value.code == 2
