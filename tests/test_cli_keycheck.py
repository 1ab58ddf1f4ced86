"""CLI regression tests for ``repro keycheck``."""

from __future__ import annotations

import json

import pytest

from repro.analyze import provenance
from repro.cli import main

BROKEN = "tests.broken_caches:register_unsound"


@pytest.fixture
def clean_registry():
    before = dict(provenance.REGISTRY)
    yield
    for site in set(provenance.REGISTRY) - set(before):
        provenance._AUDITS.pop(site, None)
    provenance.REGISTRY.clear()
    provenance.REGISTRY.update(before)


class TestExitCodes:
    def test_all_builtin_sites_sound_exit_zero(self, capsys):
        assert main(["keycheck"]) == 0
        out = capsys.readouterr().out
        assert "all keys sound" in out
        assert "serve.policy-cache" in out

    def test_single_site_selection(self, capsys):
        assert main(["keycheck", "--site", "serve.policy-cache"]) == 0
        out = capsys.readouterr().out
        assert "serve.policy-cache" in out
        assert "serve.sample-memo" not in out

    def test_unknown_site_exits_two(self, capsys):
        assert main(["keycheck", "--site", "no.such-site"]) == 2
        err = capsys.readouterr().err
        assert "unknown cache site" in err
        assert "serve.policy-cache" in err  # valid choices listed

    def test_bad_register_spec_exits_two(self, capsys):
        assert main(["keycheck", "--register", "nonsense"]) == 2
        assert "module:function" in capsys.readouterr().err

    def test_bad_register_module_exits_two(self, capsys):
        assert main(["keycheck", "--register", "no.such.module:f"]) == 2
        assert "cannot import" in capsys.readouterr().err

    def test_bad_register_attr_exits_two(self, capsys):
        rc = main(
            ["keycheck", "--register", "tests.broken_caches:no_such"]
        )
        assert rc == 2
        assert "no attribute" in capsys.readouterr().err

    def test_non_callable_register_attr_exits_two(self, capsys):
        rc = main(["keycheck", "--register", "tests.broken_caches:SITE"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tests.broken_caches:SITE" in err
        assert "not callable" in err

    def test_planted_unsound_site_exits_one(self, clean_registry, capsys):
        rc = main(
            [
                "keycheck",
                "--register", BROKEN,
                "--site", "test.broken-pricing-key",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "UNSOUND" in out
        assert "unkeyed-read" in out and "launch.flops" in out


class TestJsonOutput:
    def test_json_document_shape(self, capsys):
        assert main(["keycheck", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed"] is False
        assert doc["unsound"] == []
        assert set(doc["sites"]) == {
            "serve.policy-cache",
            "serve.sample-memo",
        }
        for audit in doc["sites"].values():
            assert audit["sound"] is True
            assert audit["unkeyed"] == []
            assert audit["reads"]

    def test_json_is_deterministic(self, capsys):
        assert main(["keycheck", "--json", "--fuzz"]) == 0
        first = capsys.readouterr().out
        assert main(["keycheck", "--json", "--fuzz"]) == 0
        assert capsys.readouterr().out == first

    def test_fuzz_reports_trials(self, capsys):
        assert main(
            ["keycheck", "--json", "--fuzz", "--site", "serve.policy-cache"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["fuzz"]["serve.policy-cache"]
        assert report["ok"] is True
        assert report["trials"] > 0

    def test_planted_unsound_site_in_json(self, clean_registry, capsys):
        rc = main(
            [
                "keycheck",
                "--json",
                "--register", BROKEN,
                "--site", "test.broken-pricing-key",
            ]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed"] is True
        assert doc["unsound"] == ["test.broken-pricing-key"]
        audit = doc["sites"]["test.broken-pricing-key"]
        assert audit["unkeyed"] == ["launch.flops"]
