"""The reproduction report: structure, determinism, and the CLI gate."""

import hashlib
import json

import pytest

from translab.report import build_report, format_report_table
from translab.serialize import REPORT_SCHEMA, dumps


@pytest.fixture(scope="module")
def report():
    """One report build shared by the tests that only read it."""
    return build_report()


def test_report_all_rows_pass(report):
    assert report["schema"] == REPORT_SCHEMA == "translab-report/1"
    assert report["all_ok"], report["failures"]
    assert report["total"] == len(report["rows"]) >= 40
    for row in report["rows"]:
        assert set(row) == {"id", "claim", "computed", "expected", "ok",
                            "soundness"}
        assert row["ok"]


def test_report_bytes_are_pinned(report):
    # the sha256 of `translab report paper` stdout; a change that keeps
    # every verdict and witness keeps these bytes
    digest = hashlib.sha256(dumps(report).encode()).hexdigest()
    assert digest == ("b0189f6ea55314ef5c0167924e23c4ee"
                      "58c35a0cae52b6b2b2b96381c52d8b9b")


def test_report_is_deterministic_and_serializable():
    a = build_report()
    b = build_report()
    assert dumps(a) == dumps(b)
    json.loads(dumps(a))
    table = format_report_table(a)
    assert "all passing" in table
    assert table.count("\n") == a["total"]


def test_report_soundness_labels_are_explicit(report):
    ids = {r["id"]: r for r in report["rows"]}
    assert "finite field" in ids["toeplitz-trans-4"]["soundness"]
    assert ids["trace-zero-trans"]["soundness"] == "exact"
    assert "observation" in ids["rank-extremes-observation"]["soundness"]
