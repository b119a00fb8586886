"""The command-line front end: flows, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from translab.cli import run
from translab.fields import GF
from translab.matrices import Mat
from translab.serialize import dumps, subspace_to_obj
from translab.subspace import MatrixSubspace


def invoke(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_new_then_check_pipeline(tmp_path, capsys):
    out_file = tmp_path / "t3.json"
    code, out, _ = invoke(["new", "toeplitz:3", "-o", str(out_file)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 5 and obj["field"] == "Q"
    assert json.loads(out_file.read_text()) == obj

    code, out, _ = invoke(["check", str(out_file), "-k", "1"], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "certified_finite_field"
    assert verdict["primes"] == [5, 7]


def test_check_inline_family_disproof(capsys):
    code, out, _ = invoke(["check", "(minimal:3,3,1)", "-k", "2"], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "disproved"
    assert verdict["witness"]["rank_bound"] == 2


def test_sep_pinned_witness(capsys):
    code, out, _ = invoke(["sep", "toeplitz:3", "-k", "3"], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "disproved"
    cols = verdict["witness_columns"]
    entries = cols["entries"]
    # columns e1, e3, e2 of the 3x3 identity, row-major 3x3 layout
    assert entries == ["1", "0", "0", "0", "0", "1", "0", "1", "0"]


def test_preann_tensor_prod_power(capsys):
    code, out, _ = invoke(["preann", "toeplitz:3"], capsys)
    assert code == 0 and json.loads(out)["dim"] == 4
    code, out, _ = invoke(["tensor", "toeplitz:2", "toeplitz:2"], capsys)
    assert code == 0 and json.loads(out)["dim"] == 9
    code, out, _ = invoke(["prod", "toeplitz:3", "toeplitz:3"], capsys)
    assert code == 0 and json.loads(out)["dim"] == 9
    code, out, _ = invoke(["power-index", "dualtransitive"], capsys)
    assert code == 0 and json.loads(out)["index"] == 3


def test_invertible_and_extremes(capsys):
    code, out, _ = invoke(["invertible", "toeplitz:3", "--seed", "0"], capsys)
    assert code == 0 and json.loads(out)["found"] is True
    code, out, _ = invoke(["extremes", "tracezero:2", "--mod", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["min_nonzero_rank"] == 1
    code, out, err = invoke(
        ["extremes", "full:3,3", "--mod", "5", "--budget", "100"], capsys)
    assert code == 2 and "budget" in err.lower()


def test_new_with_field_reduction(capsys):
    code, out, _ = invoke(["new", "toeplitz:3", "--field", "GF(5)"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == "GF(5)" and obj["dim"] == 5


def test_new_keeps_file_field(tmp_path, capsys):
    # copying a finite-field file through `new` must not try to convert it
    f5 = tmp_path / "t3_gf5.json"
    code, out, _ = invoke(
        ["new", "toeplitz:3", "--field", "GF(5)", "-o", str(f5)], capsys)
    assert code == 0
    code, out, _ = invoke(["new", str(f5)], capsys)
    assert code == 0 and json.loads(out)["field"] == "GF(5)"
    # converting a finite-field file to Q is refused cleanly
    code, _, err = invoke(["new", str(f5), "--field", "Q"], capsys)
    assert code == 1 and "cannot convert" in err


def test_bad_field_tag_is_usage_error(capsys):
    code, _, err = invoke(["new", "toeplitz:3", "--field", "GF(10)"], capsys)
    assert code == 1 and "error" in err.lower()


def test_directory_input_is_usage_error(tmp_path, capsys):
    code, _, err = invoke(["check", str(tmp_path), "-k", "1"], capsys)
    assert code == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    code, _, err = invoke(["check", "nosuchfamily:3", "-k", "1"], capsys)
    assert code == 1 and "error" in err.lower()
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2,\n "cols": }')
    code, _, err = invoke(["check", str(bad), "-k", "1"], capsys)
    assert code == 1 and "line" in err
    code, _, err = invoke(["check", "toeplitz:3"], capsys)  # missing -k
    assert code == 1


def test_determinism_byte_identical(capsys):
    a = invoke(["check", "toeplitz:4", "-k", "1", "--seed", "3"], capsys)
    b = invoke(["check", "toeplitz:4", "-k", "1", "--seed", "3"], capsys)
    assert a == b


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "translab.cli", "new", "toeplitz:2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 3


def test_report_subcommand(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = invoke(["report", "paper", "-o", str(out_file)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "translab-report/1" and obj["all_ok"]
    assert "all passing" in err
    assert json.loads(out_file.read_text()) == obj


def test_report_timings_leave_stdout_unchanged(capsys):
    code, out, err = invoke(["report", "paper"], capsys)
    tcode, tout, terr = invoke(["report", "paper", "--timings"], capsys)
    assert (tcode, tout) == (code, out)
    rows = json.loads(out)["rows"]
    lines = terr.splitlines()
    assert len(lines) == len(rows) + 1 == len(err.splitlines())
    for line, plain, row in zip(lines, err.splitlines(), rows):
        seconds, rest = line.split("s  ", 1)
        assert float(seconds) >= 0 and rest == plain
        assert row["id"] in rest
    assert " rows in " in lines[-1] and lines[-1].endswith("all passing")


def test_cli_verdict_always_prints_soundness(capsys):
    code, out, _ = invoke(["check", "toeplitz:3", "-k", "1"], capsys)
    obj = json.loads(out)
    assert "soundness" in obj
    assert "GF(5)" in obj["soundness"]
    # an FF-only certification never claims anything beyond its fields
    assert "closure" not in obj["soundness"]


_GF9_DISPROOF = """\
{
  "evidence": {
    "budget": 100000000,
    "dim": 4,
    "dim_perp": 5,
    "points": 4084,
    "route": "pre-annihilator",
    "route_choice": {
      "pre-annihilator": 7381
    },
    "seed": 0,
    "steps": [
      "exhaustive pre-annihilator route over own field"
    ],
    "strategy": "auto",
    "witness_field": "GF(3^2)"
  },
  "k": 1,
  "kind": "transitivity-verdict",
  "primes": [],
  "soundness": "witness over GF(3^2); valid for that field only",
  "status": "disproved",
  "witness": {
    "coefficients": [
      "1+0w mod 3^2",
      "1+1w mod 3^2",
      "1+1w mod 3^2",
      "0+2w mod 3^2",
      "1+2w mod 3^2"
    ],
    "matrix": {
      "cols": 3,
      "entries": [
        "1+0w mod 3^2",
        "1+1w mod 3^2",
        "1+1w mod 3^2",
        "0+2w mod 3^2",
        "1+2w mod 3^2",
        "1+2w mod 3^2",
        "1+1w mod 3^2",
        "0+2w mod 3^2",
        "0+2w mod 3^2"
      ],
      "field": "GF(3^2)",
      "rows": 3
    },
    "rank_bound": 1
  }
}
"""


def test_check_gf9_disproof_mid_block(tmp_path, capsys):
    # the pre-annihilator scan over GF(9) hits at point 4084, inside a
    # block; "points" counts the enumeration up to the hit
    F = GF(9)
    E = F.elements()
    codes = [[4, 0, 0, 1, 3, 1, 0, 3, 0], [4, 4, 4, 3, 1, 4, 4, 1, 0],
             [0, 0, 4, 3, 4, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0, 1, 0, 3]]
    L = MatrixSubspace.from_generators(
        [Mat(F, 3, 3, [E[c] for c in row]) for row in codes],
        rows=3, cols=3, field=F)
    path = tmp_path / "gf9.json"
    path.write_text(dumps(subspace_to_obj(L)))
    code, out, _ = invoke(["check", str(path), "-k", "1"], capsys)
    assert code == 0
    assert out == _GF9_DISPROOF


def test_non_prime_certification_prime_is_usage_error(capsys):
    code, out, err = invoke(["sep", "toeplitz:3", "-k", "3", "--primes", "1"],
                            capsys)
    assert code == 1 and out == ""
    assert "must be prime" in err and "Traceback" not in err
