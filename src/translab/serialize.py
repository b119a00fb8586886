"""JSON interchange for matrices, subspaces, and verdicts.

Entry grammar (see fields module): rationals "a/b" with the denominator
omitted when 1, Gaussian rationals "re+im i" with one space before "i",
prime fields "k mod p", quadratic extensions "a+bw mod p^2".  Round trips
are bit exact because every value is stored canonically.

Subspace documents:

    {"rows": m, "cols": n, "field": "Q" | "Qi" | "GF(p)" | "GF(p^2)",
     "basis": [[entry strings, row-major], ...]}

Loading canonicalizes; with strict=True a dependent generator list is
rejected instead.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ShapeMismatch
from .fields import field_from_tag
from .matrices import Mat
from .subspace import MatrixSubspace

__all__ = [
    "mat_to_obj",
    "mat_from_obj",
    "subspace_to_obj",
    "subspace_from_obj",
    "dumps",
    "transitivity_verdict_to_obj",
    "separation_verdict_to_obj",
    "rank_extremes_to_obj",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "translab-report/1"


def dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def mat_to_obj(A: Mat) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "field": A.field.tag,
        "entries": [A.field.format(x) for x in A.entries()],
    }


def mat_from_obj(obj: dict) -> Mat:
    try:
        field = field_from_tag(obj["field"])
        rows, cols = int(obj["rows"]), int(obj["cols"])
        raw = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed matrix object: missing {exc}") from exc
    if len(raw) != rows * cols:
        raise ShapeMismatch(
            f"matrix entry count {len(raw)} != {rows}x{cols}")
    entries = []
    for idx, text in enumerate(raw):
        try:
            entries.append(field.parse(text))
        except ValueError as exc:
            raise ShapeMismatch(
                f"entry {idx} ({text!r}) is not a {field.tag} literal") from exc
    return Mat(field, rows, cols, entries)


def subspace_to_obj(L: MatrixSubspace) -> dict:
    return {
        "rows": L.rows,
        "cols": L.cols,
        "field": L.field.tag,
        "dim": L.dim,
        "basis": [[L.field.format(x) for x in B.entries()] for B in L.basis],
    }


def subspace_from_obj(obj: dict, strict: bool = False) -> MatrixSubspace:
    try:
        field = field_from_tag(obj["field"])
        rows, cols = int(obj["rows"]), int(obj["cols"])
        basis_raw = obj["basis"]
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed subspace object: missing {exc}") from exc
    gens = []
    for bi, entry_list in enumerate(basis_raw):
        if len(entry_list) != rows * cols:
            raise ShapeMismatch(
                f"basis[{bi}] has {len(entry_list)} entries, expected {rows * cols}")
        entries = []
        for idx, text in enumerate(entry_list):
            try:
                entries.append(field.parse(text))
            except ValueError as exc:
                raise ShapeMismatch(
                    f"basis[{bi}] entry {idx} ({text!r}) is not a "
                    f"{field.tag} literal") from exc
        gens.append(Mat(field, rows, cols, entries))
    return MatrixSubspace.from_generators(
        gens, rows=rows, cols=cols, field=field, strict=strict)


def _evidence_to_obj(ev: dict) -> dict:
    def clean(v):
        if isinstance(v, dict):
            return {str(k): clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, (int, str, bool)) or v is None:
            return v
        return str(v)

    return clean(ev)


def _verdict_to_obj(v, kind: str, witness_key: str, witness) -> dict:
    return {
        "kind": kind,
        "status": v.status.value,
        "k": v.k,
        "primes": list(v.primes),
        "soundness": v.soundness,
        witness_key: witness,
        "evidence": _evidence_to_obj(v.evidence),
    }


def transitivity_verdict_to_obj(v) -> dict:
    witness = None
    if v.witness is not None:
        wf = v.witness.matrix.field
        witness = {
            "coefficients": [wf.format(c) for c in v.witness.coefficients],
            "matrix": mat_to_obj(v.witness.matrix),
            "rank_bound": v.witness.rank_bound,
        }
    return _verdict_to_obj(v, "transitivity-verdict", "witness", witness)


def separation_verdict_to_obj(v) -> dict:
    cols = v.witness_columns
    return _verdict_to_obj(v, "separation-verdict", "witness_columns",
                           mat_to_obj(cols) if cols is not None else None)


def rank_extremes_to_obj(r) -> dict:
    return {
        "kind": "rank-extremes",
        "min_nonzero_rank": r.min_nonzero_rank,
        "min_witness": mat_to_obj(r.min_witness),
        "max_singular_rank": r.max_singular_rank,
        "max_witness": (mat_to_obj(r.max_witness)
                        if r.max_witness is not None else None),
        "points": r.points,
    }
