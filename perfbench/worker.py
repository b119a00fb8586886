"""One pass of one workload in a fresh interpreter.

Protocol on stdin/stdout, one JSON object per line: the worker imports
translab from the checkout's ``src`` and prints ``{"ready": ...}``; the
parent times that as set-up.  The parent then sends either ``{"op":
"exit"}`` or a job ``{"decisions": [...], "trace": bool, "spans": path}``,
and the worker answers with the pass result and exits.

Inputs are built before the timed loop; answers are summarised after it,
so only the decision calls themselves are timed.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import numpy  # noqa: E402  (set-up includes numpy, as for every CLI call)
import translab  # noqa: E402
from translab import (  # noqa: E402
    cli, deciders, families, fields, matrices, subspace)

REPORT_SHA256 = \
    "b0189f6ea55314ef5c0167924e23c4ee58c35a0cae52b6b2b2b96381c52d8b9b"


def _blas_threads():
    """OpenBLAS thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ------------------------------------------------------------ input build

def _family(text):
    return families.build_family(families.parse_family(text))


def _ff_space(args):
    q, m, n = args["q"], args["m"], args["n"]
    F = fields.GF(q)
    if q == 9:
        conv = [F.from_pair(x % 3, x // 3) for x in range(9)]
    else:
        conv = [F.from_int(x) for x in range(q)]
    gens = [matrices.Mat(F, m, n, [conv[x] for x in g]) for g in args["gens"]]
    return subspace.MatrixSubspace.from_generators(gens, rows=m, cols=n,
                                                   field=F)


def _verdict(v, Lp=None):
    """Status, primes, and for a disproof checked against the
    pre-annihilator Lp: the witness field and an exact re-check."""
    out = {"status": v.status.value}
    if out["status"] == "certified_finite_field":
        out["primes"] = list(v.primes)
    if out["status"] == "disproved" and Lp is not None:
        w = v.witness
        out["witness_field"] = v.evidence.get("witness_field")
        out["witness_ok"] = (w.matrix.field == Lp.field and w.verify(Lp)
                             and w.matrix.rank() <= v.k)
    return out


def _report():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["report", "paper"])
    return code, out.getvalue()


def prepare(d):
    """(call, summarise): call() is the timed decision; summarise(result)
    returns (answer dict, decided) outside the timed region."""
    op, a = d["op"], d["args"]
    if op == "report":
        def summarise(res):
            code, text = res
            try:
                rows = json.loads(text)["rows"]
                failing = sum(not r["ok"] for r in rows)
            except (ValueError, KeyError, TypeError):
                failing = None
            digest = hashlib.sha256(text.encode()).hexdigest()
            ans = {"exit": code, "failing_rows": failing,
                   "digest_ok": digest == REPORT_SHA256, "sha256": digest}
            return ans, code == 0 and failing == 0
        return _report, summarise
    if op == "check_minimal":
        L = families.minimal_k_transitive(a["m"], a["n"], a["k"])
        Lp = L.preannihilator()
        return (lambda: deciders.check_k_transitive(L, a["at"]),
                lambda v: (_verdict(v, Lp), v.status.value != "unknown"))
    if op == "numeric":
        Lp = _family(a["family"]).preannihilator()

        def summarise(w):
            ans = {"found": w is not None}
            if w is not None:
                ans["witness_ok"] = bool(w.verify(Lp)
                                         and w.matrix.rank() <= a["k"])
            return ans, w is not None
        return (lambda: deciders.rank_witness_search_numeric(
            Lp, a["k"], seed=a["seed"]), summarise)
    if op == "ff_check":
        L = _ff_space(a)
        return (lambda: deciders.check_k_transitive(L, a["k"]),
                lambda v: (_verdict(v), v.status.value != "unknown"))
    if op == "ff_sep":
        L = _ff_space(a)
        return (lambda: deciders.check_k_separating(L, a["k"]),
                lambda v: (_verdict(v), v.status.value != "unknown"))
    if op == "ff_min_rank_perp":
        Lp = _ff_space(a).preannihilator()
        return (lambda: deciders.min_rank_ff_exhaustive(Lp)[0],
                lambda r: ({"value": r}, True))
    if op == "ff_extremes_perp":
        Lp = _ff_space(a).preannihilator()
        return (lambda: deciders.rank_extremes_ff(Lp),
                lambda e: ({"value": [e.min_nonzero_rank,
                                      e.max_singular_rank]}, True))
    if op == "ff_extremes_family":
        S = _family(a["family"]).reduce_mod(a["q"])
        return (lambda: deciders.rank_extremes_ff(S),
                lambda e: ({"value": [e.min_nonzero_rank,
                                      e.max_singular_rank]}, True))
    raise ValueError(f"unknown op {op!r}")


# --------------------------------------------------------------- one pass

def run_pass(job) -> dict:
    tracer = None
    if job.get("trace"):
        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    prepared = []
    for d in job["decisions"]:
        try:
            prepared.append(prepare(d))
        except Exception:  # recorded as a failed call, the pass goes on
            prepared.append((None, traceback.format_exc()))
    if tracer is not None:
        tracer.reset()  # set-up calls above are not part of the totals
    results = []
    clock, cpu_clock = time.perf_counter, time.process_time
    cpu_start = cpu_clock()
    t_start = clock()
    for call, _ in prepared:
        if call is None:
            results.append((0.0, 0.0, None, "set-up failed"))
            continue
        t0, c0 = clock(), cpu_clock()
        try:
            res, err = call(), None
        except Exception:  # recorded as a failed call, the pass goes on
            res, err = None, traceback.format_exc()
        results.append((clock() - t0, cpu_clock() - c0, res, err))
    wall = clock() - t_start
    cpu = cpu_clock() - cpu_start
    out = {"wall_s": wall, "cpu_s": cpu, "decisions": []}
    if tracer is not None:
        out["trace"] = {"calls": dict(tracer.calls),
                        "self_s": dict(tracer.self_s),
                        "counts": dict(tracer.counts)}
        if job.get("spans"):
            out["trace"]["spans"] = tracer.save(job["spans"])
        # summaries below re-verify witnesses; keep them out of the trace
        tracer = None
    for d, (call, summarise), (secs, cpu, res, err) in zip(
            job["decisions"], prepared, results):
        rec = {"id": d["id"], "ms": secs * 1e3, "cpu_ms": cpu * 1e3}
        if call is None:
            rec["error"] = summarise  # the set-up traceback
        elif err is not None:
            rec["error"] = err
        else:
            try:
                rec["answer"], rec["decided"] = summarise(res)
            except Exception:  # a summary that raises is a failed call
                rec["error"] = traceback.format_exc()
        out["decisions"].append(rec)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main() -> int:
    real_out = sys.stdout
    inside = os.path.abspath(translab.__file__).startswith(SRC + os.sep)
    print(json.dumps({"ready": True, "translab": translab.__file__,
                      "from_checkout": inside}), file=real_out, flush=True)
    line = sys.stdin.readline()
    if not line:
        return 1
    job = json.loads(line)
    if job.get("op") == "exit":
        return 0
    if job.get("op") == "env":
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(json.dumps({"blas_threads": _blas_threads(),
                          "numpy": numpy.__version__,
                          "blas": {k: blas.get(k) for k in ("name", "version")}}),
              file=real_out, flush=True)
        return 0
    if job.get("cpu") is not None:
        # the calling thread only: BLAS threads, started when numpy loaded,
        # keep the whole machine
        os.sched_setaffinity(0, {job["cpu"]})
    out = run_pass(job)
    print(json.dumps(out), file=real_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
