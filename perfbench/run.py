"""translab benchmark: time verdicts end to end, trace the layers from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
worker interpreter (perfbench/worker.py) that imports translab from
``src``, so in-process caches start empty as they do for every CLI call.
One worker runs at a time and the parent only waits for it: a closed loop
with one client.  Passes repeat until ``--seconds`` have elapsed, and at
least until the workload's fixed number of counted passes has run
(``workloads.PASSES``: full passes, then short passes that leave out the
long decisions).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
taken from each decision's fastest latency over the counted passes that
ran it, a count that does not depend on the code's speed (``wall_s`` is
their sum, ``decision_p50_ms`` their median); ``setup_s`` is the median of
four samples spread over the counted passes, each the fastest of three
interpreter starts, the pass's own worker among them.  With ``--trace 1`` untraced and
traced passes alternate and it carries the per-layer metrics of the
traced passes plus ``trace_overhead_s``.  Every answer is checked against
a known one outside the timed region; the lines before the last give every
metric as median, quartiles and sample count, with the environment.
Details and span archives go to ``.perfbench-out/`` in the checkout.

Exit status 0 with a result line, or 2 without one when the checkout holds
no translab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4
SETUP_GROUP = 3
INTERLEAVE = 8
PASS_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "decision_p50_ms": "ms", "decision_tail_ms": "ms",
    "decided_share": "ratio",
}
# reported in the detail lines; always zero on an accepted run, so they
# live in the result's "correct" and "failed" fields instead
ZERO_METRICS = {"wrong_verdicts": "count", "fail_rate": "ratio"}


# ------------------------------------------------------------------ worker

class Worker:
    """One fresh interpreter; ``setup_s`` is start until translab imported.
    ``send`` gives it its one job and always leaves it ended."""

    def __init__(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            self.hello = json.loads(line)
        except BaseException:
            self.close()
            raise

    def send(self, job: dict, timeout: float = PASS_TIMEOUT_S):
        try:
            out, err = self.proc.communicate(json.dumps(job) + "\n",
                                             timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "pass timed out"
        finally:
            self.close()
        if self.proc.returncode != 0 or not out.strip():
            return None, err[-2000:]
        return json.loads(out.strip().splitlines()[-1]), None

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if not stream.closed:
                stream.close()


def setup_sample() -> float:
    w = Worker()
    w.send({"op": "exit"})
    return w.setup_s


# ------------------------------------------------------------ environment

def environment(seed: int) -> dict:
    w = Worker()
    info, _ = w.send({"op": "env"})
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = None
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": (info or {}).get("numpy"),
        "blas": (info or {}).get("blas"),
        "blas_threads": (info or {}).get("blas_threads"),
        "blas_threads_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
        "translab": w.hello.get("translab"),
    }


# ----------------------------------------------------------------- answers

def check_answer(expect: dict, answer: dict) -> bool:
    """True when the answer contradicts the known one.  An ``unknown``
    verdict, like a float search that finds nothing (its documented way
    to fail), is undecided, never wrong; ``certified`` accepts either
    certified label."""
    if answer.get("status") == "unknown" or answer.get("found") is False:
        return False
    for key, want in expect.items():
        got = answer.get(key)
        if key == "status" and want == "certified":
            if got not in workloads.CERTIFIED:
                return True
        elif got != want:
            return True
    return False


def score_pass(decisions: list, result: dict) -> dict:
    """Latencies, wrong answers, failures and decided count of one pass."""
    wrong, failed, decided, lat, notes = 0, 0, 0, [], []
    for d, rec in zip(decisions, result["decisions"]):
        if rec is None:
            continue
        lat.append(rec["ms"])
        if "error" in rec:
            failed += 1
            notes.append(f"{d['id']}: error\n{rec['error']}")
            continue
        ans = rec["answer"]
        if d["op"] == "report":
            bad = (ans["failing_rows"] or 0) + (not ans["digest_ok"])
            if ans["exit"] != 0 or ans["failing_rows"] is None:
                failed += 1
            wrong += bad
            if bad:
                notes.append(f"{d['id']}: {ans}")
        elif check_answer(d["expect"], ans):
            wrong += 1
            notes.append(f"{d['id']}: expected {d['expect']}, got {ans}")
        decided += bool(rec["decided"])
    return {"latencies_ms": lat, "wrong": wrong, "failed": failed,
            "decided": decided, "notes": notes, "attempted": len(lat)}


def tail(values: list) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    n = len(values)
    s = sorted(values)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# -------------------------------------------------------------------- run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    load_start = os.getloadavg()[0]
    decisions = workloads.build(workload, seed)
    # like decisions sit next to each other in the list; run them spread
    # over the pass, so that one burst of outside load does not slow all
    # the decisions near a percentile at once
    order = sorted(range(len(decisions)), key=lambda i: (i % INTERLEAVE, i))
    jobs = [{"op": decisions[i]["op"], "args": decisions[i]["args"],
             "id": decisions[i]["id"]} for i in order]
    short_jobs = [j for i, j in zip(order, jobs)
                  if not decisions[i].get("long")]
    n_full, n_short = workloads.PASSES[workload]
    plan = [jobs] if trace else [jobs] * n_full + [short_jobs] * n_short
    # set-up samples sit next to SETUP_SAMPLES counted passes spread over
    # the run, each the fastest of SETUP_GROUP starts
    setup_at = {round(j * len(plan) / SETUP_SAMPLES)
                for j in range(SETUP_SAMPLES)}
    env = environment(seed)  # also compiles the sources once
    setups = []

    # the passes take turns on the CPUs: other tenants slow one core at a
    # time, and a decision's fastest pass is then one on a core they spared
    cpus = sorted(os.sched_getaffinity(0))
    passes, traced = [], []
    t_end = time.perf_counter() + seconds
    while (time.perf_counter() < t_end or len(passes) < len(plan)
           or (trace and len(traced) < 2)):
        for is_traced in ([False, True] if trace else [False]):
            i = len(passes)
            counted = not is_traced and i < len(plan)
            job = {"decisions": plan[i] if counted else jobs,
                   "trace": is_traced, "cpu": cpus[i % len(cpus)]}
            if is_traced:
                job["spans"] = os.path.join(
                    OUT, f"{workload}-seed{seed}-pass{len(traced)}.spans.npz")
            starts = ([setup_sample() for _ in range(SETUP_GROUP - 1)]
                      if counted and i in setup_at else [])
            w = Worker()
            if starts:
                setups.append(min(starts + [w.setup_s]))
            result, err = w.send(job)
            if result is None:
                result = {"wall_s": None, "decisions": [
                    {"id": j["id"], "ms": 0.0, "error": err}
                    for j in job["decisions"]]}
            # in decision order; None where a short pass left one out
            by_id = {rec["id"]: rec for rec in result["decisions"]}
            result["decisions"] = [by_id.get(d["id"]) for d in decisions]
            result["full"] = len(job["decisions"]) == len(jobs)
            (traced if is_traced else passes).append(result)

    scored = [score_pass(decisions, r) for r in passes + traced]
    attempted = sum(s["attempted"] for s in scored)
    failed = sum(s["failed"] for s in scored)
    wrong = sum(s["wrong"] for s in scored)
    notes = [n for s in scored for n in s["notes"]]

    # per-pass figures of every full pass, for the quartiles in the detail
    # lines; the reported figures come from the counted passes alone
    done = [(r, s) for r, s in zip(passes, scored)
            if r["wall_s"] and r["full"]]
    counted = [r for r in passes[:len(plan)] if r["wall_s"]]
    full = [(r, s) for r, s in zip(passes[:n_full], scored) if r["wall_s"]]
    series = {"setup_s": setups}
    values = {"setup_s": statistics.median(setups)}
    if full:
        series["wall_s"] = [r["wall_s"] for r, _ in done]
        series["cpu_s"] = [r["cpu_s"] for r, _ in done]
        series["peak_rss_mb"] = [r["maxrss_mb"] for r, _ in done]
        series["decision_p50_ms"] = [statistics.median(s["latencies_ms"])
                                     for _, s in done]
        series["decision_tail_ms"] = [tail(s["latencies_ms"])[0]
                                      for _, s in done]
        series["decided_share"] = [s["decided"] / len(decisions)
                                   for _, s in done]
        # each decision's fastest latency over the counted passes that ran
        # it.  Other tenants of a shared host slow every process down by up
        # to half for moments at a time; a decision's fastest pass is the
        # one such an episode missed
        lat = [min(r["decisions"][i]["ms"] for r in counted
                   if r["decisions"][i]) for i in range(len(decisions))]
        cpu = [min(r["decisions"][i]["cpu_ms"] for r in counted
                   if r["decisions"][i]) for i in range(len(decisions))]
        tail_ms, tail_pct, tail_n = tail(lat)
        values.update({
            "wall_s": sum(lat) / 1e3, "cpu_s": sum(cpu) / 1e3,
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r, _ in full),
            "decision_p50_ms": statistics.median(lat),
            "decision_tail_ms": tail_ms,
            "decided_share": statistics.median(
                s["decided"] / len(decisions) for _, s in full)})
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env,
              "decisions": len(decisions), "passes": len(passes),
              "counted_passes": [n_full, n_short],
              "traced_passes": len(traced),
              "end_to_end": {k: dict(stats(v), value=values[k])
                             for k, v in series.items()},
              "wrong_verdicts": wrong, "failed": failed,
              "fail_rate": failed / attempted, "attempted": attempted,
              "notes": notes}
    if full:
        detail["decision_fastest_ms"] = {d["id"]: t
                                         for d, t in zip(decisions, lat)}
        detail["tail_percentile"] = tail_pct
        detail["tail_samples"] = tail_n

    checks_ok = True
    if trace:
        layer, problems = trace_metrics(workload, seed, passes, traced)
        detail["per_layer"] = layer
        detail["per_layer_moves"] = layers.MOVES
        detail["trace_problems"] = problems
        checks_ok = not problems
        notes.extend(problems)
    detail["load_1min"] = [load_start, os.getloadavg()[0]]

    correct = wrong == 0 and failed == 0 and checks_ok and bool(full)
    if trace:
        metrics = {name: {"value": detail["per_layer"][name]["median"],
                          "unit": layers.METRICS[name]}
                   for name in layers.METRICS}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}
    detail["result"] = {"correct": correct, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    return detail


def source_digest() -> str:
    """sha256 of the translab sources and the benchmark's own files."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "translab"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def trace_metrics(workload, seed, passes, traced) -> tuple:
    """Per-layer metrics of the traced passes and the self-check problems.

    Counters must repeat exactly between the traced passes of this run,
    and between this run and the last traced run of the same workload and
    seed on the same sources."""
    problems = []
    good = [r for r in traced if r.get("trace")]
    if not good:
        return ({name: stats([0.0]) for name in layers.METRICS},
                ["no traced pass completed"])
    per_pass = [layers.layer_metrics(r["trace"]["calls"],
                                     r["trace"]["self_s"],
                                     r["trace"]["counts"]) for r in good]
    walls_u = [r["wall_s"] for r in passes if r["wall_s"]]
    walls_t = [r["wall_s"] for r in good]
    out = {}
    for name in layers.METRICS:
        if name == "trace_overhead_s":
            vals = [min(walls_t) - min(walls_u)] if walls_u else [0.0]
        else:
            vals = [m[name] for m in per_pass]
        out[name] = stats(vals)
    # deterministic counters must repeat exactly between traced passes
    counters = [{k: v for k, v in m.items() if not k.endswith("self_s")}
                for m in per_pass]
    for other in counters[1:]:
        diff = sorted(k for k in counters[0] if counters[0][k] != other[k])
        if diff:
            problems.append(f"counters differ between traced passes: {diff}")
    mine = {"source": source_digest(), "counters": counters[0]}
    path = os.path.join(OUT, f"{workload}-seed{seed}-counters.json")
    if os.path.exists(path):
        with open(path) as fh:
            last = json.load(fh)
        if last["source"] == mine["source"]:
            diff = sorted(k for k in mine["counters"]
                          if last["counters"].get(k) != mine["counters"][k])
            if diff:
                problems.append(f"counters differ from the last run: {diff}")
    with open(path, "w") as fh:
        json.dump(mine, fh, indent=1, sort_keys=True)
    for name in layers.EXPECTED_NONZERO.get(workload, ()):
        if not out[name]["median"]:
            problems.append(f"per-layer metric {name} is zero on {workload}")
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its worker (Worker.send)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "translab", "__init__.py")):
        print("error: run from the root of a translab checkout "
              "(src/translab not found)", file=sys.stderr)
        return 2
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": detail["env"],
                      "load_1min_start_end": detail["load_1min"]}))
    table = detail.get("per_layer") if args.trace else detail["end_to_end"]
    units = layers.METRICS if args.trace else END_TO_END
    for name, s in table.items():
        shown = f"value {s['value']:.6g} per pass " if "value" in s else ""
        print(f"{name:48s} {shown}median {s['median']:.6g} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']} "
              f"{units.get(name, '')}")
    if "tail_percentile" in detail:
        print(f"{'decision_tail_ms is the percentile':48s} "
              f"p{detail['tail_percentile']:.1f} of {detail['tail_samples']} "
              "decisions")
    print(f"{'wrong_verdicts':48s} {detail['wrong_verdicts']} "
          f"{ZERO_METRICS['wrong_verdicts']}")
    print(f"{'fail_rate':48s} {detail['fail_rate']:.6g} "
          f"{ZERO_METRICS['fail_rate']}")
    for note in detail["notes"]:
        print(note, file=sys.stderr)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
