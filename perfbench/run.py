"""Cold-process benchmark of ``pastdra`` translation and checking.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

A run repeats passes until ``--seconds`` have elapsed.  Every pass starts
fresh interpreters (``worker.py``), because the program's caches are
module-global and a second pass in one process would mostly measure memo
hits.  Workloads that isolate their cases start one interpreter per case.
Each case's times are medians over the passes of a run, so a burst of load
on the host spoils one sample of one case, not a whole pass.

Times are reported at a reference host speed.  On a shared 2-vCPU host the
speed drifted by a third within minutes, and all of a run's times drifted
together, so every child also times a fixed piece of pure-Python work
(``worker.calibrate``).  Each time is multiplied, and each rate divided, by
``REF_CALIBRATION_S`` over the run's median calibration time; the report
prints the raw value beside it.  With ``--trace 1`` passes
alternate between untraced and traced, the per-layer metrics come from the
traced ones, and ``trace.overhead_s`` is the difference in ``translate_s``.

Earlier lines of output are a readable report; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, workload  # noqa: E402

# Median ``worker.calibrate()`` time on the host the benchmark was defined
# on (2-vCPU Xeon at 2.1 GHz, CPython 3.11), in quiet periods.
REF_CALIBRATION_S = 0.03

# Per-layer metrics: (metric, kind, key, unit).  Kind "self" is the span's
# self time, "calls" its span count, "count" a counter and "table" a memo
# size read at the end of a child (largest child of the pass).
LAYER_METRICS = [
    ("formula.parse_s", "self", "formula.parse", "s"),
    ("formula.parse_calls", "calls", "formula.parse", "count"),
    ("formula.interned", "table", "formula.interned", "count"),
    ("rewrites.past_sets", "count", "rewrites.past_sets", "count"),
    ("rewrites.past_sets_s", "self", "rewrites.past_sets", "s"),
    ("rewrites.limits_s", "self", "rewrites.limits", "s"),
    ("translate.translate_self_s", "self", "translate.translate", "s"),
    ("translate.context_s", "self", "translate.context", "s"),
    ("translate.branches", "count", "translate.branches", "count"),
    ("translate.bed_s", "self", "translate.bed", "s"),
    ("translate.bed_states", "count", "translate.bed_states", "count"),
    ("translate.rc_s", "self", "translate.rc", "s"),
    ("translate.rc_calls", "calls", "translate.rc", "count"),
    ("after.af_loc_s", "self", "after.af_loc", "s"),
    ("after.af_class_s", "self", "after.af_class", "s"),
    ("after.af_class_calls", "calls", "after.af_class", "count"),
    ("after.afloc_memo", "table", "after.afloc_memo", "count"),
    ("proplogic.canonicalize_s", "self", "proplogic.canonicalize", "s"),
    ("proplogic.canonicalize_calls", "calls", "proplogic.canonicalize",
     "count"),
    ("proplogic.bdd_nodes", "table", "proplogic.bdd_nodes", "count"),
    ("automata.cascade_self_s", "self", "automata.cascade", "s"),
    ("automata.explored_states", "count", "automata.explored_states",
     "count"),
    ("automata.accepts_s", "self", "automata.accepts", "s"),
    ("hoa.export_s", "self", "hoa.export", "s"),
    ("hoa.bytes", "count", "hoa.bytes", "B"),
    ("lasso.holds_s", "self", "lasso.holds", "s"),
]


def spawn(spec, timeout):
    """Run one child to completion; None if it ran past ``timeout``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": proc.returncode,
                "stderr": proc.stderr.strip().splitlines()[-3:]}
    return json.loads(lines[-1])


def run_pass(shape, seed, trace):
    """One pass over the workload's cases; returns the children's outputs
    paired with the cases each one was given."""
    base = {k: shape[k] for k in ("words", "case_cap_s", "mem_cap_mb")}
    base.update(seed=seed, trace=trace, sabotage=shape.get("sabotage", False))
    groups = ([[c] for c in shape["cases"]] if shape["isolate"]
              else [shape["cases"]])
    out = []
    for cases in groups:
        timeout = min(len(cases) * shape["case_cap_s"] + 30, 150)
        out.append((cases, spawn(dict(base, cases=cases), timeout)))
    return out


def summarize_pass(children, shape):
    """Per-pass totals, and per case its time, words and check times.  An
    undecided case counts at its wall-time cap and is marked ``capped``,
    because a cap is not scaled."""
    s = dict(per_case=[], setups=[], calibration=[], rss=[], decided=0,
             attempted=0, failed=0, states=0, pairs=0, hoa_bytes=0,
             words=0, mismatches=0, sizes={}, notes=[], trace=[], tables=[])
    for cases, child in children:
        records = None
        if child is None:
            s["notes"].append("child killed at its wall-time backstop")
        elif "crashed" in child:
            s["notes"].append("child exited %s: %s" % (
                child["crashed"], " / ".join(child["stderr"])))
            s["failed"] += len(cases)
        else:
            records = child["cases"]
            s["setups"].append(child["setup_s"])
            s["calibration"].extend(child["calibration_s"])
            s["tables"].append(child["tables"])
            if child["trace"]:
                s["trace"].append(child["trace"])
            if all(r["status"] == "decided" for r in records):
                s["rss"].append(child["rss_mb"])
        for i, (text, ap) in enumerate(cases):
            r = records[i] if records else {"status": "exceeded"}
            s["attempted"] += 1 + r.get("words", 0)
            if r["status"] == "decided":
                s["per_case"].append(dict(
                    t=r["translate_s"], capped=False,
                    words=r.get("words", 0), accepts_s=r.get("accepts_s"),
                    holds_s=r.get("holds_s")))
                s["decided"] += 1
                for k in ("states", "pairs", "hoa_bytes", "words",
                          "mismatches"):
                    s[k] += r.get(k, 0)
                s["failed"] += r.get("mismatches", 0)
                s["sizes"][text, tuple(ap)] = (r["states"], r["pairs"],
                                               r["hoa_bytes"])
            else:
                s["per_case"].append(dict(t=shape["case_cap_s"], capped=True,
                                          words=0))
                if r["status"] == "error":
                    s["failed"] += 1
                    s["notes"].append("%s: %s" % (text, r["error"]))
                elif "reason" in r:
                    s["notes"].append("%s: exceeded its %s cap"
                                      % (text, r["reason"]))
    return s


def trace_totals(s):
    """Sum the pass's child traces; tables take the largest child."""
    out = {}
    for tr in s["trace"]:
        for kind, src in (("self", tr["self_s"]), ("calls", tr["calls"]),
                          ("count", tr["counts"])):
            for key, v in src.items():
                out[kind, key] = out.get((kind, key), 0) + v
    for tables in s["tables"]:
        for key, v in tables.items():
            out["table", key] = max(out.get(("table", key), 0), v)
    return out


def median(values):
    return statistics.median(values) if values else None


def median_low(values):
    """A median that is one of the values, for exact counts."""
    return statistics.median_low(values) if values else None


def run_workload(name, seed, seconds, trace, shape=None):
    """Run passes for ``seconds``; returns (result JSON, report lines)."""
    shape = shape or workload(name)
    passes, traced = [], []
    start = time.monotonic()
    i = 0
    while (not passes or time.monotonic() - start < seconds
           or (trace and not traced)):
        tracing_pass = trace and i % 2 == 1
        s = summarize_pass(run_pass(shape, seed, tracing_pass), shape)
        (traced if tracing_pass else passes).append(s)
        i += 1
    everything = passes + traced

    failed = sum(s["failed"] for s in everything)
    attempted = sum(s["attempted"] for s in everything)
    notes = sorted({n for s in everything for n in s["notes"]})
    # The same case must give the same automaton in every pass.
    seen = {}
    for s in everything:
        for case, sizes in s["sizes"].items():
            if seen.setdefault(case, sizes) != sizes:
                failed += 1
                notes.append("%s: output differs between passes" % (case,))

    n_cases = len(shape["cases"])
    calibration = [x for s in everything for x in s["calibration"]]
    factor = REF_CALIBRATION_S / median(calibration) if calibration else 1.0
    metrics = end_to_end(passes, n_cases, factor)
    raw = end_to_end(passes, n_cases, 1.0)

    report = ["workload %s: seed %d, %d untraced passes of %d cases, "
              "%d traced, %.1f s; speed factor %.4f from %d calibrations"
              % (name, seed, len(passes), n_cases, len(traced),
                 time.monotonic() - start, factor, len(calibration))]
    samples = {"translate_p50_ms": "%d cases" % n_cases,
               "setup_s": "%d children" % sum(len(s["setups"])
                                              for s in passes)}
    for key, (value, unit) in metrics.items():
        if value is None:
            report.append("  %-20s %14s" % (key, "absent"))
            continue
        report.append("  %-20s %14.6g %-6s raw %-12.6g (n=%s)" % (
            key, value, unit, raw[key][0],
            samples.get(key, "%d passes" % len(passes))))
    medians = sorted(case_medians(passes, factor))
    if len(medians) >= 50:  # at least ten samples above the 80th percentile
        report.append("  %-20s %14.6g %-6s (n=%d cases)" % (
            "translate_p80_ms", 1000 * statistics.quantiles(medians, n=5)[3],
            "ms", len(medians)))
    report.append("  %-20s %14d %-6s (n=%d words)" % (
        "mismatches", sum(s["mismatches"] for s in everything), "count",
        sum(s["words"] for s in everything)))
    report.append("  %-20s %14d %-6s (n=%d attempted)" % (
        "failed", failed, "count", attempted))
    report.extend("  note: " + n for n in notes)

    if trace:
        metrics = layer_metrics(traced, metrics["translate_s"][0], factor)
        raw = layer_metrics(traced, raw["translate_s"][0], 1.0)
        for key, (value, unit) in metrics.items():
            report.append("  %-30s %14.6g %-6s raw %.6g" % (
                key, value, unit, raw[key][0]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if v is not None},
    }
    return result, report


def case_medians(passes, factor, field="t"):
    """Per case, the median over passes of a time, scaled by ``factor``;
    a cap stays as it is.  Passes where the case has no value are left out.
    """
    out = []
    for i in range(len(passes[0]["per_case"])):
        values = [c[field] if c["capped"] else c[field] * factor
                  for c in (s["per_case"][i] for s in passes)
                  if c.get(field) is not None]
        if values:
            out.append(median(values))
    return out


def words_per_s(passes, factor, field):
    """Words checked per second: each case's words over the median of its
    check time across passes, summed over the cases."""
    words = sum(max(s["per_case"][i]["words"] for s in passes)
                for i in range(len(passes[0]["per_case"])))
    seconds = sum(case_medians(passes, factor, field))
    return words / seconds if seconds else None


def end_to_end(passes, n_cases, factor):
    """End-to-end metrics as {name: (value, unit)}.  Per case, times are
    medians over the passes; measured times are multiplied, and rates
    divided, by ``factor``."""
    medians = case_medians(passes, factor)
    return {
        "translate_s": (sum(medians), "s"),
        "translate_p50_ms": (1000 * median(medians), "ms"),
        "setup_s": (median([x * factor for s in passes
                            for x in s["setups"]]), "s"),
        "decided_share": (sum(s["decided"] for s in passes)
                          / (n_cases * len(passes)), "share"),
        "peak_rss_mb": (median([max(s["rss"]) for s in passes
                                if s["rss"]]), "MB"),
        "dra_states": (median_low([s["states"] for s in passes]), "count"),
        "dra_pairs": (median_low([s["pairs"] for s in passes]), "count"),
        "hoa_bytes": (median_low([s["hoa_bytes"] for s in passes]), "B"),
        "check_words_per_s": (words_per_s(passes, factor, "accepts_s"),
                              "1/s"),
        "eval_words_per_s": (words_per_s(passes, factor, "holds_s"), "1/s"),
    }


def layer_metrics(traced, untraced_translate_s, factor):
    """Per-layer metrics, medians over the traced passes; span times are
    multiplied by ``factor``."""
    totals = [trace_totals(s) for s in traced]
    out = {}
    for metric, kind, key, unit in LAYER_METRICS:
        values = [t[kind, key] for t in totals if (kind, key) in t]
        if values:
            out[metric] = (median(values) * (factor if unit == "s" else 1),
                           unit)
    traced_s = sum(case_medians(traced, factor))
    out["trace.translate_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_translate_s, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pastdra" / "__init__.py").is_file():
        print("perfbench: no program at %s" % (SRC / "pastdra"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        print("\n".join(report), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for key, m in result["metrics"].items():
            combined["metrics"][prefix + key] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
