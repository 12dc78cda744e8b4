"""One benchmark child: a fresh interpreter that translates and checks cases.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'`` with
``src`` on ``PYTHONPATH``.  The child caps its own address space, builds its
inputs from the seed and times a fixed calibration loop.  Then for each case
it times parse -> translate -> export_hoa under a wall-time cap.  After all
cases it runs the seeded lasso words through ``automata.accepts`` and
``lasso.holds`` and compares them.  It prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import mmap
import resource
import signal
import statistics
import sys
import time
from time import perf_counter


class CaseTimeout(BaseException):
    """The wall-time cap of a case expired (not an ``Exception``, so the
    program cannot swallow it)."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def calibrate(steps=60000):
    """Seconds for a fixed piece of pure-Python work that does not touch the
    program: tuple and frozenset keys in a bounded dict, like the
    translation's memo tables.  ``run.py`` scales every time by a fixed
    reference over its median."""
    start = perf_counter()
    memo = {}
    for i in range(steps):
        key = (i & 1023, frozenset((i & 7, i >> 3 & 7)))
        memo[key] = memo.get(key, 0) + len(key[1])
    return perf_counter() - start


def translate_case(text, ap, cap_s):
    """Time parse -> translate -> export_hoa; returns (record, phi, auto)."""
    from pastdra import formula, hoa
    from pastdra.automata import StateLimitExceeded
    tr = sys.modules["pastdra.translate"]
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = perf_counter()
    try:
        phi = formula.parse(text)
        auto = tr.translate(phi, ap)
        out = hoa.export_hoa(auto, name=str(phi))
        took = perf_counter() - start
    except CaseTimeout:
        return {"status": "exceeded", "reason": "wall"}, None, None
    except MemoryError:
        return {"status": "exceeded", "reason": "memory"}, None, None
    except StateLimitExceeded:
        return {"status": "exceeded", "reason": "states"}, None, None
    except Exception as e:  # reported as a failed operation
        return {"status": "error", "error": repr(e)}, None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record = {"status": "decided", "translate_s": took,
              "states": auto.n_states(), "pairs": len(auto.acc[1]),
              "hoa_bytes": len(out.encode())}
    try:
        auto.audit()
    except AssertionError as e:
        record.update(status="error", error="audit failed: %r" % e)
    return record, phi, auto


def check_words(auto, phi, words):
    """Verdicts of the automaton against the evaluator on every word.

    Returns (mismatches, accepts seconds, holds seconds).  ``accepts`` keeps
    no state between calls, so it is timed three times and the median kept;
    ``holds`` memoizes its results, so it runs once.
    """
    from pastdra import automata, lasso
    times = []
    for _ in range(3):
        start = perf_counter()
        got = [automata.accepts(auto, w) for w in words]
        times.append(perf_counter() - start)
    start = perf_counter()
    want = [lasso.holds(phi, w, 0) for w in words]
    holds_s = perf_counter() - start
    mismatches = sum(a != b for a, b in zip(got, want))
    return mismatches, statistics.median(times), holds_s


def main(spec):
    cap = spec["mem_cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _on_alarm)

    import pastdra  # noqa: F401  (setup cost a user pays)
    from pastdra.lasso import LassoWord
    from inputs import random_words
    import tracing

    words = [[LassoWord(pre, per) for pre, per in
              random_words(spec["seed"], "%s|%s" % (text, ",".join(ap)),
                           ap, spec["words"])]
             for text, ap in spec["cases"]]
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s = time.monotonic() - spec["spawned"]
    calibration = [calibrate() for _ in range(2)]

    # Address space (not resident memory) given back on MemoryError, so the
    # child can still report; the remaining cases are then not attempted
    # and no words are checked.
    parachute = mmap.mmap(-1, 16 << 20)
    cases, built = [], []
    for (text, ap), ws in zip(spec["cases"], words):
        if parachute is None:
            cases.append({"status": "exceeded", "reason": "memory, earlier"})
            continue
        record, phi, auto = translate_case(text, ap, spec["case_cap_s"])
        if record.get("reason") == "memory":
            parachute.close()
            parachute = None
        if spec.get("sabotage") and auto is not None:
            auto.acc = (auto.acc[0], ())
        cases.append(record)
        built.append((record, phi, auto, ws))

    for record, phi, auto, ws in built:
        if record["status"] != "decided" or parachute is None:
            continue
        try:
            mism, acc_s, holds_s = check_words(auto, phi, ws)
        except Exception as e:  # reported as a failed operation
            record.update(status="error", error="check: %r" % e)
            continue
        record.update(words=len(ws), mismatches=mism,
                      accepts_s=acc_s, holds_s=holds_s)

    result = {
        "setup_s": setup_s,
        "calibration_s": calibration,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": cases,
        "tables": tracing.table_sizes(),
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
