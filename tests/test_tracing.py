"""The benchmark's span tracer still finds every layer it patches.

``perfbench/tracing.py`` replaces functions under the names their callers
look them up by, so renaming or moving one of those names silences a
per-layer metric without failing anything else.  The tracer patches module
globals for good, so it runs in a fresh interpreter here.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from test_acceptance import CORPUS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# A corpus formula that opens every span: its past operator owes a
# weakening condition, the one thing that calls ``after.af_loc``.
FORMULAS = ["G(p -> O q)"]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import pastdra
import tracing
from pastdra import automata, formula, hoa, lasso

tracer, spans = tracing.Tracer(), []
span = tracer.span
tracer.span = lambda name, fn: spans.append(name) or span(name, fn)
tracing.install(tracer)
translate = sys.modules["pastdra.translate"].translate
word = lasso.parse_word("{q} ; {p},{}")
for text in json.loads(sys.argv[2]):
    phi = formula.parse(text)
    auto = translate(phi)
    hoa.export_hoa(auto)
    automata.accepts(auto, word)
    lasso.holds(phi, word, 0)
print(json.dumps({"spans": spans, "report": tracer.report(),
                  "tables": tracing.table_sizes()}))
"""


def test_every_span_and_counter_is_reported():
    assert set(FORMULAS) <= set(CORPUS)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), json.dumps(FORMULAS)],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    report = got["report"]
    source = (PERFBENCH / "tracing.py").read_text()
    counters = set(re.findall(r'\badd\("([\w.]+)"', source))
    tracing_tables = re.findall(r'^\s+"([\w.]+)": \("pastdra\.', source,
                                re.MULTILINE)
    assert len(set(got["spans"])) >= 10 and len(counters) >= 4
    assert set(got["spans"]) <= set(report["calls"]) == set(report["self_s"])
    assert counters <= set(report["counts"])
    assert all(report["counts"][name] > 0 for name in counters)
    assert set(got["tables"]) == set(tracing_tables) and tracing_tables
