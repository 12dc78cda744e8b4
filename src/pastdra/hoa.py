"""HOA v1 and Graphviz DOT serialization of the explicit automata.

The writer emits one edge per letter with an explicit conjunction label and
state-based acceptance sets, and is deterministic: same automaton, same
bytes.  The reader only understands that shape (plus whitespace slack); it
exists for round-trip checks and for feeding previously exported automata
back into the membership checker.
"""

from __future__ import annotations

import re

from .automata import OmegaAutomaton


def _acc_header(acc):
    kind, data = acc
    if kind == "buchi":
        return "acc-name: Buchi\nAcceptance: 1 Inf(0)"
    if kind == "cobuchi":
        return "acc-name: co-Buchi\nAcceptance: 1 Fin(0)"
    pairs = data
    if not pairs:
        return "acc-name: Rabin 0\nAcceptance: 0 f"
    terms = ["(Fin(%d)&Inf(%d))" % (2 * i, 2 * i + 1)
             for i in range(len(pairs))]
    return "acc-name: Rabin %d\nAcceptance: %d %s" % (
        len(pairs), 2 * len(pairs), " | ".join(terms))


def _state_sets(acc, q):
    kind, data = acc
    if kind in ("buchi", "cobuchi"):
        return [0] if q in data else []
    out = []
    for i, (avoid, meet) in enumerate(data):
        if q in avoid:
            out.append(2 * i)
        if q in meet:
            out.append(2 * i + 1)
    return out


def export_hoa(auto, name=None):
    lines = ["HOA: v1"]
    if name:
        lines.append('name: "%s"' % name.replace('"', "'"))
    lines.append("States: %d" % auto.n_states())
    lines.append("Start: %d" % auto.init)
    lines.append("AP: %d %s" % (len(auto.ap),
                                " ".join('"%s"' % p for p in auto.ap)))
    lines.append(_acc_header(auto.acc))
    lines.append("properties: trans-labels explicit-labels state-acc "
                 "deterministic complete")
    lines.append("--BODY--")
    width = 1 << len(auto.ap)
    exprs = [" & ".join(("%d" if li >> j & 1 else "!%d") % j
                        for j in range(len(auto.ap))) or "t"
             for li in range(width)]
    for q in range(auto.n_states()):
        sets = _state_sets(auto.acc, q)
        lines.append('State: %d "%s"%s' % (
            q, auto.labels[q].replace('"', "'"),
            " {%s}" % " ".join(map(str, sets)) if sets else ""))
        for li in range(width):
            lines.append("[%s] %d" % (exprs[li], auto.trans[q][li]))
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def export_dot(auto):
    out = ["digraph automaton {", "  rankdir=LR;",
           '  __init [shape=point,label=""];',
           "  __init -> q%d;" % auto.init]
    for q in range(auto.n_states()):
        sets = _state_sets(auto.acc, q)
        extra = " [%s]" % ",".join(map(str, sets)) if sets else ""
        shape = "doublecircle" if sets else "circle"
        out.append('  q%d [shape=%s,label="%d%s\\n%s"];'
                   % (q, shape, q, extra,
                      auto.labels[q].replace('"', "'")))
    letters = auto.letters
    for q in range(auto.n_states()):
        grouped = {}
        for li, q2 in enumerate(auto.trans[q]):
            grouped.setdefault(q2, []).append(letters[li])
        for q2 in sorted(grouped):
            lab = " | ".join("{%s}" % ",".join(sorted(s))
                             for s in grouped[q2])
            out.append('  q%d -> q%d [label="%s"];' % (q, q2, lab))
    out.append("}")
    return "\n".join(out) + "\n"


_HOA_STATE_RE = re.compile(
    r'State:\s*(\d+)(?:\s+"((?:[^"\\]|\\.)*)")?(?:\s*\{([\d\s]*)\})?\s*$')
_HOA_EDGE_RE = re.compile(r"\[([^\]]*)\]\s*(\d+)\s*$")


def _header_line(pattern, header, name):
    m = re.search(pattern, header)
    if m is None:
        raise ValueError("HOA header has no %r line" % name)
    return m


def _state(text, n):
    q = int(text)
    if q >= n:
        raise ValueError("HOA state %d out of range (States: %d)" % (q, n))
    return q


def parse_hoa(text):
    """Read an automaton in the shape produced by :func:`export_hoa`.

    Raises :class:`ValueError` on input outside that shape.
    """
    header, _, body = text.partition("--BODY--")
    body = body.split("--END--")[0]
    n = int(_header_line(r"States:\s*(\d+)", header, "States:").group(1))
    init = _state(_header_line(r"Start:\s*(\d+)", header, "Start:").group(1),
                  n)
    apm = _header_line(r'AP:\s*(\d+)((?:\s+"[^"]*")*)', header, "AP:")
    ap = tuple(re.findall(r'"([^"]*)"', apm.group(2)))
    if len(ap) != int(apm.group(1)):
        raise ValueError("HOA AP: line announces %s propositions, names %d"
                         % (apm.group(1), len(ap)))
    accm = _header_line(r"acc-name:\s*(\S+)(?:\s+(\d+))?", header,
                        "acc-name:")
    width = 1 << len(ap)

    labels = [""] * n
    sets = [[] for _ in range(n)]
    trans = [[None] * width for _ in range(n)]
    cur = None
    for line in body.splitlines():
        line = line.strip()
        if not line:
            continue
        m = _HOA_STATE_RE.match(line)
        if m:
            cur = _state(m.group(1), n)
            labels[cur] = m.group(2) or ""
            if m.group(3):
                sets[cur] = [int(x) for x in m.group(3).split()]
            continue
        m = _HOA_EDGE_RE.match(line)
        if m and cur is not None:
            li = _expr_letter_index(m.group(1), len(ap))
            trans[cur][li] = _state(m.group(2), n)
            continue
        raise ValueError("unsupported HOA body line: %r" % line)
    if any(None in row for row in trans):
        raise ValueError("HOA transition table is incomplete: only complete "
                         "automata with one edge per letter are supported")

    name = accm.group(1)
    if name == "Buchi":
        acc = ("buchi", frozenset(q for q in range(n) if 0 in sets[q]))
    elif name == "co-Buchi":
        acc = ("cobuchi", frozenset(q for q in range(n) if 0 in sets[q]))
    elif name == "Rabin" and accm.group(2):
        k = int(accm.group(2))
        acc = ("rabin", tuple(
            (frozenset(q for q in range(n) if 2 * i in sets[q]),
             frozenset(q for q in range(n) if 2 * i + 1 in sets[q]))
            for i in range(k)))
    else:
        raise ValueError("unsupported acceptance %r" % name)
    return OmegaAutomaton(ap, init, trans, labels, acc)


def _expr_letter_index(expr, nap):
    expr = expr.strip()
    if expr == "t":
        return 0
    li = 0
    for token in expr.split("&"):
        token = token.strip()
        j = int(token[1:] if token.startswith("!") else token)
        if not 0 <= j < nap:
            raise ValueError("HOA proposition %d out of range (AP: %d)"
                             % (j, nap))
        if not token.startswith("!"):
            li |= 1 << j
    return li
