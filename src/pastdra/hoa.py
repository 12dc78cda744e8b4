"""HOA v1 and Graphviz DOT serialization of the explicit automata.

The writer uses HOA's implicit labels and state-based acceptance sets, and
is deterministic: same automaton, same bytes.  Under each ``State:`` line
it writes the state's 2^|AP| successors on one line, in the letter order
that the HOA spec gives for implicit labels and that
:func:`~pastdra.automata.letters_for` uses: proposition 0 is the least
significant bit, so over two propositions ``[!0&!1]``, ``[0&!1]``,
``[!0&1]``, ``[0&1]``.  A state is named only when its label is not ``""``:
HOA makes state names optional, a translation names none, the reader keeps
those it reads, and the DOT writer shows an unnamed state's number alone.
The sets, and the marks of each state, are numbered as in
:func:`~pastdra.automata.state_marks`.  The pairs are written in the
automaton's order: for a translation, the branch order less the pairs that
minimization drops.  An automaton whose pairs each have one meet set is
written as ``Rabin``, any other as ``generalized-Rabin``.  The reader only
understands that shape, with whitespace slack (a state's successors may
span lines); an explicit edge such as ``[0] 1`` is an unsupported body
line, and a string that is never closed an error of its own.  It serves
round-trip checks and the membership checker, and also reads ``Buchi`` and
``co-Buchi``, as one pair.  The roles of the sets come from the
``Acceptance:`` condition, a disjunction of conjunctions of ``Fin(k)`` and
``Inf(k)`` (``f`` has no disjunct) that names every set once.  Its shape
(disjuncts, and the Fin and Inf sets of each), its set count and every
state mark must agree with ``acc-name:``, which allows at most one Fin per
disjunct.
"""

from __future__ import annotations

import re

from .automata import OmegaAutomaton, state_marks


def _acc_header(pairs):
    if not pairs:
        return "acc-name: Rabin 0\nAcceptance: 0 f"
    terms, k = [], 0
    for _, meets in pairs:
        terms.append("(%s)" % "&".join(
            ["Fin(%d)" % k] + ["Inf(%d)" % (k + 1 + m)
                               for m in range(len(meets))]))
        k += 1 + len(meets)
    if all(len(meets) == 1 for _, meets in pairs):
        name = "Rabin %d" % len(pairs)
    else:
        name = "generalized-Rabin %d %s" % (
            len(pairs), " ".join(str(len(meets)) for _, meets in pairs))
    return "acc-name: %s\nAcceptance: %d %s" % (name, k, " | ".join(terms))


def _escape(text):
    """``text`` inside an HOA or DOT string: ``\\`` and ``"`` escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote(text):
    """``text`` as an HOA string."""
    return '"%s"' % _escape(text)


def export_hoa(auto, name=None):
    lines = ["HOA: v1"]
    if name:
        lines.append("name: " + _quote(name))
    lines.append("States: %d" % auto.n_states())
    lines.append("Start: %d" % auto.init)
    lines.append(" ".join(["AP: %d" % len(auto.ap), *map(_quote, auto.ap)]))
    lines.append(_acc_header(auto.acc[1]))
    lines.append("properties: implicit-labels state-acc deterministic "
                 "complete")
    lines.append("--BODY--")
    for q, sets in enumerate(state_marks(auto.acc[1], auto.n_states())):
        label = auto.labels[q]
        lines.append("State: %d%s%s" % (
            q, " " + _quote(label) if label else "",
            " {%s}" % " ".join(map(str, sets)) if sets else ""))
        lines.append(" ".join(map(str, auto.trans[q])))
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def export_dot(auto):
    out = ["digraph automaton {", "  rankdir=LR;",
           '  __init [shape=point,label=""];',
           "  __init -> q%d;" % auto.init]
    for q, sets in enumerate(state_marks(auto.acc[1], auto.n_states())):
        extra = " [%s]" % ",".join(map(str, sets)) if sets else ""
        shape = "doublecircle" if sets else "circle"
        label = auto.labels[q] and "\\n" + _escape(auto.labels[q])
        out.append('  q%d [shape=%s,label="%d%s%s"];'
                   % (q, shape, q, extra, label))
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
# A header or body line: newlines inside a quoted string do not end it.  A
# quote that no later quote closes matches alone.
_HOA_LINE_RE = re.compile(r'((?:[^"\n]|"(?:[^"\\]|\\.)*")+)|"')
_INCOMPLETE = ("HOA transition table is incomplete: only complete automata "
               "with one successor per letter are supported")


def _lines(text):
    """The nonblank lines of ``text``, stripped; a quote that is never
    closed raises ValueError."""
    for m in _HOA_LINE_RE.finditer(text):
        if not m.group(1):
            raise ValueError("HOA string %r has no closing quote"
                             % text[m.start():].partition("\n")[0])
    return [s.strip() for s in _HOA_LINE_RE.findall(text) if s.strip()]


def _header_line(header, name, pattern):
    """The match of ``name`` and then ``pattern`` against the one line of
    ``header``, a list of lines, that starts with ``name``."""
    lines = [line for line in header if line.startswith(name)]
    if not lines:
        raise ValueError("HOA header has no %r line" % name)
    if len(lines) > 1:
        raise ValueError("HOA header has %d %r lines, not one"
                         % (len(lines), name))
    m = re.fullmatch(name + pattern, lines[0])
    if m is None:
        raise ValueError("HOA header line %r is not supported" % lines[0])
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
    header, lines = _lines(header), _lines(body.split("--END--")[0])
    n = int(_header_line(header, "States:", r"\s*(\d+)").group(1))
    init = _state(_header_line(header, "Start:", r"\s*(\d+)").group(1), n)
    apm = _header_line(header, "AP:", r'\s*(\d+)((?:\s+"[^"]*")*)')
    ap = tuple(re.findall(r'"([^"]*)"', apm.group(2)))
    if len(ap) != int(apm.group(1)):
        raise ValueError("HOA AP: line announces %s propositions, names %d"
                         % (apm.group(1), len(ap)))
    for p in ap:
        if ap.count(p) > 1:
            raise ValueError("HOA AP: line names %r twice" % p)
    accm = _header_line(header, "acc-name:", r"[ \t]*(\S+)((?:[ \t]+\d+)*)")
    name, counts = accm.group(1), [int(x) for x in accm.group(2).split()]
    # (number of Fin sets, number of Inf sets) of each disjunct
    if name == "Buchi":
        shape = [(0, 1)]
    elif name == "co-Buchi":
        shape = [(1, 0)]
    elif name == "Rabin" and len(counts) == 1:
        shape = [(1, 1)] * counts[0]
    elif name == "generalized-Rabin" and counts \
            and len(counts) == counts[0] + 1:
        shape = [(1, m) for m in counts[1:]]
    else:
        raise ValueError("unsupported HOA acceptance %r"
                         % " ".join([name] + accm.group(2).split()))
    nsets = sum(f + m for f, m in shape)
    condm = _header_line(header, "Acceptance:", r"[ \t]*(\d+)(.*)")
    if int(condm.group(1)) != nsets:
        raise ValueError("HOA Acceptance: line has %s sets, acc-name: "
                         "declares %d" % (condm.group(1), nsets))
    disjuncts = _condition(condm.group(2))
    if [(len(fins), len(infs)) for fins, infs in disjuncts] != shape:
        raise ValueError("HOA Acceptance: condition %r does not have the "
                         "shape that acc-name: declares"
                         % condm.group(2).strip())
    named = sorted(k for fins, infs in disjuncts for k in fins + infs)
    if named != list(range(nsets)):
        raise ValueError("HOA Acceptance: condition %r does not name each "
                         "of its %d sets once"
                         % (condm.group(2).strip(), nsets))
    width = 1 << len(ap)
    # Count the successors before the table is allocated, so a short body
    # cannot announce a huge one.
    if sum(len(line.split()) for line in lines
           if not line.startswith("State:")) < n * width:
        raise ValueError(_INCOMPLETE)

    labels = [""] * n
    sets = [[] for _ in range(n)]
    trans = [[] for _ in range(n)]
    cur = None
    for line in lines:
        m = _HOA_STATE_RE.match(line)
        if m:
            cur = _state(m.group(1), n)
            labels[cur] = re.sub(r"\\(.)", r"\1", m.group(2) or "")
            sets[cur] = [int(x) for x in (m.group(3) or "").split()]
            if sets[cur] and max(sets[cur]) >= nsets:
                raise ValueError("HOA state %d marks set %d, but acc-name: "
                                 "declares %d sets"
                                 % (cur, max(sets[cur]), nsets))
            continue
        succ = line.split()
        if cur is None or not all(map(str.isdecimal, succ)):
            raise ValueError("unsupported HOA body line: %r" % line)
        trans[cur] += [_state(q, n) for q in succ]
    if any(len(row) != width for row in trans):
        raise ValueError(_INCOMPLETE)

    def marked(i):
        return frozenset(q for q in range(n) if i in sets[q])

    pairs = tuple((frozenset().union(*map(marked, fins)),
                   tuple(map(marked, infs))) for fins, infs in disjuncts)
    return OmegaAutomaton(ap, init, trans, labels,
                          ("generalized-rabin", pairs))


def _condition(text):
    """The disjuncts of an ``Acceptance:`` condition, each as its list of
    Fin sets and its list of Inf sets; ``f`` has no disjunct."""
    text, disjuncts = text.strip(), []
    for term in [] if text == "f" else text.split("|"):
        term = term.strip()
        if term.startswith("(") and term.endswith(")"):
            term = term[1:-1].strip()
        atoms = [re.fullmatch(r"(Fin|Inf)\((\d+)\)", a.strip())
                 for a in term.split("&")]
        if None in atoms:
            raise ValueError("HOA Acceptance: condition %r is not a "
                             "disjunction of conjunctions of Fin(k) and "
                             "Inf(k)" % text)
        disjuncts.append(tuple([int(m.group(2)) for m in atoms
                                if m.group(1) == kind]
                               for kind in ("Fin", "Inf")))
    return disjuncts

