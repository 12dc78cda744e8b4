"""Ultimately periodic words and exact evaluation of formulas over them.

A :class:`LassoWord` is ``u v^omega`` with ``u`` a finite prefix and ``v`` a
nonempty cycle of letters (sets of proposition names).  The truth value of a
formula along such a word is itself an ultimately periodic bit sequence,
which the evaluator computes bottom-up for all positions at once.

The frame.  Let ``T = |u| + d|v|``, where ``d`` counts the past operators on
the deepest path of the formula (:func:`formula.past_depth`).  From ``T`` on
every subformula repeats with period ``|v|``: propositions repeat from
``|u|``, a future operator repeats from where its operands do, and a past
operator at most one lap later, because its update is monotone in the
carried bit.  The evaluator covers positions ``0 .. L - 1`` with
``L = T + 2|v|``, and a subformula's truth there is one int whose bit ``t``
is position ``t``.  Each operator is a few operations on those ints:

- ``&``, ``|`` and a negated proposition are ``&``, ``|`` and ``full ^ x``;
- ``X`` is a right shift that wraps position ``L - 1`` to ``T + |v|``;
- ``Y``/``wY`` is a left shift that ORs in the initial bit;
- ``S``/``wS`` is one addition: ``s[t] = b[t] | (a[t] & s[t-1])`` is the
  carry chain of ``(a | b) + b + init``.  ``B``/``wB`` is its dual on the
  complements;
- ``U``/``W`` (and ``R``/``M``, their duals) run the same carry backwards,
  on bit-reversed masks, from position ``L - 1`` with the initial bit: false
  for the least fixpoint, true for the greatest.  Every position of the
  first lap from ``T`` sees a whole lap ahead, so the first lap and the
  prefix before it are exact; the second lap is overwritten with the first.

The second lap is the stabilization lap: where the two laps of a past
operator differ, the evaluator raises AssertionError, explicitly, so the
check also holds under ``python -O``.

The program.  :func:`_program` flattens ``f`` once per translation into
``(past depth, names, steps)``: the distinct proposition names, and each
distinct subformula, children first, as a step ``(opcode, operand, left
index, right index)``.  Opcodes are small ints tried in order of frequency;
U/W, R/M, Y/wY, S/wS and B/wB each share one, with the initial bit as
operand, and a proposition's operand is its index in ``names``.  Per word
the evaluator builds one letter mask per name, in a list indexed like
``names``, and runs the steps in one loop with every carry chain and bit
reversal inline.  :func:`holds` looks the program up once, folds a
position past ``T`` into the first lap and reads its bit.

``naive_holds`` is a deliberately independent implementation that unfolds the
defining quantifiers up to a sufficient horizon; it shares no code with
:func:`holds` and exists to cross-check it.  Its eight binary temporal
operators are one first-witness scan, :func:`_scan`, which differs only in
direction (forward for ``U``/``W``/``M``/``R``, backward to position 0 for
``S``/``wS``/``B``/``wB``) and in the truth value it stops on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import formula as F


@dataclass(frozen=True)
class LassoWord:
    prefix: tuple  # of frozenset[str]
    period: tuple  # of frozenset[str], nonempty

    def __post_init__(self):
        if not self.period:
            raise ValueError("the cycle of a lasso word must be nonempty")

    def letter(self, t):
        if t < len(self.prefix):
            return self.prefix[t]
        return self.period[(t - len(self.prefix)) % len(self.period)]

    def suffix(self, t):
        """The word starting at position ``t`` (prefix shrinks, cycle rotates)."""
        if t <= len(self.prefix):
            return LassoWord(self.prefix[t:], self.period)
        d = (t - len(self.prefix)) % len(self.period)
        return LassoWord((), self.period[d:] + self.period[:d])

    def __str__(self):
        return format_word(self)


def _format_letter(s):
    return "{%s}" % ",".join(sorted(s))


def format_word(w):
    return "%s ; %s" % (",".join(_format_letter(s) for s in w.prefix),
                        ",".join(_format_letter(s) for s in w.period))


_NAME = r"\s*[a-zA-Z0-9_]+\s*"
_LETTER = r"\{(?:%s(?:,%s)*|\s*)\}" % (_NAME, _NAME)
_SIDE_RE = re.compile(r"(?:%s(?:\s*,\s*%s)*)?" % (_LETTER, _LETTER))


def _parse_side(text):
    """The letters of one side of a lasso word, such as ``{p},{},{p,q}``."""
    text = text.strip()
    if _SIDE_RE.fullmatch(text) is None:
        raise ValueError("bad letter in %r: expected letters such as {p,q} "
                         "separated by ','" % text)
    return tuple(frozenset(re.findall(r"[a-zA-Z0-9_]+", names))
                 for names in re.findall(r"\{([^}]*)\}", text))


def parse_word(text):
    """Parse ``"{p},{} ; {p,q}"`` style lasso-word text."""
    if text.count(";") != 1:
        raise ValueError("a lasso word is 'prefix ; cycle' with one ';'")
    pre, per = text.split(";")
    return LassoWord(_parse_side(pre), _parse_side(per))


# Opcodes, the most frequent in the corpus first; a weak twin (a key of
# ``F.STRONG_OF``) has the initial bit 1, see the module docstring.
(_PROP, _UNTIL, _FALSE, _TRUE, _OR, _NPROP, _AND, _NEXT, _RELEASE,
 _SINCE, _YESTERDAY, _BACK) = range(12)
_OPCODES = {
    F.PROP: _PROP, F.NPROP: _NPROP, F.TRUE: _TRUE, F.FALSE: _FALSE,
    F.AND: _AND, F.OR: _OR, F.NEXT: _NEXT, F.UNTIL: _UNTIL, F.WUNTIL: _UNTIL,
    F.SRELEASE: _RELEASE, F.RELEASE: _RELEASE, F.SINCE: _SINCE,
    F.WSINCE: _SINCE, F.YESTERDAY: _YESTERDAY, F.WYESTERDAY: _YESTERDAY,
    F.BACK: _BACK, F.WBACK: _BACK,
}

_programs = F.memo()


def _program(f):
    """``(past depth, names, steps)`` for ``f``; see the module docstring."""
    program = _programs.get(f)
    if program is None:
        index, names, steps = {}, {}, []

        def walk(g):
            if g not in index:
                i = walk(g.left) if g.left is not None else None
                j = walk(g.right) if g.right is not None else None
                index[g] = len(steps)
                arg = (g.kind in F.STRONG_OF if g.name is None
                       else names.setdefault(g.name, len(names)))
                steps.append((_OPCODES[g.kind], arg, i, j))
            return index[g]
        walk(f)
        program = _programs[f] = F.past_depth(f), tuple(names), steps
    return program


def _run(program, w, T):
    """The program's frame on ``w`` for ``T``; see the module docstring."""
    _, names, steps = program
    n, P = len(w.prefix), len(w.period)
    TP = T + P
    L = TP + P
    full, lap, head = (1 << L) - 1, (1 << P) - 1, (1 << TP) - 1
    masks = []
    for name in names:
        m = 0
        for s in reversed(w.period):
            m = m << 1 | (name in s)
        m *= (full >> n) // lap  # one bit at the start of every lap
        for s in reversed(w.prefix):
            m = m << 1 | (name in s)
        masks.append(m)

    vals = []
    for op, arg, i, j in steps:
        if op == _PROP:
            out = masks[arg]
        elif op == _UNTIL or op == _RELEASE:
            # S/wS's carry (below) on bit-reversed masks, so it runs from
            # position L - 1; R/M are W/U on the complements.  Reversing
            # ``a << L | b`` reverses both operands at once.
            ab = vals[i] << L | vals[j]
            if op == _RELEASE:
                ab ^= full << L | full
                arg ^= 1
            ab = int(bin(ab | 1 << 2 * L)[:2:-1], 2)
            b = ab >> L
            x = ab & full | b
            r = int(bin(((x + b + arg) ^ x ^ b) >> 1 | 1 << L)[:2:-1], 2)
            # the second lap becomes a copy of the exact first
            out = r & head | (r >> T & lap) << TP
            if op == _RELEASE:
                out ^= full
        elif op == _FALSE:
            out = 0
        elif op == _TRUE:
            out = full
        elif op == _OR:
            out = vals[i] | vals[j]
        elif op == _NPROP:
            out = full ^ masks[arg]
        elif op == _AND:
            out = vals[i] & vals[j]
        elif op == _NEXT:
            a = vals[i]
            out = a >> 1 | (a >> TP & 1) << L - 1
        else:
            a = vals[i]
            if op == _YESTERDAY:
                out = a << 1 & full | arg
            else:
                # s[t] = b[t] | (a[t] & s[t-1]) with s[-1] = init is bit
                # t + 1 of the carries of (a | b) + b + init, since the
                # carry out of a bit is b | (a & carry in); B/wB are S/wS
                # on the complements
                b = vals[j]
                if op == _BACK:
                    a, b, arg = full ^ a, full ^ b, arg ^ 1
                x = a | b
                out = ((x + b + arg) ^ x ^ b) >> 1
                if op == _BACK:
                    out ^= full
            if out >> T & lap != out >> TP & lap:
                raise AssertionError("a past operator did not stabilize by "
                                     "position %d" % T)
        vals.append(out)
    return out


def _check_position(t):
    if t < 0:
        raise ValueError("position must be non-negative, got %d" % t)


def holds(f, w, t=0):
    """Whether ``(w, t)`` satisfies ``f``; ``t < 0`` raises ValueError."""
    _check_position(t)
    program = _program(f)
    T = len(w.prefix) + program[0] * len(w.period)
    if t >= T:
        t = T + (t - T) % len(w.period)
    return bool(_run(program, w, T) >> t & 1)


# ---------------------------------------------------------------------------
# Independent reference evaluation by bounded quantifier unfolding.

def _horizon(f, w):
    # Past every threshold any subformula's truth can have, plus one full
    # cycle, plus slack for nested X offsets.
    size = F.tree_size(f)
    return len(w.prefix) + len(w.period) * (2 * size + 4) + size


def naive_holds(f, w, t=0):
    """Defining-quantifier evaluation of ``f`` at ``(w, t)``; oracle only.

    ``t < 0`` raises ValueError.
    """
    _check_position(t)
    horizon = _horizon(f, w)
    period = len(w.period)
    memo = {}

    def ev(g, s):
        key = (g.uid, s)
        if key in memo:
            return memo[key]
        k = g.kind
        if k == F.TRUE:
            out = True
        elif k == F.FALSE:
            out = False
        elif k == F.PROP:
            out = g.name in w.letter(s)
        elif k == F.NPROP:
            out = g.name not in w.letter(s)
        elif k == F.AND:
            out = ev(g.left, s) and ev(g.right, s)
        elif k == F.OR:
            out = ev(g.left, s) or ev(g.right, s)
        elif k == F.NEXT:
            out = ev(g.left, s + 1)
        elif k in (F.UNTIL, F.WUNTIL, F.SRELEASE, F.RELEASE):
            out = _scan(ev, g, range(s, max(s, horizon) + period),
                        stop=k in (F.UNTIL, F.WUNTIL),
                        weak=k in (F.WUNTIL, F.RELEASE))
        elif k == F.YESTERDAY:
            out = s > 0 and ev(g.left, s - 1)
        elif k == F.WYESTERDAY:
            out = s == 0 or ev(g.left, s - 1)
        elif k in (F.SINCE, F.WSINCE, F.BACK, F.WBACK):
            # a B b == b S (a & b); weak variant seeds history true.
            out = _scan(ev, g, range(s, -1, -1),
                        stop=k in (F.SINCE, F.WSINCE),
                        weak=k in (F.WSINCE, F.WBACK))
        else:
            raise AssertionError(k)
        memo[key] = out
        return out

    return ev(f, t)


def _scan(ev, g, positions, stop, weak):
    """Walk ``positions`` to the first that decides ``g``: there ``g.right``
    equal to ``stop`` gives ``stop``, else ``g.left`` unequal to it gives
    the opposite.  Until and since stop on true, strong release and back on
    false; a walk that nothing decides gives ``weak``."""
    for r in positions:
        if ev(g.right, r) == stop:
            return stop
        if ev(g.left, r) != stop:
            return not stop
    return weak
