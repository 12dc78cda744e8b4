"""Ultimately periodic words and exact evaluation of formulas over them.

A :class:`LassoWord` is ``u v^omega`` with ``u`` a finite prefix and ``v`` a
nonempty cycle of letters (sets of proposition names).  The truth value of a
formula along such a word is itself an ultimately periodic bit sequence, which
:func:`eval_seq` computes bottom-up: past operators run a forward recurrence
(whose carried bit stabilizes after at most two extra cycles, as the update is
monotone in the carried bit), future operators solve their fixpoint on the
cycle by iteration and propagate backwards through the prefix.

``naive_holds`` is a deliberately independent implementation that unfolds the
defining quantifiers up to a sufficient horizon; it shares no code with
:func:`eval_seq` and exists to cross-check it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from math import gcd

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

    def phase(self, t):
        """Identifier of the position class of ``t`` (prefix index or cycle slot)."""
        if t < len(self.prefix):
            return t
        return len(self.prefix) + (t - len(self.prefix)) % len(self.period)

    def __str__(self):
        return format_word(self)


def _format_letter(s):
    return "{%s}" % ",".join(sorted(s))


def format_word(w):
    return "%s ; %s" % (",".join(_format_letter(s) for s in w.prefix),
                        ",".join(_format_letter(s) for s in w.period))


_LETTER_RE = re.compile(r"\{([a-zA-Z0-9_,\s]*)\}")


def _parse_side(text):
    text = text.strip()
    letters = []
    pos = 0
    while pos < len(text):
        m = _LETTER_RE.match(text, pos)
        if m is None:
            raise ValueError("bad letter at %r" % text[pos:])
        names = [x.strip() for x in m.group(1).split(",") if x.strip()]
        letters.append(frozenset(names))
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValueError("expected ',' between letters in %r" % text)
            pos += 1
            pos += len(text[pos:]) - len(text[pos:].lstrip())
    return tuple(letters)


def parse_word(text):
    """Parse ``"{p},{} ; {p,q}"`` style lasso-word text."""
    if text.count(";") != 1:
        raise ValueError("a lasso word is 'prefix ; cycle' with one ';'")
    pre, per = text.split(";")
    return LassoWord(_parse_side(pre), _parse_side(per))


# ---------------------------------------------------------------------------
# Ultimately periodic bit sequences.

class PeriodicBitSeq:
    """A bit sequence that from ``threshold`` on repeats with ``period``.

    Stored canonically: the period is the least one of the tail and the
    threshold is the least index from which that period holds.
    """

    __slots__ = ("threshold", "period", "bits")

    def __init__(self, threshold, period, bits):
        bits = tuple(bool(b) for b in bits)
        if period <= 0 or len(bits) != threshold + period:
            raise ValueError("need threshold + period bits")
        threshold, period, bits = _canonical_tpb(threshold, period, bits)
        self.threshold = threshold
        self.period = period
        self.bits = bits

    def value(self, t):
        if t < self.threshold:
            return self.bits[t]
        return self.bits[self.threshold + (t - self.threshold) % self.period]

    def __eq__(self, other):
        return (isinstance(other, PeriodicBitSeq)
                and self.threshold == other.threshold
                and self.period == other.period
                and self.bits == other.bits)

    def __hash__(self):
        return hash((self.threshold, self.period, self.bits))

    def __repr__(self):
        pre = "".join("1" if b else "0" for b in self.bits[:self.threshold])
        cyc = "".join("1" if b else "0" for b in self.bits[self.threshold:])
        return "PeriodicBitSeq(%s;%s)" % (pre, cyc)


def _canonical_tpb(threshold, period, bits):
    tail = bits[threshold:]
    # Least period of the tail, then least threshold for that period.
    best = period
    for d in range(1, period):
        if period % d == 0 and all(tail[i] == tail[i % d]
                                   for i in range(period)):
            best = d
            break
    period = best
    while threshold > 0 and bits[threshold - 1] == bits[threshold - 1 + period]:
        threshold -= 1
    return threshold, period, bits[:threshold + period]


# Internal evaluation works on raw (threshold, period, bits-list) triples all
# sharing the word's cycle length as period; canonicalization happens once at
# the end.

def _raw_value(raw, t):
    threshold, period, bits = raw
    if t < threshold:
        return bits[t]
    return bits[threshold + (t - threshold) % period]


def _align(raws):
    """Common (threshold, period) cover of several raw triples."""
    threshold = max(r[0] for r in raws)
    period = 1
    for r in raws:
        period = period * r[1] // gcd(period, r[1])
    return threshold, period


def _pointwise(op, raws):
    threshold, period = _align(raws)
    bits = [op(*(_raw_value(r, t) for r in raws))
            for t in range(threshold + period)]
    return (threshold, period, bits)


def _forward(raws, step, init):
    """Run ``state = step(state, *inputs(t))`` forward; output is the state.

    The update is monotone in the carried state, so the boundary state is
    stable after one extra cycle; a second extra cycle is computed to check
    that (raising AssertionError explicitly, so it also checks under ``-O``).
    """
    threshold, period = _align(raws)
    state = init
    bits = []
    for t in range(threshold + 3 * period):
        state = step(state, *(_raw_value(r, t) for r in raws))
        bits.append(state)
    if bits[threshold + period:threshold + 2 * period] != \
            bits[threshold + 2 * period:threshold + 3 * period]:
        raise AssertionError("forward state did not stabilize")
    return (threshold + period, period, bits[:threshold + 2 * period])


def _backward(raws, step, init):
    """Solve ``val(t) = step(nxt=val(t+1), *inputs(t))`` on the cycle, taking
    the fixpoint selected by ``init`` (False: least, True: greatest), then
    propagate through the prefix.
    """
    threshold, period = _align(raws)
    ring = [init] * period
    for _ in range(period + 1):
        changed = False
        for i in reversed(range(period)):
            v = step(ring[(i + 1) % period],
                     *(_raw_value(r, threshold + i) for r in raws))
            if v != ring[i]:
                ring[i] = v
                changed = True
        if not changed:
            break
    bits = [False] * threshold + ring
    for t in reversed(range(threshold)):
        nxt = bits[t + 1] if t + 1 < threshold else ring[0]
        bits[t] = step(nxt, *(_raw_value(r, t) for r in raws))
    return (threshold, period, bits)


def _eval_raw(f, w, memo):
    out = memo.get(f)
    if out is not None:
        return out
    k = f.kind
    P = len(w.period)
    if k == F.TRUE:
        out = (0, 1, [True])
    elif k == F.FALSE:
        out = (0, 1, [False])
    elif k in (F.PROP, F.NPROP):
        want = k == F.PROP
        bits = [(f.name in w.letter(t)) == want
                for t in range(len(w.prefix) + P)]
        out = (len(w.prefix), P, bits)
    elif k == F.AND:
        out = _pointwise(lambda a, b: a and b,
                         (_eval_raw(f.left, w, memo),
                          _eval_raw(f.right, w, memo)))
    elif k == F.OR:
        out = _pointwise(lambda a, b: a or b,
                         (_eval_raw(f.left, w, memo),
                          _eval_raw(f.right, w, memo)))
    elif k == F.NEXT:
        sub = _eval_raw(f.left, w, memo)
        threshold, period = _align((sub,))
        bits = [_raw_value(sub, t + 1) for t in range(threshold)]
        bits += [_raw_value(sub, threshold + (i + 1) % period)
                 for i in range(period)]
        out = (threshold, period, bits)
    elif k in (F.YESTERDAY, F.WYESTERDAY):
        sub = _eval_raw(f.left, w, memo)
        out = _yesterday_raw(sub, k == F.WYESTERDAY)
    elif k in (F.SINCE, F.WSINCE):
        out = _forward((_eval_raw(f.left, w, memo),
                        _eval_raw(f.right, w, memo)),
                       lambda prev, a, b: b or (a and prev),
                       k == F.WSINCE)
    elif k in (F.BACK, F.WBACK):
        out = _forward((_eval_raw(f.left, w, memo),
                        _eval_raw(f.right, w, memo)),
                       lambda prev, a, b: b and (a or prev),
                       k == F.WBACK)
    elif k in (F.UNTIL, F.WUNTIL):
        out = _backward((_eval_raw(f.left, w, memo),
                         _eval_raw(f.right, w, memo)),
                        lambda nxt, a, b: b or (a and nxt),
                        k == F.WUNTIL)
    elif k in (F.SRELEASE, F.RELEASE):
        out = _backward((_eval_raw(f.left, w, memo),
                         _eval_raw(f.right, w, memo)),
                        lambda nxt, a, b: b and (a or nxt),
                        k == F.RELEASE)
    else:
        raise AssertionError(k)
    memo[f] = out
    return out


def _yesterday_raw(sub, initial):
    # Yesterday just shifts the operand right by one position.
    threshold, period = _align((sub,))
    bits = [initial] + [_raw_value(sub, t) for t in range(threshold + period)]
    return (threshold + 1, period, bits)


@functools.lru_cache(maxsize=1 << 14)
def eval_seq(f, w):
    """The truth bit sequence of ``f`` along ``w``, canonical."""
    memo = {}
    raw = _eval_raw(f, w, memo)
    threshold, period, bits = raw
    full = [_raw_value(raw, t) for t in range(threshold + period)]
    return PeriodicBitSeq(threshold, period, full)


def _check_position(t):
    if t < 0:
        raise ValueError("position must be non-negative, got %d" % t)


def holds(f, w, t=0):
    """Whether ``(w, t)`` satisfies ``f``; ``t < 0`` raises ValueError."""
    _check_position(t)
    return eval_seq(f, w).value(t)


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
        elif k in (F.UNTIL, F.WUNTIL):
            out = _scan_until(ev, g, s, max(s, horizon) + period,
                              weak=(k == F.WUNTIL))
        elif k in (F.SRELEASE, F.RELEASE):
            out = _scan_srelease(ev, g, s, max(s, horizon) + period,
                                 weak=(k == F.RELEASE))
        elif k == F.YESTERDAY:
            out = s > 0 and ev(g.left, s - 1)
        elif k == F.WYESTERDAY:
            out = s == 0 or ev(g.left, s - 1)
        elif k in (F.SINCE, F.WSINCE):
            out = _scan_since(ev, g, s, weak=(k == F.WSINCE))
        elif k in (F.BACK, F.WBACK):
            # a B b == b S (a & b); weak variant seeds history true.
            out = _scan_back(ev, g, s, weak=(k == F.WBACK))
        else:
            raise AssertionError(k)
        memo[key] = out
        return out

    return ev(f, t)


def _scan_until(ev, g, s, bound, weak):
    for r in range(s, bound):
        if ev(g.right, r):
            return True
        if not ev(g.left, r):
            return False
    return weak


def _scan_srelease(ev, g, s, bound, weak):
    for r in range(s, bound):
        if not ev(g.right, r):
            return False
        if ev(g.left, r):
            return True
    return weak


def _scan_since(ev, g, s, weak):
    for r in range(s, -1, -1):
        if ev(g.right, r):
            return True
        if not ev(g.left, r):
            return False
    return weak


def _scan_back(ev, g, s, weak):
    for r in range(s, -1, -1):
        if not ev(g.right, r):
            return False
        if ev(g.left, r):
            return True
    return weak
