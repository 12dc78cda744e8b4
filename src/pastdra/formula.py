"""Syntax trees for linear temporal logic with past, in negation normal form.

Formulas are hash-consed: structurally equal trees are the same object, so
``is`` / ``==`` / dict keys all behave identically and every formula carries a
stable ``uid`` reflecting first-construction order.  All constructors produce
negation normal form only; negation exists solely on propositions.  The parser
accepts the usual sugar (``!``, ``->``, ``<->``, ``F``, ``G``, ``O``, ``H``)
and eliminates it on the fly.
"""

from __future__ import annotations

import re
import threading
from typing import NamedTuple

# Node kinds.
TRUE = "tt"
FALSE = "ff"
PROP = "prop"
NPROP = "nprop"
AND = "and"
OR = "or"
NEXT = "X"
UNTIL = "U"
WUNTIL = "W"
RELEASE = "R"
SRELEASE = "M"
YESTERDAY = "Y"
WYESTERDAY = "wY"
SINCE = "S"
WSINCE = "wS"
BACK = "B"
WBACK = "wB"

PAST_KINDS = frozenset((YESTERDAY, WYESTERDAY, SINCE, WSINCE, BACK, WBACK))
FUTURE_KINDS = frozenset((NEXT, UNTIL, WUNTIL, RELEASE, SRELEASE))
BINARY_TEMPORAL_KINDS = frozenset(
    (UNTIL, WUNTIL, RELEASE, SRELEASE, SINCE, WSINCE, BACK, WBACK))
UNARY_TEMPORAL_KINDS = frozenset((NEXT, YESTERDAY, WYESTERDAY))
LEAF_KINDS = frozenset((TRUE, FALSE, PROP, NPROP))


class Formula:
    """An interned formula node.  Use the module-level constructors."""

    __slots__ = ("kind", "name", "left", "right", "uid")

    def __init__(self, kind, name, left, right, uid):
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self.uid = uid

    @property
    def is_past(self):
        return self.kind in PAST_KINDS

    @property
    def is_leaf(self):
        return self.kind in LEAF_KINDS

    def children(self):
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right

    def __str__(self):
        return _format(self, 0)

    def __repr__(self):
        return "Formula(%s)" % self


_lock = threading.Lock()
_interned: dict = {}
_uid_counter = [0]


def make(kind, left=None, right=None, name=None):
    """Intern and return the formula with the given root and children."""
    key = (kind, name,
           left.uid if left is not None else -1,
           right.uid if right is not None else -1)
    f = _interned.get(key)
    if f is None:
        with _lock:
            f = _interned.get(key)
            if f is None:
                f = Formula(kind, name, left, right, _uid_counter[0])
                _uid_counter[0] += 1
                _interned[key] = f
    return f


def true():
    return make(TRUE)


def false():
    return make(FALSE)


def prop(name):
    return make(PROP, name=name)


def nprop(name):
    return make(NPROP, name=name)


def conj(a, b):
    return make(AND, a, b)


def disj(a, b):
    return make(OR, a, b)


def nxt(a):
    return make(NEXT, a)


def until(a, b):
    return make(UNTIL, a, b)


def wuntil(a, b):
    return make(WUNTIL, a, b)


def release(a, b):
    return make(RELEASE, a, b)


def srelease(a, b):
    return make(SRELEASE, a, b)


def yesterday(a):
    return make(YESTERDAY, a)


def wyesterday(a):
    return make(WYESTERDAY, a)


def since(a, b):
    return make(SINCE, a, b)


def wsince(a, b):
    return make(WSINCE, a, b)


def back(a, b):
    return make(BACK, a, b)


def wback(a, b):
    return make(WBACK, a, b)


# Derived operators, eliminated at construction time.

def ev(a):
    """F a == tt U a."""
    return until(true(), a)


def alw(a):
    """G a == a W ff."""
    return wuntil(a, false())


def conj_all(formulas):
    """Right-nested conjunction of an iterable; tt when empty."""
    items = list(formulas)
    if not items:
        return true()
    out = items[-1]
    for f in reversed(items[:-1]):
        out = conj(f, out)
    return out


def disj_all(formulas):
    """Right-nested disjunction of an iterable; ff when empty."""
    items = list(formulas)
    if not items:
        return false()
    out = items[-1]
    for f in reversed(items[:-1]):
        out = disj(f, out)
    return out


# ---------------------------------------------------------------------------
# The dual of each operator, which the parser uses to push negations down.

_DUAL_KIND = {
    AND: OR, OR: AND,
    NEXT: NEXT,
    UNTIL: RELEASE, RELEASE: UNTIL,
    WUNTIL: SRELEASE, SRELEASE: WUNTIL,
    YESTERDAY: WYESTERDAY, WYESTERDAY: YESTERDAY,
    SINCE: WBACK, WBACK: SINCE,
    WSINCE: BACK, BACK: WSINCE,
}


# ---------------------------------------------------------------------------
# Subformula queries and size metrics.

def _memoized(cache):
    def deco(fn):
        def wrapper(f):
            out = cache.get(f)
            if out is None:
                out = fn(f)
                cache[f] = out
            return out
        wrapper.__doc__ = fn.__doc__
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@_memoized({})
def psf(f):
    """All past-rooted subformulas."""
    out = set()
    if f.is_past:
        out.add(f)
    for c in f.children():
        out |= psf(c)
    return frozenset(out)


@_memoized({})
def mu_subformulas(f):
    """Subformulas rooted in a least-fixpoint future operator (U or M)."""
    out = set()
    if f.kind in (UNTIL, SRELEASE):
        out.add(f)
    for c in f.children():
        out |= mu_subformulas(c)
    return frozenset(out)


@_memoized({})
def nu_subformulas(f):
    """Subformulas rooted in a greatest-fixpoint future operator (W or R)."""
    out = set()
    if f.kind in (WUNTIL, RELEASE):
        out.add(f)
    for c in f.children():
        out |= nu_subformulas(c)
    return frozenset(out)


@_memoized({})
def props(f):
    """Names of all propositions occurring in ``f``."""
    out = set()
    if f.kind in (PROP, NPROP):
        out.add(f.name)
    for c in f.children():
        out |= props(c)
    return frozenset(out)


class SizeMetrics(NamedTuple):
    n: int  # future-temporal plus proposition-literal nodes, with multiplicity
    m: int  # past-temporal nodes, with multiplicity


@_memoized({})
def size(f):
    """Syntax-tree node counts (shared subtrees count once per occurrence)."""
    n = 1 if (f.kind in FUTURE_KINDS or f.kind in (PROP, NPROP)) else 0
    m = 1 if f.is_past else 0
    for c in f.children():
        cn, cm = size(c)
        n += cn
        m += cm
    return SizeMetrics(n, m)


@_memoized({})
def tree_size(f):
    """Total syntax-tree node count, with multiplicity."""
    return 1 + sum(tree_size(c) for c in f.children())


def sorted_set(formulas):
    """Deterministic ordering of a formula collection (interning order)."""
    return sorted(formulas, key=lambda f: f.uid)


# ---------------------------------------------------------------------------
# Parsing.

class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<ident>[a-z][a-zA-Z0-9_]*)
  | (?P<op>[FGOHXYUWRMSB])
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<sym>[&|!()])
""", re.VERBOSE)

_UNARY_WORDS = {"F", "G", "O", "H", "X", "Y", "wY"}
_BINARY_WORDS = {"U", "W", "R", "M", "S", "wS", "B", "wB"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            val = m.group()
            if kind == "ident" and val in ("wY", "wS", "wB", "tt", "ff"):
                kind = "word"
            tokens.append((kind, val, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError("expected %r, found %r" % (value, val or "end"),
                             pos)

    # Raw AST nodes are tuples ("op", child...) to keep sugar around until
    # the NNF pass.
    def formula(self):
        left = self.implication()
        if self.peek()[1] == "<->":
            self.next()
            right = self.formula()
            return ("iff", left, right)
        return left

    def implication(self):
        left = self.disjunction()
        if self.peek()[1] == "->":
            self.next()
            right = self.implication()
            return ("imp", left, right)
        return left

    def disjunction(self):
        left = self.conjunction()
        if self.peek()[1] == "|":
            self.next()
            right = self.disjunction()
            return ("or", left, right)
        return left

    def conjunction(self):
        left = self.temporal()
        if self.peek()[1] == "&":
            self.next()
            right = self.conjunction()
            return ("and", left, right)
        return left

    def temporal(self):
        left = self.unary()
        kind, val, _ = self.peek()
        if kind in ("op", "word") and val in _BINARY_WORDS:
            self.next()
            right = self.temporal()
            return (val, left, right)
        return left

    def unary(self):
        kind, val, pos = self.peek()
        if val == "!":
            self.next()
            return ("not", self.unary())
        if kind in ("op", "word") and val in _UNARY_WORDS:
            self.next()
            return (val, self.unary())
        return self.atom()

    def atom(self):
        kind, val, pos = self.next()
        if val == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "word" and val in ("tt", "ff"):
            return (val,)
        if kind == "ident":
            return ("prop", val)
        raise ParseError("expected a formula, found %r" % (val or "end"), pos)


def _nnf(node, neg):
    op = node[0]
    if op == "tt":
        return false() if neg else true()
    if op == "ff":
        return true() if neg else false()
    if op == "prop":
        return nprop(node[1]) if neg else prop(node[1])
    if op == "not":
        return _nnf(node[1], not neg)
    if op == "and":
        a, b = _nnf(node[1], neg), _nnf(node[2], neg)
        return disj(a, b) if neg else conj(a, b)
    if op == "or":
        a, b = _nnf(node[1], neg), _nnf(node[2], neg)
        return conj(a, b) if neg else disj(a, b)
    if op == "imp":
        # a -> b == !a | b
        return _nnf(("or", ("not", node[1]), node[2]), neg)
    if op == "iff":
        # a <-> b == (a -> b) & (b -> a)
        return _nnf(("and", ("imp", node[1], node[2]),
                     ("imp", node[2], node[1])), neg)
    if op == "X":
        return nxt(_nnf(node[1], neg))
    if op == "F":
        return _nnf(("U", ("tt",), node[1]), neg)
    if op == "G":
        return _nnf(("W", node[1], ("ff",)), neg)
    if op == "O":
        return _nnf(("S", ("tt",), node[1]), neg)
    if op == "H":
        return _nnf(("wS", node[1], ("ff",)), neg)
    if op in _BINARY_WORDS:
        a, b = _nnf(node[1], neg), _nnf(node[2], neg)
        kind = _DUAL_KIND[op] if neg else op
        return make(kind, a, b)
    if op in ("Y", "wY"):
        a = _nnf(node[1], neg)
        kind = _DUAL_KIND[op] if neg else op
        return make(kind, a)
    raise AssertionError("unhandled node %r" % (op,))


def parse(text):
    """Parse ``text`` into an interned NNF formula.

    Raises :class:`ParseError` (with a position) on malformed input.
    """
    p = _Parser(_tokenize(text))
    raw = p.formula()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError("trailing input %r" % val, pos)
    return _nnf(raw, False)


# ---------------------------------------------------------------------------
# Printing.  Precedence: atoms/unary bind tightest, then binary temporal
# operators (right-associative), then &, then |.  Derived operators are
# re-sugared so output stays compact; parse(str(f)) is f for every formula.

_PREC_OR = 1
_PREC_AND = 2
_PREC_BIN = 3
_PREC_UNARY = 4


def _format(f, prec):
    if f.kind == TRUE:
        return "tt"
    if f.kind == FALSE:
        return "ff"
    if f.kind == PROP:
        return f.name
    if f.kind == NPROP:
        return "!" + f.name
    if f.kind in UNARY_TEMPORAL_KINDS:
        return "%s %s" % (f.kind, _format(f.left, _PREC_UNARY))
    if f.kind == UNTIL and f.left.kind == TRUE:
        return "F %s" % _format(f.right, _PREC_UNARY)
    if f.kind == WUNTIL and f.right.kind == FALSE:
        return "G %s" % _format(f.left, _PREC_UNARY)
    if f.kind == SINCE and f.left.kind == TRUE:
        return "O %s" % _format(f.right, _PREC_UNARY)
    if f.kind == WSINCE and f.right.kind == FALSE:
        return "H %s" % _format(f.left, _PREC_UNARY)
    if f.kind in BINARY_TEMPORAL_KINDS:
        s = "%s %s %s" % (_format(f.left, _PREC_BIN + 1), f.kind,
                          _format(f.right, _PREC_BIN))
        return "(%s)" % s if prec > _PREC_BIN else s
    if f.kind == AND:
        s = "%s & %s" % (_format(f.left, _PREC_AND + 1),
                         _format(f.right, _PREC_AND))
        return "(%s)" % s if prec > _PREC_AND else s
    if f.kind == OR:
        s = "%s | %s" % (_format(f.left, _PREC_OR + 1),
                         _format(f.right, _PREC_OR))
        return "(%s)" % s if prec > _PREC_OR else s
    raise AssertionError(f.kind)
