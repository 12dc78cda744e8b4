"""Syntax trees for linear temporal logic with past, in negation normal form.

Formulas are hash-consed: structurally equal trees are the same object, so
``is`` / ``==`` / dict keys all behave identically and every formula carries a
stable ``uid`` reflecting first-construction order.  :func:`make` builds every
node, in negation normal form only: negation exists solely on propositions.
The parser accepts the usual sugar (``!``, ``->``, ``<->``, ``F``, ``G``,
``O``, ``H``) and eliminates it on the fly.
"""

from __future__ import annotations

import re
import threading

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

# Each strong operator and its weak twin.  The weak one also holds where the
# strong one lacks a witness (U/W, M/R) or a past position (Y/wY, S/wS, B/wB);
# the rewrites switch between twins and ``lasso`` starts a weak one at 1.
WEAK_OF = {UNTIL: WUNTIL, SRELEASE: RELEASE, YESTERDAY: WYESTERDAY,
           SINCE: WSINCE, BACK: WBACK}
STRONG_OF = {w: s for s, w in WEAK_OF.items()}


class Formula:
    """An interned formula node, built by :func:`make` or :func:`parse`."""

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

    def children(self):
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right

    def __str__(self):
        return _format(self, 0)

    def __repr__(self):
        return "Formula(%s)" % self


# Hash-consing tables live as long as the process: identity of their
# objects is equality, so they are never cleared.
_lock = threading.Lock()
_interned: dict = {}
_uid_counter = [0]


def make(kind, left=None, right=None, name=None):
    """Intern and return the formula with the given root and children.

    The one constructor: ``make(AND, a, b)``, ``make(NEXT, a)``,
    ``make(TRUE)``, ``make(PROP, name="p")``.
    """
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


# Derived operators, eliminated at construction time.

def ev(a):
    """F a == tt U a."""
    return make(UNTIL, make(TRUE), a)


def alw(a):
    """G a == a W ff."""
    return make(WUNTIL, a, make(FALSE))


# ---------------------------------------------------------------------------
# The dual of each operator, which the parser uses to push negations down.

_DUAL_KIND = {
    TRUE: FALSE, FALSE: TRUE,
    AND: OR, OR: AND,
    NEXT: NEXT,
    UNTIL: RELEASE, RELEASE: UNTIL,
    WUNTIL: SRELEASE, SRELEASE: WUNTIL,
    YESTERDAY: WYESTERDAY, WYESTERDAY: YESTERDAY,
    SINCE: WBACK, WBACK: SINCE,
    WSINCE: BACK, BACK: WSINCE,
}


# ---------------------------------------------------------------------------
# Memo tables that live for one translation, and subformula queries.

_memos: list = []


def memo():
    """A new module-level memo table, emptied by :func:`clear_memos`."""
    _memos.append({})
    return _memos[-1]


def clear_memos():
    """Empty every :func:`memo` table; each translation starts here.

    Their keys are interned formulas or uids of BDD nodes, which are never
    freed, so emptying them only costs recomputation.
    """
    for table in _memos:
        table.clear()


def _memoized(fn):
    cache = memo()

    def wrapper(f):
        out = cache.get(f)
        if out is None:
            out = cache[f] = fn(f)
        return out
    wrapper.__doc__, wrapper.__name__ = fn.__doc__, fn.__name__
    return wrapper


def _subformulas(keep, doc):
    """A memoized query: the subformulas ``g`` of its argument with
    ``keep(g)``, as a frozenset."""
    def walk(f):
        out = {f} if keep(f) else set()
        for c in f.children():
            out |= query(c)
        return frozenset(out)
    walk.__doc__ = doc
    query = _memoized(walk)
    return query


psf = _subformulas(lambda f: f.is_past, "All past-rooted subformulas.")
mu_subformulas = _subformulas(
    lambda f: f.kind in WEAK_OF and not f.is_past,
    "Subformulas rooted in a least-fixpoint future operator (U or M).")
nu_subformulas = _subformulas(
    lambda f: f.kind in STRONG_OF and not f.is_past,
    "Subformulas rooted in a greatest-fixpoint future operator (W or R).")


@_memoized
def props(f):
    """Names of all propositions occurring in ``f``."""
    out = set()
    if f.kind in (PROP, NPROP):
        out.add(f.name)
    for c in f.children():
        out |= props(c)
    return frozenset(out)


@_memoized
def size(f):
    """Node counts ``(n, m)`` with multiplicity: ``n`` future-temporal plus
    proposition-literal nodes, ``m`` past-temporal nodes."""
    n = 1 if (f.kind in FUTURE_KINDS or f.kind in (PROP, NPROP)) else 0
    m = 1 if f.is_past else 0
    for c in f.children():
        cn, cm = size(c)
        n += cn
        m += cm
    return n, m


@_memoized
def past_depth(f):
    """The number of past operators on the deepest path of ``f``."""
    return f.is_past + max(map(past_depth, f.children()), default=0)


@_memoized
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

_KEYWORDS = ("wY", "wS", "wB", "tt", "ff")  # identifiers that are not names
_UNARY_WORDS = {"F", "G", "O", "H", "X", "Y", "wY"}
_BINARY_WORDS = {"U", "W", "R", "M", "S", "wS", "B", "wB"}
# The right-associative binary levels, loosest first: token -> raw node op.
_LEVELS = ({"<->": "iff"}, {"->": "imp"}, {"|": "or"}, {"&": "and"},
           {w: w for w in _BINARY_WORDS})


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
            if kind == "ident" and val in _KEYWORDS:
                kind = "word"
            tokens.append((kind, val, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def is_prop_name(name):
    """Whether :func:`parse` reads ``name`` as the proposition ``name``."""
    m = _TOKEN_RE.fullmatch(name)
    return m is not None and m.lastgroup == "ident" and name not in _KEYWORDS


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
    # the NNF pass.  The last level calls ``unary`` itself, so each level
    # costs one frame; the depth per parenthesis sets the "nested too
    # deeply" threshold.
    def formula(self, level=0):
        left = (self.formula(level + 1) if level + 1 < len(_LEVELS)
                else self.unary())
        op = _LEVELS[level].get(self.peek()[1])
        if op is None:
            return left
        self.next()
        return (op, left, self.formula(level))

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


def _nnf(node, neg, memo):
    # ``memo`` maps (id(node), neg) to (node, result) for one parse: sugar
    # expansion visits operands twice, so nested <-> would be exponential.
    # Holding ``node`` keeps its id from being reused by a later tuple.
    key = (id(node), neg)
    if key in memo:
        return memo[key][1]
    op = node[0]
    if op == "prop":
        out = make(NPROP if neg else PROP, name=node[1])
    elif op == "not":
        out = _nnf(node[1], not neg, memo)
    elif op == "imp":
        # a -> b == !a | b
        out = _nnf(("or", ("not", node[1]), node[2]), neg, memo)
    elif op == "iff":
        # a <-> b == (a -> b) & (b -> a)
        out = _nnf(("and", ("imp", node[1], node[2]),
                    ("imp", node[2], node[1])), neg, memo)
    elif op == "F":
        out = _nnf(("U", ("tt",), node[1]), neg, memo)
    elif op == "G":
        out = _nnf(("W", node[1], ("ff",)), neg, memo)
    elif op == "O":
        out = _nnf(("S", ("tt",), node[1]), neg, memo)
    elif op == "H":
        out = _nnf(("wS", node[1], ("ff",)), neg, memo)
    elif op in _DUAL_KIND:
        # Every other raw op is a node kind; plain calls, not a
        # comprehension, keep it at one frame per nesting level.
        l = _nnf(node[1], neg, memo) if len(node) > 1 else None
        r = _nnf(node[2], neg, memo) if len(node) > 2 else None
        out = make(_DUAL_KIND[op] if neg else op, l, r)
    else:
        raise AssertionError("unhandled node %r" % (op,))
    memo[key] = (node, out)
    return out


def parse(text):
    """Parse ``text`` into an interned NNF formula.

    Raises :class:`ParseError` (with a position) on malformed input.
    """
    p = _Parser(_tokenize(text))
    raw = p.formula()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError("trailing input %r" % val, pos)
    return _nnf(raw, False, {})


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
