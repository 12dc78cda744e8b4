"""Canonical propositional views of formulas.

A formula is treated as a Boolean combination (via ``and``/``or``/``tt``/``ff``
only) of opaque atoms: every proposition literal and every temporal-rooted
subformula is its own atom.  ``p`` and ``!p`` are *distinct* atoms, so e.g.
``p & !p`` is not propositionally false.

Canonical forms are reduced ordered BDDs, hash-consed so that two formulas are
propositionally equivalent iff ``canonicalize`` returns the same object.  All
combinations built here are positive (no complement operation is exposed), so
every reachable function is monotone.

Monotonicity means the high branch of a node implies its low branch, so the
node on atom ``a`` is the monotone if-then-else ``(a & hi) | lo``.
``to_formula`` writes a representative formula in exactly that shape, and
``map_atoms`` substitutes functions for atoms along the same decomposition,
node by node, under a caller-owned ``memo``, without building a
representative formula.
"""

from __future__ import annotations

from . import formula as F


class Bool:
    """A node of the shared BDD; compare with ``is`` or ``==`` (identity)."""

    __slots__ = ("var", "hi", "lo", "uid", "_rep")

    def __init__(self, var, hi, lo, uid):
        self.var = var
        self.hi = hi
        self.lo = lo
        self.uid = uid
        self._rep = None


TRUE_B = Bool(None, None, None, 0)
FALSE_B = Bool(None, None, None, 1)

# Process lifetime: nodes are hash-consed and never freed.
_nodes = {}
_uid = [2]
_apply_memo = F.memo()
_canon_memo = F.memo()


def _node(var, hi, lo):
    if hi is lo:
        return hi
    key = (var.uid, hi.uid, lo.uid)
    b = _nodes.get(key)
    if b is None:
        b = Bool(var, hi, lo, _uid[0])
        _uid[0] += 1
        _nodes[key] = b
    return b


def _level(b):
    # Atom order is global first-interning order of the underlying formulas.
    # No constant gets here: ``_apply`` has returned on each one already.
    return b.var.uid


def _apply(op, a, b):
    if a is b:
        return a
    if op == "and":
        if a is TRUE_B:
            return b
        if b is TRUE_B:
            return a
        if a is FALSE_B or b is FALSE_B:
            return FALSE_B
    else:
        if a is FALSE_B:
            return b
        if b is FALSE_B:
            return a
        if a is TRUE_B or b is TRUE_B:
            return TRUE_B
    key = (op, a.uid, b.uid) if a.uid <= b.uid else (op, b.uid, a.uid)
    out = _apply_memo.get(key)
    if out is not None:
        return out
    la, lb = _level(a), _level(b)
    if la <= lb:
        var = a.var
        a_hi, a_lo = a.hi, a.lo
    else:
        var = b.var
        a_hi = a_lo = a
    if lb <= la:
        b_hi, b_lo = b.hi, b.lo
    else:
        b_hi = b_lo = b
    out = _node(var, _apply(op, a_hi, b_hi), _apply(op, a_lo, b_lo))
    _apply_memo[key] = out
    return out


def conj(a, b):
    return _apply("and", a, b)


def disj(a, b):
    return _apply("or", a, b)


def disj_all(bs):
    out = FALSE_B
    for b in bs:
        out = disj(out, b)
    return out


def canonicalize(f):
    """Canonical Boolean function of formula ``f``."""
    out = _canon_memo.get(f)
    if out is not None:
        return out
    if f.kind == F.TRUE:
        out = TRUE_B
    elif f.kind == F.FALSE:
        out = FALSE_B
    elif f.kind == F.AND:
        out = conj(canonicalize(f.left), canonicalize(f.right))
    elif f.kind == F.OR:
        out = disj(canonicalize(f.left), canonicalize(f.right))
    else:
        out = _node(f, TRUE_B, FALSE_B)
    _canon_memo[f] = out
    return out


def atoms(b):
    """The atoms the function actually depends on."""
    out = set()
    seen = set()
    stack = [b]
    while stack:
        x = stack.pop()
        if x.var is None or x.uid in seen:
            continue
        seen.add(x.uid)
        out.add(x.var)
        stack.append(x.hi)
        stack.append(x.lo)
    return frozenset(out)


def to_formula(b):
    """A deterministic representative formula of the function.

    Read off the diagram node by node: a node on atom ``a`` is written
    ``(a & hi) | lo``, dropping ``& tt`` and ``| ff``.  Its nesting depth is
    the height of the diagram, and shared subdiagrams share their formulas.
    """
    if b._rep is None:
        if b is TRUE_B:
            rep = F.make(F.TRUE)
        elif b is FALSE_B:
            rep = F.make(F.FALSE)
        else:
            rep = (b.var if b.hi is TRUE_B
                   else F.make(F.AND, b.var, to_formula(b.hi)))
            if b.lo is not FALSE_B:
                rep = F.make(F.OR, rep, to_formula(b.lo))
        b._rep = rep
    return b._rep


def map_atoms(b, fn, memo):
    """Compose: replace every atom ``a`` by the function ``fn(a)``, a node.

    Works on the diagram.  ``b`` is monotone, so a node on atom ``a`` is
    ``(a & hi) | lo`` and maps to ``(fn(a) & map(hi)) | map(lo)``: the same
    function, hence the same node, as canonicalizing the substitution into
    ``to_formula(b)``.  ``fn(a)`` is called before ``hi`` and ``lo`` are
    mapped, which visits the atoms in the order of that representative.
    ``memo`` maps node uids to results; share it between calls only while
    ``fn`` stays the same.
    """
    if b.var is None:
        return b
    out = memo.get(b.uid)
    if out is None:
        atom = fn(b.var)
        hi = map_atoms(b.hi, fn, memo)
        out = disj(conj(atom, hi), map_atoms(b.lo, fn, memo))
        memo[b.uid] = out
    return out
