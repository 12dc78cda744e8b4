import random

from pastdra import formula as F
from pastdra import proplogic as P
from pastdra.gen import random_formula


def _equiv(f, g):
    return P.canonicalize(f) is P.canonicalize(g)


def test_constants():
    assert P.canonicalize(F.make(F.TRUE)) is P.TRUE_B
    assert P.canonicalize(F.make(F.FALSE)) is P.FALSE_B


def test_boolean_laws():
    a = F.parse("p & (q | r)")
    b = F.parse("(p & q) | (p & r)")
    assert _equiv(a, b)
    assert _equiv(F.parse("p | (p & q)"), F.parse("p"))
    assert _equiv(F.parse("p & tt"), F.parse("p"))
    assert _equiv(F.parse("p & ff"), F.make(F.FALSE))


def test_literals_and_temporal_nodes_are_opaque():
    # p and !p are distinct atoms: no propositional contradiction.
    assert not _equiv(F.parse("p & !p"), F.make(F.FALSE))
    assert not _equiv(F.parse("p | !p"), F.make(F.TRUE))
    # temporal subformulas are atoms; no unfolding happens here
    assert not _equiv(F.parse("p U q"), F.parse("q | (p & X(p U q))"))
    assert _equiv(F.parse("(p U q) | (p U q)"), F.parse("p U q"))


def test_to_formula_is_faithful():
    rng = random.Random(2)
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), depth=4)
        b = P.canonicalize(f)
        assert P.canonicalize(P.to_formula(b)) is b


def test_to_formula_deterministic():
    b = P.canonicalize(F.parse("(p & q) | r | (q & p)"))
    assert str(P.to_formula(b)) == str(P.to_formula(b))


def test_to_formula_of_many_paths():
    # 4,096 true-paths; the representative nests as deep as the diagram
    f = F.parse(" & ".join("(p%d | q%d)" % (i, i) for i in range(12)))
    b = P.canonicalize(f)
    assert str(P.to_formula(b))
    assert P.canonicalize(P.to_formula(b)) is b


def test_map_atoms():
    b = P.canonicalize(F.parse("p & X q"))

    def swap(atom):
        return P.canonicalize(
            {F.parse("p"): F.parse("X q"), F.parse("X q"): F.parse("p")}[atom])

    assert P.map_atoms(b, swap, {}) is b  # conjunction is symmetric
    b2 = P.canonicalize(F.parse("p | X q"))
    assert P.map_atoms(b2, lambda a: P.TRUE_B, {}) is P.TRUE_B
    assert P.map_atoms(P.TRUE_B, lambda a: P.FALSE_B, {}) is P.TRUE_B


def _subst(f, fn):
    if f.kind in (F.AND, F.OR):
        return F.make(f.kind, _subst(f.left, fn), _subst(f.right, fn))
    if f.kind in (F.TRUE, F.FALSE):
        return f
    return fn(f)


def test_map_atoms_matches_substitution_into_representative():
    rng = random.Random(3)
    for _ in range(300):
        b = P.canonicalize(random_formula(rng, ("p", "q", "r"), depth=4))
        table = {a: random_formula(rng, ("p", "q"), depth=2)
                 for a in F.sorted_set(P.atoms(b))}
        memo = {}
        want = P.canonicalize(_subst(P.to_formula(b), table.__getitem__))

        def fn(a):
            return P.canonicalize(table[a])

        assert P.map_atoms(b, fn, memo) is want
        # a warm memo gives the same node
        assert P.map_atoms(b, fn, memo) is want


def test_map_atoms_derives_atoms_in_representative_order():
    # fn sees the atoms in the order of their first occurrence in
    # to_formula(b), so formulas built by fn are interned in that order
    b = P.canonicalize(F.parse("(X p & X q) | (X r & X q) | X s"))
    seen = []

    def record(atom):
        if atom not in seen:
            seen.append(atom)
        return P.canonicalize(atom)

    P.map_atoms(b, record, {})
    rep = []
    stack = [P.to_formula(b)]
    while stack:
        f = stack.pop()
        if f.kind in (F.AND, F.OR):
            stack += [f.right, f.left]
        elif f not in rep:
            rep.append(f)
    assert seen == rep


def test_conj_disj_operate_on_classes():
    x = P.canonicalize(F.parse("p"))
    y = P.canonicalize(F.parse("q"))
    assert P.conj(x, y) is P.canonicalize(F.parse("p & q"))
    assert P.disj(x, y) is P.canonicalize(F.parse("q | p"))
    assert P.conj(x, P.FALSE_B) is P.FALSE_B
    assert P.disj(x, P.TRUE_B) is P.TRUE_B


def test_atoms():
    b = P.canonicalize(F.parse("(p & Y q) | tt & r"))
    assert P.atoms(b) <= {F.parse("p"), F.parse("Y q"), F.parse("r")}
