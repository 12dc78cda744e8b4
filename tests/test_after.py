import random
from itertools import islice

import pytest

from pastdra import formula as F
from pastdra import lasso as L
from pastdra import proplogic as P
from pastdra.after import af_class, af_ext, af_loc, af_loc_ext, pu_loc
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.rewrites import subsets
from pastdra.stability import _walk

parse = F.parse
EMPTY = frozenset()


def test_af_loc_propositions():
    p = parse("p")
    assert af_loc(p, {"p"}, EMPTY) is P.TRUE_B
    assert af_loc(p, frozenset(), EMPTY) is P.FALSE_B
    assert af_loc(parse("!p"), {"p"}, EMPTY) is P.FALSE_B
    assert af_loc(parse("!p"), {"q"}, EMPTY) is P.TRUE_B
    assert af_loc(F.make(F.TRUE), frozenset(), EMPTY) is P.TRUE_B
    assert af_loc(F.make(F.FALSE), {"p"}, EMPTY) is P.FALSE_B


def test_af_loc_yesterday_is_letterblind():
    # strong yesterday fails at the first instant, weak succeeds
    for sigma in (frozenset(), frozenset({"p"})):
        assert af_loc(parse("Y p"), sigma, EMPTY) is P.FALSE_B
        assert af_loc(parse("wY p"), sigma, EMPTY) is P.TRUE_B


def test_af_loc_always():
    g = parse("G p")
    assert af_loc(g, {"p"}, EMPTY) is P.canonicalize(g)
    assert af_loc(g, frozenset(), EMPTY) is P.FALSE_B


def test_af_loc_until_unfolding():
    f = parse("p U q")
    assert af_loc(f, {"q"}, EMPTY) is P.TRUE_B
    assert af_loc(f, {"p"}, EMPTY) is P.canonicalize(f)
    assert af_loc(f, frozenset(), EMPTY) is P.FALSE_B


def test_af_loc_past_defers_to_weakening_condition():
    f = parse("p S q")
    C = frozenset({f})
    # wc(p S q) = q, so under either assumption the step only reads sigma
    assert af_loc(f, {"q"}, EMPTY) is P.TRUE_B
    assert af_loc(f, {"p"}, C) is P.FALSE_B
    assert af_loc(f, {"q"}, C) is P.TRUE_B


def test_pu_loc_charges_weakening_conditions():
    f = parse("p S X q")
    C = frozenset({f})
    got = pu_loc(F.make(F.NEXT, f), {"p"}, C)
    # carried formula weakened, plus the owed wc = X q pushed one step
    assert got is P.canonicalize(
        F.make(F.AND, parse("X(p wS X q)"), parse("q")))
    assert pu_loc(F.make(F.NEXT, f), {"p"}, EMPTY) is P.canonicalize(
        F.make(F.NEXT, f))


def test_af_canonical_example():
    f = parse("X(p S X q)")
    b = af_class(P.canonicalize(f), frozenset({"p"}))
    assert b is P.canonicalize(parse("(p S X q) | ((p wS X q) & q)"))
    # the printed representative is propositionally, maybe not literally,
    # that formula
    assert P.canonicalize(af_ext(f, [{"p"}])) is b


def _af_class_reference(b, sigma):
    """The derivative by re-deriving the representative under every guess."""
    f = P.to_formula(b)
    out = P.FALSE_B
    for C in subsets(F.sorted_set(F.psf(f))):
        out = P.disj(out, af_loc(f, sigma, C))
    return out


def _random_classes(seed, count):
    # single formulas and Boolean combinations of two, so that the
    # diagrams share atoms and past subformulas across branches
    rng = random.Random(seed)
    for _ in range(count):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        g = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        yield P.canonicalize(
            rng.choice((f, F.make(F.AND, f, g), F.make(F.OR, f, g))))


def test_af_class_matches_formula_reference():
    letters = [frozenset(), frozenset({"p"}), frozenset({"q"}),
               frozenset({"p", "q"})]
    for b in _random_classes(21, 150):
        for sigma in letters:
            assert af_class(b, sigma) is _af_class_reference(b, sigma)


def test_af_class_iterates_like_the_reference():
    rng = random.Random(22)
    for b in _random_classes(23, 60):
        ref = b
        for _ in range(3):
            sigma = frozenset(x for x in ("p", "q") if rng.random() < 0.5)
            b, ref = af_class(b, sigma), _af_class_reference(ref, sigma)
            assert b is ref


def test_derivatives_intern_no_formulas():
    # derivatives are built on the diagram from the atom up, so exploring
    # every state of a future formula leaves the formula table as it was
    F.make(F.TRUE), F.make(F.FALSE)
    init = P.canonicalize(parse("G(p -> F q) & (p U (q R r))"))
    letters = list(map(frozenset, subsets(("p", "q", "r"))))
    before = len(F._interned)
    seen, todo = {init}, [init]
    while todo:
        b = todo.pop()
        for sigma in letters:
            nxt = af_class(b, sigma)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    assert len(seen) == 8
    assert len(F._interned) == before


def test_af_loc_ext_length_check():
    f = parse("Y p")
    with pytest.raises(ValueError):
        af_loc_ext(f, [frozenset({"p"})], [EMPTY])


def test_af_ext_empty_word():
    f = parse("p U q")
    assert P.canonicalize(af_ext(f, [])) is P.canonicalize(f)


def test_af_ext_matches_local_derivative_on_true_past_sets():
    # folding with the entailed past sets never leaves the canonical class
    # of the all-guesses fold once the word is fixed
    rng = random.Random(11)
    for _ in range(150):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(4)
        seq = [c for c, _, _ in islice(_walk(f, w), t + 1)]
        word = [w.letter(i) for i in range(t)]
        loc = af_loc_ext(f, word, seq)
        assert L.holds(loc, w.suffix(t), 0) == L.holds(f, w, 0)


def test_af_ext_verdict_matches_semantics():
    rng = random.Random(12)
    for _ in range(150):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(4)
        g = af_ext(f, [w.letter(i) for i in range(t)])
        if g is F.make(F.TRUE):
            assert L.holds(f, w, 0)
        if g is F.make(F.FALSE):
            assert not L.holds(f, w, 0)
