import random

import pytest

from pastdra import formula as F
from pastdra import lasso as L
from pastdra import proplogic as P
from pastdra.after import af_class, af_ext, af_loc, af_loc_ext, pu_loc
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.stability import entailed_seq

parse = F.parse
EMPTY = frozenset()


def _equiv(f, g):
    return P.canonicalize(f) is P.canonicalize(g)


def test_af_loc_propositions():
    p = parse("p")
    assert af_loc(p, {"p"}, EMPTY) is F.true()
    assert af_loc(p, frozenset(), EMPTY) is F.false()
    assert af_loc(parse("!p"), {"p"}, EMPTY) is F.false()
    assert af_loc(parse("!p"), {"q"}, EMPTY) is F.true()
    assert af_loc(F.true(), frozenset(), EMPTY) is F.true()
    assert af_loc(F.false(), {"p"}, EMPTY) is F.false()


def test_af_loc_yesterday_is_letterblind():
    # strong yesterday fails at the first instant, weak succeeds
    for sigma in (frozenset(), frozenset({"p"})):
        assert af_loc(parse("Y p"), sigma, EMPTY) is F.false()
        assert af_loc(parse("wY p"), sigma, EMPTY) is F.true()


def test_af_loc_always():
    g = parse("G p")
    assert _equiv(af_loc(g, {"p"}, EMPTY), g)
    assert _equiv(af_loc(g, frozenset(), EMPTY), F.false())


def test_af_loc_until_unfolding():
    f = parse("p U q")
    assert _equiv(af_loc(f, {"q"}, EMPTY), F.true())
    assert _equiv(af_loc(f, {"p"}, EMPTY), f)
    assert _equiv(af_loc(f, frozenset(), EMPTY), F.false())


def test_af_loc_past_defers_to_weakening_condition():
    f = parse("p S q")
    C = frozenset({f})
    # wc(p S q) = q, so under either assumption the step only reads sigma
    assert af_loc(f, {"q"}, EMPTY) is F.true()
    assert af_loc(f, {"p"}, C) is F.false()
    assert af_loc(f, {"q"}, C) is F.true()


def test_pu_loc_charges_weakening_conditions():
    f = parse("p S X q")
    C = frozenset({f})
    got = pu_loc(F.nxt(f), {"p"}, C)
    # carried formula weakened, plus the owed wc = X q pushed one step
    assert _equiv(got, F.conj(parse("X(p wS X q)"), parse("q")))
    assert pu_loc(F.nxt(f), {"p"}, EMPTY) is F.nxt(f)


def test_af_canonical_example():
    f = parse("X(p S X q)")
    b = af_class(P.canonicalize(f), frozenset({"p"}))
    assert b is P.canonicalize(parse("(p S X q) | ((p wS X q) & q)"))
    # the printed representative is propositionally, maybe not literally,
    # that formula
    assert P.canonicalize(af_ext(f, [{"p"}])) is b


def _subsets(items):
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if mask >> i & 1)


def _af_class_reference(b, sigma):
    """The derivative by re-deriving the representative under every guess."""
    f = P.to_formula(b)
    out = P.FALSE_B
    for C in _subsets(F.sorted_set(F.psf(f))):
        out = P.disj(out, P.canonicalize(af_loc(f, sigma, C)))
    return out


def _random_classes(seed, count):
    # single formulas and Boolean combinations of two, so that the
    # diagrams share atoms and past subformulas across branches
    rng = random.Random(seed)
    for _ in range(count):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        g = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        yield P.canonicalize(rng.choice((f, F.conj(f, g), F.disj(f, g))))


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


def test_af_loc_ext_length_check():
    f = parse("Y p")
    with pytest.raises(ValueError):
        af_loc_ext(f, [frozenset({"p"})], [EMPTY])


def test_af_ext_empty_word():
    f = parse("p U q")
    assert _equiv(af_ext(f, []), f)


def test_af_ext_matches_local_derivative_on_true_past_sets():
    # folding with the entailed past sets never leaves the canonical class
    # of the all-guesses fold once the word is fixed
    rng = random.Random(11)
    for _ in range(150):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(4)
        seq = entailed_seq(f, w, t)
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
        if g is F.true():
            assert L.holds(f, w, 0)
        if g is F.false():
            assert not L.holds(f, w, 0)
