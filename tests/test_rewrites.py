import random
from itertools import product

import pytest

from pastdra import formula as F
from pastdra import rewrites as R
from pastdra.gen import random_formula
from pastdra.translate import TranslationContext


@pytest.mark.parametrize("strong,weak", [
    ("Y p", "wY p"), ("p S q", "p wS q"), ("p B q", "p wB q"),
])
def test_weaken_strengthen_pairs(strong, weak):
    s, w = F.parse(strong), F.parse(weak)
    assert R.weaken(s) is w
    assert R.strengthen(w) is s
    assert R.weaken(w) is w
    assert R.strengthen(s) is s


def test_weaken_identity_elsewhere():
    for text in ("p", "p U q", "X p", "p & q", "tt"):
        f = F.parse(text)
        assert R.weaken(f) is f and R.strengthen(f) is f


def test_rewrite_under_membership_uses_original_nodes():
    f = F.parse("Y (p S q)")
    inner = F.parse("p S q")
    # only the inner node is in C: root is strengthened, child weakened
    assert R.rewrite_under(f, {inner}) is F.parse("Y (p wS q)")
    assert R.rewrite_under(f, {f}) is F.parse("wY (p S q)")
    assert R.rewrite_under(f, {f, inner}) is F.parse("wY (p wS q)")
    assert R.rewrite_under(f, set()) is f


def test_rewrite_under_preserves_shape():
    rng = random.Random(3)
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), depth=4)
        ps = list(F.psf(f))
        C = frozenset(p for p in ps if rng.random() < 0.5)
        g = R.rewrite_under(f, C)
        assert F.tree_size(g) == F.tree_size(f)
        assert F.size(g) == F.size(f)


@pytest.mark.parametrize("text,expected", [
    ("p S q", "q"),
    ("p wS q", "p | q"),
    ("Y p", "p"),
    ("wY p", "p"),
    ("p B q", "p & q"),
    ("p wB q", "q"),
])
def test_wc_table(text, expected):
    assert R.wc(F.parse(text)) is F.parse(expected)


def test_wc_rejects_non_past():
    with pytest.raises(ValueError):
        R.wc(F.parse("p U q"))


def test_enumerate_past_sets_order():
    assert R.enumerate_past_sets(F.parse("p U q")) == [frozenset()]
    yp = F.parse("Y p")
    assert R.enumerate_past_sets(yp) == [frozenset(), frozenset({yp})]
    wyp = F.parse("wY p")
    assert R.enumerate_past_sets(wyp) == [frozenset({wyp}), frozenset()]
    both = F.parse("Y p & wY p")
    sets = R.enumerate_past_sets(both)
    assert sets[0] == frozenset({wyp})
    assert len(sets) == 4 and len(set(sets)) == 4


def test_saturation_example():
    # C = {Y p} merges nothing that the empty set keeps apart, but the empty
    # set separates Y p from wY p while {Y p} maps both to wY p / Y p pairs.
    phi = F.parse("Y p & wY p")
    yp, wyp = F.parse("Y p"), F.parse("wY p")
    assert not R.is_saturated(frozenset(), frozenset({yp}), phi)
    assert R.is_saturated(frozenset(), frozenset({yp, wyp}), phi)
    assert R.is_saturated(frozenset({yp}), frozenset({yp}), phi)


def test_rewrite_indices_reflexive():
    phi = F.parse("Y p & wY p")
    ctx = TranslationContext(phi)
    sets = ctx.past_sets
    for i in range(len(sets)):
        assert i in ctx.refining[i]
    yp = F.parse("Y p")
    i_yp = sets.index(frozenset({yp}))
    i_empty = sets.index(frozenset())
    assert i_empty not in ctx.refining[i_yp]


def _past_formulas():
    yield F.parse("Y (p S q)")
    yield F.parse("(p wS q) B (Y p)")
    yield F.parse("wY (p wB q) & (p S q)")


def test_compose_sequence_defining_identity_exhaustive():
    # f|_(compose(Cs)) must equal the chained rewrite, for every sequence of
    # subsets of psf(f) up to length 3.
    for f in _past_formulas():
        ps = list(F.psf(f))
        subsets = [frozenset(p for i, p in enumerate(ps) if mask >> i & 1)
                   for mask in range(1 << len(ps))]
        for length in (1, 2, 3):
            for seq in product(subsets, repeat=length):
                chained = f
                for c in seq:
                    chained = R.rewrite_under(chained, c)
                assert R.rewrite_under(f, R.compose_sequence(f, seq)) \
                    is chained


def test_saturation_chain_identity():
    # along a chain C1 <= C2 <= C3, rewriting step by step (each set itself
    # rewritten under its predecessor) equals rewriting under the last set
    for f in _past_formulas():
        ps = list(F.psf(f))
        subsets = [frozenset(p for i, p in enumerate(ps) if mask >> i & 1)
                   for mask in range(1 << len(ps))]
        for a, b in product(subsets, repeat=2):
            if R.is_saturated(a, b, f):
                step = R.rewrite_under(R.rewrite_under(f, a),
                                       R.rewrite_set(b, a))
                assert step is R.rewrite_under(f, b)
        for a, b, c in product(subsets, repeat=3):
            if not (R.is_saturated(a, b, f) and R.is_saturated(b, c, f)):
                continue
            step = R.rewrite_under(f, a)
            step = R.rewrite_under(step, R.rewrite_set(b, a))
            step = R.rewrite_under(step, R.rewrite_set(c, b))
            assert step is R.rewrite_under(f, c)


@pytest.mark.parametrize("text,members,expected", [
    ("p U q", ["p U q"], "p W q"),
    ("p U q", [], "ff"),
    ("p M q", ["p M q"], "p R q"),
    ("Y p & (p U q)", [], "Y p & ff"),
])
def test_mu_limit_rewrite(text, members, expected):
    M = frozenset(F.parse(m) for m in members)
    assert R.rewrite_mu_limit(F.parse(text), M) is F.parse(expected)


@pytest.mark.parametrize("text,members,expected", [
    ("p W q", ["p W q"], "tt"),
    ("p W q", [], "p U q"),
    ("p R q", ["p R q"], "tt"),
    ("p R q", [], "p M q"),
    ("p & q", [], "p & q"),
])
def test_nu_limit_rewrite(text, members, expected):
    N = frozenset(F.parse(n) for n in members)
    assert R.rewrite_nu_limit(F.parse(text), N) is F.parse(expected)


def test_limit_rewrites_reach_fragments():
    rng = random.Random(4)
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), depth=4)
        M = frozenset(m for m in F.mu_subformulas(f) if rng.random() < 0.5)
        N = frozenset(n for n in F.nu_subformulas(f) if rng.random() < 0.5)
        g = R.rewrite_mu_limit(f, M)
        assert not F.mu_subformulas(g)
        h = R.rewrite_nu_limit(f, N)
        assert not F.nu_subformulas(h)


def _future_under_past(f):
    if f.is_past:
        return any(F.mu_subformulas(c) | F.nu_subformulas(c)
                   or _future_under_past(c) for c in f.children())
    return any(_future_under_past(c) for c in f.children())


def test_limit_rewrites_commute_with_past_rewrite():
    # Applied in either order the rewrites agree, provided no fixpoint
    # operator is nested below a past operator (otherwise the membership
    # keys drift; the translation always applies the past rewrite first).
    rng = random.Random(5)
    done = 0
    while done < 200:
        f = random_formula(rng, ("p", "q"), depth=4)
        if _future_under_past(f):
            continue
        done += 1
        ps = list(F.psf(f))
        C = frozenset(p for p in ps if rng.random() < 0.5)
        M = frozenset(m for m in F.mu_subformulas(f) if rng.random() < 0.5)
        lhs = R.rewrite_under(R.rewrite_mu_limit(f, M), C)
        rhs = R.rewrite_mu_limit(R.rewrite_under(f, C), R.rewrite_set(M, C))
        assert lhs is rhs
