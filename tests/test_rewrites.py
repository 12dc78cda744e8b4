import random
from itertools import combinations, islice, product

import pytest

from sweep import lassos

from pastdra import formula as F
from pastdra import rewrites as R
from pastdra.gen import random_formula
from pastdra.stability import _walk
from pastdra.translate import TranslationContext


@pytest.mark.parametrize("strong,weak", [
    ("Y p", "wY p"), ("p S q", "p wS q"), ("p B q", "p wB q"),
])
def test_weaken_strengthen_pairs(strong, weak):
    # at the root, membership in C weakens and non-membership strengthens
    s, w = F.parse(strong), F.parse(weak)
    assert R.rewrite_under(s, {s}) is w
    assert R.rewrite_under(w, ()) is s
    assert R.rewrite_under(w, {w}) is w
    assert R.rewrite_under(s, ()) is s


def test_weaken_identity_elsewhere():
    # the past rewrite leaves future roots alone, U included
    for text in ("p", "p U q", "X p", "p & q", "tt"):
        f = F.parse(text)
        assert R.rewrite_under(f, {f}) is f and R.rewrite_under(f, ()) is f


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


def _saturated_pairwise(cj, ci, f):
    # the definition: every two past subformulas that the rewrite under cj
    # merges are merged by the rewrite under ci
    return all(R.rewrite_under(a, ci) is R.rewrite_under(b, ci)
               for a, b in combinations(F.sorted_set(F.psf(f)), 2)
               if R.rewrite_under(a, cj) is R.rewrite_under(b, cj))


def test_is_saturated_matches_pairwise_definition():
    # strength twins make the rewrites merge past subformulas: each random
    # formula is conjoined with its all-weak twin
    rng = random.Random(17)
    formulas = [F.parse(t) for t in ("Y p & wY p", "(p S q) & (p wS q)",
                                     "Y(p S q) & wY(p wS q)")]
    while len(formulas) < 203:
        g = random_formula(rng, ("p", "q"), depth=3)
        f = F.make(F.AND, g, R.rewrite_under(g, F.psf(g)))
        if 0 < len(F.psf(f)) <= 4:
            formulas.append(f)
    verdicts = []
    for f in formulas:
        sets = R.enumerate_past_sets(f)
        for cj, ci in product(sets, repeat=2):
            verdict = R.is_saturated(cj, ci, f)
            assert verdict == _saturated_pairwise(cj, ci, f), (f, cj, ci)
            verdicts.append(verdict)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_rewrite_indices_reflexive():
    phi = F.parse("Y p & wY p")
    ctx = TranslationContext(phi)
    sets = ctx.past_sets
    refining = [[j for j, _, _ in rows] for rows in ctx.refining]
    for i in range(len(sets)):
        assert i in refining[i]
    yp = F.parse("Y p")
    i_yp = sets.index(frozenset({yp}))
    i_empty = sets.index(frozenset())
    assert i_empty not in refining[i_yp]


def test_limit_rewrites_walk_the_dag(monkeypatch):
    # Each <-> mentions both operands twice, so the tree of
    # F(p <-> (q <-> ...)) doubles per level while its DAG grows linearly.
    calls = [0]
    make = F.make

    def counting(*args, **kwargs):
        calls[0] += 1
        return make(*args, **kwargs)
    monkeypatch.setattr(F, "make", counting)

    def made(rewrite, levels):
        f = F.parse("F(%s)" % " <-> ".join("pq"[i % 2]
                                            for i in range(levels + 1)))
        F.clear_memos()
        calls[0] = 0
        rewrite(f, ())
        return calls[0]
    for rewrite in (R.rewrite_mu_limit, R.rewrite_nu_limit):
        assert made(rewrite, 16) < 4 * made(rewrite, 8)


def _past_formulas():
    yield F.parse("Y (p S q)")
    yield F.parse("(p wS q) B (Y p)")
    yield F.parse("wY (p wB q) & (p S q)")


def test_walk_composition_defining_identity_exhaustive():
    # f|_(composed set at t) must equal f rewritten in turn under the
    # entailed sets at instants 0..t, on every lasso over {p, q} with a
    # prefix and a period of at most two letters
    for f in _past_formulas():
        for w in lassos(("p", "q")):
            chained = f
            for entailed, composed, _ in islice(_walk(f, w), 5):
                chained = R.rewrite_under(chained, entailed)
                assert R.rewrite_under(f, composed) is chained, (f, w)


def test_saturation_chain_identity():
    # along a chain C1 <= C2 <= C3, rewriting step by step (each set itself
    # rewritten under its predecessor) equals rewriting under the last set
    for f in _past_formulas():
        ps = list(F.psf(f))
        subsets = list(map(frozenset, R.subsets(ps)))
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


# Reference rewrites: each its own recursion with its own statement of the
# strength twins, against which the shared bottom-up pass is checked.
_PAST_WEAK_OF = {F.YESTERDAY: F.WYESTERDAY, F.SINCE: F.WSINCE,
                 F.BACK: F.WBACK}
_PAST_STRONG_OF = {v: k for k, v in _PAST_WEAK_OF.items()}
_LIMIT_WEAK_OF = {F.UNTIL: F.WUNTIL, F.SRELEASE: F.RELEASE}
_LIMIT_STRONG_OF = {v: k for k, v in _LIMIT_WEAK_OF.items()}


def _rewrite_under_reference(f, C):
    if f.left is None:
        return f
    l = _rewrite_under_reference(f.left, C)
    r = _rewrite_under_reference(f.right, C) if f.right is not None else None
    twin = (_PAST_WEAK_OF if f in C else _PAST_STRONG_OF).get(f.kind, f.kind)
    return F.make(twin, l, r)


def _mu_limit_reference(f, M):
    if f.left is None:
        return f
    l = _mu_limit_reference(f.left, M)
    r = _mu_limit_reference(f.right, M) if f.right is not None else None
    if f.kind in _LIMIT_WEAK_OF and f not in M:
        return F.make(F.FALSE)
    return F.make(_LIMIT_WEAK_OF.get(f.kind, f.kind), l, r)


def _nu_limit_reference(f, N):
    if f.left is None:
        return f
    if f.kind in _LIMIT_STRONG_OF and f in N:
        return F.make(F.TRUE)
    l = _nu_limit_reference(f.left, N)
    r = _nu_limit_reference(f.right, N) if f.right is not None else None
    return F.make(_LIMIT_STRONG_OF.get(f.kind, f.kind), l, r)


def test_rewrites_match_their_references():
    rng = random.Random(19)
    formulas = [F.parse(t) for t in ("Y p & wY p", "(p S q) & (p wS q)",
                                     "Y(p S q) & wY(p wS q)")]
    while len(formulas) < 203:
        f = random_formula(rng, ("p", "q"), depth=4)
        if 0 < len(F.psf(f)) <= 3:
            formulas.append(f)
    for f in formulas:
        for rewrite, reference, members in (
                (R.rewrite_under, _rewrite_under_reference, F.psf),
                (R.rewrite_mu_limit, _mu_limit_reference, F.mu_subformulas),
                (R.rewrite_nu_limit, _nu_limit_reference, F.nu_subformulas)):
            for S in R.subsets(F.sorted_set(members(f))):
                assert rewrite(f, S) is reference(f, frozenset(S)), (f, S)


@pytest.mark.parametrize("rewrite", [
    R.rewrite_under, R.rewrite_mu_limit, R.rewrite_nu_limit,
], ids=["under", "mu", "nu"])
@pytest.mark.parametrize("nested", [
    lambda n: "X " * n + "p",
    lambda n: " & ".join(["p"] * (n + 1)),
], ids=["next", "and"])
def test_rewrites_take_one_frame_per_nesting_level(deepest_make, rewrite,
                                                   nested):
    # a second frame per level would halve the deepest formula that
    # translates
    def depth(n):
        f = F.parse(nested(n))
        F.clear_memos()
        return deepest_make(lambda: rewrite(f, ()))
    assert depth(100) - depth(50) == 50
