import random

from pastdra import formula as F
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.lasso import holds, parse_word
from pastdra.rewrites import compose_sequence, rewrite_under
from pastdra.stability import (check_master, entailed_seq, limit_sets,
                               stability_index)

parse = F.parse


def test_entailed_seq_frozen():
    f = parse("X(p S X q)")
    w = parse_word("{p} ; {q}")
    seq = entailed_seq(f, w, 3)
    assert [sorted(str(g) for g in c) for c in seq] == [
        [], ["p S X q"], ["p wS X q"], ["p wS X q"]]
    assert compose_sequence(f, seq) == frozenset({parse("p S X q")})


def test_entailed_set_initial_is_all_weak():
    f = parse("(Y p) & (q wS p)")
    w = parse_word("; {}")
    assert entailed_seq(f, w, 0) == [frozenset({parse("q wS p")})]


def test_entailed_rewrite_preserves_truth():
    rng = random.Random(21)
    for _ in range(150):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(5)
        g = rewrite_under(f, compose_sequence(f, entailed_seq(f, w, t)))
        assert holds(f, w, t) == holds(g, w.suffix(t), 0), (f, w, t)


def test_limit_sets_containments():
    rng = random.Random(22)
    for _ in range(100):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=1)
        w = random_lasso(rng, ("p", "q"))
        ls = limit_sets(f, w, 0)
        assert ls.infinitely_often <= ls.now_or_later
        assert ls.always <= ls.eventually_always


def test_limit_sets_frozen():
    f = parse("(F p) & G(q | F p)")
    w = parse_word("; {p},{q}")
    ls = limit_sets(f, w, 0)
    assert ls.now_or_later == ls.infinitely_often == frozenset({parse("F p")})
    assert ls.always == ls.eventually_always == \
        frozenset({parse("G(q | F p)")})


def test_stability_index_examples():
    # F p settles once the only p is consumed
    assert stability_index(parse("F p"), parse_word("{p} ; {}")) == 1
    # on a word satisfying it recurrently, p U q is stable from the start
    assert stability_index(parse("p U q"),
                           parse_word("{p},{p},{p} ; {q}")) == 0


def test_stability_index_monotone_tail():
    rng = random.Random(23)
    for _ in range(60):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=1)
        w = random_lasso(rng, ("p", "q"))
        r = stability_index(f, w)
        for t in (r, r + 1, r + len(w.period)):
            ls = limit_sets(f, w, t)
            assert ls.now_or_later == ls.infinitely_often
            assert ls.always == ls.eventually_always


def test_check_master_frozen():
    rep = check_master(parse("p U q"), parse_word("{p} ; {q}"))
    assert rep.satisfied and rep.consistent and rep.stability == 0
    M, N = rep.witness
    assert M == frozenset({parse("p U q")}) and N == frozenset()
    rep = check_master(parse("G p"), parse_word("; {p},{}"))
    assert not rep.satisfied and rep.consistent and rep.witness is None


def test_check_master_random():
    rng = random.Random(24)
    for _ in range(80):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=1)
        w = random_lasso(rng, ("p", "q"))
        rep = check_master(f, w)
        assert rep.consistent, (f, w)
        assert rep.satisfied == holds(f, w, 0)
