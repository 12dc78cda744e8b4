import hashlib
import random
from dataclasses import replace
from itertools import islice

from test_acceptance import AP3, CORPUS, FUTURE_HISTORY_SPEC

from pastdra import formula as F
from pastdra import stability
from pastdra.automata import accepts
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.lasso import holds, naive_holds, parse_word
from pastdra.rewrites import rewrite_under, subsets
from pastdra.stability import (MasterReport, _walk, check_master, limit_sets,
                               stability_index)
from pastdra.translate import _product

parse = F.parse


def test_entailed_seq_frozen():
    f = parse("X(p S X q)")
    w = parse_word("{p} ; {q}")
    walk = list(islice(_walk(f, w), 4))
    assert [sorted(str(g) for g in c) for c, _, _ in walk] == [
        [], ["p S X q"], ["p wS X q"], ["p wS X q"]]
    assert walk[3][1] == frozenset({parse("p S X q")})


def test_entailed_set_initial_is_all_weak():
    f = parse("(Y p) & (q wS p)")
    w = parse_word("; {}")
    assert next(_walk(f, w))[0] == frozenset({parse("q wS p")})


def test_entailed_rewrite_preserves_truth():
    rng = random.Random(21)
    for _ in range(150):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(5)
        _, composed, _ = next(islice(_walk(f, w), t, None))
        g = rewrite_under(f, composed)
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


def _names(formulas):
    return ",".join(sorted(map(str, formulas)))


def test_reference_layer_golden():
    # 2,000 seeded (formula, word) pairs, with up to three past subformulas:
    # each check_master report (witness sets sorted by text), the entailed
    # past sets at instants 0..6 and naive_holds at positions 0..5
    rng = random.Random(25)
    digest = hashlib.sha256()
    for _ in range(2000):
        f = random_formula_bounded(rng, ("p", "q"), max_size=8, max_past=3,
                                   depth=4)
        w = random_lasso(rng, ("p", "q"), max_prefix=3, max_cycle=4)
        rep = check_master(f, w)
        witness = "-" if rep.witness is None else \
            "%s|%s" % tuple(map(_names, rep.witness))
        seq = ";".join(_names(c) for c, _, _ in islice(_walk(f, w), 7))
        bits = "".join("01"[naive_holds(f, w, t)] for t in range(6))
        digest.update(("%d %d %s %d %s %s\n"
                       % (rep.satisfied, rep.stability, witness,
                          rep.consistent, seq, bits)).encode())
    assert digest.hexdigest() == (
        "0485d4434914fbd0def5bb108b38c0863c0bb87045a9c929028e388edb7b10e8")


def test_master_witness_pair_accepts():
    # whenever check_master reports a witness (M, N), the automaton's pair
    # for that guess accepts the word by itself.  The converse fails: for
    # F p on {p} ; {q,r},{p} pair 0 (M = {}) accepts, since the automaton
    # may discharge F p before the stability index check_master reads, but
    # the witness is M = {F p}.  The product's pairs come one per guess,
    # in check_master's order; its quotient drops some.
    rng = random.Random(26)
    witnessed = 0
    for text in CORPUS:
        if text == FUTURE_HISTORY_SPEC:
            continue
        f = parse(text)
        auto = _product(f)
        guesses = [(frozenset(M), frozenset(N))
                   for M in subsets(F.sorted_set(F.mu_subformulas(f)))
                   for N in subsets(F.sorted_set(F.nu_subformulas(f)))]
        assert len(guesses) == len(auto.acc[1])
        for _ in range(40):
            w = random_lasso(rng, AP3, max_prefix=4, max_cycle=4)
            witness = check_master(f, w).witness
            if witness is not None:
                pair = auto.acc[1][guesses.index(witness)]
                assert accepts(replace(auto, acc=(auto.acc[0], (pair,))), w), \
                    (text, w, witness)
                witnessed += 1
    assert witnessed > 1000


# (formula, word, stability index, witness M; N is empty): premise one
# reads a prefix.  The first two need the composition of the entailed sets
# up to the stability index, the last two the derivative under those sets.
_PREMISE_ONE = [
    ("(wY !q | !q wB Y (ff U !q)) U q", "{p},{q} ; {q},{q},{p,q}", 1,
     ["(wY !q | !q wB Y (ff U !q)) U q"]),
    ("wY q U (!q & wY (tt R !q) M !q)", "{p,q} ; {p},{}", 1,
     ["wY (tt R !q) M !q", "wY q U (!q & wY (tt R !q) M !q)"]),
    ("(q R wY (q S wY !q)) M !p", "{},{p},{},{p},{p,q} ; {},{q}", 3, []),
    ("X q U (q & wY q)", "{p},{q},{p,q} ; {p},{}", 3, []),
]


def test_check_master_premise_one():
    for text, word, r, M in _PREMISE_ONE:
        witness = (frozenset(map(parse, M)), frozenset())
        assert check_master(parse(text), parse_word(word)) == \
            MasterReport(True, r, witness, True), (text, word)


def test_check_master_walks_each_word_once(monkeypatch):
    calls = []
    walk = stability._walk

    def counted(f, w):
        calls.append(f)
        return walk(f, w)
    monkeypatch.setattr(stability, "_walk", counted)
    for text, word, _, _ in _PREMISE_ONE:
        calls.clear()
        check_master(parse(text), parse_word(word))
        assert len(calls) == 1, text
