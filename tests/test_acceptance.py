"""End-to-end acceptance checks for the translation pipeline.

Each check is seeded and self-contained; expected verdicts come from the
independent lasso-word evaluators, never from the code under test.
"""

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from pastdra import formula as F
from pastdra import proplogic as P
from pastdra.after import af_ext
from pastdra.automata import accepts
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.lasso import holds, naive_holds
from pastdra.rewrites import (compose_sequence, enumerate_past_sets,
                              is_saturated, rewrite_mu_limit,
                              rewrite_nu_limit, rewrite_set, rewrite_under)
from pastdra.stability import check_master, entailed_seq, limit_sets
from pastdra.translate import (TranslationContext, build_wc_automaton, translate,
                               translation_stats)

parse = F.parse
AP3 = ("p", "q", "r")

PAST_HISTORY_SPEC = "G(p <-> O q & O r)"
FUTURE_HISTORY_SPEC = (
    "((!p & !q) W (r & ((!p & !q) W (p & q)))"
    " | (!p & !r) W (q & ((!p & !r) W (p & r)))) & G(p -> X G p)")

CORPUS = [
    "tt", "ff", "Y tt", "wY ff", "X(p S X q)",
    PAST_HISTORY_SPEC, FUTURE_HISTORY_SPEC, "G(p -> X G p)",
    "p", "!p", "p & q", "p | !q", "X p", "X X p",
    "F p", "G p", "G F p", "F G p", "F G p | G F q",
    "p U q", "p W q", "p R q", "p M q",
    "p U (q U r)", "(p U q) R r", "p W (q M r)", "G(F p & F q)",
    "G(p | X p)", "G(p -> F q)", "F(p & X q)", "G p -> G q",
    "Y p", "wY p", "p S q", "p wS q", "p B q", "p wB q",
    "O p", "H p", "O(p & Y q)", "H(p | q)", "F H p", "G O p",
    "G(p -> O q)", "F(p & Y p)", "(Y p) U q", "(O p) & (H q)",
    "G((p S q) -> r)", "F(p wS q)", "X(p B X q)", "G(p <-> Y p)",
    "F G(p -> O q)", "G(p -> Y q)", "F(q & O p)", "wY (p S q)",
]


def _cases(seed, count, max_size=6, max_past=2, ap=AP3, max_t=8):
    rng = random.Random(seed)
    for _ in range(count):
        f = random_formula_bounded(rng, ap, max_size=max_size,
                                   max_past=max_past)
        w = random_lasso(rng, ap, max_prefix=4, max_cycle=4)
        yield f, w, rng.randrange(max_t + 1)


def test_derivative_preserves_suffix_satisfaction():
    # reading a prefix through the canonical derivative leaves a formula
    # whose truth on the suffix matches the original verdict
    start = time.monotonic()
    for f, w, t in _cases(101, 1000):
        g = af_ext(f, [w.letter(i) for i in range(t)])
        assert holds(g, w.suffix(t), 0) == holds(f, w, 0), (f, w, t)
    assert time.monotonic() - start < 60


def test_entailed_rewrite_transfers_truth():
    # weakening by the past sets actually justified by the prefix makes the
    # suffix self-contained
    for f, w, t in _cases(102, 500):
        g = rewrite_under(f, compose_sequence(f, entailed_seq(f, w, t)))
        assert holds(g, w.suffix(t), 0) == holds(f, w, t), (f, w, t)


def test_limit_witness_search_matches_truth():
    start = time.monotonic()
    done = 0
    rng = random.Random(103)
    while done < 200:
        f = random_formula_bounded(rng, AP3, max_size=6, max_past=2)
        if len(F.mu_subformulas(f)) + len(F.nu_subformulas(f)) > 3:
            continue
        w = random_lasso(rng, AP3, max_prefix=4, max_cycle=4)
        done += 1
        rep = check_master(f, w)
        assert rep.consistent, (f, w)
        assert rep.satisfied == holds(f, w, 0), (f, w)
    assert time.monotonic() - start < 300


@pytest.fixture(scope="module")
def corpus_automata():
    assert len(CORPUS) >= 50
    return {text: translate(parse(text), list(AP3), max_states=200000)
            for text in CORPUS}


def test_translation_end_to_end(corpus_automata):
    start = time.monotonic()
    rng = random.Random(104)
    for text, auto in corpus_automata.items():
        f = parse(text)
        for _ in range(200):
            w = random_lasso(rng, AP3, max_prefix=4, max_cycle=4)
            assert accepts(auto, w) == holds(f, w, 0), (text, w)
    assert time.monotonic() - start < 600


CORPUS_HOA_SHA256 = (
    "e84fd6a78d302f2e1b714f5f5bb00ced644b6c8ff963233cd20446f301737023")
CORPUS_HOA_BYTES = 436205
# The same text with every state label dropped: states, edges and Rabin
# pairs.  A change that only edits labels leaves these two as they are.
CORPUS_STRUCTURE_SHA256 = (
    "af8a21b77722740b07584baa75dbf16cb1738fc3bec4348d88fc22373394da50")
CORPUS_STRUCTURE_BYTES = 260746

_CORPUS_HOA_SCRIPT = """
import json, sys
from pastdra import export_hoa, parse, translate
sys.stdout.buffer.write("".join(
    export_hoa(translate(parse(t), %r, max_states=200000), name=str(parse(t)))
    for t in json.load(sys.stdin)).encode())
""" % (list(AP3),)


def _hoa_in_fresh_interpreter(script, stdin=b""):
    """HOA text written by ``script`` in a new interpreter, and that text
    with every state label dropped."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(F.__file__)))
    text = subprocess.run(
        [sys.executable, "-c", script], input=stdin, capture_output=True,
        check=True, env=dict(os.environ, PYTHONPATH=src), timeout=600).stdout
    return text, re.sub(rb'^(State: \d+) "[^"\n]*"', rb"\1", text, flags=re.M)


def test_corpus_hoa_is_golden():
    # Refactors must leave the automata byte-identical; a change that alters
    # them on purpose updates the constants above and says why.  The
    # corpus is translated in a fresh interpreter: interning order steers
    # the BDD variable order and with it the state labels, and the tests
    # that run before this one intern formulas of their own.
    text, structure = _hoa_in_fresh_interpreter(
        _CORPUS_HOA_SCRIPT, json.dumps(CORPUS).encode())
    assert len(structure) == CORPUS_STRUCTURE_BYTES
    assert hashlib.sha256(structure).hexdigest() == CORPUS_STRUCTURE_SHA256
    assert len(text) == CORPUS_HOA_BYTES
    assert hashlib.sha256(text).hexdigest() == CORPUS_HOA_SHA256


RANDOM_HOA_SHA256 = (
    "2274f643d44599d965d510296739da048e2a3c8d4751215d0d03cb0b4c5c5830")
RANDOM_HOA_BYTES = 789639
RANDOM_STRUCTURE_SHA256 = (
    "0554652493f014b93f94c35b4fc197bf912d3b04f1dad0bb633819986de068e7")
RANDOM_STRUCTURE_BYTES = 597641

_RANDOM_HOA_SCRIPT = """
import random, sys
from pastdra import export_hoa, translate
from pastdra.gen import random_formula_bounded
out = []
for seed in (1, 2):
    rng = random.Random(seed)
    for _ in range(300):
        phi = random_formula_bounded(rng, %r, max_size=6, max_past=2)
        out.append(export_hoa(translate(phi, %r), name=str(phi)))
sys.stdout.buffer.write("".join(out).encode())
""" % (AP3, list(AP3))


def test_random_hoa_is_golden():
    # As the corpus golden, for 600 seeded random formulas with up to two
    # past operators each, translated one after another in one fresh
    # interpreter, so that the atoms of one translation precede the next.
    text, structure = _hoa_in_fresh_interpreter(_RANDOM_HOA_SCRIPT)
    assert len(structure) == RANDOM_STRUCTURE_BYTES
    assert hashlib.sha256(structure).hexdigest() == RANDOM_STRUCTURE_SHA256
    assert len(text) == RANDOM_HOA_BYTES
    assert hashlib.sha256(text).hexdigest() == RANDOM_HOA_SHA256


def test_past_and_pure_future_phrasings_agree(corpus_automata):
    # the once-based specification and its explicitly ordered rephrasing
    # denote the same language
    a = corpus_automata[PAST_HISTORY_SPEC]
    b = corpus_automata[FUTURE_HISTORY_SPEC]
    rng = random.Random(105)
    for _ in range(1000):
        w = random_lasso(rng, AP3, max_prefix=4, max_cycle=4)
        assert accepts(a, w) == accepts(b, w), w


def test_size_bounds_and_audits(corpus_automata):
    for text, auto in corpus_automata.items():
        f = parse(text)
        auto.audit()
        stats = translation_stats(f, auto)
        k = len(F.mu_subformulas(f)) + len(F.nu_subformulas(f))
        assert stats["pairs"] <= 1 << k, text
        # the shared acceptance-free component respects the doubly
        # exponential state bound (compared in the log to stay cheap)
        bed = build_wc_automaton(TranslationContext(f, list(AP3)))
        states = len(bed.trans)
        n, m = F.size(f)
        assert max(states - 1, 1).bit_length() <= 2 ** (n + 2 * m), text


def test_evaluator_independence():
    for f, w, t in _cases(106, 2000, max_t=6):
        assert holds(f, w, t) == naive_holds(f, w, t), (f, w, t)


def test_rewrite_monotone_in_past_set():
    # enlarging the set of weakened subformulae can only help
    rng = random.Random(107)
    for _ in range(500):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        ps = F.sorted_set(F.psf(f))
        small = frozenset(g for g in ps if rng.random() < 0.5)
        big = small | frozenset(g for g in ps if rng.random() < 0.5)
        if holds(rewrite_under(f, small), w, 0):
            assert holds(rewrite_under(f, big), w, 0), (f, w, small, big)


def test_limit_rewrites_sound_and_complete():
    # over/under-approximating the recurring and invariant subformulae moves
    # the verdict only in the advertised direction
    rng = random.Random(108)
    for _ in range(500):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=1)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(4)
        ls = limit_sets(f, w, 0)
        mu = F.sorted_set(F.mu_subformulas(f))
        nu = F.sorted_set(F.nu_subformulas(f))
        M = frozenset(g for g in mu if rng.random() < 0.5)
        N = frozenset(g for g in nu if rng.random() < 0.5)
        sat = holds(f, w, t)
        if ls.now_or_later <= M and sat:
            assert holds(rewrite_mu_limit(f, M), w, t), (f, w, t, M)
        if M <= ls.infinitely_often and holds(rewrite_mu_limit(f, M), w, t):
            assert sat, (f, w, t, M)
        if ls.eventually_always <= N and sat:
            assert holds(rewrite_nu_limit(f, N), w, t), (f, w, t, N)
        if N <= ls.always and holds(rewrite_nu_limit(f, N), w, t):
            assert sat, (f, w, t, N)


def test_chained_rewrites_collapse():
    # along a refinement chain, composing stepwise rewrites equals the last
    bases = [parse("(Y p) & (p S q) & (q B p)"),
             parse("(p wS q) | X(p S X q) | Y p")]
    for base in bases:
        sets = enumerate_past_sets(base)
        assert len(F.psf(base)) <= 3
        for chain in itertools.product(sets, repeat=3):
            if not all(is_saturated(chain[i], chain[i + 1], base)
                       for i in range(2)):
                continue
            g = rewrite_under(base, chain[0])
            g = rewrite_under(g, rewrite_set(chain[1], chain[0]))
            g = rewrite_under(g, rewrite_set(chain[2], chain[1]))
            assert g is rewrite_under(base, chain[2]), (base, chain)


def _fragment_case(rng, to_mu):
    f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=1)
    if to_mu:
        return rewrite_nu_limit(f, frozenset())
    return rewrite_mu_limit(f, frozenset(F.mu_subformulas(f)))


def test_guarantee_fragment_reaches_true():
    # a formula with only strong future operators is satisfied iff the
    # derivative collapses to truth within a bounded window
    rng = random.Random(109)
    for _ in range(300):
        f = _fragment_case(rng, to_mu=True)
        w = random_lasso(rng, ("p", "q"))
        bound = len(w.prefix) + (F.tree_size(f) + 2) * len(w.period)
        b = P.canonicalize(f)
        hit = False
        for t in range(bound + 1):
            if b is P.TRUE_B:
                hit = True
                break
            b = P.canonicalize(af_ext(P.to_formula(b), [w.letter(t)]))
        assert hit == holds(f, w, 0), (f, w)


def test_safety_fragment_avoids_false():
    rng = random.Random(110)
    for _ in range(300):
        f = _fragment_case(rng, to_mu=False)
        w = random_lasso(rng, ("p", "q"))
        bound = len(w.prefix) + (F.tree_size(f) + 2) * len(w.period)
        b = P.canonicalize(f)
        hit = False
        for t in range(bound + 1):
            if b is P.FALSE_B:
                hit = True
                break
            b = P.canonicalize(af_ext(P.to_formula(b), [w.letter(t)]))
        assert hit == (not holds(f, w, 0)), (f, w)
