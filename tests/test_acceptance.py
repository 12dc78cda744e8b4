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
from dataclasses import replace

import pytest

from pastdra import formula as F
from pastdra import proplogic as P
from pastdra.after import af_ext
from pastdra.automata import accepts, degeneralize, minimize, widen
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.hoa import export_hoa, parse_hoa
from pastdra.lasso import holds, naive_holds
from pastdra.rewrites import (enumerate_past_sets, is_saturated,
                              rewrite_mu_limit, rewrite_nu_limit, rewrite_set,
                              rewrite_under)
from pastdra.stability import _walk, check_master, limit_sets
from pastdra.translate import (TranslationContext, _product,
                               build_wc_automaton, explain, translate,
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
        _, composed, _ = next(itertools.islice(_walk(f, w), t, None))
        g = rewrite_under(f, composed)
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
        rabin = degeneralize(auto)
        for _ in range(200):
            w = random_lasso(rng, AP3, max_prefix=4, max_cycle=4)
            assert accepts(auto, w) == holds(f, w, 0) == accepts(rabin, w), (
                text, w)
    assert time.monotonic() - start < 600


def _bfs_numbers(auto, columns):
    """The states of ``auto`` in BFS order over ``columns``, and the number
    of each state in that order."""
    order, number = [auto.init], {auto.init: 0}
    for q in order:
        for c in columns:
            if auto.trans[q][c] not in number:
                number[auto.trans[q][c]] = len(order)
                order.append(auto.trans[q][c])
    return order, number


@pytest.mark.parametrize("extra, narrowed", [((), 49), (("a", "s"), 55)],
                         ids=["pqr", "apqrs"])
def test_unread_propositions_change_no_transition(corpus_automata, extra,
                                                  narrowed):
    # A formula translated over a wider alphabet is its translation over
    # its own propositions, each letter read as its restriction to them:
    # the same states and pairs, and row i equal to the narrow row at the
    # restriction of letter i, compared after a BFS renumbering.  With
    # "a", the propositions the corpus reads are not the first ones.
    wide_ap = sorted(AP3 + extra)
    for text in CORPUS:
        ap = sorted(F.props(parse(text)))
        if len(ap) == len(wide_ap):
            continue
        narrowed -= 1
        wide = (translate(parse(text), wide_ap) if extra
                else corpus_automata[text])
        narrow = translate(parse(text), ap)
        project = [narrow.letter_index[s & frozenset(ap)]
                   for s in wide.letters]
        embed = [wide.letter_index[s] for s in narrow.letters]
        wide_order, wn = _bfs_numbers(wide, embed)
        narrow_order, nn = _bfs_numbers(narrow, range(len(narrow.letters)))
        assert len(wide_order) == wide.n_states() == narrow.n_states(), text
        for qw, qn in zip(wide_order, narrow_order):
            assert [wn[q] for q in wide.trans[qw]] == [
                nn[narrow.trans[qn][c]] for c in project], text

        def pairs(auto, number):
            return [(sorted(number[q] for q in avoid),
                     [sorted(number[q] for q in meet) for meet in meets])
                    for avoid, meets in auto.acc[1]]
        assert pairs(wide, wn) == pairs(narrow, nn), text
    assert narrowed == 0


def test_negated_future_spec_translates():
    # 64 guesses with up to 6 recurrence runners each.  One counter per
    # guess in the product multiplied past the default state cap; without
    # them the product has 1,422 states, and its Moore quotient 101.
    from certificate import certify     # see test_minimize_is_certified
    f = parse("!(%s)" % FUTURE_HISTORY_SPEC)
    raw = _product(f)
    raw.audit()
    assert raw.n_states() == 1422 and len(raw.acc[1]) == 64
    assert max(len(meets) for _, meets in raw.acc[1]) == 6
    auto = translate(f, list(AP3))
    auto.audit()
    assert auto.n_states() == 101 and len(auto.acc[1]) == 64
    certify(raw, auto)
    rng = random.Random(106)
    for _ in range(200):
        w = random_lasso(rng, AP3, max_prefix=4, max_cycle=4)
        assert accepts(auto, w) == holds(f, w, 0), w


# The cascade products that ``translate`` minimizes, widened to {p, q, r}:
# states, edges and acceptance.
CORPUS_STRUCTURE_SHA256 = (
    "f2a94d6b7b2b90784c88549c0b4afa8e3a58e14a8dc1083f4fd1e971c6d55982")
CORPUS_STRUCTURE_BYTES = 92221
# Their plain Rabin form, ``degeneralize`` of the product.
CORPUS_RABIN_STRUCTURE_SHA256 = (
    "c06c16652ff91640102370fc61792d12b8e4085a55fad018dcffb88b4b8e059a")
CORPUS_RABIN_STRUCTURE_BYTES = 160671
# The Moore quotients that ``translate`` returns (298 states and 129 pairs,
# against the products' 847 and 186), then their plain Rabin form (335
# states, against 920).
CORPUS_REDUCED_STRUCTURE_SHA256 = (
    "f09183894f0f84b8a46034adfd66a590ea25dfcc4b99b32bd10e1317d0d65d0e")
CORPUS_REDUCED_STRUCTURE_BYTES = 22780
CORPUS_REDUCED_RABIN_STRUCTURE_SHA256 = (
    "9d85defcb118d1849cf7f0dd07c633356eac738ed68e9dbf0bdb012d68a14fd2")
CORPUS_REDUCED_RABIN_STRUCTURE_BYTES = 28033

# Each script prints a JSON list of four texts: the HOA of every cascade
# product, of its degeneralization,
# of its Moore quotient (what ``translate`` returns) and of the quotient's
# degeneralization, each widened to the script's alphabet.  ``minimize``,
# ``widen`` and ``degeneralize`` intern nothing, so the first text is what
# building the product alone writes.
_HOA_SCRIPT = """
import json, random, sys
from pastdra import degeneralize, export_hoa, parse
from pastdra.automata import minimize, widen
from pastdra.formula import props
from pastdra.gen import random_formula_bounded
from pastdra.translate import _product
out = []
for phi in %s:
    ap = sorted(props(phi).union(%r))
    narrow = _product(phi, max_states=200000)
    raw, reduced = widen(narrow, ap), widen(minimize(narrow), ap)
    out.append([export_hoa(auto, name=str(phi)) for auto in
                (raw, degeneralize(raw), reduced, degeneralize(reduced))])
sys.stdout.write(json.dumps(["".join(form) for form in zip(*out)]))
"""
_CORPUS_HOA_SCRIPT = _HOA_SCRIPT % ("map(parse, json.load(sys.stdin))",
                                    list(AP3))


def _hoa_in_fresh_interpreter(script, stdin=b""):
    """The texts written by ``script``, run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(F.__file__)))
    out = subprocess.run([sys.executable, "-c", script], input=stdin,
                         capture_output=True, timeout=600,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr.decode()
    return [text.encode() for text in json.loads(out.stdout)]


def _state_counts(text):
    return [int(n) for n in re.findall(rb"^States: (\d+)", text, re.M)]


def _assert_golden(text, structure_bytes, structure_sha):
    assert len(text) == structure_bytes
    assert hashlib.sha256(text).hexdigest() == structure_sha


@pytest.fixture(scope="module")
def corpus_hoa():
    # The corpus is translated in a fresh interpreter: interning order
    # steers the BDD variable order and with it the order of pairs and meet
    # sets, and the tests that run before this one intern formulas of their
    # own.
    return _hoa_in_fresh_interpreter(_CORPUS_HOA_SCRIPT,
                                     json.dumps(CORPUS).encode())


def test_corpus_hoa_is_golden(corpus_hoa):
    # Refactors must leave the automata byte-identical; a change that alters
    # them on purpose updates the constants above and says why.
    _assert_golden(corpus_hoa[0], CORPUS_STRUCTURE_BYTES,
                   CORPUS_STRUCTURE_SHA256)


def test_corpus_rabin_hoa_is_golden(corpus_hoa):
    _assert_golden(corpus_hoa[1], CORPUS_RABIN_STRUCTURE_BYTES,
                   CORPUS_RABIN_STRUCTURE_SHA256)


def test_corpus_reduced_hoa_is_golden(corpus_hoa):
    _assert_golden(corpus_hoa[2], CORPUS_REDUCED_STRUCTURE_BYTES,
                   CORPUS_REDUCED_STRUCTURE_SHA256)


def test_corpus_reduced_rabin_hoa_is_golden(corpus_hoa):
    _assert_golden(corpus_hoa[3], CORPUS_REDUCED_RABIN_STRUCTURE_BYTES,
                   CORPUS_REDUCED_RABIN_STRUCTURE_SHA256)


RANDOM_STRUCTURE_SHA256 = (
    "a957eb678dd75feae04d2617adf71aea228adbb5298a846ae8f2c28e3d83386f")
RANDOM_STRUCTURE_BYTES = 215226
RANDOM_RABIN_STRUCTURE_SHA256 = (
    "6d478de525894c11ee03bf272e9bdbca39e426fa619afd6e036ca8e554d3a958")
RANDOM_RABIN_STRUCTURE_BYTES = 227069
# Their Moore quotients (2,011 states, against the products' 3,261), then
# the quotients' plain Rabin form (2,059 states, against 3,359).
RANDOM_REDUCED_STRUCTURE_SHA256 = (
    "db6b6a863fb4d5db22c098707ab79631293ee3429ca9825866adb535d5486eec")
RANDOM_REDUCED_STRUCTURE_BYTES = 174750
RANDOM_REDUCED_RABIN_STRUCTURE_SHA256 = (
    "8ee119e1688fa0a0ba86fb58396f7e5af8d0a126d893b4f8576560195be6f899")
RANDOM_REDUCED_RABIN_STRUCTURE_BYTES = 179523

# 600 seeded random formulas with up to two past operators each, drawn
# lazily, so that each is translated before the next is drawn: the atoms of
# one translation precede the next.
_RANDOM_FORMULAS = (
    "(random_formula_bounded(rng, %r, max_size=6, max_past=2)"
    " for rng in (random.Random(1), random.Random(2)) for _ in range(300))"
    % (AP3,))
_RANDOM_HOA_SCRIPT = _HOA_SCRIPT % (_RANDOM_FORMULAS, list(AP3))


@pytest.fixture(scope="module")
def random_hoa():
    return _hoa_in_fresh_interpreter(_RANDOM_HOA_SCRIPT)


def test_random_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[0], RANDOM_STRUCTURE_BYTES,
                   RANDOM_STRUCTURE_SHA256)


def test_random_rabin_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[1], RANDOM_RABIN_STRUCTURE_BYTES,
                   RANDOM_RABIN_STRUCTURE_SHA256)


def test_random_reduced_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[2], RANDOM_REDUCED_STRUCTURE_BYTES,
                   RANDOM_REDUCED_STRUCTURE_SHA256)


def test_random_reduced_rabin_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[3], RANDOM_REDUCED_RABIN_STRUCTURE_BYTES,
                   RANDOM_REDUCED_RABIN_STRUCTURE_SHA256)


# The deciding cases of the benchmark's ``past_width`` workload: per case
# the states of its Moore quotient, then the bytes and sha256 of the HOA
# text of its cascade product.
PAST_WIDTH_GOLDEN = {
    "G(p <-> O q1)": (
        3, 419,
        "71b7f09e8edd280b13c3c929caf20824b7ddd10592a221b42490a00dd5fd81c4"),
    "G(p <-> O q1 & O q2)": (
        5, 823,
        "044158a2752b54a09ddaf71a54862a65e472e71831ad88aa0c65c9e65298e2c8"),
    "G(p <-> Y q)": (
        3, 413,
        "258ee21150f7fb41902c02e80d43fde700c59779d0a95b425f0b7c6b4e819c87"),
    "G(p <-> Y Y q)": (
        5, 628,
        "8047bda6ffd7f1bbbc627ccfaae99c00081c3b3ac7ca1877234f02c5991643cd"),
}
# The same for the quotient, what ``translate`` returns (products of 9 and
# 17 states).
PAST_WIDTH_REDUCED_GOLDEN = {
    "G(p <-> O q1)": (
        272,
        "40cf29adee04bf8dbcf15e3810d4c0cadf8b26e28204a1d1bd1234f3b7836998"),
    "G(p <-> O q1 & O q2)": (
        372,
        "82074f0c55fc7c786cf6cdb0d06a5c2ca4c0736d494235e987e0a2bd72c5a1c2"),
    "G(p <-> Y q)": (
        266,
        "b1371957e6cdf59be40070d727de9eeb39935fac713ba017c0d4c8565565fd19"),
    "G(p <-> Y Y q)": (
        305,
        "91a52afe36b5bc035163de8ef3788e76e6fae12286c70693bb9e20254e0cbfed"),
}
_PAST_WIDTH_SCRIPT = """
import json, sys
from pastdra import export_hoa, parse
from pastdra.automata import minimize, widen
from pastdra.translate import _product
phi = parse(%r)
raw = _product(phi)
sys.stdout.write(json.dumps([export_hoa(widen(auto, sorted(%r)),
                                        name=str(phi))
                             for auto in (raw, minimize(raw))]))
"""


@pytest.mark.parametrize("text", sorted(PAST_WIDTH_GOLDEN))
def test_past_width_hoa_is_golden(text):
    # Each case in a fresh interpreter, as the benchmark translates it.
    states, structure_bytes, structure_sha = PAST_WIDTH_GOLDEN[text]
    ap = ["p"] + sorted(F.props(F.parse(text)) - {"p"})
    raw, reduced = _hoa_in_fresh_interpreter(_PAST_WIDTH_SCRIPT % (text, ap))
    assert _state_counts(reduced) == [states]
    _assert_golden(raw, structure_bytes, structure_sha)
    _assert_golden(reduced, *PAST_WIDTH_REDUCED_GOLDEN[text])


def test_golden_automata_are_no_larger_than_degeneralized(corpus_hoa,
                                                          random_hoa):
    # each form no larger than its degeneralization, and each quotient no
    # larger than its product
    for forms in (corpus_hoa, random_hoa):
        sizes = [_state_counts(text) for text in forms]
        assert len(set(map(len, sizes))) == 1
        for small, large in ((0, 1), (2, 3), (2, 0), (3, 1)):
            assert all(a <= b for a, b in zip(sizes[small], sizes[large])), (
                small, large)


def test_minimize_is_certified(corpus_automata):
    # translate's output against the product it reduces, on the corpus, the
    # random-golden formulas (drawn as _RANDOM_FORMULAS draws them) and the
    # deciding past_width cases.  Imported here: the benchmark's own tests
    # load this module by its path, without tests/ on sys.path.
    from certificate import certify
    for text, auto in corpus_automata.items():
        certify(widen(_product(parse(text)), AP3), auto)
    cases = [random_formula_bounded(rng, AP3, max_size=6, max_past=2)
             for rng in (random.Random(1), random.Random(2))
             for _ in range(300)]
    cases += [parse(text) for text in PAST_WIDTH_GOLDEN]
    for phi in cases:
        raw = _product(phi)
        certify(raw, minimize(raw))


_ROUND_TRIP_CASES = {
    "corpus": lambda: [(parse(text), AP3) for text in CORPUS],
    "random": lambda: [
        (random_formula_bounded(rng, AP3, max_size=6, max_past=2), AP3)
        for rng in (random.Random(1), random.Random(2)) for _ in range(300)],
    "past_width": lambda: [(parse(text), None) for text in PAST_WIDTH_GOLDEN],
    "wide": lambda: [(parse("G p"), ["p"] + ["x%02d" % i for i in range(12)])],
}


@pytest.mark.parametrize("named", [False, True])
@pytest.mark.parametrize("family", sorted(_ROUND_TRIP_CASES))
def test_hoa_reads_back_what_it_writes(family, named):
    # every translation and its plain Rabin form read back exactly, also
    # with a state name, as parse_hoa keeps one, that holds a newline, a
    # quote and a backslash
    for phi, ap in _ROUND_TRIP_CASES[family]():
        auto = translate(phi, ap, max_states=200000)
        for a in (auto, degeneralize(auto)):
            if named:
                a = replace(a, labels=['x\n"%d\\' % q
                                       for q in range(a.n_states())])
            back = parse_hoa(export_hoa(a, name=str(phi)))
            assert (back.ap, back.init, back.trans, back.labels,
                    back.acc) == (a.ap, a.init, a.trans, a.labels,
                                  a.acc), phi


def test_explain_verdict_is_the_automaton_verdict(corpus_automata):
    # explain walks the product's step along the word: its verdict is what
    # the minimized automaton and the evaluator say, on seeded words over
    # the corpus and on the deciding past_width cases
    cases = list(corpus_automata.items())
    cases += [(text, translate(parse(text))) for text in PAST_WIDTH_GOLDEN]
    rng = random.Random(107)
    for text, auto in cases:
        phi = parse(text)
        for _ in range(5):
            w = random_lasso(rng, auto.ap, max_prefix=3, max_cycle=3)
            verdict = explain(phi, w)[1]
            assert verdict == accepts(auto, w) == holds(phi, w, 0), (text, w)


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
        bed = build_wc_automaton(TranslationContext(f))
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
