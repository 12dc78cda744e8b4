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
import tempfile
import time

import pytest

from pastdra import formula as F
from pastdra import proplogic as P
from pastdra.after import af_ext
from pastdra.automata import accepts, degeneralize, minimize, widen
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.lasso import holds, naive_holds
from pastdra.rewrites import (compose_sequence, enumerate_past_sets,
                              is_saturated, rewrite_mu_limit,
                              rewrite_nu_limit, rewrite_set, rewrite_under)
from pastdra.stability import check_master, entailed_seq, limit_sets
from pastdra.translate import (TranslationContext, _product,
                               build_wc_automaton, translate,
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


# The cascade products that ``translate(..., labels=True)`` minimizes,
# widened to {p, q, r}.
CORPUS_HOA_SHA256 = (
    "e2d7591196f9ad6dd2d9e6e0e93a449d7858ce115d6efccc41bcee4331ce8208")
CORPUS_HOA_BYTES = 330572
# The same text with every state label dropped: states, edges and
# acceptance, as the product is built by default.  A change that only
# edits labels leaves these two as they are.
CORPUS_STRUCTURE_SHA256 = (
    "cda48944c4b2be46be0f097bb43f848cb5a28e553e6361dc4d9a7a77004bf9c2")
CORPUS_STRUCTURE_BYTES = 184412
# Their plain Rabin form, ``degeneralize`` of the product.
CORPUS_RABIN_HOA_SHA256 = (
    "e369255ab3cb273f50c3b8427283a1a0e35773046d25c7c5141a9ce77d6c227c")
CORPUS_RABIN_HOA_BYTES = 424091
CORPUS_RABIN_STRUCTURE_SHA256 = (
    "af8a21b77722740b07584baa75dbf16cb1738fc3bec4348d88fc22373394da50")
CORPUS_RABIN_STRUCTURE_BYTES = 260746
# The Moore quotients that ``translate`` returns (298 states and 129 pairs,
# against the products' 847 and 186), then their plain Rabin form (335
# states, against 920).
CORPUS_REDUCED_HOA_SHA256 = (
    "bf40754c75503113ab728357e018adc94cfcd61336aa760e3e24fd9af482a165")
CORPUS_REDUCED_HOA_BYTES = 95675
CORPUS_REDUCED_STRUCTURE_SHA256 = (
    "8955a888331e5cb98869903888d9f28a9f7213a97b0f92fd09ca3ff78df017a8")
CORPUS_REDUCED_STRUCTURE_BYTES = 55679
CORPUS_REDUCED_RABIN_HOA_SHA256 = (
    "764e394bf2648176af537dda023c6a7b3592eeb0d91e6769878cf25b317839cc")
CORPUS_REDUCED_RABIN_HOA_BYTES = 113268
CORPUS_REDUCED_RABIN_STRUCTURE_SHA256 = (
    "b52b34a52f1e3b66913868bc50ba00e02aba9dcb8de666af4c12039581e6195a")
CORPUS_REDUCED_RABIN_STRUCTURE_BYTES = 64928

# Each script prints a JSON list of four texts, labelled when its argument
# is ``labels``: the HOA of every cascade product, of its degeneralization,
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
labels = sys.argv[1:] == ["labels"]
out = []
for phi in %s:
    ap = sorted(props(phi).union(%r))
    narrow = _product(phi, max_states=200000, labels=labels)
    raw, reduced = widen(narrow, ap), widen(minimize(narrow), ap)
    out.append([export_hoa(auto, name=str(phi)) for auto in
                (raw, degeneralize(raw), reduced, degeneralize(reduced))])
sys.stdout.write(json.dumps(["".join(form) for form in zip(*out)]))
"""
_CORPUS_HOA_SCRIPT = _HOA_SCRIPT % ("map(parse, json.load(sys.stdin))",
                                    list(AP3))


def _hoa_in_fresh_interpreter(script, stdin=b""):
    """The texts written by ``script``, each as (default text, labelled
    text); the two modes run side by side, each in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(F.__file__)))
    runs = []
    for mode in ([], ["labels"]):
        out, err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        proc = subprocess.Popen(
            [sys.executable, "-c", script] + mode, stdin=subprocess.PIPE,
            stdout=out, stderr=err, env=dict(os.environ, PYTHONPATH=src))
        proc.stdin.write(stdin)
        proc.stdin.close()
        runs.append((proc, out, err))
    texts = []
    for proc, out, err in runs:
        with out, err:
            code = proc.wait(timeout=600)
            err.seek(0)
            assert code == 0, err.read().decode()
            out.seek(0)
            texts.append(json.loads(out.read()))
    return [(plain.encode(), labelled.encode())
            for plain, labelled in zip(*texts)]


def _state_counts(text):
    return [int(n) for n in re.findall(rb"^States: (\d+)", text, re.M)]


def _assert_golden(pair, structure_bytes, structure_sha, text_bytes,
                   text_sha):
    plain, labelled = pair
    assert len(plain) == structure_bytes
    assert hashlib.sha256(plain).hexdigest() == structure_sha
    assert len(labelled) == text_bytes
    assert hashlib.sha256(labelled).hexdigest() == text_sha
    # labels only name the states: dropping them gives the default text
    assert re.sub(rb'^(State: \d+) "[^"\n]*"', rb"\1", labelled,
                  flags=re.M) == plain


@pytest.fixture(scope="module")
def corpus_hoa():
    # The corpus is translated in a fresh interpreter: interning order
    # steers the BDD variable order and with it the state labels, and the
    # tests that run before this one intern formulas of their own.
    return _hoa_in_fresh_interpreter(_CORPUS_HOA_SCRIPT,
                                     json.dumps(CORPUS).encode())


def test_corpus_hoa_is_golden(corpus_hoa):
    # Refactors must leave the automata byte-identical; a change that alters
    # them on purpose updates the constants above and says why.
    _assert_golden(corpus_hoa[0], CORPUS_STRUCTURE_BYTES,
                   CORPUS_STRUCTURE_SHA256, CORPUS_HOA_BYTES,
                   CORPUS_HOA_SHA256)


def test_corpus_rabin_hoa_is_golden(corpus_hoa):
    _assert_golden(corpus_hoa[1], CORPUS_RABIN_STRUCTURE_BYTES,
                   CORPUS_RABIN_STRUCTURE_SHA256, CORPUS_RABIN_HOA_BYTES,
                   CORPUS_RABIN_HOA_SHA256)


def test_corpus_reduced_hoa_is_golden(corpus_hoa):
    _assert_golden(corpus_hoa[2], CORPUS_REDUCED_STRUCTURE_BYTES,
                   CORPUS_REDUCED_STRUCTURE_SHA256, CORPUS_REDUCED_HOA_BYTES,
                   CORPUS_REDUCED_HOA_SHA256)


def test_corpus_reduced_rabin_hoa_is_golden(corpus_hoa):
    _assert_golden(corpus_hoa[3], CORPUS_REDUCED_RABIN_STRUCTURE_BYTES,
                   CORPUS_REDUCED_RABIN_STRUCTURE_SHA256,
                   CORPUS_REDUCED_RABIN_HOA_BYTES,
                   CORPUS_REDUCED_RABIN_HOA_SHA256)


RANDOM_HOA_SHA256 = (
    "ae3751686f90381895a2a0cb0b5cf5daa7895ddf204c4454e00886d23a5527fc")
RANDOM_HOA_BYTES = 748058
RANDOM_STRUCTURE_SHA256 = (
    "b5e7839206e5e604b0f1edf9547473b03e50e6c7050ccb560615fede8abaa7c6")
RANDOM_STRUCTURE_BYTES = 575214
RANDOM_RABIN_HOA_SHA256 = (
    "dae7ab9524841dff577633946c496f872dd9f1a29c791da6c86fcf3f4a7ddb2d")
RANDOM_RABIN_HOA_BYTES = 779940
RANDOM_RABIN_STRUCTURE_SHA256 = (
    "0554652493f014b93f94c35b4fc197bf912d3b04f1dad0bb633819986de068e7")
RANDOM_RABIN_STRUCTURE_BYTES = 597641
# Their Moore quotients (2,011 states, against the products' 3,261), then
# the quotients' plain Rabin form (2,059 states, against 3,359).
RANDOM_REDUCED_HOA_SHA256 = (
    "438f018a8487ced86910c9cdec7c51d76abf748b28ac2822828bfb9ed034c01b")
RANDOM_REDUCED_HOA_BYTES = 487971
RANDOM_REDUCED_STRUCTURE_SHA256 = (
    "516b25dd555af1427ac1c89cdafc449875d2aebe4554cce9e36561fc894c7d31")
RANDOM_REDUCED_STRUCTURE_BYTES = 399738
RANDOM_REDUCED_RABIN_HOA_SHA256 = (
    "518bf3af65ea24ec54c0538778fd667876404921ed34e87ab3c207d669682cfd")
RANDOM_REDUCED_RABIN_HOA_BYTES = 501840
RANDOM_REDUCED_RABIN_STRUCTURE_SHA256 = (
    "28fb6da170bc9a87264a4b62771c946272c8f6d6b58a2bec8a5f10ed85611dc9")
RANDOM_REDUCED_RABIN_STRUCTURE_BYTES = 409695

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
                   RANDOM_STRUCTURE_SHA256, RANDOM_HOA_BYTES,
                   RANDOM_HOA_SHA256)


def test_random_rabin_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[1], RANDOM_RABIN_STRUCTURE_BYTES,
                   RANDOM_RABIN_STRUCTURE_SHA256, RANDOM_RABIN_HOA_BYTES,
                   RANDOM_RABIN_HOA_SHA256)


def test_random_reduced_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[2], RANDOM_REDUCED_STRUCTURE_BYTES,
                   RANDOM_REDUCED_STRUCTURE_SHA256, RANDOM_REDUCED_HOA_BYTES,
                   RANDOM_REDUCED_HOA_SHA256)


def test_random_reduced_rabin_hoa_is_golden(random_hoa):
    _assert_golden(random_hoa[3], RANDOM_REDUCED_RABIN_STRUCTURE_BYTES,
                   RANDOM_REDUCED_RABIN_STRUCTURE_SHA256,
                   RANDOM_REDUCED_RABIN_HOA_BYTES,
                   RANDOM_REDUCED_RABIN_HOA_SHA256)


# The deciding cases of the benchmark's ``past_width`` workload: per case
# the states of its Moore quotient, then the bytes and sha256 of the
# labelled HOA text of its cascade product and of the product's structure,
# the default text.
PAST_WIDTH_GOLDEN = {
    "G(p <-> O q1)": (
        3, 2467,
        "c9c2b2bb54b45e439dbafca28fff1576a38f4f889bc90c4ee886b089853e4f1e",
        756,
        "045dc3e0fdf4eccc0e762c381e142641219b47a65038a47b5c9e8ee3ef7c02d3"),
    "G(p <-> O q1 & O q2)": (
        5, 21309,
        "9ce6b0c8fb2338da5f58a344077c595869a9acadbd1bd2928262d5764e09d2d0",
        2672,
        "239c3ac3a5be3e09551276160c832144235b1fa26fbf731e0cd32d523b19c0c1"),
    "G(p <-> Y q)": (
        3, 2233,
        "9d41ac1c82dffe4494bceacb9e858de1ec855da1592c7ad9756e4e4bb529912f",
        750,
        "8160772264a648563f7bcff5c602baf5cf35257a148c07e65cb998ec9b0a5b37"),
    "G(p <-> Y Y q)": (
        5, 13203,
        "33606a4d7b8c6cac82c2ad7b5717efe8b0cfde360c30c9429f6e09e6b2e38c23",
        1253,
        "e9ae8c237b4d8e7454f03789007261eb46c82c598a064f708d84851510078e79"),
}
# The same for the quotient, what ``translate`` returns: bytes and sha256
# of its labelled text and of its structure (products of 9 and 17 states).
PAST_WIDTH_REDUCED_GOLDEN = {
    "G(p <-> O q1)": (
        960,
        "9c7a2eca0a2912f0654d7192c3ce2ed4becc741c55442eaa9337995473b2cd1c",
        393,
        "758ee3ce1f8bb0eb48eb7deea6a674d834e4c2506c27969d3bc4f037d1a3c097"),
    "G(p <-> O q1 & O q2)": (
        8311,
        "1706fe6f51bbca5af4ca8f4e9683ba40088dc6d9aa1d9280aa4bd1d1fbe51099",
        925,
        "b9bb788dcf99d8d69cf7cd75fa520e04856f4750d455867abe75f787162ea805"),
    "G(p <-> Y q)": (
        871,
        "884e81df6493125da205998b4f32572472a79a790578aa6d6da0b91870bef283",
        387,
        "dd27048bf7b813ac659b8cf6211d4f967fd3610d1ecb6f03e7683a4c796b65ab"),
    "G(p <-> Y Y q)": (
        5127,
        "1b610afe60b0fcb8ddb3781398c5396a6fbbec8cf6bab6d43333c9b977f3864d",
        498,
        "6d67ebf7f2eec0071c7bdfdfae4731bc9330cbbfded1b2f85c75df49f5db86ed"),
}
_PAST_WIDTH_SCRIPT = """
import json, sys
from pastdra import export_hoa, parse
from pastdra.automata import minimize, widen
from pastdra.translate import _product
phi = parse(%r)
raw = _product(phi, labels=sys.argv[1:] == ["labels"])
sys.stdout.write(json.dumps([export_hoa(widen(auto, sorted(%r)),
                                        name=str(phi))
                             for auto in (raw, minimize(raw))]))
"""


@pytest.mark.parametrize("text", sorted(PAST_WIDTH_GOLDEN))
def test_past_width_hoa_is_golden(text):
    # Each case in a fresh interpreter, as the benchmark translates it.
    states, text_bytes, text_sha, structure_bytes, structure_sha = \
        PAST_WIDTH_GOLDEN[text]
    ap = ["p"] + sorted(F.props(F.parse(text)) - {"p"})
    raw, reduced = _hoa_in_fresh_interpreter(_PAST_WIDTH_SCRIPT % (text, ap))
    assert _state_counts(reduced[0]) == [states]
    _assert_golden(raw, structure_bytes, structure_sha, text_bytes, text_sha)
    text_bytes, text_sha, structure_bytes, structure_sha = \
        PAST_WIDTH_REDUCED_GOLDEN[text]
    _assert_golden(reduced, structure_bytes, structure_sha, text_bytes,
                   text_sha)


def test_golden_automata_are_no_larger_than_degeneralized(corpus_hoa,
                                                          random_hoa):
    # each form no larger than its degeneralization, and each quotient no
    # larger than its product
    for forms in (corpus_hoa, random_hoa):
        sizes = [_state_counts(plain) for plain, _ in forms]
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
