import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastdra import formula as F
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.lasso import (LassoWord, _program, _run, format_word, holds,
                           naive_holds, parse_word)

parse = F.parse


def test_parse_format_round_trip():
    for text in ["{p} ; {p,q}", "; {}", "{},{p} ; {q},{}", "; {p},{}"]:
        w = parse_word(text)
        assert parse_word(format_word(w)) == w


def test_parse_word_normalizes():
    w = parse_word("{q,p} ; {p}")
    assert w.prefix == (frozenset({"p", "q"}),)
    assert w.period == (frozenset({"p"}),)


def test_parse_word_rejects_empty_period():
    with pytest.raises(ValueError):
        parse_word("{p} ;")


@pytest.mark.parametrize("text", [
    "; {p q}", "; {p,,q}", "; {p,}", "; {,}", "{,p} ; {}", "{p},{q r} ; {}",
    "{p}, ; {q}", "{p} ; {q},", "{p} ; {q} ,", "{p},{q}, ; {}"])
def test_parse_word_rejects_malformed_names(text):
    # an empty entry or a space inside a name is not one proposition, and
    # a comma between letters must have a letter after it
    with pytest.raises(ValueError, match="bad letter"):
        parse_word(text)


def test_parse_word_names_and_empty_letters():
    w = parse_word("{ P , q_1 },{} ; { }")
    assert w.prefix == (frozenset({"P", "q_1"}), frozenset())
    assert w.period == (frozenset(),)


def test_letter_and_suffix():
    w = parse_word("{p} ; {q},{}")
    assert w.letter(0) == frozenset({"p"})
    assert w.letter(1) == frozenset({"q"})
    assert w.letter(2) == frozenset()
    assert w.letter(3) == frozenset({"q"})
    s = w.suffix(2)
    assert s.letter(0) == frozenset()
    assert s.letter(1) == frozenset({"q"})


def test_suffix_identifies_positions_with_equal_futures():
    # equal suffixes are equal keys of the entailed-set walk
    w = parse_word("{p} ; {q},{}")
    assert w.suffix(1) == w.suffix(3) == w.suffix(5)
    assert hash(w.suffix(1)) == hash(w.suffix(5))
    assert w.suffix(0) != w.suffix(1)
    assert w.suffix(1) != w.suffix(2)


def test_holds_frozen_example():
    w = parse_word("{p},{p} ; {q},{}")
    assert [holds(parse("p U q"), w, t) for t in range(6)] == [
        True, True, True, False, True, False]


@pytest.mark.parametrize("text,word,t,expect", [
    ("Y p", "; {p}", 0, False),
    ("Y tt", "; {}", 0, False),
    ("wY ff", "; {p}", 0, True),
    ("p S q", "{q},{p} ; {p}", 1, True),
    ("p S q", "{q},{p} ; {p}", 0, True),
    ("p S q", "{},{p} ; {p}", 1, False),
    ("H p", "{p} ; {p}", 2, True),
    ("H p", "{q} ; {p}", 2, False),
    ("G p", "; {p}", 0, True),
    ("G p", "; {p},{}", 0, False),
    ("F q", "{p} ; {q},{}", 0, True),
    ("p W ff", "; {p}", 0, True),
    ("p M q", "{q} ; {}", 0, False),
    ("O q", "{q} ; {}", 3, True),
])
def test_holds_frozen(text, word, t, expect):
    assert holds(parse(text), parse_word(word), t) is expect


# A word on which each strong operator is false at 0 and its weak twin true.
_TWIN_WITNESS = {F.UNTIL: "; {p}", F.SRELEASE: "; {q}", F.YESTERDAY: "; {p}",
                 F.SINCE: "; {p}", F.BACK: "; {q}"}


def test_twin_table_against_naive_holds():
    # F.WEAK_OF pairs each strong operator with its weak twin: the strong
    # one implies the weak one, and they differ on the witness word, under
    # the independent evaluator; holds reads the weak twin's initial bit
    # from the table and must agree there.
    assert set(F.WEAK_OF) == set(_TWIN_WITNESS)
    assert F.STRONG_OF == {w: s for s, w in F.WEAK_OF.items()}
    p, q = parse("p"), parse("q")
    rng = random.Random(19)
    words = [random_lasso(rng, ("p", "q"), max_prefix=3, max_cycle=3)
             for _ in range(100)]
    for strong_kind, weak_kind in F.WEAK_OF.items():
        strong, weak = (
            F.make(k, p, q if k in F.BINARY_TEMPORAL_KINDS else None)
            for k in (strong_kind, weak_kind))
        for w in words:
            for t in range(len(w.prefix) + 2 * len(w.period)):
                assert not naive_holds(strong, w, t) or naive_holds(weak, w, t)
        w = parse_word(_TWIN_WITNESS[strong_kind])
        assert (naive_holds(strong, w, 0), naive_holds(weak, w, 0)) == (
            False, True), (strong, weak)
        assert (holds(strong, w, 0), holds(weak, w, 0)) == (False, True)


def test_negative_position_rejected():
    f, w = parse("Y p"), parse_word("{p} ; {}")
    with pytest.raises(ValueError):
        holds(f, w, -1)
    with pytest.raises(ValueError):
        naive_holds(f, w, -1)


def test_suffix_shift():
    rng = random.Random(7)
    for _ in range(150):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=0)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(5)
        # future-only truth is invariant under explicit suffixing
        assert holds(f, w, t) == holds(f, w.suffix(t), 0)


def test_holds_agrees_with_naive():
    rng = random.Random(9)
    for _ in range(300):
        f = random_formula_bounded(rng, ("p", "q"), max_size=6, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        t = rng.randrange(6)
        assert holds(f, w, t) == naive_holds(f, w, t), (f, w, t)


_letters = st.frozensets(st.sampled_from(["p", "q"]))


@given(st.lists(_letters, max_size=3), st.lists(_letters, min_size=1,
                                                max_size=3))
def test_word_round_trip_any(prefix, period):
    w = LassoWord(tuple(prefix), tuple(period))
    assert parse_word(format_word(w)) == w


def test_word_is_hashable_and_frozen():
    w = parse_word("{p} ; {q}")
    assert w == LassoWord(w.prefix, w.period)
    with pytest.raises(AttributeError):
        w.prefix = ()


def test_forward_rejects_unstable_state():
    # p S q on {q} ; {p},{} is 1,1,0 then 0 forever: a frame that starts at
    # position 1, before the since has settled, sees laps 10 and 00.  The
    # check raises explicitly and so also holds under ``python -O``.
    f, w = parse("p S q"), parse_word("{q} ; {p},{}")
    with pytest.raises(AssertionError):
        _run(_program(f), w, 1)
    assert _run(_program(f), w, 3) == 0b11


def test_holds_golden():
    # the truth of 2,000 seeded (formula, word) pairs, with up to three past
    # subformulas, prefixes up to 4 and cycles up to 5 letters, at positions
    # t < |u| + 4|v|: the frame start |u| + past_depth * |v| plus one lap
    rng = random.Random(12)
    digest = hashlib.sha256()
    for _ in range(2000):
        f = random_formula_bounded(rng, ("p", "q", "r"), max_size=10,
                                   max_past=3, depth=4)
        w = random_lasso(rng, ("p", "q", "r"), max_prefix=4, max_cycle=5)
        bits = [holds(f, w, t)
                for t in range(len(w.prefix) + 4 * len(w.period))]
        digest.update(("%s\n" % "".join("01"[b] for b in bits)).encode())
    assert digest.hexdigest() == (
        "4f595da7db05f232e118707dd3beced79db2e372530e14f6f569c1435cd53d92")


_LEAVES = (F.make(F.TRUE), F.make(F.FALSE), F.make(F.PROP, name="p"),
           F.make(F.NPROP, name="p"), F.make(F.PROP, name="q"),
           F.make(F.NPROP, name="q"))
_BINARY = (F.AND, F.OR, F.UNTIL, F.WUNTIL, F.RELEASE, F.SRELEASE,
           F.SINCE, F.WSINCE, F.BACK, F.WBACK)


def _nested_past(rng, depth=4, past=4, leaves=_LEAVES, chain=3):
    """A formula of syntax depth at most ``depth``, counting a chain of up
    to ``chain`` unary operators such as ``Y Y Y`` once, with at most
    ``past`` past operators on any path."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    if rng.random() < 0.5:
        ops = []
        for _ in range(rng.randint(1, chain)):
            ops.append(rng.choice(
                (F.NEXT, F.YESTERDAY, F.WYESTERDAY) if past else (F.NEXT,)))
            past -= ops[-1] != F.NEXT
        g = _nested_past(rng, depth - 1, past, leaves, chain)
        for op in ops:
            g = F.make(op, g)
        return g
    op = rng.choice(_BINARY if past else _BINARY[:6])
    past -= op in _BINARY[6:]
    return F.make(op, _nested_past(rng, depth - 1, past, leaves, chain),
                  _nested_past(rng, depth - 1, past, leaves, chain))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_holds_agrees_with_naive_on_deep_past(seed):
    # past depth up to 4 puts the frame's start T up to |u| + 4|v|, and a
    # position up to |u| + 3|v| reads past T + 2|v| when the depth is 0
    rng = random.Random(seed)
    f = _nested_past(rng)
    w = random_lasso(rng, ("p", "q"), max_prefix=4, max_cycle=6)
    t = rng.randint(0, len(w.prefix) + 3 * len(w.period))
    assert holds(f, w, t) == naive_holds(f, w, t)


# Eight propositions, some named like the evaluator's own variables: names
# are data, never looked up as anything else.
_WIDE = ("full", "lap", "head", "masks", "x0", "x1", "vals", "names")
_WIDE_LEAVES = (tuple(F.make(F.PROP, name=p) for p in _WIDE)
                + tuple(F.make(F.NPROP, name=p) for p in _WIDE))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_holds_agrees_with_naive_deep_and_wide(seed):
    # Y/wY/X chains of up to six reach past depth 6, so the frame starts at
    # up to |u| + 6|v|; positions go a lap beyond its end T + 2|v|
    rng = random.Random(seed)
    f = _nested_past(rng, past=6, leaves=_WIDE_LEAVES, chain=6)
    w = random_lasso(rng, _WIDE, max_prefix=4, max_cycle=6)
    T = len(w.prefix) + F.past_depth(f) * len(w.period)
    t = rng.randint(0, T + 3 * len(w.period))
    assert holds(f, w, t) == naive_holds(f, w, t)
