import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastdra import formula as F
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.lasso import (LassoWord, PeriodicBitSeq, _forward, eval_seq,
                           format_word, holds, naive_holds, parse_word)

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


def test_letter_and_suffix():
    w = parse_word("{p} ; {q},{}")
    assert w.letter(0) == frozenset({"p"})
    assert w.letter(1) == frozenset({"q"})
    assert w.letter(2) == frozenset()
    assert w.letter(3) == frozenset({"q"})
    s = w.suffix(2)
    assert s.letter(0) == frozenset()
    assert s.letter(1) == frozenset({"q"})


def test_phase_identifies_positions_with_equal_futures():
    w = parse_word("{p} ; {q},{}")
    assert w.phase(1) == w.phase(3) == w.phase(5)
    assert w.phase(0) != w.phase(1)
    assert w.phase(1) != w.phase(2)


def test_bitseq_canonical():
    # a constant dressed up with a long period collapses
    a = PeriodicBitSeq(3, 2, (True, True, True, True, True))
    b = PeriodicBitSeq(0, 1, (True,))
    assert a == b and hash(a) == hash(b)
    c = PeriodicBitSeq(0, 4, (True, False, True, False))
    d = PeriodicBitSeq(0, 2, (True, False))
    assert c == d
    assert [c.value(t) for t in range(5)] == [True, False, True, False, True]


def test_eval_seq_frozen_example():
    w = parse_word("{p},{p} ; {q},{}")
    seq = eval_seq(parse("p U q"), w)
    assert [seq.value(t) for t in range(6)] == [
        True, True, True, False, True, False]
    assert seq.period == 2


def test_eval_seq_period_divides_cycle():
    rng = random.Random(3)
    for _ in range(100):
        f = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        assert len(w.period) % eval_seq(f, w).period == 0


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


@given(st.integers(0, 6), st.integers(1, 5), st.data())
def test_bitseq_canonicalization_preserves_values(threshold, period, data):
    bits = data.draw(st.lists(st.booleans(), min_size=threshold + period,
                              max_size=threshold + period))
    seq = PeriodicBitSeq(threshold, period, tuple(bits))
    for t in range(threshold + 3 * period):
        assert seq.value(t) == bits[t if t < threshold
                                    else threshold + (t - threshold) % period]
    # minimality of the canonical form
    assert seq.period <= period
    assert seq.threshold <= threshold


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
    # a toggling update is not monotone, so its state never stabilizes; the
    # check raises explicitly and so also holds under ``python -O``
    with pytest.raises(AssertionError):
        _forward(((0, 1, [True]),), lambda prev, a: not prev, False)
