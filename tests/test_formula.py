import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastdra import formula as F
from pastdra.gen import random_formula


_formulas = st.recursive(
    st.sampled_from([F.make(F.TRUE), F.make(F.FALSE),
                     F.make(F.PROP, name="p"), F.make(F.PROP, name="q"),
                     F.make(F.NPROP, name="p")]),
    lambda kids: st.one_of(
        st.builds(partial(F.make, F.NEXT), kids),
        st.builds(partial(F.make, F.YESTERDAY), kids),
        st.builds(partial(F.make, F.WYESTERDAY), kids),
        st.builds(partial(F.make, F.AND), kids, kids),
        st.builds(partial(F.make, F.OR), kids, kids),
        st.builds(partial(F.make, F.UNTIL), kids, kids),
        st.builds(partial(F.make, F.RELEASE), kids, kids),
        st.builds(partial(F.make, F.SINCE), kids, kids),
        st.builds(partial(F.make, F.WBACK), kids, kids),
    ),
    max_leaves=12)


@given(_formulas)
def test_print_parse_is_identity(f):
    assert F.parse(str(f)) is f


def _negate(f):
    # The parser pushes the negation down by dualizing every operator.
    return F.parse("!(%s)" % f)


@given(_formulas)
def test_double_dual_is_identity(f):
    assert _negate(_negate(f)) is f


def test_interning_identity():
    assert F.parse("p U q") is F.parse("p U q")
    assert F.parse("p & q") is not F.parse("q & p")


@pytest.mark.parametrize("text,expected", [
    ("F p", "tt U p"),
    ("G p", "p W ff"),
    ("O p", "tt S p"),
    ("H p", "p wS ff"),
    ("!(p U q)", "!p R !q"),
    ("!(p W q)", "!p M !q"),
    ("!(p S q)", "!p wB !q"),
    ("!(p wS q)", "!p B !q"),
    ("! Y p", "wY !p"),
    ("! wY p", "Y !p"),
    ("!F p", "ff R !p"),
    ("!O p", "ff wB !p"),
    ("p -> q", "!p | q"),
    ("!(p & q)", "!p | !q"),
    ("!!p", "p"),
    ("! tt", "ff"),
])
def test_nnf_eliminations(text, expected):
    assert F.parse(text) is F.parse(expected)


def test_iff_expansion():
    assert F.parse("p <-> q") is F.parse("(!p | q) & (!q | p)")
    assert F.parse("!(p <-> q)") is F.parse("(p & !q) | (q & !p)")


def test_nested_iff_parses_in_linear_work(monkeypatch):
    # Each <-> mentions both operands twice; NNF must not re-walk them.
    calls = [0]
    make = F.make

    def counting(*args, **kwargs):
        calls[0] += 1
        return make(*args, **kwargs)
    monkeypatch.setattr(F, "make", counting)

    def made(levels):
        calls[0] = 0
        F.parse(" <-> ".join("n%d" % i for i in range(levels + 1)))
        return calls[0]
    assert made(16) < 4 * made(8)
    assert F.parse("a <-> b <-> c") is F.parse("a <-> (b <-> c)")


@pytest.mark.parametrize("text,tree", [
    # unary binds tightest, then temporal binaries (right-assoc), & , |
    ("X p U q", "(X p) U q"),
    ("p U q U r", "p U (q U r)"),
    ("p U q & r", "(p U q) & r"),
    ("p & q | r", "(p & q) | r"),
    ("p | q -> r", "(p | q) -> r"),
    ("! p U q", "(!p) U q"),
])
def test_precedence(text, tree):
    assert F.parse(text) is F.parse(tree)


@pytest.mark.parametrize("bad", ["", "p U", "(p", "p )", "p Q q", "Up", "1p"])
def test_parse_errors(bad):
    with pytest.raises(F.ParseError):
        F.parse(bad)


def test_parse_error_position():
    with pytest.raises(F.ParseError) as e:
        F.parse("p & ")
    assert "position" in str(e.value)


def test_print_parse_roundtrip_random():
    rng = random.Random(0)
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), depth=4)
        assert F.parse(str(f)) is f


def test_dual_negate_involution_random():
    rng = random.Random(1)
    for _ in range(300):
        f = random_formula(rng, ("p", "q"), depth=4)
        assert _negate(_negate(f)) is f


def test_subformula_sets():
    g = F.parse("Y (p wS q)")
    assert F.psf(g) == {g, F.parse("p wS q")}
    assert F.psf(F.parse("p U q")) == frozenset()


def test_mu_nu_sets():
    f = F.parse("(p U q) & (p W q) & (p R q) & (p M q)")
    assert F.mu_subformulas(f) == {F.parse("p U q"), F.parse("p M q")}
    assert F.nu_subformulas(f) == {F.parse("p W q"), F.parse("p R q")}
    # nested under past operators still counts
    g = F.parse("Y (p U q)")
    assert F.mu_subformulas(g) == {F.parse("p U q")}


def test_size_metrics():
    assert F.size(F.parse("X(p S X q)")) == (4, 1)
    assert F.size(F.make(F.TRUE)) == (0, 0)
    assert F.size(F.parse("p & p")) == (2, 0)  # multiplicity, not sharing
    assert F.size(F.parse("Y Y p")) == (1, 2)


def test_resugared_printing():
    assert str(F.parse("F p")) == "F p"
    assert str(F.parse("G(p -> O q)")) == "G (!p | O q)"


@pytest.mark.parametrize("nested", [
    lambda n: "X " * n + "p",
    lambda n: " & ".join(["p"] * (n + 1)),
    lambda n: "!(" * n + "p" + ")" * n,
], ids=["next", "and", "not"])
def test_nnf_takes_one_frame_per_nesting_level(deepest_make, nested):
    # The NNF pass recurses once per nesting level; a second frame per
    # level (a comprehension, on Python 3.11) would halve the longest
    # formula that parses.
    assert (deepest_make(lambda: F.parse(nested(100)))
            - deepest_make(lambda: F.parse(nested(50)))) == 50
