import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastdra import cli, export_hoa, parse, parse_hoa, translate
from pastdra.cli import main
from pastdra.translate import _product


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "p U q", "{p} ; {q}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "G p", "; {p},{}")
    assert code == 0 and out.strip() == "false"


def test_eval_upper_case_proposition(capsys):
    # letters name propositions as the formula tokenizer does
    code, out, _ = run(capsys, "eval", "pA", "; {pA}")
    assert code == 0 and out.strip() == "true"


def test_eval_position(capsys):
    code, out, _ = run(capsys, "eval", "Y p", "{p} ; {q}", "1")
    assert code == 0 and out.strip() == "true"


def test_eval_negative_position(capsys):
    code, out, err = run(capsys, "eval", "Y p", "{p} ; {}", "-1")
    assert code == 1 and not out and "position" in err


def test_deep_formula_exit_code(capsys):
    deep = " & ".join(["p"] * 1200)
    code, out, err = run(capsys, "eval", deep, "; {p}")
    assert code == 1 and not out
    assert err.strip() == "error: formula nested too deeply"


def test_many_path_derivative_translates(capsys):
    # (X p | X q) & (X X p | X X q) & ... with 10 conjuncts: a shallow
    # formula whose derivatives have about 1,000 true-paths
    phi = " & ".join("(%sp | %sq)" % ("X " * i, "X " * i) for i in range(1, 11))
    code, _, err = run(capsys, "translate", phi, "--stats")
    assert code == 0 and "states=13" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "p U", "; {}")
    assert code == 1 and err


def test_bad_word_exit_code(capsys):
    code, _, err = run(capsys, "eval", "p", "{p} ;")
    assert code == 1 and err


@pytest.mark.parametrize("word", ["; {p q}", "; {p,,q}", "{p,} ; {}",
                                  "{p}, ; {q}", "{p} ; {q},"])
def test_malformed_letter_exit_code(capsys, word):
    # "{p q}" is not the proposition "p q", and an empty entry is no name
    code, out, err = run(capsys, "eval", "p", word)
    assert code == 1 and not out and err.startswith("error: bad letter"), word
    assert err.count("\n") == 1


def test_translate_hoa(capsys):
    code, out, err = run(capsys, "translate", "G p", "--stats")
    assert code == 0
    assert out.startswith("HOA: v1")
    assert "states=2" in err and "pairs=1" in err


def test_translate_dot(capsys):
    code, out, _ = run(capsys, "translate", "F p", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_translate_names_the_formula_as_given(capsys):
    # each <-> mentions both operands twice, so the formula printed as a
    # tree doubles per level: 16 levels print to about 1.1 MB
    text = "F(%s)" % " <-> ".join("qp"[i % 2] for i in range(17))
    code, hoa, _ = run(capsys, "translate", text)
    assert code == 0 and len(hoa.encode()) < 10000
    assert re.findall(r"^name: (.*)$", hoa, re.M) == ['"%s"' % text]


@pytest.mark.parametrize("acceptance", ["generalized", "rabin"])
def test_translate_names_no_state(capsys, acceptance):
    # no state is named, in HOA after its number or in DOT on a line of its
    # own, and --labels, which once named them, is an unknown option
    argv = ["translate", "G(p -> O q)", "--acceptance", acceptance]
    code, hoa, _ = run(capsys, *argv)
    lines = re.findall(r"^State: .*$", hoa, re.M)
    assert code == 0 and len(lines) >= 3
    assert not any(re.match(r'State: \d+ "', line) for line in lines), lines
    code, dot, _ = run(capsys, *argv, "--format", "dot")
    nodes = re.findall(r"^  q\d+ \[.*$", dot, re.M)
    assert code == 0 and len(nodes) == len(lines)
    assert not any("\\n" in node for node in nodes), nodes
    code, out, err = run(capsys, *argv, "--labels")
    assert code == 1 and not out and "unrecognized arguments: --labels" in err


def test_translate_state_cap(capsys):
    code, _, err = run(capsys, "translate", "G(p <-> O q & O r)",
                       "--max-states", "4")
    assert code == 2 and err


@pytest.mark.parametrize("ap", ['a"b', ",", "x y,G", "tt", "wY"])
def test_translate_rejects_unnameable_ap(capsys, ap):
    # no formula can mention these names, and a quote breaks the AP: line
    code, out, err = run(capsys, "translate", "p", "--ap", ap)
    assert code == 1 and not out and "not a proposition name" in err


def test_translate_strips_spaces_around_ap_names(capsys):
    # as in a word's letters; an empty name is still refused
    code, spaced, err = run(capsys, "translate", "G p", "--ap", " p, q ")
    assert code == 0 and not err
    assert spaced == run(capsys, "translate", "G p", "--ap", "p,q")[1]
    assert 'AP: 2 "p" "q"' in spaced
    code, out, err = run(capsys, "translate", "G p", "--ap", "p,,q")
    assert code == 1 and not out and "not a proposition name: ''" in err


def test_translate_output_round_trips_through_check(capsys, tmp_path):
    for acceptance, name in (("generalized", "generalized-Rabin 1 0"),
                             ("rabin", "Rabin 1")):
        code, hoa, _ = run(capsys, "translate", "G(p -> O q)", "--ap", "r",
                           "--acceptance", acceptance)
        assert code == 0 and "acc-name: %s\n" % name in hoa
        path = tmp_path / "out.hoa"
        path.write_text(hoa)
        code, out, err = run(capsys, "check", str(path), "; {p,q}")
        assert code == 0 and out.strip() == "accepts" and not err


def test_translate_rabin_state_cap(capsys):
    # The negated future history spec has 101 generalized states (its
    # product has 1,422); one counter per pair multiplies them past 10,000.
    spec = ("!(((!p & !q) W (r & ((!p & !q) W (p & q)))"
            " | (!p & !r) W (q & ((!p & !r) W (p & r)))) & G(p -> X G p))")
    code, out, err = run(capsys, "translate", spec, "--max-states", "10000",
                         "--stats")
    assert code == 0 and "states=101 pairs=64" in err
    code, out, err = run(capsys, "translate", spec, "--max-states", "10000",
                         "--acceptance", "rabin")
    assert code == 2 and not out
    assert err.strip() == "error: state cap 10000 exceeded"


def test_check_formula(capsys):
    code, out, _ = run(capsys, "check", "G(p -> O q)", "{q} ; {p}")
    assert code == 0
    assert out.splitlines() == ["accepts", "semantics agree"]
    code, out, _ = run(capsys, "check", "G p", "; {}")
    assert code == 0
    assert out.splitlines() == ["rejects", "semantics agree"]
    # a word may name propositions that no formula can mention
    code, out, _ = run(capsys, "check", "F p", "; {p,1,tt}")
    assert code == 0
    assert out.splitlines() == ["accepts", "semantics agree"]


def test_check_hoa_file(capsys, tmp_path):
    code, hoa, _ = run(capsys, "translate", "F q")
    path = tmp_path / "fq.hoa"
    path.write_text(hoa)
    code, out, _ = run(capsys, "check", str(path), "; {q},{}")
    assert code == 0 and out.strip() == "accepts"
    code, out, _ = run(capsys, "check", str(path), "; {}")
    assert code == 0 and out.strip() == "rejects"


def test_check_reads_state_names_with_newlines(capsys, tmp_path):
    # a state name is written raw inside its quotes, newlines included
    auto = translate(parse("F q"))
    auto = replace(auto, labels=['x\n"%d\\' % q
                                 for q in range(auto.n_states())])
    hoa = export_hoa(auto)
    assert 'State: 0 "x\n\\"0\\\\"' in hoa
    assert parse_hoa(hoa).labels == auto.labels
    path = tmp_path / "named.hoa"
    path.write_text(hoa)
    code, out, err = run(capsys, "check", str(path), "; {q}")
    assert code == 0 and out.strip() == "accepts" and not err


def test_check_formula_that_names_a_file(capsys, tmp_path, monkeypatch):
    # a file that happens to share the formula's name is not read unless it
    # holds HOA text
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p").write_text("G q")
    code, out, _ = run(capsys, "check", "p", "; {p}")
    assert code == 0
    assert out.splitlines() == ["accepts", "semantics agree"]
    (tmp_path / "p").write_bytes(b"\xff junk (")
    code, out, _ = run(capsys, "check", "p", "; {p}")
    assert code == 0 and out.splitlines()[0] == "accepts"


# ``pastdra explain`` of a past formula on a word whose r no state reads: a
# track for the past set {Y p}, restarts, and a loop that the first guess
# accepts.  The nodes are printed by their BDD representatives, which
# follow the interning order, so it runs in a fresh interpreter.
EXPLAIN_GOLDEN = """\
runner 0: S under M = {}
runner 1: S under M = {p U (q & Y p)}
runner 2: F(p U (q & Y p)) under N = {}
0 {p}: #0 [{}: #1] | #2* #3 #4
1 {q,r}: #5 [{}: #1, {Y p}: #1] | #2* #6 #7
2 {p}: #1 [{}: #1] | #1 #1 #1*
3 {q}: #1 [{}: #1, {Y p}: #1] | #1 #1 #8
#0 = p U (q & Y p)
#1 = tt
#2 = ff
#3 = p W (q & Y p)
#4 = F (p U (q & Y p))
#5 = p U (q & Y p) | p U (q & wY p)
#6 = p W (q & Y p) | p W (q & wY p)
#7 = p U (q & Y p) | p U (q & wY p) | F (p U (q & Y p)) | F (p U (q & wY p))
#8 = F (p U (q & Y p)) | F (p U (q & wY p))
loop: from 2
in their sets on the loop: 2
first accepting (M, N): M = {}, N = {}
accepts
semantics agree
"""


def test_explain_is_golden():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "pastdra.cli", "explain", "p U (q & Y p)",
         "{p},{q,r} ; {p},{q}"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == EXPLAIN_GOLDEN


def test_explain_exits_3_when_the_evaluator_disagrees(capsys, monkeypatch):
    holds = cli.lasso.holds
    monkeypatch.setattr(cli.lasso, "holds", lambda *args: not holds(*args))
    code, out, err = run(capsys, "explain", "F p", "; {p}")
    assert code == 3 and not err
    assert out.splitlines()[-2:] == ["accepts", "semantics DISAGREE"]


@pytest.mark.parametrize("argv", [["p U", "; {p}"], ["p", "{p} ;"],
                                  ["p", "; {p q}"]])
def test_explain_malformed_input_exits_1(capsys, argv):
    code, out, err = run(capsys, "explain", *argv)
    assert code == 1 and not out and err.startswith("error: ")
    assert err.count("\n") == 1


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "derivative",
                       "--count", "20", "--seed", "5")
    assert code == 0
    assert "derivative: 20/20 pass" in out


def test_selftest_all_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "all", "--count", "5", "--seed", "1")
    assert code == 0
    for name in ("derivative", "oracle", "master"):
        assert "%s: 5/5 pass" % name in out
    # end-to-end checks count formula/word combinations
    assert "endtoend: 25/25 pass" in out


def test_selftest_tallies_failing_cases(capsys, monkeypatch):
    # every case that fails counts against its suite, which then exits 3
    check_master, accepts = cli.check_master, cli.accepts
    monkeypatch.setattr(cli, "check_master", lambda f, w: replace(
        check_master(f, w), consistent=False))
    code, out, _ = run(capsys, "selftest", "master", "--count", "3")
    assert code == 3 and out == "master: 0/3 pass (seed 0)\n"
    monkeypatch.setattr(cli, "accepts", lambda auto, w: not accepts(auto, w))
    code, out, _ = run(capsys, "selftest", "endtoend", "--count", "2")
    assert code == 3 and out == "endtoend: 0/10 pass (seed 0)\n"


def test_out_of_memory_exit_code(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "translate", exhausted)
    code, out, err = run(capsys, "translate", "G p")
    assert code == 2 and not out
    assert err.strip() == "error: out of memory"


def _check_hoa(capsys, text, start="error: HOA"):
    code, out, err = run(capsys, "check", text, "; {q}")
    assert code == 1 and not out and err.startswith(start), err
    assert err.count("\n") == 1, err
    return err


_BODY_LINE = "error: unsupported HOA body line: "


def _fq_hoa():
    # the HOA of the five-state cascade product of F q, whose text the
    # reader's tests edit
    return export_hoa(_product(parse("F q")), name="F q")


@pytest.mark.parametrize("line", ["States:", "Start:", "AP:", "acc-name:",
                                  "Acceptance:"])
def test_check_hoa_missing_header_line(capsys, line):
    text = "".join(s for s in _fq_hoa().splitlines(keepends=True)
                   if not s.startswith(line))
    assert line in _check_hoa(capsys, text)


@pytest.mark.parametrize("line", ["States:", "Start:", "AP:", "acc-name:",
                                  "Acceptance:"])
def test_check_hoa_repeated_header_line(capsys, line):
    # a second Start: line is a second initial state, and a second line of
    # any other item is a conflicting declaration
    text = "".join(s * (1 + s.startswith(line)) for s in
                   _fq_hoa().splitlines(keepends=True))
    assert "2 %r lines" % line in _check_hoa(capsys, text)


@pytest.mark.parametrize("old,new", [
    ("Start: 0\n", "Start: 0&1\n"),         # an alternating conjunction
    ("Start: 0\n", "Start: 0 1\n"),
    ("States: 5\n", "States: 5 6\n"),
    ('AP: 1 "q"\n', 'AP: 1 "q" 0\n'),
    ("acc-name: generalized-Rabin 2 0 1\n",
     "acc-name: generalized-Rabin 2 0 1 x\n"),
])
def test_check_hoa_header_line_has_nothing_after_its_value(capsys, old, new):
    text = _fq_hoa().replace(old, new, 1)
    assert "not supported" in _check_hoa(capsys, text)


def test_check_hoa_reads_header_items_at_line_start_only(capsys):
    # "Start: 3" inside another item's string is not the initial state;
    # from state 3 the automaton of F q would accept "; {}"
    text = _fq_hoa().replace(
        "Start: 0\n", 'tool: "x" "Start: 3"\nStart: 0\n', 1)
    for word, want in (("; {}", "rejects"), ("; {q}", "accepts")):
        code, out, err = run(capsys, "check", text, word)
        assert code == 0 and out.strip() == want and not err, word


@pytest.mark.parametrize("argv,marks,nsets", [
    ((), "{0}", 3),                          # generalized-Rabin 2 0 1
    (("--acceptance", "rabin"), "{0 1}", 4),  # Rabin 2
])
def test_check_hoa_acceptance_sets_agree_with_acc_name(capsys, argv, marks,
                                                       nsets):
    # a state mark past the declared sets, or an Acceptance: count that
    # differs from them, is an error; the text as written still reads
    code, text, _ = run(capsys, "translate", "F q", *argv)
    assert code == 0 and "\nAcceptance: %d " % nsets in text
    err = _check_hoa(capsys, text.replace(marks, "{%d}" % nsets, 1))
    assert "state 0 marks set %d" % nsets in err, err
    err = _check_hoa(capsys, text.replace(
        "Acceptance: %d " % nsets, "Acceptance: %d " % (nsets + 1), 1))
    assert "Acceptance: line has %d sets" % (nsets + 1) in err, err
    code, out, _ = run(capsys, "check", text, "; {q}")
    assert code == 0 and out.strip() == "accepts"


def test_check_hoa_reads_set_roles_from_condition(capsys):
    # Rabin 2 of F q with each pair's sets named the other way round: the
    # condition alone gives every set the other role, and renumbering the
    # state marks as well gives back the original automaton
    code, text, _ = run(capsys, "translate", "F q", "--acceptance", "rabin")
    cond = "Acceptance: 4 (Fin(0)&Inf(1)) | (Fin(2)&Inf(3))\n"
    assert code == 0 and cond in text
    swapped = text.replace(
        cond, "Acceptance: 4 (Inf(0)&Fin(1)) | (Inf(2) & Fin(3))\n")
    renumbered = re.sub(r"\{([\d ]*)\}", lambda m: "{%s}" % " ".join(
        str(int(k) ^ 1) for k in m.group(1).split()), swapped)
    for hoa, verdicts in ((text, ["accepts", "rejects"]),
                          (swapped, ["rejects", "rejects"]),
                          (renumbered, ["accepts", "rejects"])):
        for word, want in zip(("; {q},{}", "; {}"), verdicts):
            code, out, err = run(capsys, "check", hoa, word)
            assert code == 0 and out.strip() == want and not err, word


@pytest.mark.parametrize("cond,message", [
    ("(Fin(0)&Fin(1)) | (Fin(2)&Inf(3))", "shape that acc-name: declares"),
    ("(Fin(0)&Inf(0)) | (Fin(2)&Inf(3))", "name each of its 4 sets once"),
    ("(Fin(0)&Inf(1)) | (Fin(3)&Inf(3))", "name each of its 4 sets once"),
    ("(Fin(0)&Inf(1)&Inf(2)) | Fin(3)", "shape that acc-name: declares"),
    ("(Inf(1)) | (Fin(2)&Inf(3)) | Fin(0)", "shape that acc-name: declares"),
    ("(Fin(0)|Inf(1)) & (Fin(2)|Inf(3))", "not a disjunction"),
    ("(Fin(0)&!Inf(1)) | (Fin(2)&Inf(3))", "not a disjunction"),
    ("t", "not a disjunction"),
    ("", "not a disjunction"),
])
def test_check_hoa_bad_acceptance_condition(capsys, cond, message):
    code, text, _ = run(capsys, "translate", "F q", "--acceptance", "rabin")
    err = _check_hoa(capsys, text.replace(
        "(Fin(0)&Inf(1)) | (Fin(2)&Inf(3))", cond, 1))
    assert message in err, err


def test_check_hoa_duplicate_proposition(capsys):
    code, text, _ = run(capsys, "translate", "p & X q")
    assert code == 0 and '\nAP: 2 "p" "q"\n' in text
    err = _check_hoa(capsys, text.replace('AP: 2 "p" "q"', 'AP: 2 "p" "p"'))
    assert "AP: line names 'p' twice" in err, err


def test_check_hoa_ignores_foreign_propositions(capsys, tmp_path):
    # a word may name propositions that the automaton does not read
    code, hoa, _ = run(capsys, "translate", "G(p -> O q)")
    path = tmp_path / "out.hoa"
    path.write_text(hoa)
    for plain, foreign, want in (("; {p,q}", "; {p,q,z}", "accepts"),
                                 ("{p} ; {}", "{p,z} ; {z}", "rejects")):
        code, out, err = run(capsys, "check", str(path), plain)
        assert code == 0 and out.strip() == want and not err
        assert run(capsys, "check", str(path), foreign) == (code, out, err)


@pytest.mark.parametrize("old,new", [
    ("{2}\n3 3\n", "{2}\n3\n"),                # too few successors
    ("{2}\n3 3\n", "{2}\n3 3 3\n"),            # too many successors
    ("State: 4\n4 2\n", "State: 4\n4 2\n" * 2),  # a repeated state
])
def test_check_hoa_incomplete_table(capsys, old, new):
    text = _fq_hoa().replace(old, new, 1)
    assert "incomplete" in _check_hoa(capsys, text)


@pytest.mark.parametrize("label", ["0", "0 | !0", "", "!!0", "0 & p"])
def test_check_hoa_unsupported_edge_label(capsys, label):
    # an edge with an explicit label is not read, whatever its label
    text = _fq_hoa().replace("{2}\n3 3\n", "{2}\n3\n[%s] 3\n" % label, 1)
    assert "'[%s] 3'" % label in _check_hoa(capsys, text, _BODY_LINE)


@pytest.mark.parametrize("old,new", [
    ("{2}\n3 3\n", "{2}\n3 x\n"),              # a token that is no number
    ("{2}\n3 3\n", "{2}\n3 -3\n"),
    ("--BODY--\n", "--BODY--\n1 2\n"),          # successors of no state
])
def test_check_hoa_unsupported_body_line(capsys, old, new):
    text = _fq_hoa().replace(old, new, 1)
    _check_hoa(capsys, text, _BODY_LINE)


def test_check_hoa_rejects_explicit_labels(capsys):
    # the one-edge-per-letter form that earlier versions wrote
    text = re.sub(r"^(\d+) (\d+)$", r"[!0] \1\n[0] \2", _fq_hoa(),
                  flags=re.M)
    text = text.replace("properties: implicit-labels",
                        "properties: trans-labels explicit-labels")
    assert "\n[!0] 1\n[0] 2\n" in text
    assert "'[!0] 1'" in _check_hoa(capsys, text, _BODY_LINE)


def test_check_hoa_reads_successors_over_lines():
    # a state's successors may span lines, parted by any whitespace
    text = _fq_hoa()
    spread = text.replace("{2}\n3 3\n", "{2}\n 3\n\n3\t\n", 1)
    assert spread != text
    assert parse_hoa(spread).trans == parse_hoa(text).trans


def test_check_reads_implicit_labels_in_the_spec_order(capsys):
    """The HOA spec lists the implicit labels over two propositions in the
    order ``[!0&!1]``, ``[0&!1]``, ``[!0&1]``, ``[0&1]``: proposition 0 is
    the least significant bit.  Only the second successor, the letter {a},
    stays in the accepting state."""
    text = ('HOA: v1\nStates: 2\nStart: 0\nAP: 2 "a" "b"\n'
            "acc-name: Buchi\nAcceptance: 1 Inf(0)\n"
            "properties: implicit-labels state-acc deterministic complete\n"
            "--BODY--\nState: 0 {0}\n1 0 1 1\nState: 1\n1 1 1 1\n--END--\n")
    for word, want in (("; {a}", "accepts"), ("; {b}", "rejects"),
                       ("; {a,b}", "rejects"), ("; {}", "rejects")):
        code, out, err = run(capsys, "check", text, word)
        assert code == 0 and out.strip() == want and not err, word


@pytest.mark.parametrize("old,new", [
    ("}\n1 2\n", "}\n1 5\n"),                  # successor past the last state
    ("Start: 0\n", "Start: 5\n"),
    ("State: 4 ", "State: 5 "),
])
def test_check_hoa_out_of_range(capsys, old, new):
    # state 4 is named, so that its line goes on after its number
    text = _fq_hoa().replace("State: 4\n", 'State: 4 "F q"\n', 1)
    text = text.replace(old, new, 1)
    assert "out of range" in _check_hoa(capsys, text)


def test_check_hoa_unclosed_state_name(capsys):
    # the quote opens a name that no later quote closes: the error names it,
    # not the line the reader would see after skipping the quote
    text = _fq_hoa().replace("State: 0 {0}\n", 'State: 0 "x {0}\n', 1)
    err = _check_hoa(capsys, text)
    assert err == "error: HOA string '\"x {0}' has no closing quote\n"


def test_check_hoa_short_body_is_rejected_before_allocating(capsys):
    # 16 states over 20 propositions announce a 16 x 2^20 transition table;
    # a body with one edge is rejected before that table is allocated
    text = ("HOA: v1\nStates: 16\nStart: 0\nAP: 20 %s\nacc-name: Buchi\n"
            "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0\n--END--\n"
            % " ".join('"a%d"' % i for i in range(20)))
    tracemalloc.start()
    try:
        err = _check_hoa(capsys, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "incomplete" in err
    assert peak < 1 << 20, peak


def test_usage_errors_exit_1(capsys):
    # argparse's own code, 2, is the state cap's
    for argv in (["eval", "p"], ["translate", "->p"], ["selftest", "nosuch"],
                 ["explain", "p"], ["explain", "p", "; {p}", "--labels"],
                 ["translate", "p", "--max-states", "-3"],
                 ["translate", "p", "--max-states", "0"],
                 ["check", "p", "; {p}", "--max-states", "0"],
                 ["selftest", "oracle", "--count", "-5"],
                 ["selftest", "oracle", "--count", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and "error" in err, argv
    # a negative number is a value, not a formula that needs "--" before it
    code, _, err = run(capsys, "translate", "p", "--max-states", "-3")
    assert "expected a positive integer, got '-3'" in err
    assert "put '--'" not in err


def test_formula_that_starts_with_a_dash(capsys):
    # argparse reads "->p" as an option: the usage error says to put "--"
    # first, and with it the formula reaches the parser
    for argv in (["translate", "->p"], ["eval", "->p", "; {}"],
                 ["check", "->p", "; {}"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and "usage" in err, argv
        assert "put '--' before" in err, argv
        code, out, err = run(capsys, argv[0], "--", *argv[1:])
        assert code == 1 and not out, argv
        assert err.startswith("error: expected a formula"), (argv, err)
    code, _, err = run(capsys, "selftest", "nosuch")
    assert code == 1 and "put '--'" not in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage" in out


_PAST_TOKENS = "Y wY S wS B wB O H".split()
_OTHER_TOKENS = "p q tt ff ! & | -> <-> ( ) X F G U W R M @".split()


@st.composite
def _token_formulas(draw):
    past = draw(st.lists(st.sampled_from(_PAST_TOKENS), max_size=2))
    tokens = draw(st.lists(st.sampled_from(_OTHER_TOKENS),
                           max_size=12 - len(past)))
    for token in past:
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return " ".join(tokens)


_words = st.lists(st.sampled_from(["{p}", "{}", "{p,q}", "{q}", ",", ";", "{",
                                   " "]), max_size=6).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_token_formulas(), _words)
def test_cli_exits_0_or_1_on_any_input(formula, word):
    # malformed input exits 1 and well-formed input 0: never a traceback,
    # the state cap's 2 or a disagreement's 3
    for argv in (["translate", formula], ["eval", formula, word],
                 ["check", formula, word], ["explain", formula, word]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1), argv
