from pastdra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "p U q", "{p} ; {q}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "G p", "; {p},{}")
    assert code == 0 and out.strip() == "false"


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


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "p U", "; {}")
    assert code == 1 and err


def test_bad_word_exit_code(capsys):
    code, _, err = run(capsys, "eval", "p", "{p} ;")
    assert code == 1 and err


def test_translate_hoa(capsys):
    code, out, err = run(capsys, "translate", "G p", "--stats")
    assert code == 0
    assert out.startswith("HOA: v1")
    assert "states=5" in err and "pairs=2" in err


def test_translate_dot(capsys):
    code, out, _ = run(capsys, "translate", "F p", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_translate_state_cap(capsys):
    code, _, err = run(capsys, "translate", "G(p <-> O q & O r)",
                       "--max-states", "4")
    assert code == 2 and err


def test_check_formula(capsys):
    code, out, _ = run(capsys, "check", "G(p -> O q)", "{q} ; {p}")
    assert code == 0
    assert out.splitlines() == ["accepts", "semantics agree"]
    code, out, _ = run(capsys, "check", "G p", "; {}")
    assert code == 0
    assert out.splitlines() == ["rejects", "semantics agree"]


def test_check_hoa_file(capsys, tmp_path):
    code, hoa, _ = run(capsys, "translate", "F q")
    path = tmp_path / "fq.hoa"
    path.write_text(hoa)
    code, out, _ = run(capsys, "check", str(path), "; {q},{}")
    assert code == 0 and out.strip() == "accepts"
    code, out, _ = run(capsys, "check", str(path), "; {}")
    assert code == 0 and out.strip() == "rejects"


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
