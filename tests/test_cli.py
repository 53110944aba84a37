"""The qpa command line: verdicts, witnesses and one-line errors."""

import json

import pytest

from conftest import EX1_TEXT, EX2_TEXT
from qpa.cli import main


@pytest.fixture
def ex2_reach_file(tmp_path):
    path = tmp_path / "ex2.qpa"
    path.write_text(EX2_TEXT + "acceptance: reach 4\n")
    return path


def test_decide_prints_verdict_and_witness(ex2_reach_file, capsys):
    assert main(["decide", str(ex2_reach_file), "--problem", "limit", "--mode", "struct-simple"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "answer: yes"
    assert lines[1].startswith("witness: ")
    assert json.loads(lines[1][len("witness: "):])["support"] == ["4"]


def test_decide_json(ex2_reach_file, capsys):
    args = ["decide", str(ex2_reach_file), "--problem", "limit", "--mode", "struct-simple", "--json"]
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes"
    assert out["witness"]["support"] == ["4"]
    assert out["witness"]["steps"]


def test_decide_reports_input_and_budget_errors(tmp_path, capsys):
    ex1 = tmp_path / "ex1.qpa"
    ex1.write_text(EX1_TEXT + "acceptance: reach u\n")
    assert main(["decide", str(ex1), "--problem", "limit", "--mode", "struct-simple"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qpa: InputError: ") and err.count("\n") == 1
    big = tmp_path / "big.qpa"
    states = [f"q{i}" for i in range(7)]
    big.write_text(
        f"states: {' '.join(states)}\nalphabet: a\ninit: q0=1\nacceptance: reach q6\n"
        + "".join(f"trans: {q} a {q} 1\n" for q in states)
    )
    assert main(["decide", str(big), "--problem", "limit", "--mode", "struct-simple"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qpa: BudgetExceededError: ") and "at most 6 states" in err
    assert main(["decide", str(tmp_path / "missing.qpa"), "--problem", "almost", "--mode", "simple"]) == 1
    assert capsys.readouterr().err.startswith("qpa: FileNotFoundError: ")
    latin = tmp_path / "latin.qpa"
    latin.write_bytes(b"states: s\xff\n")
    assert main(["decide", str(latin), "--problem", "almost", "--mode", "simple"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qpa: UnicodeDecodeError: ") and err.count("\n") == 1


def test_decide_rejects_unknown_problem(ex2_reach_file):
    with pytest.raises(SystemExit) as exc:
        main(["decide", str(ex2_reach_file), "--problem", "sometimes", "--mode", "simple"])
    assert exc.value.code == 2
