import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from lmgroups import group, topology
from lmgroups.cli import run


def test_char(capsys):
    assert run(["char", "--name", "psi", "y[01] y[10]^-1"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_module_entry_point_runs_main():
    # the console script `lmg` and `python -m lmgroups.cli` both go
    # through cli.main, which exits with run's code
    src = os.path.dirname(os.path.dirname(group.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def lmg(*argv):
        return subprocess.run([sys.executable, "-m", "lmgroups.cli", *argv],
                              env=env, capture_output=True, text=True)

    out = lmg("char", "--name", "psi", "y[01] y[10]^-1")
    assert (out.returncode, out.stdout) == (0, "0\n")
    assert lmg("wordproblem", "--tag", "G", "y[01]").returncode == 2


def test_cluster_counts(capsys):
    assert run(["cluster", "--n", "2", "--diagonals", "1"]) == 0
    assert capsys.readouterr().out.strip() == "4 5 2"


def test_cluster_counts_need_no_cell_list(capsys):
    # the counts come from the transfer matrix; the listing stops at n = 12
    assert run(["cluster", "--n", "40", "--diagonals", "1,2,39"]) == 0
    counts = [int(c) for c in capsys.readouterr().out.split()]
    assert len(counts) == 41 and counts[0] == 2 ** 40
    assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1
    assert run(["cluster", "--n", "40", "--json"]) == 1
    assert "dimension bound exceeded" in capsys.readouterr().err


def test_cluster_names_a_bad_diagonal_index(capsys):
    assert run(["cluster", "--n", "3", "--diagonals", "1,x"]) == 1
    assert capsys.readouterr().err == "error: diagonal index must be an int, not 'x'\n"
    assert run(["cluster", "--n", "3", "--diagonals", " 1, 2,"]) == 0
    assert capsys.readouterr().out == "8 17 14 4\n"


def test_cluster_json(capsys):
    assert run(["cluster", "--n", "2", "--diagonals", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == 1
    dims = [c["dim"] for c in doc["cells"]]
    assert [dims.count(d) for d in range(3)] == [4, 5, 2]


def test_classify(capsys):
    assert run(["classify", "--group", "G", "--gens", "1,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "TypeFInfinity"
    assert run(["classify", "--group", "G", "--gens", "1,0,0;0,1,1"]) == 0
    capsys.readouterr()


def test_sigma(capsys):
    assert run(["sigma", "--group", "yGy", "--char", "1,0,0", "--n", "2"]) == 2
    assert capsys.readouterr().out.strip() == "false"
    assert run(["sigma", "--group", "G", "--char", "0,0,1", "--n", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_sigma_rejects_a_character_that_is_not_a_triple(capsys):
    assert run(["sigma", "--char", "1,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: a character is a triple of rationals, not 2 of them" in captured.err


def test_wordproblem_exit_codes(capsys):
    assert run(["wordproblem", "--tag", "G", "y[01] y[10] y[01]^-1 y[10]^-1"]) == 0
    capsys.readouterr()
    assert run(["wordproblem", "--tag", "G", "y[01]"]) == 2
    capsys.readouterr()


def test_wordproblem_names_a_witness_only_for_not_identity(capsys):
    deep = "0" * 19 + "1"
    cases = [
        (["--tag", "G", "y[01]"], "not-identity (witness 0101)", "0101"),
        (["--tag", "G", f"y[{deep}]"], "unknown (agrees with the identity to depth 16)",
         "agrees with the identity to depth 16"),
        (["--tag", "G", "x[e] x[e]^-1"], "identity", None),
    ]
    for argv, text, witness in cases:
        run(["wordproblem", *argv])
        assert capsys.readouterr().out == text + "\n"
        run(["wordproblem", "--json", *argv])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"format": 1, "verdict": text.split()[0], "witness": witness}


def test_normalize_and_act(capsys):
    assert run(["normalize", "--tag", "yGy", "x[e]^-1 y[e]"]) == 0
    assert capsys.readouterr().out.strip() == "y[0] y[10]^-1 y[11]"
    assert run(["act", "y[e]", "0010"]) == 0
    assert capsys.readouterr().out.strip() == "011"


def test_phi_and_inverse(capsys):
    assert run(["phi", "11", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["phiinv", "--", "-7/3"]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 2 and all(p.endswith("^inf") for p in out)
    assert run(["phiinv", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "0^inf 1^inf"


def test_xcluster_and_cone(capsys):
    assert run(["xcluster", "--params", "y[010];y[0110]^-1;y[0111]"]) == 0
    out = capsys.readouterr().out
    assert "[1, 2]" in out and "[8, 17, 14, 4]" in out
    assert run(["cone", "--piece", "e|y[010];y[0110]^-1;y[0111]"]) == 0
    assert capsys.readouterr().out.strip() == "m=3 verified=True"


def test_xcluster_over_a_base_that_needs_no_spin(capsys):
    # the base's tail contracts onto a tail the rewriter would expand back
    assert run(["xcluster", "--base", "y[01] y[011]", "--params", "y[10]"]) == 0
    assert capsys.readouterr().out == "diagonals [] counts [2, 1]\n"


def test_xcluster_names_the_pairs_the_cross_check_rejects(capsys):
    # y[01] y[10]^-1 is special but y[01] y[10] is not: the square has no
    # diagonal to carry the edge the rule asks for
    assert run(["xcluster", "--params", "y[01];y[10]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: edge rule and arrangement skeleton disagree on: "
        "(y[01], y[10]) with opposite signs\n"
    )


def test_dot_and_json_together_are_a_usage_error(capsys):
    for argv in (["cluster", "--n", "2"], ["xcluster", "--params", "y[01];y[10]^-1"]):
        for flags in (["--dot", "--json"], ["--json", "--dot"]):
            with pytest.raises(SystemExit) as exc:
                run(argv + flags)
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: argument {flags[1]}: not allowed with argument {flags[0]}" in captured.err
        # either flag alone still prints its format
        assert run(argv + ["--dot"]) == 0
        assert capsys.readouterr().out.startswith("graph cluster {")
        assert run(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["format"] == 1


def test_asclink(capsys):
    assert run(["asclink", "--piece", "e|y[010];y[0110]^-1;y[0111];y[0001]",
                "--vertex", "e"]) == 0
    out = capsys.readouterr().out
    assert "collapsible" in out or "cells" in out


def test_asclink_rejects_a_vertex_that_is_no_0_cell(capsys):
    argv = ["asclink", "--piece", "e|y[010];y[0110]^-1;y[0111]", "--vertex", "garbage"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: 'garbage' is not a vertex of the complex" in captured.err


def test_asclink_collapses_once(capsys, monkeypatch):
    argv = ["asclink", "--piece", "e|y[010];y[0110]^-1;y[0111];y[0001]", "--vertex", "e"]
    coreduce = topology._coreduce
    runs = []

    def counting_coreduce(cx):
        runs.append(cx)
        return coreduce(cx)

    monkeypatch.setattr(topology, "_coreduce", counting_coreduce)
    for extra in ([], ["--json"]):
        del runs[:]
        assert run(argv + extra) == 0
        assert len(runs) == 1
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert doc["collapsible"] is True
    assert doc["reduced_homology"] == {str(d): [0, []] for d in range(4)}


def test_homology_command(capsys):
    assert run(["homology", "--piece", "e|y[010];y[0110]^-1;y[0111]"]) == 0
    out = capsys.readouterr().out
    assert "(0, [])" in out


def test_two_pieces_glue_on_the_command_line(capsys):
    # repeated --piece options glue: a cube and a square at e sharing the
    # edge of y[010], then two squares at e sharing the edge of
    # y[0110]^-1, whose ascending link at e is two points
    assert run(["homology", "--piece", "e|y[010];y[0110]^-1;y[0111]",
                "--piece", "e|y[010];y[0001]", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduced_homology"] == {str(d): [0, []] for d in range(4)}
    assert run(["asclink", "--piece", "e|y[010];y[0110]^-1",
                "--piece", "e|y[0110]^-1;y[0111]", "--vertex", "e", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == {"0": 2} and doc["collapsible"] is False
    assert doc["reduced_homology"]["0"] == [1, []]


def test_xcluster_dot_ranks(capsys):
    assert run(["xcluster", "--params", "y[010];y[0110]^-1;y[0111]", "--dot"]) == 0
    out = capsys.readouterr().out
    assert 'rank="1"' in out and 'rank="-1"' in out


def test_ins_and_witness(capsys):
    assert run(["ins", "y[10] y[110]^-1"]) == 0
    capsys.readouterr()
    assert run(["ins", "y[10]"]) == 2
    capsys.readouterr()
    assert run(["witness", "--family", "PairNonConsecutive", "y[10] y[1110]^-1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2


def test_relcheck(capsys):
    assert run(["relcheck", "--maxlen", "1", "--maxp", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_negative_depth_exits_1(capsys):
    for argv in (["wordproblem", "--depth", "-1", "x[e]"],
                 ["relcheck", "--depth", "-1", "--maxlen", "1", "--maxp", "1"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: search depth must be >= 0, got -1"


def test_bad_numbers_are_named(capsys):
    cases = [
        (["relcheck", "--maxlen", "-1"], "maxlen must be a non-negative int, got -1"),
        (["relcheck", "--maxp", "-1"], "maxp must be a non-negative int, got -1"),
        (["sigma", "--char", "1,0,0", "--n", "x"], "index must be an int or 'inf', not 'x'"),
        (["sigma", "--char", "1,a,0"], "character coordinate must be a rational, not 'a'"),
        (["classify", "--gens", "1,x,0"], "generator entry must be an int, not 'x'"),
        (["classify", "--gens", "1,0,0; 1,,0"], "generator entry must be an int, not ''"),
        (["phiinv", "1/0"], "value must be a rational or 'inf', not '1/0'"),
        (["phiinv", "x"], "value must be a rational or 'inf', not 'x'"),
    ]
    for argv, message in cases:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_error_exit(capsys):
    # chi0 is not defined on yG, which y[0] infers
    assert run(["char", "--name", "chi0", "y[0]"]) == 1
    capsys.readouterr()
    assert run(["normalize", "not a word"]) == 1
    capsys.readouterr()


def test_internal_error_exit(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("standard-form tail is not sorted")

    monkeypatch.setattr(group, "rewrite_standard_form", broken)
    assert run(["normalize", "y[0]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "internal error: standard-form tail is not sorted"


def test_xcluster_json_carries_labels(capsys):
    assert run(["xcluster", "--params", "y[010];y[0110]^-1;y[0111]", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == 1 and doc["diagonals"] == [1, 2]
    labels = {c["key"]: c["label"] for c in doc["cells"] if "label" in c}
    assert len(labels) == 8 and "y[01]" in labels.values()


def test_determinism(capsys):
    run(["xcluster", "--params", "y[010];y[0110]^-1;y[0111]", "--json"])
    first = capsys.readouterr().out
    run(["xcluster", "--params", "y[010];y[0110]^-1;y[0111]", "--json"])
    assert capsys.readouterr().out == first


def test_tag_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sigma", "--tag", "T", "--char", "1,0,0"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tag T" in capsys.readouterr().err
    assert run(["xcluster", "--tag", "G", "--params", "y[010];y[0110]^-1;y[0111]"]) == 0
    assert "[1, 2]" in capsys.readouterr().out


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sigma", "--char", "1,0,0", "--bogus"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --bogus" in captured.err
    # the same command without the bad flag is a negative verdict
    assert run(["sigma", "--char", "1,0,0"]) == 2


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        run(["cone", "--help"])
    assert exc.value.code == 0
    assert "group tag (default: G)" in capsys.readouterr().out


def _readme_examples():
    """The lines of the README's command-line example block, each split
    into its argv and its annotation (None where it has none)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.splitlines():
        command, _, note = line.partition(" # ")
        out.append((shlex.split(command)[1:], note.strip() or None))
    return out


def test_readme_examples_hold(capsys):
    # an annotation prefixes the first line of stdout, and names the exit
    # code where it is not 0
    examples = _readme_examples()
    assert len(examples) == 16
    for argv, note in examples:
        code = run(argv)
        first = (capsys.readouterr().out.splitlines() or [""])[0]
        expected, exit_code = note or "", 0
        m = re.fullmatch(r"(.*?)\s*\(exit (\d+)\)", expected)
        if m:
            expected, exit_code = m.group(1), int(m.group(2))
        assert code == exit_code, argv
        assert first.startswith(expected), (argv, first)
