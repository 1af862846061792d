"""Command-line interface: exit codes, output shapes, determinism."""

import ast
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import burau.cli
import burau.complexes
from burau.cli import EXIT_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from burau.criteria import Rejection
from burau.fixtures import affine_fixture, all_fixtures
from burau.laurent import ZZ
from burau.matrices import STANDARD, word_matrix
from burau.search import CurveStore, enumerate_curves, find_pairs
from burau.graphs import preset
from burau.zigzag import TokenCodes


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_affine(capsys):
    code, out, err = run(capsys, ["verify", "affine-a3"])
    assert code == EXIT_OK
    assert out.strip() == "PASS affine-a3"
    assert err == ""


# sha256 of `burau verify all --json`: all 13 certificates, gates included
VERIFY_ALL_SHA256 = "8e1468365eee04126534c2733faee2a4394671e1a8d2e31104ec95342deccfe5"


def test_verify_all_json_is_pinned(capsys):
    code, out, err = run(capsys, ["verify", "all", "--json"])
    assert code == EXIT_OK
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of `burau search curves --graph tildeA3` for each criterion: the
# confirms twist through both directions of the cone, and hold one complex
# per confirmed record
SEARCH_CURVES_SHA256 = {
    1: "e320bc98a3e72a7399ec2d2529d519ece7a3880bafdd68d12bae635755c5e599",
    2: "a1d0ce72670421f87bfb6a3e3983721fffee19821c42acfe0d403e8f6e388137",
}


@pytest.mark.parametrize("criterion", [1, 2])
def test_search_curves_output_is_pinned(capsys, criterion):
    argv = ["search", "curves", "--graph", "tildeA3"]
    if criterion != 1:  # 1 is the default
        argv += ["--criterion", str(criterion)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_CURVES_SHA256[criterion]


def test_verify_affine_json(capsys):
    code, out, _ = run(capsys, ["verify", "affine-a3", "--json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    cert = payload["affine-a3"]
    assert cert["accepted"] is True
    assert cert["verified"] is True
    assert cert["criterion"] == "commutator"
    assert cert["total_hom_dim"] == 60


def test_verify_d4_single_modulus(capsys):
    code, out, _ = run(capsys, ["verify", "d4-mod", "7"])
    assert code == EXIT_OK
    assert out.strip() == "PASS d4-mod-7"


def test_verify_d4_usage_errors(capsys):
    code, _, err = run(capsys, ["verify", "d4-mod"])
    assert code == EXIT_USAGE
    assert "modulus" in err
    code, _, err = run(capsys, ["verify", "d4-mod", "4"])
    assert code == EXIT_USAGE
    assert "available p: 6..16" in err
    code, _, err = run(capsys, ["verify", "d4-mod", "5"])
    assert code == EXIT_USAGE
    assert err == "no fixture for p=5; available p: 6..16\n"


@pytest.mark.parametrize("target", ["affine-a3", "affine-a3-variant", "all"])
def test_verify_refuses_a_modulus_outside_d4_mod(capsys, target):
    code, out, err = run(capsys, ["verify", target, "7"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "takes no modulus" in err


def test_each_fixture_is_reached_by_exactly_one_verify_invocation(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--json"])
    assert code == EXIT_OK
    everything = json.loads(out)
    invocations = [["affine-a3"], ["affine-a3-variant"]]
    invocations += [["d4-mod", str(p)] for p in range(-1, 40)]
    reached = Counter()
    for argv in invocations:
        code, out, err = run(capsys, ["verify", *argv, "--json"])
        if code == EXIT_USAGE:
            assert out == "" and err.startswith("no fixture for p=")
            continue
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload) == 1
        ((name, certificate),) = payload.items()
        # the same payload as the fixture's entry in `verify all`
        assert certificate == everything[name]
        reached[name] += 1
    names = [fx.name for fx in all_fixtures()]
    assert sorted(everything) == sorted(names)
    assert reached == Counter(names)
    assert set(reached.values()) == {1}


def test_verify_unknown_target_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "affine-a5"])
    assert info.value.code == EXIT_USAGE


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    def always_reject(w1, i1, w2, i2, g):
        return Rejection("commutator", "pairing", "synthetic failure")

    monkeypatch.setattr("burau.criteria.criterion1", always_reject)
    code, out, _ = run(capsys, ["verify", "affine-a3"])
    assert code == EXIT_FAILED
    assert out.startswith("FAIL affine-a3")
    assert "pairing: synthetic failure" in out


def test_burau_matrix_output(capsys):
    code, out, _ = run(capsys, ["burau", "--graph", "A2", "--word", "1"])
    assert code == EXIT_OK
    expected = str(word_matrix(preset("A2"), (1,), STANDARD, ZZ))
    assert out.strip("\n") == expected
    assert "-q^2" in out and "-q" in out


def test_burau_json_and_mod(capsys):
    code, out, _ = run(
        capsys,
        ["burau", "--graph", "A2", "--word", "1 1", "--mod", "5", "--json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["ring"] == "Z/5"
    assert len(payload["rows"]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["burau", "--graph", "A2", "--word", "1"],
        ["pairing", "--graph", "A2", "--w1", "1", "--i1", "1", "--w2", "", "--i2", "2"],
    ],
    ids=["burau", "pairing"],
)
@pytest.mark.parametrize("mod", ["0", "1"])
def test_burau_refuses_a_modulus_below_two(capsys, command, mod):
    with pytest.raises(SystemExit) as info:
        main(command + ["--mod", mod])
    assert info.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --mod: must be at least 2" in err


def test_pairing_of_the_affine_witness_pair(capsys):
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    code, out, _ = run(
        capsys,
        [
            "pairing",
            "--graph",
            "tildeA3",
            "--w1",
            " ".join(str(x) for x in a),
            "--i1",
            str(i1),
            "--w2",
            " ".join(str(x) for x in b),
            "--i2",
            str(i2),
        ],
    )
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_twist_output(capsys):
    code, out, _ = run(
        capsys, ["twist", "--graph", "A2", "--word", "1", "--start", "1"]
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "0: P1{2}[-1]"
    assert "k0 class: (-q^2, 0)" in lines
    assert "spherical: True" in lines


def test_hom_output(capsys):
    code, out, _ = run(
        capsys,
        [
            "hom",
            "--graph",
            "A2",
            "--w1",
            "",
            "--i1",
            "1",
            "--w2",
            "",
            "--i2",
            "2",
        ],
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["(1,0): 1", "Euler pairing: q"]


def test_hom_computes_one_table(capsys, monkeypatch):
    """The Euler pairing is read off the printed table, not recomputed."""
    calls = []
    real = burau.complexes.hom_table

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(burau.cli, "hom_table", counted)
    monkeypatch.setattr(burau.complexes, "hom_table", counted)
    argv = ["hom", "--graph", "tildeA3", "--w1", "1,2,-3,4", "--i1", "1", "--w2", "2,-1,3", "--i2", "3"]
    for extra in ([], ["--json"]):
        calls.clear()
        code, out, _ = run(capsys, argv + extra)
        assert code == EXIT_OK
        assert len(calls) == 1
    assert json.loads(out)["euler"] == "-2*q^4 + 2*q^2"


def test_search_curves_runs_and_writes_files(capsys, tmp_path):
    store_path = tmp_path / "store.json"
    out_path = tmp_path / "result.json"
    argv = [
        "search",
        "curves",
        "--graph",
        "tildeA2",
        "--budget",
        "30",
        "--criterion",
        "2",
        "--limit",
        "2",
        "--store",
        str(store_path),
        "--out",
        str(out_path),
    ]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.strip() == f"wrote {out_path}"
    result = json.loads(out_path.read_text())
    assert result["manifest"]["kind"] == "curves"
    assert result["store_size"] == 30
    assert result["candidate_pairs"] == 2
    assert result["certificates"] == []
    assert result["rejections"] == {"hom": 2}
    loaded = CurveStore.load(store_path)
    assert len(loaded) == 30


def test_search_curves_is_deterministic(capsys):
    argv = [
        "search",
        "curves",
        "--graph",
        "tildeA2",
        "--budget",
        "25",
        "--limit",
        "1",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_search_curves_counts_the_complexes_its_confirms_twist(capsys):
    argv = ["search", "curves", "--graph", "tildeA2", "--budget", "30",
            "--criterion", "2", "--limit", "4"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    # one complex per distinct record of the candidate pairs
    pairs = find_pairs(enumerate_curves(preset("tildeA2"), budget=30), 2, limit=4)
    records = {(r.witness, r.seed_vertex) for pair in pairs for r in pair}
    result = json.loads(out1)
    assert result["candidate_pairs"] == len(pairs) == 4
    assert result["twisted_complexes"] == len(records) > 4


def test_search_curves_stores_a_graph_with_an_infinite_label(capsys, tmp_path):
    # a store and its pair scan need no zigzag algebra; with no candidate
    # pair to confirm, nothing is twisted
    graph = tmp_path / "inf.txt"
    graph.write_text("n=3\n1-2:inf\n2-3:3\n")
    store_path = tmp_path / "store.json"
    code, out, _ = run(capsys, ["search", "curves", "--graph", str(graph), "--budget", "40",
                                "--limit", "0", "--store", str(store_path)])
    assert code == EXIT_OK
    result = json.loads(out)
    assert (result["store_size"], result["candidate_pairs"]) == (40, 0)
    assert result["twisted_complexes"] == 0
    assert len(CurveStore.load(store_path)) == 40


@pytest.mark.parametrize("criterion", ["1", "2"])
def test_search_curves_refuses_to_confirm_over_an_infinite_label(capsys, tmp_path, criterion):
    # confirming a candidate pair needs the zigzag algebra, which an
    # infinite label rules out, so a run that may confirm one is refused
    # before it enumerates, and writes neither file
    graph = tmp_path / "inf.txt"
    graph.write_text("n=3\n1-2:inf\n2-3:3\n")
    out_path, store_path = tmp_path / "run.json", tmp_path / "store.json"
    with pytest.raises(SystemExit) as info:
        main(["search", "curves", "--graph", str(graph), "--budget", "40", "--criterion", criterion,
              "--out", str(out_path), "--store", str(store_path)])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--graph" in err and "--limit" in err and "labels in {2, 3}" in err
    assert not out_path.exists() and not store_path.exists()


@pytest.mark.parametrize("flag", ["--seed", "--workers"])
def test_search_curves_rejects_walk_only_flags(capsys, flag):
    # a curve search is deterministic and single-process, so these flags
    # would be silently ignored
    with pytest.raises(SystemExit) as info:
        main(["search", "curves", "--graph", "tildeA2", "--budget", "25", flag, "2"])
    assert info.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_search_curves_limit_zero_reports_no_candidates(capsys):
    argv = ["search", "curves", "--graph", "A3", "--budget", "60", "--limit", "0"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out)["candidate_pairs"] == 0


def test_search_rejects_a_negative_limit(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "curves", "--limit", "-1", "--graph", "A3", "--budget", "10"])
    assert info.value.code == EXIT_USAGE
    assert "argument --limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,argument",
    [
        (["search", "buckets", "--graph", "A3", "--p", "1"], "argument --p"),
        (["search", "buckets", "--graph", "A3", "--p", "-7"], "argument --p"),
        (["search", "buckets", "--graph", "A3", "--budget", "-1"], "argument --budget"),
        (["search", "curves", "--graph", "A3", "--budget", "-5"], "argument --budget"),
    ],
)
def test_search_refuses_bad_moduli_and_budgets_at_parse_time(capsys, argv, argument):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert argument in capsys.readouterr().err


def test_search_buckets_deterministic_output(capsys):
    argv = [
        "search",
        "buckets",
        "--graph",
        "A3",
        "--p",
        "2",
        "--budget",
        "300",
        "--seed",
        "1",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    result = json.loads(out1)
    assert result["manifest"]["p"] == 2
    assert result["manifest"]["target"] == "fix_vector"
    assert result["buckets"]
    for key in result["buckets"]:
        length, sp = key.split(",")
        assert int(length) >= 0 and int(sp) >= 0


def test_search_buckets_has_no_target_option(capsys):
    base = ["search", "buckets", "--graph", "A3", "--p", "3", "--budget", "50"]
    for target in ("fix_vector", "spread_zero"):
        with pytest.raises(SystemExit) as info:
            main(base + ["--target", target])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --target" in captured.err


def test_search_buckets_start_is_a_vertex(capsys):
    base = ["search", "buckets", "--graph", "A3", "--p", "3", "--budget", "50"]
    with pytest.raises(SystemExit) as info:
        main(base + ["--start", "99"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: burau search buckets [-h]")
    assert "argument --start: vertex 99 out of range" in err
    code, out, _ = run(capsys, base)
    assert code == EXIT_OK
    manifest = json.loads(out)["manifest"]
    assert manifest["fix_vertex"] == 1
    assert manifest["target"] == "fix_vector"


def test_search_buckets_rejects_infinite_graphs(capsys):
    code, _, err = run(
        capsys,
        ["search", "buckets", "--graph", "tildeA3", "--p", "5"],
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_unknown_graph_and_bad_word_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["burau", "--graph", "nosuch", "--word", "1"])
    assert info.value.code == EXIT_USAGE
    assert "argument --graph" in capsys.readouterr().err
    # letters and vertices are held against the graph, naming the argument
    with pytest.raises(SystemExit) as info:
        main(["burau", "--graph", "A2", "--word", "5"])
    assert info.value.code == EXIT_USAGE
    assert "argument --word: letter 5 at position 0" in capsys.readouterr().err
    # a word that does not parse is refused by argparse, naming the argument
    with pytest.raises(SystemExit) as info:
        main(["burau", "--graph", "A2", "--word", "1,x"])
    assert info.value.code == EXIT_USAGE
    assert "argument --word: invalid braid word '1,x'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["hom", "--graph", "A2", "--w1", "1", "--i1", "1", "--w2", "2 y", "--i2", "2"])
    assert info.value.code == EXIT_USAGE
    assert "argument --w2" in capsys.readouterr().err


PAIR_ARGS = ["--graph", "A2", "--w1", "1", "--i1", "1", "--w2", "2", "--i2", "2"]


@pytest.mark.parametrize(
    "argv, name, bad, message",
    [
        (["pairing"] + PAIR_ARGS, "--i1", "3", "vertex 3 out of range"),
        (["hom"] + PAIR_ARGS, "--i2", "3", "vertex 3 out of range"),
        (["twist", "--graph", "A2", "--word", "1", "--start", "1"], "--start", "0",
         "vertex 0 out of range"),
        (["twist", "--graph", "A2", "--word", "1", "--start", "1"], "--word", "1,-3",
         "letter -3 at position 1"),
        (["pairing"] + PAIR_ARGS, "--w1", "4", "letter 4 at position 0"),
        (["hom"] + PAIR_ARGS, "--w2", "2,2,9", "letter 9 at position 2"),
    ],
)
def test_vertex_and_word_arguments_are_held_against_the_graph(
    capsys, argv, name, bad, message
):
    argv = list(argv)
    argv[argv.index(name) + 1] = bad
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    # the usage shown is the subcommand's, not the top-level one
    assert captured.err.startswith(f"usage: burau {argv[0]} [-h] --graph GRAPH")
    assert f"argument {name}: {message}" in captured.err


@pytest.mark.parametrize(
    "command",
    [["burau"], ["pairing"], ["twist"], ["hom"], ["search", "curves"], ["search", "buckets"]],
    ids=" ".join,
)
def test_every_graph_command_shows_the_graph_first(capsys, command):
    with pytest.raises(SystemExit) as info:
        main(command + ["-h"])
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: burau {' '.join(command)} [-h] --graph GRAPH")


def test_each_option_is_declared_once():
    # a shared option lives in one parent parser, not in each subcommand
    tree = ast.parse(Path(burau.cli.__file__).read_text())
    flags = Counter(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and isinstance(node.args[0], ast.Constant)
    )
    for flag in ("--graph", "--word", "--w1", "--i1", "--w2", "--i2", "--form", "--mod", "--json"):
        assert flags[flag] == 1, flag


def test_graph_files_load_at_parse_time(capsys, tmp_path):
    path = tmp_path / "a2.txt"
    path.write_text("n=2\n1-2:3\n")
    code, out, _ = run(capsys, ["burau", "--graph", str(path), "--word", "1"])
    assert code == EXIT_OK
    assert out.strip("\n") == str(word_matrix(preset("A2"), (1,), STANDARD, ZZ))
    path.write_text("n=2\n1-2\n")
    with pytest.raises(SystemExit) as info:
        main(["burau", "--graph", str(path), "--word", "1"])
    assert info.value.code == EXIT_USAGE
    assert "bad edge line" in capsys.readouterr().err


def test_internal_errors_exit_three_with_a_traceback(capsys, monkeypatch):
    def broken(*args):
        raise KeyError("a lookup bug")

    monkeypatch.setattr("burau.cli.word_matrix", broken)
    code, out, err = run(capsys, ["burau", "--graph", "A2", "--word", "1"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err and "KeyError: 'a lookup bug'" in err


def test_a_faulty_twist_entry_is_an_internal_error(capsys, monkeypatch):
    """A basis table that gives X1 degree 0 makes a cone entry fail its check
    inside the twist.  The fault is the library's, not the user's input, so
    the CLI exits 3 with a traceback instead of 2."""
    real = TokenCodes.__init__

    def faulty(self, graph):
        real(self, graph)
        rows = [list(row) for row in self.bases]
        rows[1][1] = tuple((k, 0) for k, _ in rows[1][1])
        self.bases = tuple(map(tuple, rows))

    monkeypatch.setattr(TokenCodes, "__init__", faulty)
    code, out, err = run(capsys, ["twist", "--graph", "tildeA3", "--word", "1", "--start", "1"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error")
    assert "AssertionError: entry 2->0 has token ('x', 1) of degree 2, expected 0" in err


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "burau.cli", "verify", "affine-a3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.strip() == "PASS affine-a3"
