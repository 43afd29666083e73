"""CLI surface: grammar, subcommands, exit codes, output formats."""

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kabminor
from kabminor import __version__, verify
from kabminor.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ORDER,
    SUITE_NAMES,
    SpecError,
    _FAMILIES,
    build_parser,
    main,
    parse_family_spec,
)
from kabminor.extremal import enumerate_graphs, predict
from kabminor.graphs import Graph, complete, cycle, path_graph, petersen, star_forest


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grammar_families():
    assert parse_family_spec("K:5").rows == complete(5).rows
    assert parse_family_spec("C:6").rows == cycle(6).rows
    assert parse_family_spec("petersen").rows == petersen().rows
    g = parse_family_spec("fab-complement:2,5")
    assert g.rows == star_forest(2, 5).complement().rows


def test_grammar_compound():
    g = parse_family_spec("join(K:2, union(K:5*2, fab-complement:2,5))")
    assert g.n == 18 and g.e == 64
    h = parse_family_spec("complement(union(star:2*2))")
    assert h.n == 6


def test_grammar_errors():
    for bad in ("K", "K:", "nope:3", "join(K:2)", "K:3)", "C:4*0",
                "complement(K:2,K:3)"):
        with pytest.raises(SpecError):
            parse_family_spec(bad)


def test_top_level_multiplier(capsys):
    # *k binds outside any combinator too, as inside union(...)
    assert parse_family_spec("K:5*2") == parse_family_spec("union(K:5*2)")
    code, out, _ = run(capsys, "construct", "K:5*2", "--format", "json")
    assert code == 0 and json.loads(out)["graph6"] == parse_family_spec("union(K:5*2)").to_graph6()
    code, out, err = run(capsys, "construct", "K:300*2")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: order 600 exceeds the cap of {MAX_ORDER} vertices\n"


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "C:5", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["order"] == 5 and data["size"] == 5
    assert data["config"]["command"] == "construct"


def test_construct_extremal(capsys):
    code, out, _ = run(capsys, "construct", "extremal", "--a", "1", "--b", "3",
                       "--n", "7", "--alpha", "0.5", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["clause"] == "subdivided-clique" and data["order"] == 7


def test_construct_extremal_outside(capsys):
    code, out, _ = run(capsys, "construct", "extremal", "--a", "1", "--b", "4",
                       "--n", "6", "--alpha", "0.1", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["graph6"] is None and "alpha" in data["caveat"]


def test_construct_extremal_a1_small_b_is_outside(capsys):
    code, out, _ = run(capsys, "construct", "extremal", "--a", "1", "--b", "2",
                       "--n", "5", "--alpha", "0.7", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["graph6"] is None and data["clause"] == "outside-theorem"
    assert data["caveat"] == "a = 1 clauses need b >= 3"


def test_construct_extremal_missing_args(capsys):
    code, _, err = run(capsys, "construct", "extremal")
    assert code == EXIT_USAGE and "error" in err


@pytest.mark.parametrize("argv", [
    ["construct", "extremal", "--a", "1", "--b", "8", "--n", "61", "--alpha", "0.5"],
    ["construct", "extremal", "--a", "4", "--b", "8", "--n", "21", "--alpha", "0.5"],
    ["search", "--n", "7", "--constraint", "star-minor-free:5", "--a", "1", "--b", "5",
     "--alpha", "0.5"],
])
def test_prediction_budget_exhaustion_exits_3(capsys, monkeypatch, argv):
    # the re-verification of the predicted graph is starved of budget
    import functools

    from kabminor import extremal, minors

    monkeypatch.setattr(extremal, "has_minor", functools.partial(minors.has_minor, budget=10))
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_construct_dot(capsys):
    code, out, _ = run(capsys, "construct", "P:3", "--dot", "--format", "json")
    assert code == EXIT_OK
    assert "graph" in json.loads(out)["dot"]
    # construct extremal emits the predicted graph's DOT, or null when the
    # clause builds no graph
    code, out, _ = run(capsys, "construct", "extremal", "--a", "1", "--b", "3",
                       "--n", "6", "--dot", "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK and data["dot"] == predict(1, 3, 6, 0.0).graph.to_dot()
    code, out, _ = run(capsys, "construct", "extremal", "--a", "1", "--b", "4",
                       "--n", "6", "--alpha", "0.1", "--dot", "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK and data["graph6"] is None and data["dot"] is None


def test_lambda_regular(capsys):
    code, out, _ = run(capsys, "lambda", "C:8", "--alpha", "0.4",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["lambda"] - 2.0) < 1e-9
    assert data["residual"] <= 1e-10


def test_lambda_graph6_input(capsys):
    g6 = complete(4).to_graph6()
    code, out, _ = run(capsys, "lambda", "g6:" + g6, "--format", "json")
    assert code == EXIT_OK
    assert abs(json.loads(out)["lambda"] - 3.0) < 1e-9


def test_lambda_perron(capsys):
    code, out, _ = run(capsys, "lambda", "star:4", "--perron", "--alpha", "0.5",
                       "--format", "json")
    data = json.loads(out)
    assert data["is_perron"] and len(data["vector"]) == 5


def test_lambda_perron_output_is_pinned(capsys):
    # a disconnected graph: the Perron vector of the first of two tied K_4
    # components, zero-padded
    code, out, _ = run(capsys, "lambda", "union(K:4,C:5,K:4)", "--alpha", "0.5", "--perron",
                       "--format", "json")
    assert code == EXIT_OK
    assert out == (
        '{"alpha": 0.5, "config": {"alpha": 0.5, "command": "lambda", "format": "json", '
        '"version": "' + __version__ + '"}, "graph6": "L~?GGCH???_B?F", "is_perron": false, "lambda": 3.0, '
        '"residual": 2.220446049250313e-16, "vector": [0.4999999999999999, 0.5, 0.5, 0.5, '
        '0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}\n')


@pytest.mark.parametrize("spec,vector", [
    ("union(K:1,K:2)", "[0.0, 0.7071067811865476, 0.7071067811865476]"),
    ("union(K:1*3)", "[1.0, 0.0, 0.0]"),
])
def test_lambda_isolated_vertices_output_is_pinned(capsys, spec, vector):
    # an isolated vertex beside an edge is not solved, as it loses to any
    # edge; an edgeless graph solves its first vertex alone, which wins
    code, out, _ = run(capsys, "lambda", spec, "--perron", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["residual"] == 0.0 and not data["is_perron"]
    assert out.endswith('"residual": 0.0, "vector": ' + vector + "}\n")


@pytest.mark.parametrize("argv", [
    ("lambda", "K:4", "--perron"),
    ("search", "--n", "5", "--constraint", "star-minor-free:3"),
    ("construct", "extremal", "--a", "1", "--b", "3", "--n", "6"),
])
def test_negative_zero_alpha_prints_as_zero(capsys, argv):
    outs = []
    for alpha in ("-0.0", "0"):
        code, out, _ = run(capsys, *argv, "--alpha", alpha, "--format", "json")
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    assert '"alpha": 0.0' in outs[0] and "-0.0" not in outs[0]


@pytest.mark.parametrize("argv", [
    ("construct", "K:5"),
    ("lambda", "K:3"),
    ("search", "--n", "5", "--constraint", "star-minor-free:3"),
])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5", "1"])
def test_alpha_outside_unit_interval_is_usage_error(capsys, argv, alpha):
    # a NaN alpha would echo as `"alpha": NaN`, which is not JSON
    code, out, err = run(capsys, *argv, "--alpha", alpha, "--format", "json")
    assert code == EXIT_USAGE and out == ""
    assert "--alpha" in err


def test_corpus_isomorphs_give_one_maximizer(capsys, tmp_path):
    f = tmp_path / "c.g6"
    c8 = cycle(8)
    f.write_text(c8.to_graph6() + "\n" + c8.relabel([3, 0, 6, 1, 7, 2, 5, 4]).to_graph6() + "\n")
    code, out, _ = run(capsys, "search", "--constraint", "star-minor-free:3",
                       "--corpus", str(f), "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK and data["survivors"] == 2
    assert data["maximizers"] == ["G?LTE?"]


def test_minor_exit_codes(capsys):
    # free -> 0
    code, out, _ = run(capsys, "minor", "C:6", "K_{1,3}", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["verdict"] == "free"
    # contains -> 1, with a witness
    code, out, _ = run(capsys, "minor", "K:5", "K_{2,3}", "--format", "json")
    assert code == EXIT_FAIL
    assert len(json.loads(out)["branch_sets"]) == 5
    # budget -> 3
    code, out, _ = run(capsys, "minor", "join(K:2,C:10)", "K_{3,4}",
                       "--budget", "5", "--format", "json")
    assert code == EXIT_BUDGET and json.loads(out)["verdict"] == "budget"


def test_minor_pattern_inputs(capsys):
    code1, out1, _ = run(capsys, "minor", "K:5", "K_{2,3}", "--format", "json")
    code2, out2, _ = run(capsys, "minor", "K:5", "Kst:2,3", "--format", "json")
    assert code1 == code2 == EXIT_FAIL
    assert json.loads(out1)["pattern"] == json.loads(out2)["pattern"]


def test_search_internal(capsys):
    code, out, _ = run(capsys, "search", "--constraint", "star-minor-free:3",
                       "--n", "6", "--alpha", "0.5", "--a", "1", "--b", "3",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["prediction"]["agrees"] is True
    assert abs(data["lambda_max"] - 2.0) < 1e-9
    assert len(data["maximizers"]) == 1


def test_search_corpus_file(capsys, tmp_path):
    f = tmp_path / "c.g6"
    f.write_text(cycle(5).to_graph6() + "\n" + complete(4).to_graph6() + "\n")
    code, out, _ = run(capsys, "search", "--constraint", "star-minor-free:3",
                       "--corpus", str(f), "--alpha", "0.0", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["corpus"]["source"] == str(f)
    assert abs(data["lambda_max"] - 2.0) < 1e-9  # K4 violates the constraint


def test_search_corpus_reads_n_for_a_prediction(capsys, tmp_path):
    f = tmp_path / "c.g6"
    f.write_text(cycle(5).to_graph6() + "\n" + complete(4).to_graph6() + "\n")
    code, out, _ = run(capsys, "search", "--constraint", "star-minor-free:3",
                       "--corpus", str(f), "--n", "5", "--a", "1", "--b", "3",
                       "--alpha", "0.5", "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK and data["config"]["n"] == 5
    assert data["prediction"]["agrees"] is True


def test_search_unreadable_corpus_is_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing.g6", tmp_path):
        code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3",
                             "--corpus", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot read --corpus") and "Traceback" not in err


def test_search_without_survivors_is_usage_error(capsys, tmp_path):
    # an empty corpus and a corpus the constraint rejects whole both
    # leave nothing to rank
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    rejected = tmp_path / "k4.g6"
    rejected.write_text(complete(4).to_graph6() + "\n")
    for path in (empty, rejected):
        code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3",
                             "--corpus", str(path), "--format", "json")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: no corpus graph satisfies the constraint\n"


def test_empty_corpus_fails_alike_for_every_jobs(capsys, tmp_path):
    # no item asks for no worker: every --jobs runs the empty filter serially
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3",
                             "--corpus", str(empty), "--jobs", jobs)
        assert (code, out, err) == (EXIT_USAGE, "", "error: no corpus graph satisfies the constraint\n")


def test_search_budget_abort(capsys, tmp_path):
    from kabminor.graphs import join, complete as K, petersen_complement

    for g, constraint in ((join(K(2), cycle(8)), "kab-minor-free:3,4"),
                          (petersen_complement(), "star-minor-free:8")):
        f = tmp_path / "c.g6"
        f.write_text(g.to_graph6() + "\n")
        code, out, _ = run(capsys, "search", "--constraint", constraint,
                           "--corpus", str(f), "--budget", "3", "--format", "json")
        assert code == EXIT_BUDGET
        data = json.loads(out)
        assert data["error"] == "budget" and data["candidate"] == g.to_graph6()


# stdout of `search --n 7 --constraint star-minor-free:4 --budget 3 --format
# json`, and of the same graphs given as a --corpus file, as released: the
# walk never reaches the list's first undecided graph, so it names another
STARVED_SEARCH = (
    '{{"candidate": "{}", "config": {{"a": null, "alpha": 0.0, "b": null, "budget": 3, '
    '"command": "search", "format": "json", "jobs": {}, "n": {}, "version": "0.1.0"}}, '
    '"error": "budget"}}\n')


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_starved_search_output_is_pinned(capsys, tmp_path, jobs):
    argv = ["search", "--constraint", "star-minor-free:4", "--budget", "3",
            "--format", "json", "--jobs", jobs]
    code, out, err = run(capsys, *argv, "--n", "7")
    assert (code, out, err) == (EXIT_BUDGET, STARVED_SEARCH.format("F??}O", jobs, 7), "")
    f = tmp_path / "c7.g6"
    f.write_text("".join(g.to_graph6() + "\n" for g in enumerate_graphs(7, True)))
    code, out, err = run(capsys, *argv, "--corpus", str(f))
    assert (code, out, err) == (EXIT_BUDGET, STARVED_SEARCH.format("F??Fw", jobs, "null"), "")


def test_corpus_records_above_the_cap_are_usage_errors(capsys, tmp_path, built_orders):
    f = tmp_path / "long.g6"
    f.write_text(path_graph(MAX_ORDER + 1).to_graph6() + "\n" + complete(3).to_graph6() + "\n")
    built_orders.clear()
    code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3", "--corpus", str(f))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {f}:1: order {MAX_ORDER + 1} exceeds the cap of {MAX_ORDER} vertices\n"
    assert max(built_orders, default=0) <= MAX_ORDER


def test_corpus_records_above_the_canonical_limit_are_usage_errors(capsys, tmp_path):
    f = tmp_path / "p11.g6"
    f.write_text(path_graph(11).to_graph6() + "\n")
    code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3", "--corpus", str(f))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {f}:1: order 11 exceeds the canonical-form limit of 10 vertices\n"


def test_corpus_records_that_are_not_graph6_text_are_usage_errors(capsys, tmp_path):
    # a byte that is not UTF-8, and a UTF-8 character outside graph6's range
    f = tmp_path / "bytes.g6"
    for record, shown in ((b"\xff", r"'\udcff'"), ("\u00e9".encode(), "'\u00e9'")):
        f.write_bytes(b"A_\n" + record + b"\n")
        code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3", "--corpus", str(f))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {f}:2: character {shown} out of graph6 range\n"


def test_search_usage_errors(capsys):
    code, _, err = run(capsys, "search", "--constraint", "star-minor-free:3")
    assert code == EXIT_USAGE
    for n in ("9", "0"):
        code, out, err = run(capsys, "search", "--constraint", "star-minor-free:3", "--n", n)
        assert code == EXIT_USAGE and out == "" and "1 <= n <= 8" in err
    code, _, _ = run(capsys, "search", "--n", "5")
    assert code == EXIT_USAGE  # missing --constraint


def test_verify_pass_and_formats(capsys):
    code, out, _ = run(capsys, "verify", "polynomial-identities",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert all(o["status"] == "pass" for o in data["outcomes"])
    code, out, _ = run(capsys, "verify", "polynomial-identities",
                       "--format", "csv")
    assert code == EXIT_OK and out.startswith("check_id,status,margin")
    code, out, _ = run(capsys, "verify", "lemma-updown", "--b", "3..5")
    assert code == EXIT_OK and "pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == EXIT_USAGE and "unknown suite" in err


def test_verify_help_names_the_suites():
    # cli names the suites itself, so that only verify loads the module
    assert SUITE_NAMES == tuple(verify.SUITES)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suites = next(a for a in sub.choices["verify"]._actions if a.dest == "suites")
    assert suites.help == f"suites: {', '.join(verify.SUITES)} or all"


def _imported(*args):
    """Exit code and the names of every module a fresh interpreter imports
    while it runs args; -X importtime lists each one on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(kabminor.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


# the modules that only the spectral solve and the searches built on it need
SOLVER_MODULES = {"numpy", "kabminor.spectral", "kabminor.extremal"}


@pytest.mark.parametrize("argv, code", [
    pytest.param(["--version"], EXIT_OK, id="argv0"),
    pytest.param(["search", "--n", "5", "--constraint", "star-minor-free:3", "--format", "json"],
                 EXIT_OK, id="argv1"),
    pytest.param(["minor", "petersen-complement", "K_{2,7}"], EXIT_OK, id="argv2"),
    pytest.param(["construct", "K:5"], EXIT_OK, id="argv3"),
    pytest.param(["frobnicate"], EXIT_USAGE, id="argv4"),
])
def test_commands_leave_verify_and_multiprocessing_unloaded(argv, code):
    returncode, imported = _imported("-m", "kabminor.cli", *argv)
    assert returncode == code
    assert "kabminor.verify" not in imported
    assert not any(m.split(".")[0] == "multiprocessing" for m in imported)
    # the package's types are NamedTuples and slotted classes
    assert "dataclasses" not in imported
    if argv[0] == "search":
        assert SOLVER_MODULES <= imported
    else:
        # pure-Python commands and usage errors start without numpy, and
        # so without inspect
        assert {"kabminor.graphs", "kabminor.minors"} <= imported
        assert not any(m in SOLVER_MODULES or m.startswith("numpy.") for m in imported)
        assert "inspect" not in imported


def test_main_runs_blas_on_one_thread_unless_set(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run(capsys, "--version")[0] == EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert run(capsys, "--version")[0] == EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_package_names_load_their_submodule_on_first_use():
    code, imported = _imported("-c", "import kabminor")
    assert code == EXIT_OK and "kabminor" in imported
    assert not any(m.startswith("kabminor.") or m.split(".")[0] == "numpy" for m in imported)
    for module, names in kabminor._EXPORTS.items():
        sub = importlib.import_module(f"kabminor.{module}")
        assert getattr(kabminor, module) is sub
        for name in names:
            assert getattr(kabminor, name) is getattr(sub, name)
    # each of the package's 42 public names once
    assert len(set(kabminor.__all__)) == len(kabminor.__all__) == 42
    assert set(kabminor.__all__) <= set(dir(kabminor))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        kabminor.no_such_name
    assert verify is importlib.import_module("kabminor.verify")


def test_usage_exit_codes(capsys):
    assert run(capsys, "construct", "nope:1")[0] == EXIT_USAGE
    assert run(capsys, "lambda", "!!bad!!")[0] == EXIT_USAGE
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys, "minor", "petersen", "K_{-1,3}", "--format", "json")[0] == EXIT_USAGE
    assert run(capsys, "--version")[0] == 0


@pytest.mark.parametrize("argv, reason", [
    (("lambda", "join(K:2)"), "join needs at least two arguments"),
    (("lambda", "K:"), "expected an integer at position 2"),
    (("minor", "union(K:2,Q:3)", "K_{2,3}"), "unknown family 'Q'"),
])
def test_spec_errors_keep_the_grammar_reason(capsys, argv, reason):
    # text holding ':' or '(' is no graph6, so the parser's reason is the
    # error, as construct prints it for the same text
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {reason}\n")
    assert run(capsys, "construct", argv[1]) == (EXIT_USAGE, "", f"error: {reason}\n")


# one command for each exit code: 0, 1, 2 and 3
EXIT_CASES = [
    pytest.param(["search", "--n", "6", "--constraint", "star-minor-free:4", "--format", "json"],
                 EXIT_OK, id="search"),
    pytest.param(["minor", "petersen-complement", "K_{2,6}"], EXIT_FAIL, id="minor-contains"),
    pytest.param(["search", "--n", "6"], EXIT_USAGE, id="usage"),
    pytest.param(["search", "--n", "6", "--constraint", "star-minor-free:4", "--budget", "3",
                  "--format", "json"], EXIT_BUDGET, id="starved"),
]


@pytest.mark.parametrize("argv, code", EXIT_CASES + [
    pytest.param(["--version"], EXIT_OK, id="version"),
    pytest.param(["--help"], EXIT_OK, id="help"),
])
def test_only_the_process_entry_point_freezes_the_collector(capsys, monkeypatch, argv, code):
    # main([...]) keeps the caller's collector; main() with no argv, as
    # the console script and `python -m kabminor.cli` call it, freezes
    # on its way out
    before = gc.get_freeze_count()
    assert run(capsys, *argv)[0] == code
    assert gc.get_freeze_count() == before
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(gc.get_freeze_count()))
    monkeypatch.setattr(sys, "argv", ["kabminor", *argv])
    assert main() == code
    assert frozen == [before]


@pytest.mark.parametrize("argv, code", EXIT_CASES)
def test_fresh_process_prints_what_main_prints(capsys, monkeypatch, argv, code):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(Path(kabminor.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "kabminor.cli", *argv],
                          env=env, capture_output=True, timeout=120)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected[1].encode(), expected[2].encode())


def test_table_format_default(capsys):
    code, out, _ = run(capsys, "construct", "K:3")
    assert code == EXIT_OK
    assert "graph6:" in out and "config" not in out


def test_budget_below_one_is_usage_error(capsys):
    for budget in ("0", "-5"):
        code, out, err = run(capsys, "minor", "petersen", "K_{2,3}",
                             "--budget", budget, "--format", "json")
        assert code == EXIT_USAGE and out == "" and "--budget" in err
    code, _, _ = run(capsys, "minor", "petersen", "K_{2,3}", "--budget", "1")
    assert code == EXIT_BUDGET


def test_verify_empty_b_range_is_usage_error(capsys):
    # an open or malformed range is neither B nor LO..HI
    for rng, msg in (("8..3", "empty --b range"), ("5..4", "empty --b range"),
                     ("3..", "--b takes"), ("..5", "--b takes"), ("abc", "--b takes"),
                     ("3..8..9", "--b takes"), ("", "--b takes")):
        code, out, err = run(capsys, "verify", "lemma-updown", "--b", rng,
                             "--format", "json")
        assert code == EXIT_USAGE and out == "" and msg in err
    for rng in ("1..3", "2..4"):
        code, out, err = run(capsys, "verify", "lemma-updown", "--b", rng,
                             "--format", "json")
        assert code == EXIT_USAGE and out == "" and "below 3" in err


def test_verify_b_over_the_cap_is_usage_error(capsys, built_orders):
    # lemma-updown builds subdivided cliques of order up to b + 5: the
    # largest is capped before any check runs
    for rng, order in (("496", 501), ("3..100000", 100005)):
        code, out, err = run(capsys, "verify", "lemma-updown", "--b", rng, "--format", "json")
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: order {order} exceeds the cap of {MAX_ORDER} vertices\n"
    assert built_orders == []


def test_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "search", "--n", "5", "--constraint",
                             "star-minor-free:3", "--jobs", jobs, "--format", "json")
        assert code == EXIT_USAGE and out == "" and "--jobs" in err


def test_verify_b_outside_lemma_updown_is_usage_error(capsys):
    for suites in (["polynomial-identities"], [], ["lemma-updown", "polynomial-identities"]):
        code, out, err = run(capsys, "verify", *suites, "--b", "3..4", "--format", "json")
        assert code == EXIT_USAGE and out == "" and "--b" in err


@pytest.mark.parametrize("argv", [
    ["search", "--n", "6", "--constraint", "star-minor-free:3", "--b", "3"],
    ["search", "--n", "6", "--constraint", "star-minor-free:3", "--a", "1"],
    ["construct", "K:4", "--a", "1", "--n", "9"],
    ["construct", "C:5", "--b", "3"],
    ["search", "--corpus", "CORPUS", "--n", "5", "--all-graphs",
     "--constraint", "star-minor-free:4"],
    ["search", "--corpus", "CORPUS", "--all-graphs", "--constraint", "star-minor-free:4"],
    ["search", "--corpus", "CORPUS", "--n", "5", "--constraint", "star-minor-free:4"],
])
def test_options_without_effect_are_usage_errors(capsys, tmp_path, argv):
    # a prediction needs all of --a, --b and --n, construct reads them
    # only for 'extremal', and a --corpus search never reads --all-graphs
    # and reads --n only for a prediction
    corpus = tmp_path / "k4.g6"
    corpus.write_text(complete(4).to_graph6() + "\n")
    argv = [str(corpus) if x == "CORPUS" else x for x in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_USAGE and out == "" and err.startswith("error: ")


_BASE_ARGV = {
    "construct": ["construct", "C:5"],
    "lambda": ["lambda", "C:5"],
    "minor": ["minor", "C:5", "K_{1,3}"],
    "search": ["search", "--constraint", "star-minor-free:3", "--n", "5"],
    "verify": ["verify", "polynomial-identities"],
}


@pytest.mark.parametrize("command,option,value", [
    ("construct", "--jobs", "2"), ("construct", "--budget", "5"),
    ("construct", "--format", "csv"),
    ("lambda", "--jobs", "2"), ("lambda", "--budget", "5"),
    ("lambda", "--format", "csv"),
    ("minor", "--alpha", "0.3"), ("minor", "--jobs", "2"),
    ("minor", "--format", "csv"),
    ("search", "--format", "csv"),
    ("verify", "--alpha", "0.3"), ("verify", "--jobs", "2"),
    ("verify", "--budget", "5"),
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, command, option, value):
    code, out, err = run(capsys, *_BASE_ARGV[command], option, value)
    assert code == EXIT_USAGE and out == "" and option in err


@pytest.mark.parametrize("command,option,value,expected", [
    ("construct", "--alpha", "0.3", 0.3),
    ("lambda", "--alpha", "0.3", 0.3),
    ("minor", "--budget", "1000", 1000),
    ("search", "--alpha", "0.3", 0.3),
    ("search", "--jobs", "2", 2),
    ("search", "--budget", "1000", 1000),
])
def test_options_a_command_reads_are_in_config(capsys, command, option, value, expected):
    code, out, _ = run(capsys, *_BASE_ARGV[command], option, value, "--format", "json")
    assert code == EXIT_OK and json.loads(out)["config"][option[2:]] == expected


def test_lambda_config_lists_only_settings_read(capsys):
    code, out, _ = run(capsys, "lambda", "C:5", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["config"] == {"alpha": 0.0, "command": "lambda",
                                         "format": "json", "version": __version__}


# sha256 of the stdout of `search --n 8 --constraint star-minor-free:b --a 1
# --b b --alpha 0.5 --format json`, recorded before the walk skipped
# disconnected last-order children and trimmed its refinement signatures
SEARCH_N8_DIGESTS = {
    3: "af178feb67bf484f31ca8203b4f40711f1eec843fc3567a4517ccd90e383fdca",
    4: "5dd689a7a94d67aa9a3c7ea13f626b1f9b4af870c492f125f229f479a56b02ad",
    5: "7838447d43316d9ac9c569d7a2282ecb7b9b120b57dd1ea0f0cb3faf4b9d7bb3",
    6: "9bcae4bef58220038a39f42bc3b1405b6f7e8084756af0d0120775c3b15afc18",
    7: "3dc93e959bad5e428348173d473a3117eb331d09be8a55ccc6716107cb73de6d",
    8: "7bceb544c8d61b7eeb755c77ab0bf60e3eaa956b9297a03ddb602ba9afa4edfe",
}


@pytest.mark.parametrize("b", sorted(SEARCH_N8_DIGESTS))
def test_search_n8_reports_are_pinned(capsys, b):
    code, out, _ = run(capsys, "search", "--n", "8", "--constraint", f"star-minor-free:{b}",
                       "--a", "1", "--b", str(b), "--alpha", "0.5", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_N8_DIGESTS[b]


# sha256 of the stdout of `verify theorem-small-n edge-lemmas --format
# json`: exhaustive outcomes over the enumeration and the filtered walk,
# whose margins are integers or null, so no eigensolver float shows
VERIFY_EXHAUSTIVE_DIGEST = "e8d547f62fcd20378edd3f16cac0cf3a824d75cfc403dfd78f412721e5db7696"


def test_verify_exhaustive_report_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "theorem-small-n", "edge-lemmas", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_EXHAUSTIVE_DIGEST


@pytest.fixture
def built_orders(monkeypatch):
    """The order of every Graph constructed while the test runs."""
    orders = []
    check = Graph.__post_init__

    def record(self):
        orders.append(self.n)
        check(self)

    monkeypatch.setattr(Graph, "__post_init__", record)
    return orders


@pytest.mark.parametrize("argv", [
    ("construct", f"K:{MAX_ORDER + 1}"),
    ("construct", f"E:{MAX_ORDER + 1}"),
    ("construct", f"star:{MAX_ORDER}"),
    ("construct", f"Kst:{MAX_ORDER // 2},{MAX_ORDER // 2 + 1}"),
    ("construct", f"fgraph:{MAX_ORDER // 2},{MAX_ORDER // 2},1"),
    ("construct", f"union(K:2*{MAX_ORDER // 2 + 1})"),
    ("construct", f"union(E:0*{MAX_ORDER + 1})"),
    ("construct", f"union(K:{MAX_ORDER // 2},K:{MAX_ORDER // 2 + 1})"),
    ("construct", f"join(K:{MAX_ORDER // 2},K:{MAX_ORDER // 2 + 1})"),
    ("construct", f"complement(union(K:{MAX_ORDER},K:1))"),
    ("construct", "extremal", "--a", "1", "--b", "8", "--n", str(MAX_ORDER + 1)),
    ("lambda", f"C:{MAX_ORDER + 1}"),
    ("minor", "K:3", f"K:{MAX_ORDER + 1}"),
])
def test_orders_above_the_cap_are_usage_errors(capsys, built_orders, argv):
    # rejected before the graph over the cap is built: nothing larger than
    # the cap is ever constructed
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "exceeds the cap" in err
    assert max(built_orders, default=0) <= MAX_ORDER


def test_bipartite_pattern_over_the_cap_is_usage_error(capsys, built_orders):
    # the minor command's K_{r,s} shorthand is capped as the grammar's
    # Kst:r,s is, before the pattern is built
    r, s = MAX_ORDER // 2, MAX_ORDER // 2 + 1
    for pattern in (f"K_{{{r},{s}}}", f"K{r},{s}"):
        code, out, err = run(capsys, "minor", "K:3", pattern)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: order {MAX_ORDER + 1} exceeds the cap of {MAX_ORDER} vertices\n"
    assert max(built_orders, default=0) <= MAX_ORDER
    # a negative side is no order to cap: the text is not a pattern
    code, out, err = run(capsys, "minor", "K:3", f"K_{{-5,{MAX_ORDER + 100}}}")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: cannot parse 'K_{{-5,{MAX_ORDER + 100}}}' as family spec or graph6\n"


def _edgeless_graph6(n):
    """The graph6 record of the edgeless graph of order n (long form),
    written without building the graph."""
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)) + "?" * ((n * (n - 1) // 2 + 5) // 6)


@pytest.mark.parametrize("argv", [
    ("lambda", "g6:" + _edgeless_graph6(MAX_ORDER + 1)),
    ("lambda", _edgeless_graph6(MAX_ORDER + 1)),
    ("minor", "g6:" + _edgeless_graph6(MAX_ORDER + 1), "K_{1,3}"),
    ("minor", "K:3", "g6:" + _edgeless_graph6(MAX_ORDER + 1)),
    # a path this long once overflowed the minor search's recursion
    ("minor", "g6:" + path_graph(1000).to_graph6(), "K_{1,3}", "--budget", "100000"),
    # the header alone decides: the body is never read
    ("lambda", "g6:" + _edgeless_graph6(MAX_ORDER + 1)[:4]),
])
def test_graph6_orders_above_the_cap_are_usage_errors(capsys, built_orders, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: order ") and f"exceeds the cap of {MAX_ORDER} vertices" in err
    assert max(built_orders, default=0) <= MAX_ORDER


def test_graph6_cap_error_names_an_eight_byte_order(capsys):
    code, out, err = run(capsys, "lambda", "g6:~~?@IrL?")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: order 19608384 exceeds the cap of {MAX_ORDER} vertices\n"


def test_graph6_orders_at_the_cap_load(capsys):
    for spec in ("g6:" + _edgeless_graph6(MAX_ORDER), _edgeless_graph6(MAX_ORDER)):
        code, out, _ = run(capsys, "lambda", spec, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["graph6"] == _edgeless_graph6(MAX_ORDER)


def test_orders_at_the_cap_build(capsys):
    for spec in (f"E:{MAX_ORDER}", f"union(K:1*{MAX_ORDER})", f"join(E:1,E:{MAX_ORDER - 1})"):
        code, out, _ = run(capsys, "construct", spec, "--format", "json")
        assert code == EXIT_OK and json.loads(out)["order"] == MAX_ORDER


def test_family_orders_match_built_graphs():
    # the cap is checked on these formulas before a family is built
    for name, (arity, ctor, order) in _FAMILIES.items():
        for args in itertools.product(range(9), repeat=arity):
            try:
                g = ctor(*args)
            except (ValueError, AssertionError):
                continue
            assert g.n == order(*args), (name, args)
