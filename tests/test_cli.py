"""End-to-end command-line tests: every subcommand, the exit-code contract
and JSON report round-trips."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modtwist import cli, galmodel
from modtwist.arith import InvariantError
from modtwist.cli import (
    EXIT_MODEL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARITY,
    EXIT_USAGE,
    Report,
    build_parser,
    main,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "perfbench" / "data" / "goldens_cli.json"
PLAIN = ROOT / "tests" / "data" / "cli_plain.json"
MALFORMED = sorted((ROOT / "perfbench" / "data" / "malformed").glob("*.json"))

GOOD_MODEL = {
    "p": 3,
    "group": {"type": "permutation", "generators": {"s": [1, 0]}},
    "rho": {"s": [[0, 1], [1, 0]]},
    "chi": {"s": 2},
    "conj": "s",
    "characters": {"k": {"values": {"s": -1}, "field": -1}},
}

# det rho = eps here, so this model fits cyclotomic levels and clashes with
# non-cyclotomic ones; the converse model flips chi
INCOMPATIBLE_MODEL = dict(GOOD_MODEL, chi={"s": 1}, conj=None)
INCOMPATIBLE_MODEL.pop("conj", None)
INCOMPATIBLE_MODEL = {
    "p": 3,
    "group": {"type": "permutation", "generators": {"s": [1, 0]}},
    "rho": {"s": [[0, 1], [1, 0]]},
    "chi": {"s": 1},
}

INVALID_MODEL = {
    "p": 3,
    "group": {"type": "permutation", "generators": {"s": [1, 0]}},
    "rho": {"s": [[1, 1], [0, 1]]},  # order 3 image of an order 2 generator
    "chi": {"s": 2},
}


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(GOOD_MODEL))
    return str(p)


@pytest.fixture
def incompatible_model_path(tmp_path):
    p = tmp_path / "incompatible.json"
    p.write_text(json.dumps(INCOMPATIBLE_MODEL))
    return str(p)


@pytest.fixture
def invalid_model_path(tmp_path):
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(INVALID_MODEL))
    return str(p)


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, Report(**json.loads(out))


def test_genus(capsys):
    code, rep = run_json(capsys, ["genus", "4", "3"])
    assert code == EXIT_OK
    assert rep.command == "genus"
    assert rep.outputs["genus"] == 1


def test_genus_oracle_agrees(capsys):
    code, rep = run_json(capsys, ["genus", "4", "5", "--oracle"])
    assert code == EXIT_OK
    assert rep.outputs["genus"] == rep.outputs["oracle_genus"] == 13


def test_genus_plus(capsys):
    code, rep = run_json(capsys, ["genus", "4", "5", "--plus"])
    assert code == EXIT_OK
    assert rep.outputs["genus"] == 4


def test_genus_plus_non_cyclotomic_is_usage_error(capsys):
    assert main(["genus", "2", "3", "--plus"]) == EXIT_USAGE


def test_genus_invalid_level_is_usage_error():
    assert main(["genus", "3", "3"]) == EXIT_USAGE


def test_cusps(capsys):
    code, rep = run_json(capsys, ["cusps", "20", "--oracle"])
    assert code == EXIT_OK
    assert rep.outputs["count"] == rep.outputs["oracle_count"] == 6


def test_cusps_bad_n(capsys):
    assert main(["cusps", "0"]) == EXIT_USAGE


def test_structure_cyclotomic(capsys):
    code, rep = run_json(capsys, ["structure", "4", "3"])
    assert code == EXIT_OK
    assert rep.outputs["structure"] == "DirectProduct"
    assert rep.outputs["order"] == 24


def test_structure_non_cyclotomic(capsys):
    code, rep = run_json(capsys, ["structure", "2", "3"])
    assert code == EXIT_OK
    assert rep.outputs["structure"] == "FullPGL2"
    assert rep.outputs["relations_verified"] is True
    assert rep.outputs["single_conjugacy_class"] is True


def test_scan_lemma(capsys):
    code, rep = run_json(capsys, ["scan", "--lemma", "--max", "71"])
    assert code == EXIT_OK
    pairs = {tuple(x) for x in rep.outputs["pairs"]}
    assert pairs == {(2, 3), (4, 3), (5, 3), (8, 3), (11, 3), (2, 5), (4, 5), (3, 7)}


def test_scan_low_genus(capsys):
    code, rep = run_json(capsys, ["scan", "--max-n", "10", "--max-p", "5"])
    assert code == EXIT_OK
    found = {(row["N"], row["p"]): row["genus"] for row in rep.outputs["levels"]}
    assert found[(4, 3)] == 1
    # both bounds at their limit, no N to scan
    code, rep = run_json(capsys, ["scan", "--max-n", "1", "--max-p", "1000"])
    assert code == EXIT_OK
    assert rep.outputs["levels"] == []


def test_al_fixed(capsys):
    code, rep = run_json(capsys, ["al-fixed", "20", "4"])
    assert code == EXIT_OK
    assert rep.outputs["fixed_points"] == 4
    assert rep.outputs["genus_quotient"] == 0


def test_al_fixed_bad_input(capsys):
    assert main(["al-fixed", "12", "5"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["al-fixed", "20", "4"], ["genus", "4", "3"], ["cusps", "20", "--oracle"]])
def test_failed_invariant_is_oracle_exit(capsys, monkeypatch, argv):
    def broken(*args):
        raise InvariantError("broken anchor")

    monkeypatch.setattr(cli, "genus_X0", broken)
    monkeypatch.setattr(cli, "genus_XNp", broken)
    monkeypatch.setattr(cli, "cusps_oracle", broken)
    assert main(argv) == EXIT_ORACLE
    assert "internal invariant failed: broken anchor" in capsys.readouterr().err


def test_non_associative_table_model_is_usage_error(capsys, tmp_path, z18_table_model):
    path = tmp_path / "latin.json"
    path.write_text(json.dumps(z18_table_model(True)))
    assert main(["centralizer", str(path)]) == EXIT_USAGE
    assert "associativity" in capsys.readouterr().err


def test_group_above_max_order_is_usage_error(capsys, tmp_path, monkeypatch):
    # a 60-byte model of S7 (order 5040) stops while its elements are
    # enumerated: no |G|^2 table, so few permutation products
    calls = []

    def counted(a, b):
        calls.append(None)
        if len(calls) > 4 * galmodel.MAX_GROUP_ORDER:
            raise AssertionError("the multiplication table is being built")
        return compose(a, b)

    compose = galmodel._compose
    monkeypatch.setattr(galmodel, "_compose", counted)
    gens = {"s": [1, 0, 2, 3, 4, 5, 6], "t": [1, 2, 3, 4, 5, 6, 0]}
    doc = dict(GOOD_MODEL, group={"type": "permutation", "generators": gens},
               rho={"s": [[1, 0], [0, 1]], "t": [[1, 0], [0, 1]]}, chi={"s": 1, "t": 1})
    doc.pop("conj"), doc.pop("characters")
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(doc))
    assert main(["centralizer", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"order above {galmodel.MAX_GROUP_ORDER}" in err


def test_classify(capsys):
    code, rep = run_json(capsys, ["classify", "4", "3"])
    assert code == EXIT_OK and rep.outputs["case"] == "cyclotomic"
    code, rep = run_json(capsys, ["classify", "2", "3"])
    assert code == EXIT_OK and rep.outputs["case"] == "non-cyclotomic"


def test_twist_plan(capsys, model_path):
    code, rep = run_json(capsys, ["twist-plan", "4", "3", model_path, "--k", "-1"])
    assert code == EXIT_OK
    assert rep.outputs["case"] == "cyclotomic"
    assert rep.outputs["cocycles_valid"] is True
    assert any("k=-1" in name for name in rep.outputs["curves"])


def test_twist_plan_parity_exit(capsys, model_path):
    # a det rho = eps model at a non-cyclotomic level is a parity error
    assert main(["twist-plan", "2", "3", model_path]) == EXIT_PARITY


def test_twist_plan_incompatible_at_cyclotomic(capsys, incompatible_model_path):
    assert main(["twist-plan", "4", "3", incompatible_model_path]) == EXIT_PARITY


def test_twist_plan_invalid_model_exit(capsys, invalid_model_path):
    assert main(["twist-plan", "4", "3", invalid_model_path]) == EXIT_MODEL


def test_twist_plan_missing_file():
    assert main(["twist-plan", "4", "3", "/nonexistent/model.json"]) == EXIT_USAGE


def test_cocycle_check(capsys, model_path):
    code, rep = run_json(capsys, ["cocycle-check", model_path])
    assert code == EXIT_OK
    assert rep.outputs["valid"] is True
    assert rep.outputs["ambient"] == "G(N,p)"


def test_cocycle_check_primed(capsys, model_path):
    code, rep = run_json(capsys, ["cocycle-check", model_path, "--variant", "primed"])
    assert code == EXIT_OK
    assert rep.outputs["valid"] is True


def test_cocycle_check_k(capsys, model_path):
    code, rep = run_json(capsys, ["cocycle-check", model_path, "--k", "k"])
    assert code == EXIT_OK
    assert any(v["w"] == 1 for v in rep.outputs["values"].values())


def test_cocycle_check_unknown_k(capsys, model_path):
    assert main(["cocycle-check", model_path, "--k", "zzz"]) == EXIT_MODEL


def test_cocycle_check_incompatible_k(capsys, tmp_path):
    doc = dict(INCOMPATIBLE_MODEL)
    doc["characters"] = {"k": {"values": {"s": -1}, "field": -1}}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    # chi_k components need the cyclotomic (det rho = eps) parity
    assert main(["cocycle-check", str(p), "--k", "k"]) == EXIT_PARITY


def test_centralizer(capsys, model_path):
    code, rep = run_json(capsys, ["centralizer", model_path])
    assert code == EXIT_OK
    assert rep.outputs["verdict"] in (
        "Trivial",
        "NontrivialInPSL2",
        "NontrivialOutsidePSL2",
    )


def test_selftest_quick(capsys):
    code, rep = run_json(capsys, ["selftest", "--quick"])
    assert code == EXIT_OK
    assert rep.outputs["ok"] is True
    names = {row["name"] for row in rep.outputs["results"]}
    assert {"arith", "projgroup", "curves", "extgroup", "moduli", "twists"} <= names


def test_selftest_report_is_the_same_under_python_O():
    # invariants are real checks, not asserts that -O strips
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reports = []
    for flags in (["-O"], []):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "modtwist.cli", "--json", "selftest", "--quick"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        reports.append(_strip_timing(json.loads(proc.stdout.strip().splitlines()[-1])))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [["genus", "4", "3"], ["--json", "cusps", "20"]])
def test_closed_stdout_exits_quietly_with_the_command_code(argv):
    # stdout is a pipe whose read end is closed before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "modtwist.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == EXIT_OK


# dataclasses imports inspect, which imports ast, dis and tokenize: about
# 6-9 ms of every CLI call, and the record classes need none of them
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_leaves_out_the_dataclass_machinery():
    # a fresh interpreter without site, so that only modtwist's own imports count
    code = f"import sys, modtwist.cli; print(*(m for m in {STARTUP_FORBIDDEN!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    offending = proc.stdout.split()
    assert not offending, f"import modtwist.cli imports {', '.join(offending)}"


def test_report_json_roundtrip():
    rep = Report(command="x", inputs={"a": 1}, outputs={"b": [1, 2]}, elapsed_s=0.5)
    assert Report(**json.loads(rep.to_json())) == rep


def test_plain_output_lines(capsys):
    code = main(["genus", "4", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "X(4,3): genus 1" in out


@pytest.mark.parametrize(
    "path", [*MALFORMED, "table_shapes", "booleans", "rho_row", "conj_tuple_text", "conj_integer",
             "p_above_max"],
    ids=lambda p: getattr(p, "stem", p),
)
@pytest.mark.parametrize("command", ["centralizer", "cocycle-check", "twist-plan 4 3"])
def test_malformed_model_is_usage_error(
    capsys, tmp_path, malformed_table_models, boolean_models, command, path
):
    # "table_shapes" stands for every malformed table-group model file,
    # "booleans" for every file with a boolean where an integer is wanted,
    # "rho_row" for a rho matrix with a row that is not a list; conj is a
    # generator name or a table label, not the text of a permutation or an
    # integer; p above MAX_P is refused before PGL2(F_p) is enumerated
    table_01 = {"type": "table", "elements": ["0", "1"], "identity": "0",
                "table": {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "0"}},
                "generators": {"a": "1"}}
    docs = {
        "table_shapes": malformed_table_models,
        "booleans": boolean_models,
        "rho_row": {"rho_row": dict(GOOD_MODEL, rho={"s": [[0, 1], 5]})},
        "conj_tuple_text": {"conj_tuple_text": dict(GOOD_MODEL, conj="(1, 0)")},
        "conj_integer": {"conj_integer": {"p": 3, "group": table_01, "rho": {"a": [[0, 1], [1, 0]]},
                                          "chi": {"a": 2}, "conj": 1}},
        "p_above_max": {"p_above_max": dict(GOOD_MODEL, p=37, chi={"s": 36})},
    }
    paths = [path]
    if path in docs:
        paths = [tmp_path / f"{name}.json" for name in docs[path]]
        for p, doc in zip(paths, docs[path].values()):
            p.write_text(json.dumps(doc))
    for p in paths:
        assert main([*command.split(), str(p)]) == EXIT_USAGE, p.name
        assert capsys.readouterr().err.startswith("error: ")


# conj = s has order 3 and chi(conj) = 1: two validation errors
TWO_ERROR_MODEL = {
    "p": 3,
    "group": {"type": "permutation", "generators": {"s": [1, 2, 0]}},
    "rho": {"s": [[1, 0], [0, 1]]},
    "chi": {"s": 1},
    "conj": "s",
}


@pytest.mark.parametrize(
    "argv, code, err",
    [
        pytest.param(["genus", "3", "3"], EXIT_USAGE,
                     "error: Level: need gcd(N, p) = 1, got (3, 3)\n", id="invalid_level"),
        pytest.param(["genus", "2", "3", "--plus"], EXIT_USAGE,
                     "error: X+(2,3) requires a cyclotomic level\n", id="plus_non_cyclotomic"),
        pytest.param(["cusps", "0"], EXIT_USAGE, "error: N must be positive\n", id="cusps_0"),
        pytest.param(["cusps", "1000001", "--oracle"], EXIT_USAGE,
                     "error: cusps needs N at most 1000000, got 1000001\n",
                     id="cusps_oracle_above_max"),
        pytest.param(["cusps", "1000000000039"], EXIT_USAGE,
                     "error: cusps needs N at most 1000000, got 1000000000039\n", id="cusps_above_max"),
        pytest.param(["genus", "1000001", "3"], EXIT_USAGE,
                     "error: genus needs N at most 1000000, got 1000001\n", id="genus_above_max"),
        pytest.param(["genus", "1000000000039", "3", "--plus"], EXIT_USAGE,
                     "error: genus needs N at most 1000000, got 1000000000039\n",
                     id="genus_plus_above_max"),
        pytest.param(["al-fixed", "1000000000039", "1000000000039"], EXIT_USAGE,
                     "error: al-fixed needs M at most 1000000, got 1000000000039\n",
                     id="al_fixed_above_max"),
        pytest.param(["twist-plan", "1000001", "3", "{dir}/good.json"], EXIT_USAGE,
                     "error: twist-plan needs N at most 1000000, got 1000001\n",
                     id="twist_plan_above_max"),
        # 2^61 - 1: is_prime would trial-divide up to sqrt(p) before any other check
        pytest.param(["genus", "4", "2305843009213693951"], EXIT_USAGE,
                     "error: genus needs p at most 1000000, got 2305843009213693951\n",
                     id="genus_p_above_max"),
        pytest.param(["genus", "4", "2305843009213693951", "--plus"], EXIT_USAGE,
                     "error: genus needs p at most 1000000, got 2305843009213693951\n",
                     id="genus_plus_p_above_max"),
        pytest.param(["classify", "4", "2305843009213693951"], EXIT_USAGE,
                     "error: classify needs p at most 1000000, got 2305843009213693951\n",
                     id="classify_p_above_max"),
        pytest.param(["classify", "4", "1000003"], EXIT_USAGE,
                     "error: classify needs p at most 1000000, got 1000003\n",
                     id="classify_prime_p_above_max"),
        pytest.param(["structure", "4", "2305843009213693951"], EXIT_USAGE,
                     "error: structure needs p at most 31, got 2305843009213693951\n",
                     id="structure_p_far_above_max"),
        pytest.param(["twist-plan", "4", "2305843009213693951", "{dir}/good.json"], EXIT_USAGE,
                     "error: twist-plan needs p at most 1000000, got 2305843009213693951\n",
                     id="twist_plan_p_above_max"),
        pytest.param(["al-fixed", "12", "5"], EXIT_USAGE,
                     "error: al_fixed_points: need Q > 1 dividing M, got (12, 5)\n", id="al_fixed_12_5"),
        pytest.param(["al-fixed", "5", "0"], EXIT_USAGE,
                     "error: al_fixed_points: need Q > 1 dividing M, got (5, 0)\n", id="al_fixed_5_0"),
        pytest.param(["al-fixed", "0", "0"], EXIT_USAGE,
                     "error: al_fixed_points: need Q > 1 dividing M, got (0, 0)\n", id="al_fixed_0_0"),
        pytest.param(["centralizer", "/nonexistent/model.json"], EXIT_USAGE,
                     "error: [Errno 2] No such file or directory: '/nonexistent/model.json'\n",
                     id="missing_model"),
        pytest.param(["centralizer", "{dir}/list_name.json"], EXIT_USAGE,
                     "error: group.name must be a string, got ['S3']\n", id="list_group_name"),
        pytest.param(["twist-plan", "4", "3", "{dir}/two_errors.json"], EXIT_MODEL,
                     "model error: conj does not square to the identity\nmodel error: chi(conj) != -1\n",
                     id="invalid_model"),
        pytest.param(["cocycle-check", "{dir}/good.json", "--k", "zzz"], EXIT_MODEL,
                     "error: model has no character named 'zzz'\n", id="unknown_k"),
        pytest.param(["twist-plan", "2", "3", "{dir}/good.json"], EXIT_PARITY,
                     "error: non-cyclotomic level (2, 3) requires det rho != eps as characters\n",
                     id="twist_plan_parity"),
        pytest.param(["cocycle-check", "{dir}/incompatible_k.json", "--k", "k"], EXIT_PARITY,
                     "error: build_xi: chi_k components require det rho = eps (cyclotomic)\n",
                     id="k_parity"),
        pytest.param(["twist-plan", "4", "3", "{dir}/good.json", "--k", "x"], EXIT_USAGE,
                     "error: --k must be comma-separated integers, got 'x'\n", id="non_integer_k"),
        pytest.param(["structure", "3", "37"], EXIT_USAGE,
                     "error: structure needs p at most 31, got 37\n", id="structure_p_above_max"),
        pytest.param(["scan", "--max-n", "1001"], EXIT_USAGE,
                     "error: --max-n must be at most 1000, got 1001\n", id="scan_max_n"),
        pytest.param(["scan", "--max-n", "1", "--max-p", "1000000000000"], EXIT_USAGE,
                     "error: --max-p must be at most 1000, got 1000000000000\n", id="scan_max_p"),
    ],
)
def test_error_path_exit_code_and_stderr(capsys, tmp_path, argv, code, err):
    models = {
        "good": GOOD_MODEL,
        "incompatible_k": dict(INCOMPATIBLE_MODEL, characters=GOOD_MODEL["characters"]),
        "two_errors": TWO_ERROR_MODEL,
        "list_name": dict(GOOD_MODEL, group=dict(GOOD_MODEL["group"], name=["S3"])),
    }
    for name, doc in models.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert main([arg.format(dir=tmp_path) for arg in argv]) == code
    assert capsys.readouterr() == ("", err)


def _strip_timing(obj):
    """Drop timing fields (keys ending in _s or _ms) at any depth."""
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if not (k.endswith("_s") or k.endswith("_ms"))
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_cli_goldens_replay(capsys, monkeypatch):
    # golden argv name model files relative to the repository root
    monkeypatch.chdir(ROOT)
    calls = json.loads(GOLDENS.read_text())["calls"]
    differing = []
    for entry in calls:
        try:
            code = main(["--json", *entry["argv"]])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out.strip()
        report = _strip_timing(json.loads(out)) if out else None
        if code != entry["exit"] or report != entry["stdout"]:
            differing.append(" ".join(entry["argv"]))
    assert len(calls) > 200
    assert not differing, differing


def test_cli_plain_replay(capsys, monkeypatch):
    # stdout, stderr and exit code of every golden argv without --json,
    # recorded before the handlers shared one wrapper in main
    monkeypatch.chdir(ROOT)
    calls = json.loads(PLAIN.read_text())["calls"]
    golden_argv = [entry["argv"] for entry in json.loads(GOLDENS.read_text())["calls"]]
    assert [entry["argv"] for entry in calls] == golden_argv
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in golden_argv} == set(subparsers.choices)
    differing = []
    for entry in calls:
        code = main(entry["argv"])
        out, err = capsys.readouterr()
        if (code, out, err) != (entry["exit"], entry["stdout"], entry["stderr"]):
            differing.append(" ".join(entry["argv"]))
    assert not differing, differing
