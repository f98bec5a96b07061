"""Generate the benchmark's stored inputs and golden results.

Run once from the repository root:

    python3 perfbench/make_data.py

It writes everything under perfbench/data/:

- models_p3.jsonl, models_p5.jsonl: every model of model_corpus(3) and
  model_corpus(5) as a model-file document, one per line, in corpus order.
  Each model carries one quadratic character "k" (field -1): eps for models
  with det rho = eps, eps * det rho otherwise.
- cli_models/*.json: a stratified subset of those models as separate files
  for the CLI, and malformed/*.json: model files with the malformed shapes
  the CLI must reject with exit code 2.
- goldens_*.json: the expected result of every task the benchmark can draw.

The benchmark's seed picks only the sample and its order from these files;
the files themselves never change between runs.  Regenerating them on a
changed program and diffing against the committed copies is how a
behaviour change shows up.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from modtwist import (  # noqa: E402
    Level,
    al_fixed_points,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    class_number_primitive,
    cohomologous,
    genus_AL_quotient,
    lemma_pairs,
    low_genus_XNp,
    model_corpus,
    twist_plan,
    xplus_verdict,
)
from modtwist.arith import is_squarefree  # noqa: E402
from modtwist.galmodel import (  # noqa: E402
    all_homs_to_pgl2,
    cyclic_group,
    klein_four,
    symmetric_group,
)
from modtwist.modelfile import ModelParseError, parse_and_validate  # noqa: E402
from workloads import canonical, digest, strip_timing  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
DATA_REL = "perfbench/data"

# Levels used for twist_plan: one list per (p, case), chosen by model index.
# No cyclotomic level here has a genus-0 quotient X_0(pN)/w_N other than the
# two paper cases (4, 3) and (4, 5), which xplus_verdict handles.
PLAN_LEVELS = {
    (3, "cyclotomic"): [(4, 3), (7, 3), (10, 3), (13, 3)],
    (3, "non-cyclotomic"): [(2, 3), (5, 3), (8, 3), (11, 3)],
    (5, "cyclotomic"): [(4, 5), (6, 5), (9, 5), (11, 5)],
    (5, "non-cyclotomic"): [(2, 5), (3, 5), (7, 5), (8, 5)],
}

HOM_PRIMES = (3, 5, 7)
AL_MAX_M = 300
CLASS_NUMBER_MAX_ABS_D = 4000
XPLUS_MAX_N = 60
XPLUS_PRIMES = (3, 5, 7, 11, 13)
CLI_MODELS_PER_STRATUM = 2


def model_document(m) -> dict:
    """The model-file document of a corpus model: rho, chi and the character
    "k" given on the generators."""
    grp = m.group
    gens = grp.gens
    compat = all(m.det_class(s) == m.epsilon(s) for s in grp.elements)
    k_values = {
        name: m.epsilon(g) if compat else m.epsilon(g) * m.det_class(g)
        for name, g in gens.items()
    }
    return {
        "p": m.p,
        "group": {
            "type": "permutation",
            "name": grp.name,
            "generators": {name: list(g) for name, g in gens.items()},
        },
        "rho": {name: [list(m.rho[g].rep[:2]), list(m.rho[g].rep[2:])] for name, g in gens.items()},
        "chi": {name: m.chi[g] for name, g in gens.items()},
        "characters": {"k": {"values": k_values, "field": -1}},
    }


def model_case(m) -> str:
    compat = all(m.det_class(s) == m.epsilon(s) for s in m.group.elements)
    return "cyclotomic" if compat else "non-cyclotomic"


def model_golden(model_id: str, index: int, text: str) -> dict:
    """Expected outcome of the twist-corpus pipeline on one stored model.

    model_corpus(p) for p = 1 mod 4 also yields models whose chi is not a
    homomorphism (an involution with non-square chi value cannot exist when
    -1 is a square); their expected outcome is the validation error."""
    try:
        m = parse_and_validate(text)
    except ModelParseError as exc:
        return {"group": json.loads(text)["group"]["name"], "case": "invalid", "error": str(exc)}
    case = model_case(m)
    xi = build_xi(m, "plain")
    xi_p = build_xi(m, "primed")
    valid = [check_cocycle(xi), check_cocycle(xi_p)]
    witness = None
    if case == "cyclotomic":
        valid.append(check_cocycle(build_xi(m, "plain", k_char=m.characters["k"].values)))
        found = cohomologous(xi, xi_p)
        witness = list(found[0].rep) if found is not None else None
    if not all(valid):
        raise SystemExit(f"{model_id}: a stored cocycle does not check")
    N, p = PLAN_LEVELS[(m.p, case)][index % 4]
    plan = twist_plan(Level(N, p), m, k_fields=(-1,))
    return {
        "group": m.group.name,
        "case": case,
        "level": [N, p],
        "centralizer": centralizer_verdict(m).value,
        "witness": witness,
        "plan": digest(plan.to_jsonable()),
    }


def write_corpora() -> dict:
    goldens = {}
    cli_pool = {}
    for p in (3, 5):
        lines = []
        for index, m in enumerate(model_corpus(p)):
            model_id = f"p{p}-{index:04d}"
            text = canonical(model_document(m))
            lines.append(text)
            g = model_golden(model_id, index, text)
            goldens[model_id] = g
            cli_pool.setdefault((p, g["group"], g["case"]), []).append((model_id, text))
        (DATA / f"models_p{p}.jsonl").write_text("\n".join(lines) + "\n")
    # CLI model files: evenly spaced picks from each (p, group, case) stratum.
    cli_dir = DATA / "cli_models"
    cli_dir.mkdir(exist_ok=True)
    for old in cli_dir.glob("*.json"):
        old.unlink()
    for key in sorted(cli_pool):
        members = cli_pool[key]
        step = max(1, len(members) // CLI_MODELS_PER_STRATUM)
        for model_id, text in members[::step][:CLI_MODELS_PER_STRATUM]:
            (cli_dir / f"{model_id}.json").write_text(text + "\n")
    return goldens


MALFORMED = {
    # Shapes that reach parse_model's attribute and hashing code unchecked.
    "group_list": {"p": 3, "group": [], "rho": {}, "chi": {}},
    "characters_list": {
        "p": 3,
        "group": {"type": "permutation", "generators": {"s": [1, 0]}},
        "rho": {"s": [[0, 1], [1, 0]]},
        "chi": {"s": 2},
        "characters": [1],
    },
    "conj_list": {
        "p": 3,
        "group": {"type": "permutation", "generators": {"s": [1, 0]}},
        "rho": {"s": [[0, 1], [1, 0]]},
        "chi": {"s": 2},
        "conj": [1],
    },
    "string_permutation_entry": {
        "p": 3,
        "group": {"type": "permutation", "generators": {"s": [1, "0"]}},
        "rho": {"s": [[0, 1], [1, 0]]},
        "chi": {"s": 2},
    },
}


def write_malformed() -> list[str]:
    mdir = DATA / "malformed"
    mdir.mkdir(exist_ok=True)
    paths = []
    for name, doc in MALFORMED.items():
        (mdir / f"{name}.json").write_text(canonical(doc) + "\n")
        paths.append(f"{DATA_REL}/malformed/{name}.json")
    return paths


def cli_pool(model_goldens: dict, malformed: list[str]) -> list[dict]:
    """Every CLI invocation the cli-calls workload can draw, by subcommand."""
    pool = []

    def add(kind, *argv, **extra):
        pool.append({"kind": kind, "argv": [str(a) for a in argv], **extra})

    for N, p in [(2, 3), (4, 3), (10, 3), (4, 5), (6, 5), (12, 5), (2, 7), (3, 7),
                 (2, 11), (3, 11), (2, 13), (3, 13)]:
        add("genus", "genus", N, p, "--oracle")
        if Level(N, p).cyclotomic:
            add("genus", "genus", N, p, "--plus")
    for N in (12, 20, 36, 48, 60, 84, 100, 120, 150, 180, 200):
        add("cusps", "cusps", N, "--oracle")
    for N, p in [(2, 3), (4, 3), (2, 5), (4, 5), (2, 7), (3, 7), (2, 11), (3, 11),
                 (2, 13), (3, 13)]:
        add("structure", "structure", N, p)
    for argv in (["--lemma", "--max", "71"], ["--lemma", "--max", "40"],
                 ["--max-n", "20", "--max-p", "13"], ["--max-n", "60", "--max-p", "7"],
                 ["--max-n", "100", "--max-p", "13"]):
        add("scan", "scan", *argv)
    for M, Q in [(20, 4), (30, 2), (12, 4), (28, 4), (18, 9), (50, 25), (98, 49),
                 (66, 2), (70, 5), (78, 13), (110, 11), (138, 23)]:
        add("al-fixed", "al-fixed", M, Q)
    for N, p in [(2, 3), (4, 3), (4, 5), (6, 5), (2, 7), (3, 7), (2, 11), (3, 11),
                 (2, 13), (3, 13)]:
        add("classify", "classify", N, p)
    for path in sorted((DATA / "cli_models").glob("*.json")):
        rel = f"{DATA_REL}/cli_models/{path.name}"
        g = model_goldens[path.stem]
        # An invalid model stops at validation (exit 4) whatever the level.
        N, p = g.get("level", (2, int(path.stem[1])))
        tag = {"model": path.stem, "stratum": f"{path.stem[:2]}/{g['group']}/{g['case']}"}
        add("twist-plan", "twist-plan", N, p, rel, "--k=-1", **tag)
        add("cocycle-check", "cocycle-check", rel, "--variant", "plain", **tag)
        add("cocycle-check", "cocycle-check", rel, "--variant", "primed", **tag)
        if g["case"] == "cyclotomic":
            add("cocycle-check", "cocycle-check", rel, "--variant", "plain", "--k", "k", **tag)
        add("centralizer", "centralizer", rel, **tag)
    for seed in range(4):
        add("selftest", "selftest", "--quick", "--seed", seed)
    for rel in malformed:
        add("malformed", "centralizer", rel)
        add("malformed", "cocycle-check", rel)
        add("malformed", "twist-plan", 2, 3, rel)
    return pool


def run_cli(entry: dict) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "modtwist.cli", "--json", *entry["argv"]],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    if entry["kind"] == "malformed":
        # The documented outcome is a parse error; record what the program
        # did when these goldens were made.
        entry["exit"] = 2
        entry["stdout"] = None
        last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
        entry["observed_at_generation"] = {"exit": proc.returncode, "stderr_tail": last}
        return
    entry["exit"] = proc.returncode
    entry["stdout"] = strip_timing(json.loads(proc.stdout)) if proc.stdout.strip() else None


def curve_goldens() -> dict:
    al = {}
    for M in range(2, AL_MAX_M):
        for Q in range(2, M + 1):
            if M % Q or math.gcd(Q, M // Q) != 1 or not is_squarefree(M // Q):
                continue
            try:
                al[f"{M},{Q}"] = [al_fixed_points(M, Q), genus_AL_quotient(M, Q)]
            except (ValueError, AssertionError):
                continue  # not a supported input; never drawn
    discs = [D for D in range(-3, -CLASS_NUMBER_MAX_ABS_D - 1, -1) if D % 4 in (0, 1)]
    xplus = {}
    for p in XPLUS_PRIMES:
        for N in range(2, XPLUS_MAX_N + 1):
            if math.gcd(N, p) != 1 or not Level(N, p).cyclotomic:
                continue
            rep = xplus_verdict(Level(N, p))
            xplus[f"{N},{p}"] = [rep.curve, rep.genus, rep.method, rep.note]
    return {
        "lemma_pairs_71": sorted(list(x) for x in lemma_pairs(71)),
        "low_genus_300_13": [[lv.N, lv.p, g] for lv, g in low_genus_XNp(300, 13)],
        "al": al,
        "class_numbers": {str(D): class_number_primitive(D) for D in discs},
        "xplus": xplus,
    }


def main() -> None:
    DATA.mkdir(exist_ok=True)
    models = write_corpora()
    homs = {}
    for p in HOM_PRIMES:
        for grp in (cyclic_group(2), klein_four(), symmetric_group(3), symmetric_group(4)):
            homs[f"{grp.name}/{p}"] = len(all_homs_to_pgl2(grp, p))
    dump(DATA / "goldens_twist.json", {"models": models, "homs": homs,
                                       "plan_levels": {f"{p}/{c}": v for (p, c), v in PLAN_LEVELS.items()}})
    dump(DATA / "goldens_curve.json", curve_goldens())
    pool = cli_pool(models, write_malformed())
    for entry in pool:
        run_cli(entry)
    dump(DATA / "goldens_cli.json", {"calls": pool})


def dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
