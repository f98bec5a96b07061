"""Command-line interface.

Each ``cmd_*`` handler only computes: it returns ``(outputs, lines, exit
code)`` or raises ``_Exit`` to stop early, and ``main`` prints the JSON
``Report`` (with ``--json``) or the plain lines.  A report's ``inputs`` are
the parsed arguments and its ``elapsed_s`` covers the whole command after
argument parsing: model loading, the computation and its cross-checks.

Exit codes: 0 success; 1 verified-negative result (e.g. a perfect check that
legitimately reports False); 2 usage or parse errors, including a malformed
``twist-plan --k`` or a ``scan`` flag of the other mode; 3 internal oracle
mismatches and failed invariants; 4 model validation failures, including a
``twist-plan --k`` field that no character of the model has; 5 parity
mismatches between a model and a level.
A closed stdout does not change the exit code.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import selftest as selftest_mod
from .arith import InvariantError, Level
from .curves import (
    al_fixed_points,
    cusps_X0,
    cusps_oracle,
    genus_AL_quotient,
    genus_X0,
    genus_XNp,
    genus_XNp_hurwitz,
    lemma_pairs,
    low_genus_XNp,
    xplus_verdict,
)
from .extgroup import involutions_extending_wN, verify_relations, wgroup
from .galmodel import validate_model
from .modelfile import ModelParseError, parse_model
from .projgroup import MAX_P, pgl2
from .twists import (
    ParityError,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    twist_plan,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_MODEL = 4
EXIT_PARITY = 5

SCAN_MAX = 1000  # bound on scan --max-n and --max-p: the scan at (1000, 1000) takes seconds
# bound on the N of genus, cusps and twist-plan, the M of al-fixed and the p
# of every level: divisors, class numbers and is_prime trial-divide up to
# sqrt(N) (genus 4 2^61-1 was still running after 5 s), and cusps --oracle
# lists psi(N) >= N points of P^1(Z/N), 1.1-1.5 s and 90 MB peak RSS at
# N = 10^6; al-fixed took 1.75 s at M = 10^7 and over 4 minutes at M = 10^12
# (2-vCPU VM, Python 3.11)
MAX_N = 10**6


class Report(NamedTuple):
    """Structured result of one CLI invocation; JSON round-trippable as
    ``Report(**json.loads(report.to_json()))``."""

    command: str
    inputs: dict
    outputs: dict
    elapsed_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "outputs": self.outputs,
                "elapsed_s": self.elapsed_s,
            },
            sort_keys=True,
        )


class _Exit(Exception):
    """Stops a command early: ``code`` is the exit code, ``args`` the lines for stderr."""

    def __init__(self, code: int, *lines: str):
        super().__init__(*lines)
        self.code = code


def _at_most_max_n(command: str, name: str, n: int) -> None:
    if n > MAX_N:
        raise _Exit(EXIT_USAGE, f"error: {command} needs {name} at most {MAX_N}, got {n}")


def _level(command: str, N: int, p: int) -> Level:
    _at_most_max_n(command, "p", p)
    try:
        return Level(N, p)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}") from exc


def _model(path: str):
    """The parsed model file, validated: exit 2 on a parse error, 4 on invalid data."""
    try:
        model = parse_model(Path(path))
    except (ModelParseError, OSError) as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}") from exc
    errs = validate_model(model)
    if errs:
        raise _Exit(EXIT_MODEL, *(f"model error: {e}" for e in errs))
    return model


def cmd_genus(args):
    _at_most_max_n("genus", "N", args.N)
    level = _level("genus", args.N, args.p)
    if args.plus:
        if not level.cyclotomic:
            raise _Exit(EXIT_USAGE, f"error: X+({level.N},{level.p}) requires a cyclotomic level")
        rep = xplus_verdict(level)
        outputs = {"curve": rep.curve, "genus": rep.genus, "method": rep.method, "note": rep.note}
        shown = rep.genus if rep.genus is not None else rep.note
        return outputs, [f"{rep.curve}: genus {shown}"], EXIT_OK
    g = genus_XNp(level)
    outputs = {"curve": f"X({level.N},{level.p})", "genus": g}
    lines = [f"X({level.N},{level.p}): genus {g}"]
    if args.oracle:
        go = genus_XNp_hurwitz(level)
        outputs["oracle_genus"] = go
        if go != g:
            raise _Exit(
                EXIT_ORACLE, f"error: oracle mismatch: closed form {g}, Riemann-Hurwitz {go}"
            )
        lines.append(f"oracle (Riemann-Hurwitz over the j-line): genus {go} [agrees]")
    return outputs, lines, EXIT_OK


def cmd_cusps(args):
    if args.N <= 0:
        raise _Exit(EXIT_USAGE, "error: N must be positive")
    _at_most_max_n("cusps", "N", args.N)
    cusps = cusps_X0(args.N)
    outputs = {
        "N": args.N,
        "count": len(cusps),
        "cusps": [
            {"label": c.label, "n": c.n, "m": c.m, "width_class": c.h, "ram_degree": c.ram_degree}
            for c in cusps
        ],
    }
    lines = [f"X_0({args.N}): {len(cusps)} cusps"]
    for c in cusps:
        lines.append(f"  {c.label}  (ram degree {c.ram_degree} over X(1))")
    if args.oracle:
        n_orb = cusps_oracle(args.N)
        outputs["oracle_count"] = n_orb
        if n_orb != len(cusps):
            raise _Exit(
                EXIT_ORACLE, f"error: oracle mismatch: formula {len(cusps)}, orbit count {n_orb}"
            )
        lines.append(f"oracle (orbit count on P^1(Z/{args.N})): {n_orb} [agrees]")
    return outputs, lines, EXIT_OK


def cmd_structure(args):
    if args.p > MAX_P:
        raise _Exit(EXIT_USAGE, f"error: structure needs p at most {MAX_P}, got {args.p}")
    level = _level("structure", args.N, args.p)
    rep = wgroup(level)
    outputs = {
        "level": {"N": level.N, "p": level.p},
        "case": level.case,
        "order": rep.order,
        "structure": rep.structure,
        "v": rep.v,
        "generators": {
            name: [[m.a, m.b], [m.c, m.d]] for name, m in rep.generators.items()
        },
        "image_order": rep.image_group.order,
    }
    lines = [
        f"W({level.N},{level.p}): order {rep.order}, structure {rep.structure}",
        f"  mod-p image order: {rep.image_group.order}",
    ]
    for name, m in rep.generators.items():
        lines.append(f"  {name} = [[{m.a}, {m.b}], [{m.c}, {m.d}]]  (det {m.det})")
    if level.cyclotomic:
        return outputs, lines, EXIT_OK
    ok = verify_relations(level)
    inv = involutions_extending_wN(level)
    outputs["relations_verified"] = ok
    outputs["extending_involutions"] = len(inv.involutions)
    outputs["single_conjugacy_class"] = inv.single_conjugacy_class
    lines.append(f"  relations verified: {ok}")
    lines.append(
        f"  involutions extending w_N: {len(inv.involutions)}"
        f" (single conjugacy class: {inv.single_conjugacy_class})"
    )
    return outputs, lines, EXIT_OK if ok else EXIT_ORACLE


def cmd_scan(args):
    mode = "scan --lemma" if args.lemma else "the low-genus scan"
    for flag in getattr(args, "given", ()):  # --max bounds the lemma scan, --max-n and --max-p the other
        if (flag == "--max") != args.lemma:
            raise _Exit(EXIT_USAGE, f"error: {flag} does not apply to {mode}")
    if args.lemma:
        pairs = sorted(lemma_pairs(args.max))
        outputs = {"bound": args.max, "pairs": [list(x) for x in pairs]}
        lines = [f"pairs (N, p) with X_0(pN)/w_N of genus 0, pN <= {args.max}:"]
        lines += [f"  N={n}, p={p}" for n, p in pairs]
    else:
        for flag, bound in (("--max-n", args.max_n), ("--max-p", args.max_p)):
            if bound > SCAN_MAX:
                raise _Exit(EXIT_USAGE, f"error: {flag} must be at most {SCAN_MAX}, got {bound}")
        levels = low_genus_XNp(args.max_n, args.max_p)
        outputs = {
            "max_n": args.max_n,
            "max_p": args.max_p,
            "levels": [{"N": lv.N, "p": lv.p, "genus": g} for lv, g in levels],
        }
        lines = [f"levels with genus X(N,p) <= 1, N <= {args.max_n}, p <= {args.max_p}:"]
        lines += [f"  X({lv.N},{lv.p}): genus {g}" for lv, g in levels]
    return outputs, lines, EXIT_OK


def cmd_al_fixed(args):
    _at_most_max_n("al-fixed", "M", args.M)
    try:
        f = al_fixed_points(args.M, args.Q)
        g = genus_X0(args.M)
        gq = genus_AL_quotient(args.M, args.Q)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}") from exc
    outputs = {"M": args.M, "Q": args.Q, "fixed_points": f, "genus_X0": g, "genus_quotient": gq}
    lines = [
        f"w_{args.Q} on X_0({args.M}): {f} fixed points",
        f"genus X_0({args.M}) = {g}; genus X_0({args.M})/w_{args.Q} = {gq}",
    ]
    return outputs, lines, EXIT_OK


def cmd_classify(args):
    level = _level("classify", args.N, args.p)
    outputs = {"level": {"N": level.N, "p": level.p}, "case": level.case}
    return outputs, [f"level ({level.N}, {level.p}): {level.case}"], EXIT_OK


def cmd_twist_plan(args):
    _at_most_max_n("twist-plan", "N", args.N)
    level = _level("twist-plan", args.N, args.p)
    model = _model(args.model)
    try:
        k_fields = tuple(int(k) for k in args.k.split(",") if k)
    except ValueError:
        raise _Exit(EXIT_USAGE, f"error: --k must be comma-separated integers, got {args.k!r}")
    try:
        plan = twist_plan(level, model, k_fields=k_fields)
    except ParityError as exc:
        raise _Exit(EXIT_PARITY, f"error: {exc}") from exc
    except ValueError as exc:
        raise _Exit(EXIT_MODEL, f"error: {exc}") from exc
    outputs = plan.to_jsonable()
    lines = [
        f"level ({level.N}, {level.p}): {plan.case}",
        f"twisted curves: {', '.join(plan.curves)}",
        f"centralizer of rho image: {plan.centralizer.value}",
        f"cocycles valid: {outputs['cocycles_valid']}",
        f"finiteness: {plan.finiteness}",
    ]
    if plan.field_k is not None:
        lines.insert(2, f"field k: squarefree label {plan.field_k}")
    return outputs, lines, EXIT_OK


def cmd_cocycle_check(args):
    model = _model(args.model)
    k_char = None
    if args.k:
        if args.k not in model.characters:
            raise _Exit(EXIT_MODEL, f"error: model has no character named {args.k!r}")
        k_char = model.characters[args.k].values
    try:
        xi = build_xi(model, variant=args.variant, k_char=k_char)
    except ValueError as exc:
        raise _Exit(EXIT_PARITY, f"error: {exc}") from exc
    valid = check_cocycle(xi)
    elems = pgl2(model.p).elements
    outputs = {
        "variant": args.variant,
        "ambient": xi.ambient.value,
        "valid": valid,
        "values": {
            str(s): {"matrix": [list(elems[k].rep[:2]), list(elems[k].rep[2:])], "w": w}
            for s, (k, w) in xi.values.items()
        },
    }
    lines = [f"ambient {xi.ambient.value}: cocycle valid: {valid}"]
    return outputs, lines, EXIT_OK if valid else EXIT_NEGATIVE


def cmd_centralizer(args):
    verdict = centralizer_verdict(_model(args.model))
    return {"verdict": verdict.value}, [f"centralizer verdict: {verdict.value}"], EXIT_OK


def cmd_selftest(args):
    results = selftest_mod.run(quick=args.quick, seed=args.seed)
    ok = all(passed for _name, passed, _detail in results)
    lines = []
    for name, passed, detail in results:
        status = "ok" if passed else "FAIL"
        lines.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    lines.append(f"selftest: {'all passed' if ok else 'FAILURES detected'}")
    outputs = {
        "results": [{"name": n, "passed": p, "detail": d} for n, p, d in results],
        "ok": ok,
    }
    return outputs, lines, EXIT_OK if ok else EXIT_ORACLE


class _Given(argparse.Action):  # records the flag in args.given, even at its default; inputs leave it out
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (option_string,)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modtwist",
        description="Exact computations around the modular curves X(N,p), "
        "their automorphisms and Galois twists.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = ap.add_subparsers(dest="command", required=True)
    level_args = argparse.ArgumentParser(add_help=False)  # the (N, p) of a level
    level_args.add_argument("N", type=int)
    level_args.add_argument("p", type=int)

    g = sub.add_parser("genus", parents=[level_args], help="genus of X(N,p) or X+(N,p)")
    curve = g.add_mutually_exclusive_group()  # X+ has no oracle yet
    curve.add_argument("--plus", action="store_true", help="the quotient X+(N,p)")
    curve.add_argument("--oracle", action="store_true", help="cross-check with Riemann-Hurwitz")
    g.set_defaults(func=cmd_genus)

    c = sub.add_parser("cusps", help="cusps of X_0(N)")
    c.add_argument("N", type=int)
    c.add_argument("--oracle", action="store_true", help="cross-check by orbit counting")
    c.set_defaults(func=cmd_cusps)

    s = sub.add_parser("structure", parents=[level_args], help="structure of W(N,p)")
    s.set_defaults(func=cmd_structure)

    sc = sub.add_parser("scan", help="scan levels")
    sc.add_argument("--lemma", action="store_true", help="genus-0 AL quotients X_0(pN)/w_N")
    sc.add_argument("--max", type=int, default=71, action=_Given, help="bound on pN for --lemma")
    sc.add_argument("--max-n", type=int, default=20, action=_Given, help="bound on N for the low-genus scan")
    sc.add_argument("--max-p", type=int, default=13, action=_Given, help="bound on p for the low-genus scan")
    sc.set_defaults(func=cmd_scan)

    al = sub.add_parser("al-fixed", help="Atkin-Lehner fixed points on X_0(M)")
    al.add_argument("M", type=int)
    al.add_argument("Q", type=int)
    al.set_defaults(func=cmd_al_fixed)

    cl = sub.add_parser("classify", parents=[level_args], help="cyclotomic or non-cyclotomic")
    cl.set_defaults(func=cmd_classify)

    tp = sub.add_parser("twist-plan", parents=[level_args], help="full twist plan for a model at a level")
    tp.add_argument("model", help="path to a JSON model file")
    tp.add_argument("--k", default="", help="comma-separated squarefree field labels")
    tp.set_defaults(func=cmd_twist_plan)

    cc = sub.add_parser("cocycle-check", help="build and check a twisting cocycle")
    cc.add_argument("model", help="path to a JSON model file")
    cc.add_argument("--variant", choices=("plain", "primed"), default="plain")
    cc.add_argument("--k", default="", help="named character for the w-component")
    cc.set_defaults(func=cmd_cocycle_check)

    ce = sub.add_parser("centralizer", help="centralizer verdict for a model")
    ce.add_argument("model", help="path to a JSON model file")
    ce.set_defaults(func=cmd_centralizer)

    st = sub.add_parser("selftest", help="run the internal invariant suites")
    st.add_argument("--quick", action="store_true", help="reduced ranges")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code; only argparse's own exits
    (usage errors, --help) raise SystemExit."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        outputs, lines, code = args.func(args)
    except _Exit as exc:
        print(*exc.args, sep="\n", file=sys.stderr)
        return exc.code
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    inputs = {k: v for k, v in vars(args).items() if k not in ("json", "command", "func", "given")}
    report = Report(args.command, inputs, outputs, time.perf_counter() - t0)
    try:
        print(report.to_json() if args.json else "\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader has gone: keep the interpreter's exit flush quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
