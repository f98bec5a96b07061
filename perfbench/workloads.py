"""The four benchmark workloads.

Constructing a workload loads its stored inputs and goldens and draws its
task list from an RNG seeded by the workload name and the seed; all of it
is timed as ``setup_s``.  Every pass of a run repeats the same task list.
A task is a closure that makes the benchmark's calls into modtwist
through the tracer and checks every result; it raises ``Mismatch`` on a
wrong result and ``KnownDefect`` when the result is wrong in exactly the
way the goldens record for the seed program.

Strata are fixed per pass and only the members are drawn, because task cost
depends on p, the group order or N: a pass then costs about the same for
every seed.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from modtwist import (
    Level,
    al_fixed_points,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    class_number_primitive,
    cohomologous,
    cusps_oracle,
    cusps_X0,
    genus_AL_quotient,
    genus_XNp,
    genus_XNp_hurwitz,
    involutions_extending_wN,
    lemma_pairs,
    low_genus_XNp,
    parse_and_validate,
    pgl2,
    twist_plan,
    verify_galois_conjugation,
    verify_relations,
    verify_w_rationality,
    wgroup,
    xplus_verdict,
)
from modtwist.galmodel import all_homs_to_pgl2, cyclic_group, klein_four, symmetric_group
from modtwist.modelfile import ModelParseError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
CLI_TIMEOUT_S = 60


class Mismatch(Exception):
    """A result differs from its golden."""


class KnownDefect(Exception):
    """A result differs from its golden exactly as recorded for the seed."""


def expect(ok: bool, detail: str) -> None:
    if not ok:
        raise Mismatch(detail)


@dataclass
class Task:
    kind: str
    run: Callable[[], None]


def legendre(a: int, p: int) -> int:
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def psl2_order(p: int) -> int:
    return p * (p * p - 1) // 2


def psi(n: int) -> int:
    """Index of Gamma_0(n) in SL2(Z): n * prod(1 + 1/q) over primes q | n."""
    out, m, q = n, n, 2
    while q * q <= m:
        if m % q == 0:
            out = out // q * (q + 1)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out = out // m * (m + 1)
    return out


def stratified(rng: random.Random, pool, k: int) -> list:
    """One member from each of k consecutive, nearly equal slices of pool:
    the draw spreads over the whole range for every seed."""
    pool = list(pool)
    bounds = [len(pool) * i // k for i in range(k + 1)]
    return [pool[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:32]


def load(name: str):
    return json.loads((DATA / name).read_text())


class Workload:
    name = ""
    in_process = True  # tasks run in this interpreter, not in child processes

    def __init__(self, seed: int, tracer) -> None:
        self.tr = tracer
        self.setup()
        self.tasks = self.draw(random.Random(f"{self.name}/{seed}"))

    def setup(self) -> None:
        """Load the stored inputs and goldens."""

    def draw(self, rng: random.Random) -> list[Task]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# group-sweep
# ---------------------------------------------------------------------------


class GroupSweep(Workload):
    name = "group-sweep"

    PRIMES = (3, 5, 7, 11, 13)
    GALOIS_PRIMES = (3, 5, 7)
    # Levels drawn per p: (cyclotomic, non-cyclotomic).  With these counts
    # the 90th percentile falls inside the eight verify_w_rationality calls
    # at non-cyclotomic p = 5, which all cost about the same.
    PER_CASE = {3: (12, 8), 5: (10, 8), 7: (2, 2), 11: (1, 1), 13: (1, 1)}
    CYC_MAX_N = 40
    # involutions_extending_wN searches for integer models, and its time
    # varies erratically with N (0.4 s at (2, 11), 34 s at (28, 11)); the
    # non-cyclotomic candidates are the N where it is short, fixed for p >= 7.
    NONCYC_CANDIDATES = {3: range(2, 24), 5: range(2, 24), 7: (3, 5), 11: (2,), 13: (2,)}
    # verify_w_rationality at non-cyclotomic p = 11, 13 takes 1.3 s and 2.6 s
    # per level; it runs on the cyclotomic levels there only.
    W_RATIONALITY_NONCYC_MAX_P = 7

    def setup(self) -> None:
        self.levels = {}
        for p in self.PRIMES:
            cyc = [N for N in range(2, self.CYC_MAX_N + 1) if N % p and legendre(N, p) == 1]
            non = [N for N in self.NONCYC_CANDIDATES[p] if N % p and legendre(N, p) == -1]
            self.levels[p] = (cyc, non)

    def draw(self, rng: random.Random) -> list[Task]:
        # Cold pgl2(p) first: every user process fills the cache once.
        head = [Task("projgroup.pgl2", self._pgl2(p)) for p in self.PRIMES]
        body = [Task("moduli.verify_galois_conjugation", self._galois(p)) for p in self.GALOIS_PRIMES]
        for p in self.PRIMES:
            cyc, non = self.levels[p]
            n_cyc, n_non = self.PER_CASE[p]
            for N in rng.sample(cyc, n_cyc):
                level = Level(N, p)
                body.append(Task("moduli.verify_w_rationality", self._w_rationality(level)))
                body.append(Task("extgroup.wgroup", self._wgroup(level, cyclotomic=True)))
            for N in rng.sample(non, n_non):
                level = Level(N, p)
                if p <= self.W_RATIONALITY_NONCYC_MAX_P:
                    body.append(Task("moduli.verify_w_rationality", self._w_rationality(level)))
                body.append(Task("extgroup.wgroup", self._wgroup(level, cyclotomic=False)))
                body.append(Task("extgroup.verify_relations", self._relations(level)))
                body.append(Task("extgroup.involutions_extending_wN", self._involutions(level)))
        rng.shuffle(body)
        return head + body

    def _pgl2(self, p):
        def run():
            g = self.tr.call("projgroup.pgl2", pgl2, p)
            expect(g.order == 2 * psl2_order(p), f"|PGL2(F_{p})| = {g.order}")
        return run

    def _galois(self, p):
        def run():
            states = psl2_order(p) * 2 * psl2_order(p)
            ok = self.tr.call("moduli.verify_galois_conjugation", verify_galois_conjugation, p,
                              p=p, states=states)
            expect(ok is True, f"verify_galois_conjugation({p}) = {ok}")
        return run

    def _w_rationality(self, level):
        def run():
            p = level.p
            states = (p - 1) * 2 * psl2_order(p)
            ok = self.tr.call("moduli.verify_w_rationality", verify_w_rationality, level,
                              p=p, states=states)
            expect(ok is True, f"verify_w_rationality{level} = {ok}")
        return run

    def _wgroup(self, level, cyclotomic):
        def run():
            p = level.p
            rep = self.tr.call("extgroup.wgroup", wgroup, level, p=p)
            expect(rep.order == 2 * psl2_order(p), f"|W{level}| = {rep.order}")
            want = ("DirectProduct", psl2_order(p)) if cyclotomic else ("FullPGL2", 2 * psl2_order(p))
            got = (rep.structure, rep.image_group.order)
            expect(got == want, f"W{level} structure {got}, expected {want}")
        return run

    def _relations(self, level):
        def run():
            ok = self.tr.call("extgroup.verify_relations", verify_relations, level, p=level.p)
            expect(ok is True, f"verify_relations{level} = {ok}")
        return run

    def _involutions(self, level):
        def run():
            p = level.p
            rep = self.tr.call("extgroup.involutions_extending_wN", involutions_extending_wN, level, p=p)
            # PGL2 \ PSL2 holds p(p - (-1|p))/2 involutions, one conjugacy class.
            want = p * (p - legendre(-1, p)) // 2
            expect(len(rep.involutions) == want, f"{len(rep.involutions)} involutions at {level}, expected {want}")
            expect(rep.single_conjugacy_class, f"involutions at {level} split into several classes")
            expect(set(rep.integer_models) == set(rep.involutions), f"integer models missing at {level}")
            for g, m in rep.integer_models.items():
                expect(abs(m.det) == level.N and m.reduce(p) == g, f"bad integer model {m} at {level}")
        return run


# ---------------------------------------------------------------------------
# twist-corpus
# ---------------------------------------------------------------------------


class TwistCorpus(Workload):
    name = "twist-corpus"

    HOM_PRIMES = (3, 5, 7)
    # Models drawn from each (p, group, case) stratum (whole strata when
    # smaller), so that every group order carries weight in every pass.
    PER_STRATUM = {"C2": 10, "C2xC2": 30, "S3": 25, "S4": 20}

    def setup(self) -> None:
        gold = load("goldens_twist.json")
        self.golden = gold["models"]
        self.homs_golden = gold["homs"]
        self.text = {}
        for p in (3, 5):
            lines = (DATA / f"models_p{p}.jsonl").read_text().splitlines()
            for index, line in enumerate(lines):
                self.text[f"p{p}-{index:04d}"] = line
        self.strata = {}
        for model_id in sorted(self.golden):
            g = self.golden[model_id]
            self.strata.setdefault((model_id[:2], g["group"], g["case"]), []).append(model_id)
        self.groups = (cyclic_group(2), klein_four(), symmetric_group(3), symmetric_group(4))

    def draw(self, rng: random.Random) -> list[Task]:
        tasks = [Task("galmodel.all_homs_to_pgl2", self._homs(grp, p))
                 for p in self.HOM_PRIMES for grp in self.groups]
        for key in sorted(self.strata):
            members = self.strata[key]
            for model_id in rng.sample(members, min(len(members), self.PER_STRATUM[key[1]])):
                tasks.append(Task("twists.pipeline", self._pipeline(model_id)))
        rng.shuffle(tasks)
        return tasks

    def _homs(self, grp, p):
        def run():
            with self.tr.span("galmodel.all_homs_to_pgl2", p=p) as attrs:
                homs = all_homs_to_pgl2(grp, p)
            attrs["found"] = len(homs)
            want = self.homs_golden[f"{grp.name}/{p}"]
            expect(len(homs) == want, f"{len(homs)} homs {grp.name} -> PGL2(F_{p}), expected {want}")
        return run

    def _pipeline(self, model_id):
        text = self.text[model_id]
        g = self.golden[model_id]
        tr = self.tr

        def run():
            if g["case"] == "invalid":
                try:
                    tr.call("modelfile.parse_and_validate", parse_and_validate, text)
                except ModelParseError as exc:
                    expect(str(exc) == g["error"], f"{model_id}: rejected with {exc}, expected {g['error']}")
                    return
                raise Mismatch(f"{model_id}: invalid model accepted")
            m = tr.call("modelfile.parse_and_validate", parse_and_validate, text)
            order = m.group.order
            cocycles = [
                tr.call("twists.build_xi", build_xi, m, "plain"),
                tr.call("twists.build_xi", build_xi, m, "primed"),
            ]
            cyclotomic = g["case"] == "cyclotomic"
            if cyclotomic:
                k_char = m.characters["k"].values
                cocycles.append(tr.call("twists.build_xi", build_xi, m, "plain", k_char))
            for xi in cocycles:
                ok = tr.call("twists.check_cocycle", check_cocycle, xi, pairs=order * order)
                expect(ok is True, f"{model_id}: cocycle does not check")
            verdict = tr.call("twists.centralizer_verdict", centralizer_verdict, m)
            expect(verdict.value == g["centralizer"], f"{model_id}: centralizer {verdict.value}")
            if cyclotomic:
                with tr.span("twists.cohomologous") as attrs:
                    found = cohomologous(cocycles[0], cocycles[1])
                attrs["found"] = found is not None
                witness = list(found[0].rep) if found is not None else None
                expect(witness == g["witness"], f"{model_id}: witness {witness}, expected {g['witness']}")
            plan = tr.call("twists.twist_plan", twist_plan, Level(*g["level"]), m, (-1,))
            expect(digest(plan.to_jsonable()) == g["plan"], f"{model_id}: twist plan {plan.to_jsonable()}")

        return run


# ---------------------------------------------------------------------------
# curve-scan
# ---------------------------------------------------------------------------


class CurveScan(Workload):
    name = "curve-scan"

    # cusps_oracle costs about N^2 but up to 1.5x more or less than its
    # neighbours, so the expensive N > 100 are a fixed ladder, denser at
    # small N and ending at 800, and the seed draws only N < 100.  The
    # ladder then holds every task above the 90th percentile.
    CUSP_LADDER = tuple(round(100 + 700 * (j / 24) ** 2) for j in range(25))
    SMALL_CUSPS = 30
    GENUS_NS = 30
    GENUS_MAX_N = 300
    GENUS_PRIMES = (3, 5, 7, 11, 13)
    AL_MS = 25
    XPLUS_NS = 10
    CLASS_NUMBERS = 20

    def setup(self) -> None:
        gold = load("goldens_curve.json")
        self.al = defaultdict(list)  # M -> [(Q, [fixed points, quotient genus])]
        for key, value in gold["al"].items():
            M, Q = map(int, key.split(","))
            self.al[M].append((Q, value))
        self.xplus = defaultdict(list)  # N -> [(p, report fields)]
        for key, value in gold["xplus"].items():
            N, p = map(int, key.split(","))
            self.xplus[N].append((p, value))
        self.class_numbers = {int(D): h for D, h in gold["class_numbers"].items()}
        self.lemma = {tuple(x) for x in gold["lemma_pairs_71"]}
        self.low_genus = gold["low_genus_300_13"]

    def draw(self, rng: random.Random) -> list[Task]:
        # One task per N (or M, or D), in a fixed order: the order of the
        # large allocations decides how far peak memory exceeds the largest.
        tasks = []
        for N in stratified(rng, range(1, 100), self.SMALL_CUSPS) + list(self.CUSP_LADDER):
            tasks.append(Task("curves.cusps", self._cusps(N)))
        for N in stratified(rng, range(2, self.GENUS_MAX_N + 1), self.GENUS_NS):
            tasks.append(Task("curves.genus", self._genus(N)))
        for M in stratified(rng, sorted(self.al), self.AL_MS):
            tasks.append(Task("curves.al", self._al(M)))
        for N in stratified(rng, sorted(self.xplus), self.XPLUS_NS):
            tasks.append(Task("curves.xplus_verdict", self._xplus(N)))
        for D in stratified(rng, sorted(self.class_numbers), self.CLASS_NUMBERS):
            tasks.append(Task("arith.class_number_primitive", self._class_number(D)))
        tasks.append(Task("curves.lemma_pairs", self._lemma))
        tasks.append(Task("curves.low_genus_XNp", self._low_genus))
        return tasks

    def _cusps(self, N):
        def run():
            cusps = self.tr.call("curves.cusps_X0", cusps_X0, N)
            orbits = self.tr.call("curves.cusps_oracle", cusps_oracle, N, points=psi(N))
            expect(len(cusps) == orbits, f"X_0({N}): {len(cusps)} cusps, orbit count {orbits}")
        return run

    def _genus(self, N):
        levels = [Level(N, p) for p in self.GENUS_PRIMES if N % p]

        def run():
            for level in levels:
                g = self.tr.call("curves.genus_XNp", genus_XNp, level)
                h = self.tr.call("curves.genus_XNp_hurwitz", genus_XNp_hurwitz, level)
                expect(g == h, f"X{level}: closed form {g}, Riemann-Hurwitz {h}")
        return run

    def _al(self, M):
        def run():
            for Q, want in self.al[M]:
                f = self.tr.call("curves.al_fixed_points", al_fixed_points, M, Q)
                q = self.tr.call("curves.genus_AL_quotient", genus_AL_quotient, M, Q)
                expect([f, q] == want, f"w_{Q} on X_0({M}): {[f, q]}, expected {want}")
        return run

    def _xplus(self, N):
        cases = [(Level(N, p), want) for p, want in self.xplus[N]]

        def run():
            for level, want in cases:
                rep = self.tr.call("curves.xplus_verdict", xplus_verdict, level)
                got = [rep.curve, rep.genus, rep.method, rep.note]
                expect(got == want, f"X+{level}: {got}")
        return run

    def _class_number(self, D):
        def run():
            h = self.tr.call("arith.class_number_primitive", class_number_primitive, D)
            expect(h == self.class_numbers[D], f"h({D}) = {h}, expected {self.class_numbers[D]}")
        return run

    def _lemma(self):
        got = self.tr.call("curves.lemma_pairs", lemma_pairs, 71)
        expect(got == self.lemma, f"lemma_pairs(71) = {sorted(got)}")

    def _low_genus(self):
        got = self.tr.call("curves.low_genus_XNp", low_genus_XNp, 300, 13)
        got = [[lv.N, lv.p, g] for lv, g in got]
        expect(got == self.low_genus, "low_genus_XNp(300, 13) differs from its golden")


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------


def strip_timing(obj):
    """Drop timing fields (keys ending in _s or _ms) at any depth."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if not (k.endswith("_s") or k.endswith("_ms"))}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], out_dir: Path, timeout: float = CLI_TIMEOUT_S):
    """Run one child process to completion; returns (exit code, stdout,
    stderr, ru_maxrss in KiB).  wait4 gives this child's own peak RSS."""
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss


class CliCalls(Workload):
    name = "cli-calls"
    in_process = False

    # Calls drawn by kind.  The model commands instead run once each on one
    # of the two stored models of every (p, group, case) stratum, and
    # structure takes its p = 11 and 13 entries always and the rest from
    # p <= 7: the heavy calls (selftest and the non-cyclotomic structure
    # reports at p = 11, 13) are then the same three for every seed, below
    # a tenth of the calls.
    PER_KIND = {"genus": 6, "cusps": 5, "structure": 6, "scan": 3, "al-fixed": 5, "classify": 5,
                "selftest": 1, "malformed": 6}
    MODEL_KINDS = ("twist-plan", "cocycle-check", "centralizer")
    STRUCTURE_FIXED_P = ("11", "13")

    def setup(self) -> None:
        self.by_kind = defaultdict(list)
        self.by_model = defaultdict(lambda: defaultdict(list))  # stratum -> model -> calls
        self.structure_fixed = []
        for entry in load("goldens_cli.json")["calls"]:
            if entry["kind"] in self.MODEL_KINDS:
                self.by_model[entry["stratum"]][entry["model"]].append(entry)
            elif entry["kind"] == "structure" and entry["argv"][2] in self.STRUCTURE_FIXED_P:
                self.structure_fixed.append(entry)
            else:
                self.by_kind[entry["kind"]].append(entry)
        self.out_dir = ROOT / ".perfbench_out" / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.max_child_rss_kib = 0

    def draw(self, rng: random.Random) -> list[Task]:
        chosen = list(self.structure_fixed)
        for kind in sorted(self.PER_KIND):
            chosen += rng.sample(self.by_kind[kind], self.PER_KIND[kind])
        for stratum in sorted(self.by_model):
            models = self.by_model[stratum]
            calls = models[rng.choice(sorted(models))]
            for kind in self.MODEL_KINDS:
                chosen.append(rng.choice([e for e in calls if e["kind"] == kind]))
        rng.shuffle(chosen)
        return [Task("cli." + e["argv"][0], self._call(e)) for e in chosen]

    def _call(self, entry):
        argv = [sys.executable, "-m", "modtwist.cli", "--json", *entry["argv"]]
        label = " ".join(entry["argv"])

        def run():
            with self.tr.span("cli." + entry["argv"][0]) as attrs:
                code, out, err, rss = run_child(argv, self.out_dir)
            self.max_child_rss_kib = max(self.max_child_rss_kib, rss)
            report = None
            if out.strip():
                try:
                    report = json.loads(out)
                except json.JSONDecodeError:
                    raise Mismatch(f"{label}: stdout is not JSON") from None
                attrs["inproc_s"] = report.get("elapsed_s")
            if entry["kind"] == "malformed":
                if code == entry["exit"]:
                    return
                seen = entry["observed_at_generation"]
                tail = err.strip().splitlines()[-1] if err.strip() else ""
                if code == seen["exit"] and tail == seen["stderr_tail"]:
                    raise KnownDefect(f"{label}: exit {code} ({tail}), documented exit {entry['exit']}")
                raise Mismatch(f"{label}: exit {code} ({tail}), documented exit {entry['exit']}")
            expect(code == entry["exit"], f"{label}: exit {code}, expected {entry['exit']}")
            got = strip_timing(report) if report is not None else None
            expect(got == entry["stdout"], f"{label}: report differs from its golden")

        return run


WORKLOADS = {w.name: w for w in (GroupSweep, TwistCorpus, CurveScan, CliCalls)}
