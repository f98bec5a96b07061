"""Internal invariant suites, runnable without pytest via the CLI."""
from __future__ import annotations

import math
import random

from .arith import Level, class_number_primitive, euler_phi, psi_index
from .curves import (
    cusps_X0,
    cusps_oracle,
    genus_AL_quotient,
    genus_XNp,
    genus_XNp_hurwitz,
    lemma_pairs,
)
from .extgroup import verify_relations, wgroup
from .moduli import verify_galois_conjugation, verify_w_rationality
from .projgroup import pgl2, psl2
from .twists import (
    build_xi,
    check_cocycle,
    model_corpus,
)


def _suite_arith(quick: bool, rng: random.Random):
    bound = 60 if quick else 200
    for n in range(1, bound + 1):
        if euler_phi(n) != sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1):
            return False, f"euler_phi({n})"
        got = psi_index(n)
        want = sum(
            1 for c in range(n) for d in range(n) if math.gcd(math.gcd(c, d), n) == 1
        ) // euler_phi(n) if n > 1 else 1
        if got != want:
            return False, f"psi_index({n})"
    if [class_number_primitive(D) for D in (-3, -4, -20)] != [1, 1, 2]:
        return False, "class_number anchors"
    return True, ""


def _suite_projgroup(quick: bool, rng: random.Random):
    for p in (3, 5) if quick else (3, 5, 7):
        psl2(p)  # pgl2 and psl2 check their orders as invariants
        sample = pgl2(p).elements
        for _ in range(200):
            a, b = rng.choice(sample), rng.choice(sample)
            if (a * b).hat() != a.hat() * b.hat():
                return False, f"hat automorphism mod {p}"
            if a.hat().hat() != a:
                return False, f"hat involution mod {p}"
            if a.hat().det_class != a.det_class:
                return False, f"hat det class mod {p}"
    return True, ""


def _suite_curves(quick: bool, rng: random.Random):
    bound = 40 if quick else 120
    for n in range(1, bound + 1):
        if len(cusps_X0(n)) != cusps_oracle(n):
            return False, f"cusp count at N={n}"
    for p in (3, 5, 7):
        for n in range(2, 20 if quick else 40):
            if math.gcd(n, p) != 1:
                continue
            level = Level(n, p)
            if genus_XNp(level) != genus_XNp_hurwitz(level):
                return False, f"genus mismatch at ({n},{p})"
    expected = {(2, 3), (4, 3), (5, 3), (8, 3), (11, 3), (2, 5), (4, 5), (3, 7)}
    if lemma_pairs(71) != expected:
        return False, "lemma pair scan"
    if genus_AL_quotient(20, 4) != 0 or genus_AL_quotient(6, 2) != 0:
        return False, "AL quotient anchors"
    return True, ""


def _suite_extgroup(quick: bool, rng: random.Random):
    for p in (3, 5) if quick else (3, 5, 7):
        for n in range(2, 12):
            if math.gcd(n, p) != 1:
                continue
            level = Level(n, p)
            wgroup(level)  # checks its order and image as invariants
            if not level.cyclotomic and not verify_relations(level):
                return False, f"relations at ({n},{p})"
    return True, ""


def _suite_moduli(quick: bool, rng: random.Random):
    for p in (3, 5) if quick else (3, 5, 7):
        if not verify_galois_conjugation(p):
            return False, f"galois conjugation rule mod {p}"
    for level in (Level(2, 3), Level(4, 3), Level(3, 5), Level(4, 5)):
        if not verify_w_rationality(level):
            return False, f"w rationality at {level}"
    return True, ""


def _suite_twists(quick: bool, rng: random.Random):
    corpus = model_corpus(3)
    if quick:
        corpus = corpus[:: max(1, len(corpus) // 25)]
    for m in corpus:
        if m.det_is_epsilon():
            if not check_cocycle(build_xi(m, "plain")):
                return False, "plain cocycle fails"
            if not check_cocycle(build_xi(m, "primed")):
                return False, "primed cocycle fails"
        else:
            if not check_cocycle(build_xi(m, "plain")):
                return False, "W-ambient cocycle fails"
    return True, f"{len(corpus)} models"


SUITES = [
    ("arith", _suite_arith),
    ("projgroup", _suite_projgroup),
    ("curves", _suite_curves),
    ("extgroup", _suite_extgroup),
    ("moduli", _suite_moduli),
    ("twists", _suite_twists),
]


def run(quick: bool = False, seed: int = 0):
    rng = random.Random(seed)
    results = []
    for name, suite in SUITES:
        try:
            ok, detail = suite(quick, rng)
        except Exception as exc:  # a crash is a failure, not a stop
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
