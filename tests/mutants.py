"""The mutation catalogue: named defects planted one at a time in
src/modtwist, each with the tests that must kill it, or with the reason why
the tests it names cannot.

    python tests/mutants.py [NAME ...]

runs the named mutants, or all of them.  For each, the runner copies the
repository (without .git and caches) to a temporary directory, replaces the
mutant's text, which occurs exactly once in its file, and runs the mutant's
tests there with ``pytest -x``.  A mutant counts as killed only when pytest
exits 1, a test having failed; any other exit code (a collection error, say)
or no result within TIMEOUT_S is an error.  The runner prints one line per
mutant and exits 1 when a mutant that must be killed survives, a
``survives`` entry is killed, or a run errs.

Stdlib only, and not collected by pytest; ``tests/test_source.py`` checks
that each text occurs once and that each test it names exists.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300  # a mutant can make a loop endless, say an element order's


class Mutant(NamedTuple):
    name: str
    path: str  # the file, relative to src/modtwist
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # pytest ids, relative to the repository root
    survives: str = ""  # why ``tests`` cannot kill it; empty when they must


GALMODEL = "tests/test_galmodel.py::"
TWISTS = "tests/test_twists.py::"
MODULI = "tests/test_moduli.py::"
EXTGROUP = "tests/test_extgroup.py::"
ACCEPTANCE = "tests/test_acceptance.py::test_acceptance_"

CATALOGUE = (
    # the modulus, the group tables and the walk
    Mutant("residue_tables_accepts_any_modulus", "arith.py",
           '    if p == 2 or not is_prime(p):\n        raise ValueError(f"need an odd prime modulus, got {p}")\n',
           "",
           ("tests/test_projgroup.py::test_non_odd_prime_moduli_raise_value_error",)),
    Mutant("projmat_accepts_singular_matrices", "projgroup.py",
           '        if det == 0:\n            raise ValueError(f"ProjMat: singular matrix '
           '{(a % p, b % p, c % p, d % p)} mod {p}")\n',
           "",
           ("tests/test_projgroup.py::test_table_constructor_matches_reference",)),
    Mutant("right_table_composed_in_the_wrong_order", "projgroup.py",
           "tuple(map(step.__getitem__, self.right(self.parent[j])))",
           "tuple(map(self.right(self.parent[j]).__getitem__, step))",
           ("tests/test_projgroup.py::test_right_table_is_right_multiplication",)),
    Mutant("walk_numbers_in_discovery_order", "projgroup.py",
           "order = sorted(ids, key=list(number).__getitem__)", "order = ids",
           ("tests/test_projgroup.py::test_pgl2_numbers_the_vertices_of_its_tree",
            GALMODEL + "test_table_group_keeps_the_table_numbering")),
    Mutant("walk_column_under_the_wrong_generator", "projgroup.py",
           "for i, name in enumerate(self.gens)}", "for i, name in zip((0, 1, 1), self.gens)}",
           ("tests/test_projgroup.py::test_walk_columns_are_the_generator_products",
            "tests/test_projgroup.py::test_right_table_is_right_multiplication")),
    # conjugation and centralizers, written once for every numbered group
    Mutant("conj_is_right_multiplication", "projgroup.py",
           "return [r[inv[r[inv[x]]]] for x in", "return [r[x] for x in",
           ("tests/test_projgroup.py::test_power_and_left_tables_are_inverse_order_and_left_product",
            TWISTS + "test_rho_star_is_the_transpose_of_rho_at_the_inverse",
            EXTGROUP + "test_integer_models_match_the_word_carrying_walk",
            GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search")),
    Mutant("centralizer_compares_r_x_with_itself", "projgroup.py",
           "ks = [k for k in ks if r[k] == inv[ri[inv[k]]]]", "ks = [k for k in ks if r[k] == r[k]]",
           ("tests/test_projgroup.py::test_centralizer_matches_full_scan",
            TWISTS + "test_cohomologous_matches_whole_group_reference",
            TWISTS + "test_centralizer_verdict_matches_image_reference")),
    Mutant("centralizer_ignores_the_partners", "projgroup.py",
           "for x, y in zip(xs, xs if ys is None else ys):", "for x, y in zip(xs, xs):",
           ("tests/test_projgroup.py::test_centralizer_with_partners_is_the_set_of_conjugators",
            TWISTS + "test_cohomologous_matches_whole_group_reference")),
    Mutant("walk_skips_the_first_generator", "galmodel.py",
           "elif f[j] != value:", "elif f[j] != value and col is not steps[0][0]:",
           (GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search",)),
    Mutant("walk_skips_the_last_generator", "galmodel.py",
           "elif f[j] != value:", "elif f[j] != value and col is not steps[-1][0]:",
           (GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search",
            GALMODEL + "test_all_quadratic_characters_matches_brute_force")),
    Mutant("validate_lookup_with_a_and_b_swapped", "galmodel.py",
           "if rho[ab] != tables[b][rho_a]:", "if rho[ab] != tables[a][rho[b]]:",
           (GALMODEL + "test_validate_model_matches_reference_on_corrupted_corpus",)),
    Mutant("from_permutations_composes_in_the_wrong_order", "galmodel.py",
           "return tuple(a[i] for i in b)", "return tuple(b[i] for i in a)",
           (GALMODEL + "test_permutation_table_is_composition",)),
    Mutant("group_inverse_is_the_identity_map", "galmodel.py",
           "tuple(col.index(e) for col in columns)", "tuple(range(len(columns)))",
           (GALMODEL + "test_group_inverses_and_identity",)),
    Mutant("from_table_transposed", "galmodel.py",
           "lambda a, b: table[a][b]", "lambda a, b: table[b][a]",
           (GALMODEL + "test_from_table_matches_reference",)),
    Mutant("extend_generator_map_multiplies_on_the_left", "galmodel.py",
           "op(out[elements[parent[j]]], gen_values[step[j]])",
           "op(gen_values[step[j]], out[elements[parent[j]]])",
           (GALMODEL + "test_extend_generator_map_is_the_word_product",)),
    # the search up to conjugacy
    Mutant("search_result_unsorted", "galmodel.py",
           "    found.sort(key=lambda f: [f[j] for j in keys])\n", "",
           (GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search",)),
    Mutant("search_carries_one_orbit_edge", "galmodel.py",
           "itertools.islice(orbit.items(), 1, None)", "itertools.islice(orbit.items(), 1, 2)",
           (GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search",)),
    Mutant("search_prefilters_on_the_order_of_b", "galmodel.py",
           "n12 % orders[right[b]] == 0", "n12 % orders[b] == 0",
           (GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search",)),
    Mutant("search_conjugation_not_an_automorphism", "galmodel.py",
           "conj = [target.conj(target.index[s]) for s in target.gens.values()]",
           "conj = [list(target.right(target.index[s])) for s in target.gens.values()]",
           (GALMODEL + "test_all_homs_to_pgl2_matches_the_product_search",)),
    Mutant("search_candidates_of_equal_order_only", "galmodel.py",
           "if n % k == 0]", "if n == k]",
           (GALMODEL + "test_candidates_are_the_images_of_dividing_order",)),
    # homomorphism and cocycle checks, model validation
    Mutant("is_homomorphism_checks_the_first_generator_only", "galmodel.py",
           "map(self.index.__getitem__, self.gens.values()))",
           "map(self.index.__getitem__, list(self.gens.values())[:1]))",
           (GALMODEL + "test_is_homomorphism_walks_every_generator",)),
    Mutant("check_cocycle_without_the_w_part", "twists.py",
           "and grp.is_homomorphism(ws, SIGNS.right))", "and True)",
           (TWISTS + "test_check_cocycle_matches_pair_reference_on_perturbations",)),
    Mutant("untwisting_ignores_eps", "twists.py",
           "ks.append(rh[k] if eps[i] == -1 else k)", "ks.append(k)",
           (TWISTS + "test_check_cocycle_matches_pair_reference",)),
    Mutant("validate_model_without_the_chi_part", "galmodel.py",
           "and g.is_homomorphism(chi, lambda c: [x * c % m.p for x in range(m.p)])):", "):",
           (GALMODEL + "test_validate_model_matches_reference_on_corrupted_corpus",)),
    Mutant("rho_star_without_the_inverse", "twists.py",
           "for i in m.group.inverse]", "for i in range(len(rho))]",
           (TWISTS + "test_plain_and_primed_cocycles_valid_over_corpus",
            ACCEPTANCE + "10_cocycle_corpus")),
    Mutant("primed_is_plain", "twists.py",
           'primed=(variant == "primed")', "primed=False",
           (ACCEPTANCE + "11_equivalence_criterion",)),
    # levels, generators and involutions
    Mutant("level_v_least_nonsquare_everywhere", "arith.py",
           "return least_nonsquare(self.p) if self.cyclotomic else pow(self.N, -1, self.p)",
           "return least_nonsquare(self.p)",
           ("tests/test_arith.py::test_cyclotomic_iff_square_mod_p",)),
    Mutant("u_n_without_n", "extgroup.py",
           '"U_N": IntMat(1, 0, ninv * N, 1),', '"U_N": IntMat(1, 0, N, 1),',
           (ACCEPTANCE + "08_defining_relations",)),
    Mutant("involution_word_multiplied_on_the_left", "extgroup.py",
           "words[edge[0]] * steps[edge[1]]", "steps[edge[1]] * words[edge[0]]",
           (EXTGROUP + "test_integer_models_match_the_word_carrying_walk",)),
    Mutant("involution_model_conjugated_the_other_way", "extgroup.py",
           'gamma.adj() * gens["V_N"] * gamma', 'gamma * gens["V_N"] * gamma.adj()',
           (EXTGROUP + "test_integer_models_match_the_word_carrying_walk",)),
    Mutant("involution_walk_without_the_inverse_steps", "extgroup.py",
           'conjs.update({name: perm, name + "^-1": sorted(sorted(perm), key=perm.__getitem__)})',
           "conjs.update({name: perm})",
           (EXTGROUP + "test_integer_models_match_the_word_carrying_walk",)),
    # the class numbers that the Atkin-Lehner fixed points read
    Mutant("class_number_counts_imprimitive_forms", "arith.py",
           "                if math.gcd(a, b, c) != 1:\n                    continue\n",
           "",
           ("tests/test_arith.py::test_class_number_matches_reduction_oracle",
            "tests/test_arith.py::test_class_number_primitive_known_values")),
    # Atkin-Lehner fixed points, elliptic points and X+(4,5)
    Mutant("al_q2_pair_dropped", "curves.py",
           "([(-4, 1)] if Q == 2 else [])", "([] if Q == 2 else [])",
           ("tests/test_curves.py::test_curve_goldens_replay",)),
    Mutant("al_local_factor_sign_flipped", "curves.py",
           "return 1 + kronecker(disc, q)", "return 1 - kronecker(disc, q)",
           ("tests/test_curves.py::test_curve_goldens_replay",)),
    Mutant("al_q4_cusp_term_dropped", "curves.py",
           "total += 1", "total += 0",
           ("tests/test_curves.py::test_curve_goldens_replay",)),
    Mutant("xplus_45_genus_changed", "curves.py",
           'return GenusReport(curve=name, genus=4, method="paper_case")',
           'return GenusReport(curve=name, genus=3, method="paper_case")',
           ("tests/test_curves.py::test_xplus_verdict_genus_four_case",)),
    Mutant("nu_square_test_changed", "curves.py",
           "if N % square == 0:", "if N % (2 * square) == 0:",
           ("tests/test_curves.py::test_curve_goldens_replay",)),
    Mutant("xplus_genus_one_quotient_unexpected", "curves.py",
           "if q > 0:", "if q > 1:",
           ("tests/test_curves.py::test_xplus_verdict_generic_case",)),
    # the moduli checks
    Mutant("hat_walk_without_the_swap", "moduli.py",
           "steps = {name: (full.right(full.index[g.hat()]),", "steps = {name: (full.right(full.index[g]),",
           (MODULI + "test_hat_table_walk_matches_right_table",)),
    Mutant("galois_conjugation_returns_true", "moduli.py",
           "    vv = v_matrix(p)\n", "    return True\n",
           (MODULI + "test_verify_galois_conjugation_checks_walk_reaches_psl2",)),
    Mutant("galois_conjugate_on_one_side", "moduli.py",
           "gamma_sigma = hv * gamma * hv", "gamma_sigma = hv * gamma",
           (MODULI + "test_verify_galois_conjugation",)),
    Mutant("galois_conjugation_by_v_not_its_hat", "moduli.py",
           "    hv = vv.hat()\n", "    hv = vv\n",
           (MODULI + "test_verify_galois_conjugation",)),
    Mutant("galois_states_moved_by_hat_v", "moduli.py",
           "r_v = full.right(full.index[vv])", "r_v = full.right(full.index[hv])",
           (MODULI + "test_verify_galois_conjugation",)),
    Mutant("w_rationality_by_t_not_v", "moduli.py",
           "r_v = full.right(full.index[v_matrix(p, level.v)])", "r_v = full.right(full.index[t_matrix(p)])",
           (MODULI + "test_verify_w_rationality",)),
    Mutant("w_rationality_returns_true", "moduli.py",
           "    p, full = level.p, pgl2(level.p)\n", "    return True\n",
           (MODULI + "test_verify_w_rationality", ACCEPTANCE + "09_moduli_actions"),
           "w composes only the identity and R_V, and V^2 is a scalar for every v, so the check "
           "reduces to R_V o R_V = id and holds at every level"),
    Mutant("w_rationality_v_a_square", "moduli.py",
           "r_v = full.right(full.index[v_matrix(p, level.v)])",
           "r_v = full.right(full.index[ProjMat(0, -1, 1, 0, p)])",
           (MODULI + "test_verify_w_rationality", ACCEPTANCE + "09_moduli_actions"),
           "V^2 = -v I is a scalar for a square v too, so the check holds whatever v is"),
    Mutant("hat_is_the_identity", "projgroup.py",
           "return self._derived(d, c, b, a, self.det_class)", "return self",
           (MODULI + "test_verify_galois_conjugation", ACCEPTANCE + "09_moduli_actions"),
           "verify_galois_conjugation's comparisons follow from hat being multiplicative and "
           "V^2 a scalar, which the identity map also satisfies; test_projgroup's hat and "
           "table tests kill it"),
    Mutant("hat_is_the_transpose", "projgroup.py",
           "return self._derived(d, c, b, a, self.det_class)", "return self._derived(a, c, b, d, self.det_class)",
           (MODULI + "test_verify_galois_conjugation", ACCEPTANCE + "09_moduli_actions"),
           "verify_galois_conjugation's comparisons hold for the transpose as for hat: the "
           "walk and the products use the same map; test_projgroup's hat and table tests "
           "kill it"),
    # the structure report: the single-class cross-check and the relations
    Mutant("single_conjugacy_class_true", "extgroup.py",
           "full.order // len(full.centralizer([v])) == len(invs)", "True",
           (EXTGROUP + "test_single_class_cross_check_raises_on_a_wrong_centralizer",)),
    Mutant("verify_relations_returns_true", "extgroup.py",
           "    return (v * t).reduce(p) == (u_pow * v).reduce(p) and (v * u).reduce(p) == (t_pow * v).reduce(p)",
           "    return True",
           (EXTGROUP + "test_relations_fail_for_u_n_without_n", EXTGROUP + "test_relations",
            ACCEPTANCE + "08_defining_relations")),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error ...' for one mutant in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="modtwist-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        target = tree / "src" / "modtwist" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return f"error: no result in {TIMEOUT_S} s"
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit code {code}")


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] if names else CATALOGUE
    failed = 0
    for mutant in chosen:
        t0 = time.monotonic()
        outcome = run(mutant)
        ok = outcome == ("survived" if mutant.survives else "killed")
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name:52} {outcome:10} {time.monotonic() - t0:5.1f} s",
              flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
