"""Mutation check of the witness re-verifiers, the scans' witness paths,
the interned finite-field arithmetic, the per-prime reductions and budget
rule, the map tables, the square root of -1, intersection by duality and
the field check of separation.

    python3 tools/mutants.py [NAME ...]

Run from the root of a checkout.  Each mutant below replaces one line of a
module in src/translab with another.  For each mutant the script copies
src/ to a temporary directory, makes the edit there (the line must occur
exactly once) and runs the mutant's named tests against the copy; the
mutant is killed when every named test fails.  The unmutated copy must
pass all named tests first.  With NAMEs, only those mutants run.

Exit status 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated copy fails or an edit does not apply.  Re-run it after changing
a re-verifier or a witness path (mutation analysis: DeMillo, Lipton and
Sayward, IEEE Computer 11(4), 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()

REVERIFY = "tests/test_reverifiers.py::"
DECIDERS = "tests/test_deciders.py::"
MODP = "tests/test_modp.py::"
MATRICES = "tests/test_matrices.py::"
FIELDS = "tests/test_fields.py::"
FF_ORACLE = "tests/test_ff_oracle.py::"
RARE = "tests/test_rare_paths.py::"
FAMILIES = "tests/test_families.py::"
SUBSPACE = "tests/test_subspace.py::"
CLI = "tests/test_cli.py::"

# (name, module, line, replacement, tests that must each fail)
MUTANTS = [
    ("rank-witness-accepts-all", "deciders.py",
     "        T = self.matrix", "        return True",
     [REVERIFY + "test_rank_witness_rejects_a_bad_witness"]),
    ("rank-witness-skips-bound", "deciders.py",
     "        if T.rank() > self.rank_bound:", "        if False:",
     [REVERIFY + "test_rank_witness_rejects_a_bad_witness"]),
    ("rank-witness-skips-membership", "deciders.py",
     "        return space.contains(T)", "        return True",
     [REVERIFY + "test_rank_witness_rejects_a_bad_witness"]),
    ("separation-check-skips-rank", "deciders.py",
     "    if X.rank() != k:", "    if False:",
     [REVERIFY + "test_separation_violation_rejects_a_rank_deficient_tuple"]),
    ("require-never-raises", "deciders.py",
     "    if not cond:", "    if False:",
     [REVERIFY + "test_transitivity_disproof_raises_when_its_witness_is"
      "_rejected",
      DECIDERS + "test_witness_checks_raise_under_optimize"]),
    ("separation-check-accepts-all", "deciders.py",
     "    n, k = X.shape", "    return True",
     [REVERIFY + "test_separation_violation_rejects_a_killed_final_column"]),
    ("through-bisects-left", "modp.py",
     "    return ends[bisect.bisect_right(ends, ends[-1] - len(block) + i)]",
     "    return ends[bisect.bisect_left(ends, ends[-1] - len(block) + i)]",
     [MODP + "test_joined_projective_scans_match_per_piece_reference",
      MODP + "test_joined_surjectivity_scan_matches_per_piece_reference"]),
    ("flag-violation-swaps-span", "deciders.py",
     "    return ck, _in_span(f, n, Vrows, ck)",
     "    return ck, _in_span(f, n, ck, Vrows)",
     [DECIDERS + "test_separation_examples_and_pinned_witnesses",
      DECIDERS + "test_separation_scan_matches_per_flag_reference"]),
    ("separation-scan-last-violation", "modp.py",
     "                return block[lo + int(bad[0])].copy()",
     "                return block[lo + int(bad[-1])].copy()",
     [DECIDERS + "test_separation_scan_joins_its_first_block_up_to_a_tile",
      DECIDERS + "test_separation_scan_matches_per_flag_reference_at"
      "_larger_n"]),
    ("final-column-walks-forward", "deciders.py",
     "    for v in reversed(ck):", "    for v in ck:",
     [DECIDERS + "test_final_column_closed_form_matches_the_projective"
      "_enumeration"]),
    ("det-ignores-swap-sign", "matrices.py",
     "            det = -det * prow[c] if swapped else det * prow[c]",
     "            det = det * prow[c]",
     [MATRICES + "test_det_matches_leibniz_with_row_swaps_and_when_singular"]),
    ("witness-constructor-skips-require", "deciders.py",
     '    _require(w.verify(space), "rank witness")', "    pass",
     [REVERIFY + "test_pencil_witnesses_are_reverified",
      REVERIFY + "test_transitivity_disproof_raises_when_its_witness_is"
      "_rejected"]),
    ("interned-fp2-product-drops-omega", "fields.py",
     "            self.a * o.a + self.b * o.b * self.omega,",
     "            self.a * o.a + self.b * o.b,",
     [FIELDS + "test_interned_results_equal_fresh_elements",
      FF_ORACLE + "test_finite_field_deciders_match_the_oracle"]),
    ("interned-fp-subtraction-adds", "fields.py",
     "        return _fp(self.value - o.value, self.p)",
     "        return _fp(self.value + o.value, self.p)",
     [FIELDS + "test_interned_results_equal_fresh_elements",
      FF_ORACLE + "test_finite_field_deciders_match_the_oracle"]),
    ("interned-fp2-index-drops-final-mod", "fields.py",
     "    return t[a % p * p + b % p] if t is not None else Fp2Element(a, b, p, omega)",
     "    return t[a % p * p + b] if t is not None else Fp2Element(a, b, p, omega)",
     [FIELDS + "test_interned_results_equal_fresh_elements",
      FF_ORACLE + "test_finite_field_deciders_match_the_oracle"]),
    ("reduction-skips-the-raising-call", "deciders.py",
     "        S.reduce_mod(p)", "        pass",
     [RARE + "test_qi_certification_skips_the_primes_without_a_square_root"
      "_of_minus_one"]),
    ("output-route-failure-unconfirmed", "deciders.py",
     '        _require(coeffs is not None, "output-subspace scan")', "        pass",
     [DECIDERS + "test_output_subspace_failure_must_be_confirmed"]),
    ("over-budget-prime-certifies", "deciders.py",
     "            outcome = False", "            outcome = True",
     [DECIDERS + "test_unknown_when_budget_exhausted",
      DECIDERS + "test_separation_budget_checked_per_prime"]),
    ("map-table-keeps-rational-zeros", "families.py",
     "        return Mat.from_rows(A.field, [out[i:i + n] for i in range(0, n * n, n)])",
     "        return Mat(A.field, n, n, out)",
     [FAMILIES + "test_rational_map_table_applies_over_qi"]),
    ("sqrt-of-minus-one-takes-larger-root", "fields.py",
     "        return _fp(min(r, p - r), p)", "        return _fp(max(r, p - r), p)",
     [FIELDS + "test_prime_field_sqrt_of_minus_one",
      FIELDS + "test_quadratic_extension_sqrt_of_minus_one_is_pinned",
      MATRICES + "test_reduce_mod_gaussian_matches_integer_reference"]),
    ("intersect-returns-sum", "subspace.py",
     "        return self.preannihilator().sum(other.preannihilator()).preannihilator()",
     "        return self.sum(other)",
     [SUBSPACE + "test_intersect_matches_kernel_reference",
      SUBSPACE + "test_modular_dimension_law"]),
    ("separation-skips-field-check", "deciders.py",
     '            raise ShapeMismatch("the separation scan needs GF(p)")',
     "            pass",
     [DECIDERS + "test_separation_over_gf9_is_refused_at_every_budget",
      CLI + "test_sep_over_gf9_exits_one_at_every_budget"]),
]


def _failed(src: str, tests: list) -> set:
    """The named tests that fail with translab imported from src."""
    # no bytecode cache: a mutant of the same size and mtime second as the
    # line it replaces must not run from a stale cache
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    bad = set()
    for line in out.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            node = line.split()[1]
            bad.update(t for t in tests
                       if node == t or node.startswith(t + "["))
    if out.returncode not in (0, 1) or (out.returncode == 1 and not bad):
        raise RuntimeError(f"pytest exited {out.returncode}:\n{out.stdout}"
                           f"{out.stderr}")
    return bad


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({t for m in chosen for t in m[4]})
        broken = _failed(src, every)
        if broken:
            print("the unmutated source fails:", *sorted(broken),
                  sep="\n  ")
            return 2
        survived = 0
        for name, module, line, replacement, tests in chosen:
            path = os.path.join(src, "translab", module)
            with open(path) as fh:
                text = fh.read()
            lines = text.split("\n")
            if lines.count(line) != 1:
                print(f"{name}: the line occurs {lines.count(line)} times "
                      f"in {module}")
                return 2
            lines[lines.index(line)] = replacement
            with open(path, "w") as fh:
                fh.write("\n".join(lines))
            try:
                failed = _failed(src, tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(text)
            killed = len(failed) == len(tests)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':8}  {name}  "
                  f"({len(failed)} of {len(tests)} named tests failed)",
                  flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
