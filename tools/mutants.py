"""Mutant registry: deliberate faults that the tests must catch.

Each entry of ``MUTANTS`` is one fault: a file, the exact text to
replace, which must occur exactly once in that file, the text put in
its place, and the ids of the tests that must fail with it.  A fault
that needs more than one edit lists the further (old, new) pairs of
the same file in ``also``; each old text there must occur exactly once
too, and the edits are applied in order.  Every named test runs once on
the unchanged code, where all must pass, and each mutant's tests run
with ``-x`` on a fresh copy of ``COPIED`` with its edits applied, each
run in a child of ``forked``.  This process imports pytest and
hypothesis once, where an interpreter per run imports them each time,
and never padicforms.  ``fork`` is POSIX-only, as CI's runner is.

The run fails if an entry's old texts are missing or occur more than
once (a refactor moved it: update the entry, do not drop it), if a
named test fails on the unchanged code, or if a mutant survives, which
means a test is missing.  Never remove an entry to make the run pass.

Usage, from any directory, with pytest and hypothesis installed:

    python tools/mutants.py
"""

import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from contextlib import closing
from functools import partial
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Tuple

import hypothesis  # noqa: F401  imported once here, not in every child
import pytest

ROOT = Path(__file__).resolve().parent.parent
# what the tests read: the tests of the benchmark's goldens read perfbench/
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# seconds a job may run: the longest, reach.py's traced unit run, takes 80
LIMIT = 300
# pytest exits 1 when a test failed; any other status, a signal's too, is an ERROR
VERDICTS = {0: "SURVIVED", 1: "killed"}


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]
    also: Tuple[Tuple[str, str], ...] = ()

    @property
    def edits(self) -> Tuple[Tuple[str, str], ...]:
        return ((self.old, self.new),) + self.also


_CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_catches_each_wrong_projector"
# the projector's own checks of its result, deleted
_NO_PROJECTOR_CHECKS = (
    "    if e_power != power.rows:\n"
    '        raise VerificationError("T^N has a column outside the span of its image basis")\n'
    "    if e_idem != idem.rows or e_matrix != product_rows(matrix.rows, idem.rows, n, modulus):\n"
    '        raise VerificationError("ordinary projector is not an idempotent commuting with T")\n'
    "    # The image of an idempotent over the local ring Z/p^m is free, so\n"
    "    # its trace is its rank, which is also its mod-p rank.\n"
    "    if idem.trace() != r % modulus or rank_mod_p(idem.rows, p) != r:\n"
    '        raise VerificationError("idempotent trace disagrees with mod-p rank")\n',
    "",
)

MUTANTS = (
    # series and matrix product kernels
    Mutant(
        "two-point evaluation at X = 2^N with N one bit short",
        "src/padicforms/qexp.py",
        "        shift = 4 * width  # X = 2^shift\n",
        "        shift = 4 * width - 1  # X = 2^shift\n",
        ("tests/test_qexp.py::test_product_matches_plain_product",),
    ),
    Mutant(
        "slot rule rounds bits up by (bits + 6) // 8",
        "src/padicforms/padic.py",
        "    size = (bits + 7) // 8\n",
        "    size = (bits + 6) // 8\n",
        (
            "tests/test_padic.py::test_matmul_slot_width_worst_case",
            "tests/test_qexp.py::test_product_matches_plain_product",
        ),
    ),
    Mutant(
        "series product shifted back by s + t - 1 after skipping leading zeros",
        "src/padicforms/qexp.py",
        "        n = q - s - t\n",
        "        n = q - s - t + 1\n",
        ("tests/test_qexp.py::test_product_matches_plain_product",),
    ),
    Mutant(
        "matrix products packed from 3 rows and columns",
        "src/padicforms/padic.py",
        "_PACKED_MIN_SIDE = 4\n",
        "_PACKED_MIN_SIDE = 3\n",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    # acceptance criterion 1: each identity's check, one at a time
    Mutant(
        "criterion 1 without its fused e^2 = e and eT = Te check",
        "src/padicforms/acceptance.py",
        "    if product_rows(e, list(map(add, e, t)), 2 * n, modulus) != tuple(map(add, e, te)):\n",
        "    if False:\n",
        (f"{_CRITERION_1}[_entry_moved]", f"{_CRITERION_1}[_conjugated]"),
    ),
    Mutant(
        "criterion 1 checks eT = Te only, not e^2 = e",
        "src/padicforms/acceptance.py",
        "    if product_rows(e, list(map(add, e, t)), 2 * n, modulus) != tuple(map(add, e, te)):\n",
        "    if product_rows(e, t, n, modulus) != te:\n",
        (f"{_CRITERION_1}[_entry_moved]",),
    ),
    Mutant(
        "criterion 1 checks e^2 = e only, not eT = Te",
        "src/padicforms/acceptance.py",
        "    if product_rows(e, list(map(add, e, t)), 2 * n, modulus) != tuple(map(add, e, te)):\n",
        "    if product_rows(e, e, n, modulus) != e:\n",
        (f"{_CRITERION_1}[_conjugated]",),
    ),
    Mutant(
        "criterion 1 without the rank check of T e + (1 - e)",
        "src/padicforms/acceptance.py",
        "    if rank_mod_p([list(map(add, a, b)) for a, b in zip(te, one_minus_e)], p) != n:\n",
        "    if False:\n",
        ("tests/test_acceptance.py::test_projector_algebra_reads_each_identity[image_too_large]",),
    ),
    Mutant(
        "criterion 1 without the check that T^m kills ker e mod p",
        "src/padicforms/acceptance.py",
        "        if any(map(any, power)):\n",
        "        if False:\n",
        (f"{_CRITERION_1}[_zero_if_invertible]",),
    ),
    Mutant(
        "criterion 1's zero test of T - Te forced false: no power is taken",
        "src/padicforms/acceptance.py",
        "    if any(map(any, kernel_part)):\n",
        "    if False:\n",
        (f"{_CRITERION_1}[_zero_if_invertible]",),
    ),
    Mutant(
        "criterion 1's identity route without the rank of T",
        "src/padicforms/acceptance.py",
        "        return rank_mod_p(t, p) == len(t)\n",
        "        return True\n",
        (f"{_CRITERION_1}[_identity_if_singular]",),
    ),
    Mutant(
        "criterion 1's identity test of e forced true: only the rank of T is read",
        "src/padicforms/acceptance.py",
        "    if e == identity:\n",
        "    if True:\n",
        (f"{_CRITERION_1}[_zero_if_invertible]",),
    ),
    # Katz readouts and the U_p solve
    Mutant(
        "Katz readout spine read from q^p on instead of q^0",
        "src/padicforms/coleman.py",
        "reads = [*range(d), *range(0, self.p * d, self.p)]",
        "reads = [*range(d), *range(self.p, self.p * (d + 1), self.p)]",
        ("tests/test_coleman.py::test_katz_elements_mod_match_integral_blocks",),
    ),
    Mutant(
        "U_p solve ignores the normalization's power of p",
        "src/padicforms/coleman.py",
        "[[scale * c for c in e.coeffs[d:]] for e in elements]",
        "[list(e.coeffs[d:]) for e in elements]",
        ("tests/test_coleman.py::test_up_matrix_weight_zero_constant",),
    ),
    # the Hasse tower, operator matrices and Miller tables, acceptance
    # criteria 3 and 4 and the duality adjunction
    Mutant(
        "control target read at level 0 under the k = 2 twist",
        "src/padicforms/hida.py",
        "        target = _target_level(self.base_weight)\n",
        "        target = 0\n",
        ("tests/test_hida.py::test_control_check_weight2",),
    ),
    Mutant(
        "Hasse tower without its inclusion check",
        "src/padicforms/hida.py",
        "        if not all(upper.contains_each(lower.forms)):\n",
        "        if False:\n",
        ("tests/test_hida.py::test_hasse_tower_catches_a_wrong_level",),
    ),
    Mutant(
        "control report reads rank_low from level n",
        "src/padicforms/hida.py",
        "        rank_low = self.projectors[target].rank\n",
        "        rank_low = self.projectors[n].rank\n",
        ("tests/test_hida.py::test_control_check_builds_each_space_once[2-5-0]",),
    ),
    Mutant(
        "tower above a level sliced from the level after it",
        "src/padicforms/hida.py",
        "            self.p, self.levels[level].weight, self.levels[level:], self.projectors[level:]\n",
        "            self.p, self.levels[level].weight, self.levels[level + 1 :], self.projectors[level + 1 :]\n",
        ("tests/test_hida.py::test_hasse_tower_above_is_the_tower_built_there[5]",),
    ),
    Mutant(
        "criterion 4's towers stop a level short of the greatest weight's n = 3",
        "src/padicforms/acceptance.py",
        "            c: build_hasse_tower(ks[0], p, (ks[-1] - ks[0]) // (p - 1) + 3)\n",
        "            c: build_hasse_tower(ks[0], p, (ks[-1] - ks[0]) // (p - 1) + 2)\n",
        ("tests/test_hida.py::test_criterion_4_builds_each_tower_once",),
    ),
    Mutant(
        "operator matrix applies the operator at weight 0",
        "src/padicforms/hida.py",
        "    images = [op(f, basis.weight, ell) for f in basis.forms]\n",
        "    images = [op(f, 0, ell) for f in basis.forms]\n",
        (
            "tests/test_hida.py::test_one_table_serves_every_weight",
            "tests/test_hida.py::test_tp_matrix_eigenvalues_weight_12",
        ),
    ),
    Mutant(
        "family table at the lowest sample weight's q-precision",
        "src/padicforms/hida.py",
        "    powers = MillerPowers(default_qprec(max(weights), op_primes))\n",
        "    powers = MillerPowers(default_qprec(weights[0], op_primes))\n",
        ("tests/test_hida.py::test_fit_family_builds_one_table[5-0-weights0-primes0-8-29]",),
    ),
    Mutant(
        "criterion 3's mod-p table at the lowest weight's q-precision",
        "src/padicforms/acceptance.py",
        "        powers = MillerPowers(default_qprec(40, [p]), ModRing(p, 1))\n",
        "        powers = MillerPowers(default_qprec(2, [p]), ModRing(p, 1))\n",
        ("tests/test_hida.py::test_criterion_3_builds_one_table_per_prime_and_ring",),
    ),
    Mutant(
        "criterion 4 without its rank comparison",
        "src/padicforms/acceptance.py",
        "            if len(set(ranks)) != 1:\n",
        "            if False:\n",
        ("tests/test_acceptance.py::test_criterion_4_catches_each_wrong_report[rank_low]",),
    ),
    Mutant(
        "criterion 8 without its verdict on I against I + 2",
        "src/padicforms/acceptance.py",
        "        if sa != sb:\n            ok = False\n",
        "        if sa != sb:\n            pass\n",
        ("tests/test_acceptance.py::test_criterion_8_catches_a_moved_slope",),
    ),
    Mutant(
        "criterion 2 without its k = 1 branch count",
        "src/padicforms/acceptance.py",
        "    ok = ok and agree == 100\n",
        "    ok = ok and True\n",
        ("tests/test_acceptance.py::test_criterion_2_catches_a_wrong_k1_branch",),
    ),
    Mutant(
        "criterion 3 compares T_p with itself mod p",
        "src/padicforms/acceptance.py",
        "if operator_matrix(basis, hecke_tp, p) != operator_matrix(basis, up, p):",
        "if operator_matrix(basis, hecke_tp, p) != operator_matrix(basis, hecke_tp, p):",
        ("tests/test_acceptance.py::test_criterion_3_catches_a_wrong_up_matrix_mod_p",),
    ),
    Mutant(
        "criterion 3's Z side compares lhs with itself",
        "src/padicforms/acceptance.py",
        "                if lhs != rhs:\n",
        "                if lhs != lhs:\n",
        ("tests/test_acceptance.py::test_criterion_3_catches_a_wrong_frobenius",),
    ),
    Mutant(
        "criterion 5 without its check of a_2 at the samples",
        "src/padicforms/acceptance.py",
        "        if family.eigen_data[k][2] != ((1 + 2 ** (k - 1)) % 5**8,):\n",
        "        if False:\n",
        ("tests/test_acceptance.py::test_criterion_5_catches_a_wrong_sample_eigenvalue",),
    ),
    Mutant(
        "criterion 5 states its a_2 congruences hold after one failed",
        "src/padicforms/acceptance.py",
        "    if congruent:\n",
        "    if True:\n",
        ("tests/test_acceptance.py::test_criterion_5_catches_each_wrong_family[fit_congruence]",),
    ),
    Mutant(
        "criterion 6 without its naive-shift check",
        "src/padicforms/acceptance.py",
        "        if naive[: len(shifted)] != shifted or not report.naive_shift_checked:\n",
        "        if False:\n",
        ("tests/test_acceptance.py::test_criterion_6_catches_a_naive_polygon_off_by_one",),
    ),
    Mutant(
        "criterion 7 always good",
        "src/padicforms/acceptance.py",
        "        good = comparison.passed and list(over) == want"
        " and list(comparison.classical) == want\n",
        "        good = True\n",
        ("tests/test_acceptance.py::test_criterion_7_catches_a_wrong_comparison",),
    ),
    Mutant(
        "criterion 9's held-out comparison always good",
        "src/padicforms/acceptance.py",
        "        good = all(\n",
        "        good = True or all(\n",
        ("tests/test_acceptance.py::test_criterion_9_catches_a_wrong_held_out_prediction",),
    ),
    Mutant(
        "criterion 10 without its mod-p rank-duality check",
        "src/padicforms/acceptance.py",
        "            if not rank_duality_check(mat)[\"equal\"]:\n",
        "            if False:\n",
        ("tests/test_acceptance.py::test_criterion_10_catches_each_wrong_check[rank_duality]",),
    ),
    Mutant(
        "criterion 10 without its adjunction count",
        "src/padicforms/acceptance.py",
        "    if good != 100:\n",
        "    if False:\n",
        ("tests/test_acceptance.py::test_criterion_10_catches_each_wrong_check[adjunction]",),
    ),
    Mutant(
        "criterion 10 without the theta probe's verdict",
        "src/padicforms/acceptance.py",
        "        if not probe.passed:\n",
        "        if False:\n",
        ("tests/test_acceptance.py::test_criterion_10_catches_each_wrong_check[theta_probe]",),
    ),
    Mutant(
        "adjunction check's right side applies U_p in place of F",
        "src/padicforms/duality.py",
        "rhs = sum(map(mul, f_coords, gram.apply(f_op.apply(g_coords))))",
        "rhs = sum(map(mul, f_coords, gram.apply(up_mat.apply(g_coords))))",
        (
            "tests/test_duality.py::test_adjunction_identity_and_negative_control",
            "tests/test_duality.py::test_adjunction_check_matches_the_explicit_pairing",
        ),
    ),
    Mutant(
        "theta probe never records a missing class",
        "src/padicforms/duality.py",
        "        classes.append(ThetaProbeClass(s, image, present, excluded))\n",
        "        classes.append(ThetaProbeClass(s, image, present or not excluded, excluded))\n",
        ("tests/test_duality.py::test_theta_probe_records_a_missing_image",),
    ),
    Mutant(
        "theta probe's multiset take leaves what it took in the pool",
        "src/padicforms/duality.py",
        "        pool.remove(value)\n",
        "",
        ("tests/test_duality.py::test_theta_probe_control_with_repeated_source_slope",),
    ),
    # Hida families: the fit's checks across weights and the unit root
    Mutant(
        "family fit without its rank-constancy check",
        "src/padicforms/hida.py",
        "    if len(rank_set) != 1:\n"
        "        raise VerificationError(\n"
        '            f"ordinary rank is not constant across weights: {ranks} "\n'
        '            "(control theorem violation)"\n'
        "        )\n",
        "",
        ("tests/test_hida.py::test_fit_family_catches_each_mismatch_across_weights[rank]",),
    ),
    Mutant(
        "family fit without its key-matching check",
        "src/padicforms/hida.py",
        "    if primes and len(set(keys_per_weight)) > 1:\n"
        "        raise VerificationError(\n"
        '            "eigensystem keys do not match across weights; family matching failed"\n'
        "        )\n",
        "",
        ("tests/test_hida.py::test_fit_family_catches_each_mismatch_across_weights[key]",),
    ),
    Mutant(
        "family fit without its congruence check",
        "src/padicforms/hida.py",
        '                if not entry["holds"]:\n'
        "                    raise VerificationError(\n"
        '                        f"interpolation congruence fails for a_{ell}: {entry}"\n'
        "                    )\n",
        "",
        ("tests/test_hida.py::test_fit_family_catches_a_failed_congruence",),
    ),
    Mutant(
        "eigensystem without its block-size check",
        "src/padicforms/hida.py",
        "        if mat.size != 1:\n"
        '            raise VerificationError("eigensystem block is not one-dimensional")\n',
        "",
        ("tests/test_hida.py::test_fit_family_refuses_an_eigensystem_block_that_is_not_a_line",),
    ),
    Mutant(
        "unit root without its Hensel check",
        "src/padicforms/hida.py",
        "    if (x * x - t_p * x + c) % modulus != 0:\n"
        '        raise VerificationError("Hensel iteration for the unit root did not converge")\n',
        "",
        ("tests/test_hida.py::test_unit_root_checks_its_hensel_root",),
    ),
    # weight space and the disc series
    Mutant(
        "off-sample precision without the sample-distance cap",
        "src/padicforms/weights.py",
        "        return min(m, sum(terms)) if terms else m\n",
        "        return m\n",
        (
            "tests/test_hida.py::test_fit_family_carries_the_off_sample_cap",
            "tests/test_eigencurve.py::test_off_sample_slopes_certify_only_what_the_fit_supports",
            "tests/test_eigencurve.py::test_held_out_weight_prediction",
            "tests/test_eigencurve.py::test_specialization_holds_to_the_precision_it_claims",
        ),
    ),
    Mutant(
        "weight distance not saturated at m",
        "src/padicforms/weights.py",
        "    return val_p(w1 - w2, p, saturate=m)\n",
        "    return val_p(w1 - w2, p)\n",
        ("tests/test_weights.py::test_weight_distance_is_the_closed_form[5]",),
    ),
    Mutant(
        "component rule returns without a check",
        "src/padicforms/weights.py",
        "    if (k - component) % (p - 1):\n",
        "    return\n    if (k - component) % (p - 1):\n",
        ("tests/test_eigencurve.py::test_off_component_weight_has_one_error",),
    ),
    Mutant(
        "local piece report without its polygon floor check",
        "src/padicforms/eigencurve.py",
        "        if floor is not None and floor <= h:\n",
        "        if False:\n",
        ("tests/test_eigencurve.py::test_local_piece_report_refuses_an_uncertified_floor",),
    ),
    Mutant(
        "refit fits every sample, the held-out one included",
        "src/padicforms/eigencurve.py",
        "        samples = tuple((k, held[k]) for k in disc.sample_weights)\n",
        "        samples = self.samples\n",
        ("tests/test_eigencurve.py::test_refit_is_the_direct_disc_of_its_samples[criterion_9]",),
    ),
    Mutant(
        "refit keeps the full disc's twist depth",
        "src/padicforms/eigencurve.py",
        "        depth = (self.top_weight - disc.sample_weights[-1]) // (p - 1)\n",
        "        depth = self.twist_depth\n",
        ("tests/test_eigencurve.py::test_refit_is_the_direct_disc_of_its_samples[criterion_9]",),
    ),
    # Z/p^m matrices: the product kernel, the slot codec, canonical results
    Mutant(
        "unit inverse lifted from p^2, one Newton step dropped",
        "src/padicforms/padic.py",
        "    modulus, top = p, p**e\n",
        "    modulus, top = p * p, p**e\n",
        ("tests/test_padic.py::test_unit_inverse_matches_pow",),
    ),
    Mutant(
        "matrix product slots one bit narrower",
        "src/padicforms/padic.py",
        "    size = slot_size(2 * modulus.bit_length() + n.bit_length())\n",
        "    size = slot_size(2 * modulus.bit_length() + n.bit_length() - 1)\n",
        ("tests/test_padic.py::test_matmul_slot_width_worst_case",),
    ),
    Mutant(
        "matrix products packed from 5 rows and columns",
        "src/padicforms/padic.py",
        "_PACKED_MIN_SIDE = 4\n",
        "_PACKED_MIN_SIDE = 5\n",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "plain matrix product without the columns of an empty inner side",
        "src/padicforms/padic.py",
        "        columns = list(zip(*b)) or [()] * s\n",
        "        columns = list(zip(*b))\n",
        ("tests/test_padic.py::test_matmul_slot_width_worst_case",),
    ),
    Mutant(
        "struct slots up to 72 bits",
        "src/padicforms/padic.py",
        "    return size if size > 8 else 1 << (size - 1).bit_length()\n",
        "    return size if size > 9 else 1 << (size - 1).bit_length()\n",
        ("tests/test_padic.py::test_slot_size_rule",),
    ),
    Mutant(
        "wide slots read by shift and mask up to 512 bytes",
        "src/padicforms/padic.py",
        "_SHIFT_READ_MAX_BYTES = 1024\n",
        "_SHIFT_READ_MAX_BYTES = 512\n",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "wide slots read by shift and mask up to 1400 bytes",
        "src/padicforms/padic.py",
        "_SHIFT_READ_MAX_BYTES = 1024\n",
        "_SHIFT_READ_MAX_BYTES = 1400\n",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "shift-and-mask read with a mask one bit short",
        "src/padicforms/padic.py",
        "        mask = (1 << 8 * size) - 1\n",
        "        mask = (1 << 8 * size - 1) - 1\n",
        ("tests/test_padic.py::test_slot_codec_round_trip",),
    ),
    Mutant(
        "wide slots read back big-endian from byte slices",
        "src/padicforms/padic.py",
        '    return [int.from_bytes(c, "little") for c, in iter_unpack(f"{size}s", data)]\n',
        '    return [int.from_bytes(c, "big") for c, in iter_unpack(f"{size}s", data)]\n',
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "wide rows packed one byte short",
        "src/padicforms/padic.py",
        'iter_unpack(f"{count * size}s", data)]',
        'iter_unpack(f"{count * size - 1}s", data[: len(data) - len(data) // (count * size)])]',
        ("tests/test_padic.py::test_slot_codec_round_trip",),
    ),
    Mutant(
        "matrix difference left unreduced",
        "src/padicforms/padic.py",
        "[x % modulus for x in map(sub, a, b)]",
        "list(map(sub, a, b))",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "matrix scaling left unreduced",
        "src/padicforms/padic.py",
        "[c * a % modulus for a in row]",
        "[c * a for a in row]",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "plain matrix product left unreduced",
        "src/padicforms/padic.py",
        "[sum(map(mul, row, col)) % modulus for col in columns]",
        "[sum(map(mul, row, col)) for col in columns]",
        ("tests/test_padic.py::test_matmul_slot_width_worst_case",),
    ),
    Mutant(
        "matrix reduction keeps the old residues",
        "src/padicforms/padic.py",
        "        rows = tuple([tuple([a % modulus for a in row]) for row in self.rows])\n",
        "        rows = self.rows\n",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "transpose built as lists",
        "src/padicforms/padic.py",
        "PadicMatrix._reduced(tuple(zip(*self.rows)), self.p, self.m, self.modulus)",
        "PadicMatrix._reduced([list(c) for c in zip(*self.rows)], self.p, self.m, self.modulus)",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    # q-series: the packed product, reads and reductions
    Mutant(
        "series product slots without their 2 spare bits",
        "src/padicforms/qexp.py",
        "    width = slot_size(2 * bits + q.bit_length() + 2)  # bytes per slot\n",
        "    width = slot_size(2 * bits + q.bit_length())  # bytes per slot\n",
        ("tests/test_qexp.py::test_packed_kernel_over_z_handles_every_sign_pattern[40-65]",),
    ),
    Mutant(
        "packed series product up to bits = 3Q",
        "src/padicforms/qexp.py",
        "_PACKED_BITS_PER_Q = 4\n",
        "_PACKED_BITS_PER_Q = 3\n",
        ("tests/test_qexp.py::test_product_matches_plain_product",),
    ),
    Mutant(
        "signed series packed with a bias one bit short",
        "src/padicforms/qexp.py",
        "        bias, half = 1 << bits, 1 << (8 * width - 1)\n",
        "        bias, half = 1 << bits - 1, 1 << (8 * width - 1)\n",
        ("tests/test_qexp.py::test_packed_kernel_over_z_handles_every_sign_pattern[40-65]",),
    ),
    Mutant(
        "two-point odd coefficients read without the division by X",
        "src/padicforms/qexp.py",
        "(high - low) >> (shift + 1)",
        "(high - low) >> 1",
        ("tests/test_qexp.py::test_product_matches_plain_product",),
    ),
    Mutant(
        "q-precision check off by one: qprec 0 accepted",
        "src/padicforms/qexp.py",
        "    if qprec < 1:\n",
        "    if qprec < 0:\n",
        ("tests/test_forms.py::test_eisenstein_refuses_empty_precision[0]",),
    ),
    Mutant(
        "series reads accept a negative index",
        "src/padicforms/qexp.py",
        "    if low < 0:\n",
        "    if False:\n",
        ("tests/test_qexp.py::test_negative_and_empty_indices_are_refused",),
    ),
    Mutant(
        "computed series left unreduced",
        "src/padicforms/qexp.py",
        "        return cls._reduced(ring, ring.reduce(coeffs))\n",
        "        return cls._reduced(ring, tuple(coeffs))\n",
        ("tests/test_qexp.py::test_internal_results_are_canonical",),
    ),
    Mutant(
        "public series build without reduction",
        "src/padicforms/qexp.py",
        "        coeffs = self.ring.reduce(map(index, self.coeffs))\n",
        "        coeffs = tuple(map(index, self.coeffs))\n",
        ("tests/test_qexp.py::test_public_builds_reduce_every_coefficient",),
    ),
    # the coefficient rings' members
    Mutant(
        "IntegerRing packs its coefficients unsigned",
        "src/padicforms/qexp.py",
        "    signed = True  # packed coefficients take both signs\n",
        "    signed = False  # packed coefficients take both signs\n",
        ("tests/test_qexp.py::test_packed_kernel_over_z_handles_every_sign_pattern[24-17]",),
    ),
    Mutant(
        "ModRing.unit_inverse without its unit refusal",
        "src/padicforms/qexp.py",
        "        if a % self.p == 0:\n"
        '            raise ZeroDivisionError(f"{a} is not a unit mod {self.p}")\n',
        "",
        ("tests/test_qexp.py::test_pow_and_inverse",),
    ),
    Mutant(
        "IntegerRing.unit_inverse accepts any constant",
        "src/padicforms/qexp.py",
        "        if a not in (1, -1):\n",
        "        if False:\n",
        ("tests/test_forms.py::test_eisenstein_nonintegral_weight_needs_padic_ring",),
    ),
    # eliminations: Z/p^m, F_p bytes, and the image restriction
    Mutant(
        "elimination pivots on any nonzero entry, not a unit",
        "src/padicforms/linalg.py",
        "        i = next((i for i in free if rows[i][c] % p), None)\n",
        "        i = next((i for i in free if rows[i][c]), None)\n",
        ("tests/test_linalg.py::test_solve_with_pivoting_needed",),
    ),
    Mutant(
        "elimination skips one entry past the pivot's zero run",
        "src/padicforms/linalg.py",
        "        lo = c + 1\n",
        "        lo = c + 2\n",
        ("tests/test_linalg.py::test_solve_unimodular_round_trip",),
    ),
    Mutant(
        "solve without its missing-pivot refusal",
        "src/padicforms/linalg.py",
        "    if missing:\n"
        '        raise PrecisionError(f"basis is not unimodular: column {min(missing)} has no unit pivot")\n',
        "",
        ("tests/test_linalg.py::test_solve_non_integral",),
    ),
    Mutant(
        "back substitution without the later coordinates",
        "src/padicforms/linalg.py",
        "        for t in range(c + 1, width):\n",
        "        for t in range(0):\n",
        ("tests/test_linalg.py::test_solve_unimodular_round_trip",),
    ),
    Mutant(
        "F_p pivots without the final mod-p translate",
        "src/padicforms/linalg.py",
        '        mat = total.to_bytes(size, "little").translate(mod_p)\n',
        '        mat = total.to_bytes(size, "little")\n',
        ("tests/test_linalg.py::test_rank_and_pivots_mod_p",),
    ),
    Mutant(
        "F_p pivots add +e/v times the pivot row instead of -e/v",
        "src/padicforms/linalg.py",
        "bytes([-x * pow(v, -1, p) % p for x in range(256)])",
        "bytes([x * pow(v, -1, p) % p for x in range(256)])",
        ("tests/test_linalg.py::test_rank_and_pivots_mod_p",),
    ),
    Mutant(
        "F_p pivot row not zeroed",
        "src/padicforms/linalg.py",
        "        factors[::width] = column.translate(scale[column[i]])\n",
        "        factors[::width] = column.translate(scale[column[i]])\n"
        "        factors[i * width] = 0\n",
        ("tests/test_linalg.py::test_rank_and_pivots_mod_p",),
    ),
    Mutant(
        "image rows chosen in pivot order, not sorted",
        "src/padicforms/linalg.py",
        "    return columns, sorted(i for _, i in pivots)\n",
        "    return columns, [i for _, i in pivots]\n",
        ("tests/test_linalg.py::test_independent_columns_match_greedy_choice",),
    ),
    Mutant(
        "image restriction without its residue check",
        "src/padicforms/linalg.py",
        "    if any(x % modulus for i, row in enumerate(rows) if i not in pivot_rows for x in row[r:]):\n",
        "    if False:\n",
        ("tests/test_linalg.py::test_restrict_to_image",),
    ),
    # the ordinary projector
    Mutant(
        "projector returns 1 at mod-p rank n - 1",
        "src/padicforms/linalg.py",
        "    if rank == n:\n",
        "    if rank >= n - 1:\n",
        ("tests/test_linalg.py::test_projector_unit_nonunit_split",),
    ),
    Mutant(
        "projector one squaring short once the mod-p rank settles",
        "src/padicforms/linalg.py",
        "                target = s - 1 + lift\n",
        "                target = s - 2 + lift\n",
        ("tests/test_linalg.py::test_projector_exactness_block_triangular",),
    ),
    Mutant(
        "projector stops at 2^s >= m without the 2^t factor",
        "src/padicforms/linalg.py",
        "                target = s - 1 + lift\n",
        "                target = lift\n",
        ("tests/test_linalg.py::test_projector_exactness_block_triangular",),
    ),
    Mutant(
        "projector core rows reversed",
        "src/padicforms/linalg.py",
        "    core = product_rows(head, c_rows, r, modulus)\n",
        "    core = product_rows(head, c_rows, r, modulus)[::-1]\n",
        ("tests/test_linalg.py::test_projector_exactness_block_triangular",),
    ),
    Mutant(
        "projector one squaring short, with its own checks deleted",
        "src/padicforms/linalg.py",
        "                target = s - 1 + lift\n",
        "                target = s - 2 + lift\n",
        ("tests/test_linalg.py::test_projector_algebra_random",),
        also=(_NO_PROJECTOR_CHECKS,),
    ),
    Mutant(
        "projector core rows reversed, with its own checks deleted",
        "src/padicforms/linalg.py",
        "    core = product_rows(head, c_rows, r, modulus)\n",
        "    core = product_rows(head, c_rows, r, modulus)[::-1]\n",
        ("tests/test_linalg.py::test_projector_algebra_random",),
        also=(_NO_PROJECTOR_CHECKS,),
    ),
    Mutant(
        "projector e built with r columns",
        "src/padicforms/linalg.py",
        "product_rows(c_rows, y, n, modulus)",
        "product_rows(c_rows, y, r, modulus)",
        ("tests/test_linalg.py::test_projector_topologically_nilpotent",),
    ),
    # characteristic series and Newton polygons
    Mutant(
        "Hessenberg pivot is the first nonzero entry, not the least valuation",
        "src/padicforms/charseries.py",
        "        best = k + next(i for i, x in enumerate(column) if x % (pk * p))\n",
        "        best = k + next(i for i, x in enumerate(column) if x)\n",
        ("tests/test_charseries.py::test_char_series_matches_the_berkowitz_oracle",),
    ),
    Mutant(
        "Hessenberg gcd pivot tested mod p^v, not mod p^(v+1)",
        "src/padicforms/charseries.py",
        "        best = k + next(i for i, x in enumerate(column) if x % (pk * p))\n",
        "        best = k + next(i for i, x in enumerate(column) if x % pk)\n",
        (
            "tests/test_charseries.py::"
            "test_hessenberg_pivot_is_the_first_row_of_least_valuation[column0]",
        ),
    ),
    Mutant(
        "Hessenberg reduction without its column operation",
        "src/padicforms/charseries.py",
        "        if any(mults):\n",
        "        if False:\n",
        ("tests/test_charseries.py::test_char_series_matches_the_berkowitz_oracle",),
    ),
    Mutant(
        "saturated coefficient read as exact valuation m",
        "src/padicforms/charseries.py",
        "(j, None if c == 0 else val_p(c, self.p), self.m)",
        "(j, self.m if c == 0 else val_p(c, self.p), self.m)",
        ("tests/test_charseries.py::test_newton_polygon_saturation_truncates",),
    ),
    Mutant(
        "char series computed mod p^(m-1)",
        "src/padicforms/charseries.py",
        "    coeffs = _hessenberg_series(_hessenberg(matrix), matrix.modulus)\n",
        "    coeffs = _hessenberg_series(_hessenberg(matrix), matrix.modulus // matrix.p)\n",
        ("tests/test_charseries.py::test_char_series_of_integer_matrices",),
    ),
    Mutant(
        "classical oracle's series one digit short, at M = d(k-1)",
        "src/padicforms/classical.py",
        "PadicMatrix.from_rows(block, p, d * (k - 1) + 1)",
        "PadicMatrix.from_rows(block, p, d * (k - 1))",
        ("tests/test_coleman.py::test_classical_spectrum_golden",),
    ),
    # forms and Hecke operators
    Mutant(
        "power table squares instead of stepping",
        "src/padicforms/forms.py",
        "            powers.append(powers[-1] * powers[1])\n",
        "            powers.append(powers[-1] * powers[-1])\n",
        ("tests/test_forms.py::test_miller_basis_echelon_range",),
    ),
    Mutant(
        "Miller tails not cleared against the first row of a block",
        "src/padicforms/forms.py",
        "    for j in range(len(rows) - 2, -1, -1):\n",
        "    for j in range(len(rows) - 2, 0, -1):\n",
        ("tests/test_forms.py::test_miller_basis_small",),
    ),
    Mutant(
        "Miller factor cached by the E4 exponent alone",
        "src/padicforms/forms.py",
        "        if (a, b) not in self._factors:\n",
        "        if a not in self._factors:\n",
        (
            "tests/test_forms.py::test_miller_factor_is_built_once_per_exponent_pair[Z]",
            "tests/test_hida.py::test_control_check_matches_two_separate_spaces",
            "tests/test_coleman.py::test_katz_blocks_are_the_new_miller_rows",
        ),
        also=(
            (
                "            self._factors[a, b] = self.product(",
                "            self._factors[a] = self.product(",
            ),
            ("        return self._factors[a, b]\n", "        return self._factors[a]\n"),
        ),
    ),
    Mutant(
        "combination over an empty basis accepted",
        "src/padicforms/forms.py",
        "        if not self.forms:\n"
        '            raise ValueError("an empty basis has no q-precision to combine at")\n',
        "",
        ("tests/test_forms.py::test_combination_refuses_an_empty_basis",),
    ),
    Mutant(
        "span test compares only the first dim coefficients",
        "src/padicforms/forms.py",
        "        return tuple([c[: g.qprec] == g.coeffs[:q] for c, g in zip(combinations, series)])\n",
        "        return tuple([c[:d] == g.coeffs[:d] for c, g in zip(combinations, series)])\n",
        ("tests/test_forms.py::test_space_basis_contains_exactly_its_combinations",),
    ),
    Mutant(
        "weight normalization a(k) = max(0, 2 - k)",
        "src/padicforms/hecke.py",
        "    return max(0, 1 - k)\n",
        "    return max(0, 2 - k)\n",
        ("tests/test_hecke.py::test_tp_decomposition_weight_le_1",),
    ),
    # Katz elements and certified spectra
    Mutant(
        "Katz elements built one digit short",
        "src/padicforms/coleman.py",
        "    return _solve_up(basis, basis.elements_mod(m), m, shift)\n",
        "    return _solve_up(basis, basis.elements_mod(max(m - 1, 1)), m, shift)\n",
        ("tests/test_precision.py::test_up_matrix_commutes_with_reduction",),
    ),
    Mutant(
        "Katz elements without the row operations of a rung",
        "src/padicforms/coleman.py",
        "                miller_rows(weight, lo, probes, block)\n",
        "                pass\n",
        ("tests/test_coleman.py::test_katz_elements_mod_match_integral_blocks",),
    ),
    Mutant(
        "Katz elements without their echelon check",
        "src/padicforms/coleman.py",
        "        for g, element in enumerate(out):\n"
        "            if element.leading_index() != g or element.coeffs[g] != 1:\n"
        "                raise VerificationError(\n"
        '                    f"Katz element {g} is not in echelon position"\n'
        "                )\n",
        "",
        ("tests/test_coleman.py::test_katz_elements_refuse_a_basis_out_of_echelon_form",),
    ),
    Mutant(
        "certified spectrum rebuilds its Katz elements at every step",
        "src/padicforms/coleman.py",
        "        if m_work > built:\n",
        "        if True:\n",
        ("tests/test_coleman.py::test_slope_spectrum_builds_katz_elements_once",),
    ),
    Mutant(
        "certified spectrum plans without the classical slopes",
        "src/padicforms/coleman.py",
        "    j, v = len(below), sum(below)\n",
        "    j, v = 0, 0\n",
        ("tests/test_coleman.py::test_slope_spectrum_builds_katz_elements_once",),
    ),
    Mutant(
        "certified spectrum reads steps above the plan from the plan's series",
        "src/padicforms/coleman.py",
        "        if m_work > built:\n",
        "        if not built:\n",
        ("tests/test_coleman.py::test_a_spectrum_uncertified_at_its_plan_rebuilds_at_the_cap",),
    ),
    Mutant(
        "certified spectrum walks the grid from the plan",
        "src/padicforms/coleman.py",
        "    for m_work in grid:\n",
        "    for m_work in [g for g in grid if g >= planned]:\n",
        ("tests/test_coleman.py::test_planned_modulus_changes_no_result",),
    ),
    Mutant(
        "certified spectrum stops at the plan without the cap fallback",
        "src/padicforms/coleman.py",
        "            built = grid[-1] if built else planned\n",
        "            built = planned\n",
        (
            "tests/test_coleman.py::test_wrong_classical_spectrum_changes_no_result"
            "[wrong_spectrum0-elements_at0]",
        ),
    ),
    Mutant(
        "certified spectrum returns the series unreduced",
        "src/padicforms/coleman.py",
        "        series = CharSeries(top_series.coeffs, basis.p, m_work)\n",
        "        series = top_series\n",
        (
            "tests/test_coleman.py::test_spectrum_core_matches_a_direct_solve"
            "[14-5-34-10-bound0-91]",
        ),
    ),
    Mutant(
        "spectrum cap read at floor(b): m + floor(b) * max(D, 2) + 16",
        "src/padicforms/coleman.py",
        "    cap = m + ceil(bound * max(d, 2)) + 16\n",
        "    cap = m + int(bound) * max(d, 2) + 16\n",
        ("tests/test_coleman.py::test_the_cap_certifies_every_bound",),
    ),
    Mutant(
        "certified spectrum does not return at the cap",
        "src/padicforms/coleman.py",
        "        if m_work == grid[-1] or poly.certifies_through(bound):\n",
        "        if poly.certifies_through(bound):\n",
        ("tests/test_coleman.py::test_an_uncertified_spectrum_reports_the_cap",),
    ),
    Mutant(
        "comparison certifies only certify_below, not the comparison bound",
        "src/padicforms/coleman.py",
        "        bound = below if bound is None else max(bound, below)\n",
        "        bound = below if bound is None else bound\n",
        ("tests/test_coleman.py::test_a_comparison_certifies_its_whole_range",),
    ),
    Mutant(
        "certified degree read from the first vertex",
        "src/padicforms/charseries.py",
        "        return self.vertices[-1][0]\n",
        "        return self.vertices[0][0]\n",
        ("tests/test_coleman.py::test_shift_polygon_moves_the_slopes_and_the_floor[floor_4-0]",),
    ),
    Mutant(
        "slope multiplicities one too high",
        "src/padicforms/charseries.py",
        "        return tuple(x2 - x1 for (x1, _), (x2, _) in zip(",
        "        return tuple(x2 - x1 + 1 for (x1, _), (x2, _) in zip(",
        ("tests/test_coleman.py::test_shift_polygon_moves_the_slopes_and_the_floor[floor_4-0]",),
    ),
    Mutant(
        "slope classes swap the extra and missing verdicts",
        "src/padicforms/classical.py",
        '"extra-overconvergent" if o > c else "missing-overconvergent"',
        '"extra-overconvergent" if o < c else "missing-overconvergent"',
        ("tests/test_coleman.py::test_comparison_classes_give_each_slope_its_verdict",),
    ),
    Mutant(
        "comparison over a range the polygon does not certify",
        "src/padicforms/classical.py",
        "    if not polygon.certifies_through(bound):\n"
        "        raise VerificationError(\n"
        '            f"polygon at weight {k} not certified below the comparison bound {bound}"\n'
        "        )\n",
        "",
        ("tests/test_coleman.py::test_compare_refuses_an_uncertified_range",),
    ),
    # the one owner of each range refusal, reached through the CLI
    Mutant(
        "ring refusals raised as a plain ValueError, not a configuration error",
        "src/padicforms/padic.py",
        '        raise ConfigError(f"p must be a prime >= 3, got {p}")\n',
        '        raise ValueError(f"p must be a prime >= 3, got {p}")\n',
        ("tests/test_cli.py::test_range_refusals_have_one_owner[basis --k 12 --p 9 --m 3]",),
        also=(
            (
                '        raise ConfigError(f"precision exponent must be >= 1, got {m}")\n',
                '        raise ValueError(f"precision exponent must be >= 1, got {m}")\n',
            ),
        ),
    ),
    Mutant(
        "Katz basis accepts a negative twist depth",
        "src/padicforms/coleman.py",
        "    if twist_depth < 0:\n"
        '        raise ConfigError("twist depth must be >= 0")\n',
        "",
        ("tests/test_cli.py::test_range_refusals_have_one_owner[up-matrix --k 4 --p 5 --I -1 --m 4]",),
    ),
    Mutant(
        "the Hecke prime check accepts an odd composite",
        "src/padicforms/hecke.py",
        "    if not is_prime(ell):\n",
        "    if not is_prime(ell) and ell % 2 == 0:\n",
        ("tests/test_cli.py::test_range_refusals_have_one_owner[tp-matrix --k 12 --p 9]",),
    ),
    # value semantics of padic.Value
    Mutant(
        "values of another class compared by their fields",
        "src/padicforms/padic.py",
        "        if type(other) is not type(self):\n            return NotImplemented\n",
        "        if not isinstance(other, Value):\n            return NotImplemented\n",
        ("tests/test_values.py::test_values_of_another_class_differ",),
    ),
    Mutant(
        "value hash reads one field fewer than equality",
        "src/padicforms/padic.py",
        "        return hash(tuple(map(vars(self).__getitem__, self.__match_args__)))\n",
        "        return hash(tuple(map(vars(self).__getitem__, self.__match_args__[1:])))\n",
        ("tests/test_values.py::test_each_field_is_compared_and_hashed",),
    ),
    Mutant(
        "values accept assignment",
        "src/padicforms/padic.py",
        '        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")\n',
        "        vars(self)[name] = value\n",
        ("tests/test_values.py::test_values_are_immutable",),
    ),
    # output encoding and the source scans
    Mutant(
        "encoder writes a record as the list of its fields",
        "src/padicforms/serialize.py",
        '    if hasattr(value, "_fields"):\n'
        '        raise TypeError(f"a {type(value).__name__} record is encoded by its fields, not whole")\n',
        "",
        ("tests/test_serialize.py::test_encode_refuses_a_record",),
    ),
    Mutant(
        "encoder reads a bool as an integer",
        "src/padicforms/serialize.py",
        "    if value is None or isinstance(value, (bool, str)):\n",
        "    if value is None or isinstance(value, str):\n",
        ("tests/test_serialize.py::test_encode_passes_booleans_none_and_strings",),
    ),
    Mutant(
        "ring JSON name written as str(ring)",
        "src/padicforms/serialize.py",
        '        "ring": f.ring.json(),\n',
        '        "ring": str(f.ring),\n',
        ("tests/test_cli.py::test_golden_outputs[basis_k24_p5_m3.json]",),
    ),
    Mutant(
        "serialize asks the ring kind again",
        "src/padicforms/serialize.py",
        '        "ring": f.ring.json(),\n',
        '        "ring": "Z" if isinstance(f.ring, IntegerRing) else f.ring.json(),\n',
        ("tests/test_imports.py::test_no_ring_kind_branches[serialize.py]",),
        also=(("from .qexp import QSeries\n", "from .qexp import IntegerRing, QSeries\n"),),
    ),
    Mutant(
        "a result record generated by @dataclass again",
        "src/padicforms/duality.py",
        "class ThetaProbeClass(NamedTuple):\n",
        "@dataclass(frozen=True)\nclass ThetaProbeClass:\n",
        ("tests/test_imports.py::test_projector_result_is_the_only_dataclass",),
        also=(("from fractions import", "from dataclasses import dataclass\nfrom fractions import"),),
    ),
    Mutant(
        "QSeries a frozen dataclass again",
        "src/padicforms/qexp.py",
        'class QSeries(Value):\n    """A q-expansion known through q^(qprec-1)."""\n\n'
        '    __match_args__ = ("ring", "coeffs")\n',
        '@dataclass(frozen=True)\nclass QSeries:\n    """A q-expansion known through q^(qprec-1)."""\n\n'
        "    ring: Ring\n    coeffs: tuple\n",
        ("tests/test_imports.py::test_projector_result_is_the_only_dataclass",),
        also=(("from itertools import", "from dataclasses import dataclass\nfrom itertools import"),),
    ),
    Mutant(
        "a float constant in weights.py",
        "src/padicforms/weights.py",
        "\n\ndef w_coordinate(",
        "\n\nHALF = 0.5\n\n\ndef w_coordinate(",
        ("tests/test_imports.py::test_no_floating_point[weights.py]",),
    ),
    # the benchmark's own reads of the library
    Mutant(
        "QSeries checks its fields in __init__, with no __post_init__ for the benchmark to wrap",
        "src/padicforms/qexp.py",
        "        # the checks stay in __post_init__, where perfbench/spans.py counts public builds\n"
        "        self.__post_init__()\n\n"
        "    def __post_init__(self) -> None:\n",
        "",
        ("tests/test_bench_targets.py::test_bench_target_resolves[qexp.QSeries.new-qexp-QSeries.__post_init__]",),
    ),
)


def forked(jobs: list, logs: Path):
    """Run each of ``jobs``, callables that return an exit status, in a
    child forked from this process, one per CPU at a time: job i writes
    its output to ``logs / f"{i}.log"``, exits ``os.EX_SOFTWARE`` if it
    raises and is ended by SIGALRM after ``LIMIT`` seconds.  Yields, in
    order, each job's status, wall time and last 15 lines of output;
    closed early, it kills the children still running."""
    pending = enumerate(jobs)
    children, done = {}, {}  # pid -> (job, start); job -> what it yields
    try:
        for i in range(len(jobs)):
            while i not in done:
                for job, run in islice(pending, (os.cpu_count() or 1) - len(children)):
                    children[_fork(run, logs / f"{job}.log")] = job, time.perf_counter()
                pid, status = os.wait()
                job, start = children.pop(pid)
                output = "\n".join((logs / f"{job}.log").read_text().splitlines()[-15:])
                done[job] = os.waitstatus_to_exitcode(status), time.perf_counter() - start, output
            yield done.pop(i)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(run, log: Path) -> int:
    if pid := os.fork():
        return pid
    # the child must never return into the caller's stack: every way out
    # of the job, an exception or SystemExit included, ends in os._exit
    status = os.EX_SOFTWARE
    try:
        sys.stdout = sys.stderr = open(log, "w", buffering=1)  # os._exit flushes nothing
        os.dup2(sys.stdout.fileno(), 1)
        os.dup2(sys.stdout.fileno(), 2)
        sys.dont_write_bytecode = True  # into a throwaway copy, or the checkout
        signal.alarm(LIMIT)
        status = int(run())
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def run_pytest(tree: Path, args) -> int:
    """pytest on ``args`` in ``tree``, importing padicforms from its src/, with
    no warning that hypothesis, imported before the fork, is not rewritten."""
    os.chdir(tree)
    sys.path.insert(0, str(tree / "src"))
    return pytest.main(["-q", "-p", "no:cacheprovider", "-Wignore:Module already imported", *args])


def _run_mutant(tree: Path, mutant: Mutant) -> int:
    shutil.copytree(ROOT, tree, ignore=lambda directory, names: [
        n for n in names if n == "__pycache__" or directory == str(ROOT) and n not in COPIED
    ])
    path = tree / mutant.file
    text = path.read_text()
    for old, new in mutant.edits:
        text = text.replace(old, new)
    path.write_text(text)
    return run_pytest(tree, ["-x", *mutant.tests])


def main() -> int:
    t0 = time.monotonic()
    problems = []
    for mutant in MUTANTS:
        text = (ROOT / mutant.file).read_text()
        for old, _ in mutant.edits:
            found = text.count(old)
            if found != 1:
                problems.append(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
    if problems:
        print("\n".join(problems))
        return 1
    tests = tuple(sorted({t for mutant in MUTANTS for t in mutant.tests}))
    # job 0 is the clean run: an entry of every named test whose one edit changes nothing
    entries = (Mutant("", MUTANTS[0].file, "", "", tests),) + MUTANTS
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        jobs = [partial(_run_mutant, Path(tmp, str(i)), entry) for i, entry in enumerate(entries)]
        with closing(forked(jobs, Path(tmp))) as runs:
            status, _, output = next(runs)
            if status != 0:
                print(f"the named tests fail on the unchanged code:\n{output}")
                return 1
            for mutant, (status, seconds, output) in zip(MUTANTS, runs):
                verdict = VERDICTS.get(status, "ERROR")
                print(f"{verdict:8} {seconds:5.1f} s  {mutant.name}", flush=True)
                if verdict != "killed":
                    failed += 1
                    print(output)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed in {time.monotonic() - t0:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
