import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicforms
from padicforms import cli, coleman, forms
from padicforms.cli import COMMANDS, EXIT_CONFIG, EXIT_OK, EXIT_VERIFICATION, main
from padicforms.errors import PrecisionError, VerificationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_bare_numbers(node):
    """All JSON numerics must be decimal strings (booleans are fine)."""
    if isinstance(node, bool) or node is None:
        return True
    if isinstance(node, (int, float)):
        return False
    if isinstance(node, dict):
        return all(no_bare_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(no_bare_numbers(v) for v in node)
    return True


def test_ordinary_rank_command(capsys):
    code, out, _ = run_cli(capsys, "ordinary-rank", "--p", "5", "--k", "12")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"k": "12", "p": "5", "rank": "1"}


def test_slopes_command_deterministic(capsys):
    args = ["slopes", "--p", "5", "--k", "4", "--I", "8", "--m", "8"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical for identical arguments
    payload = json.loads(out1)
    assert no_bare_numbers(payload)
    assert payload["slopes"]["slopes"][0] == {"mult": "1", "slope": "0"}


def test_basis_command(capsys):
    code, out, _ = run_cli(capsys, "basis", "--k", "12", "--Q", "8")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dim"] == "2"
    assert payload["forms"][1]["coeffs"][2] == "-24"  # tau(2)


def test_tp_matrix_command(capsys):
    code, out, _ = run_cli(capsys, "tp-matrix", "--k", "12", "--p", "5")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["rows"][1][1] == "4830"


def test_control_check_command(capsys):
    code, out, _ = run_cli(capsys, "control-check", "--k", "4", "--p", "5", "--n", "1")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"
    # at the weight-2 boundary the target takes one Hasse twist
    code, out, _ = run_cli(capsys, "control-check", "--k", "2", "--p", "5", "--n", "1")
    assert code == EXIT_OK
    assert json.loads(out)["weight2_twist"] is True


def test_family_fit_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "family-fit",
        "--p", "5", "--component", "0",
        "--weights", "4,8,12,16", "--hecke-primes", "2,5", "--m", "6",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rank"] == "1"
    assert payload["eigenvalues"]["4"]["5"] == ["1"]
    assert no_bare_numbers(payload)


def test_classicality_command(capsys):
    code, out, _ = run_cli(
        capsys, "classicality", "--k", "4", "--p", "5", "--I", "12", "--m", "8"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["overconvergent"] == ["0", "1"]


def test_duality_command(capsys):
    code, out, _ = run_cli(capsys, "duality", "--k", "4", "--p", "5", "--I", "8", "--m", "8")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["theta_probe"]["control_fails"] is True


def test_disc_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "disc",
        "--p", "5", "--component", "0", "--samples", "4,8,12,16",
        "--I", "6", "--m", "8", "--bounds", "0",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["D"] == "4"  # dim M_40 at the shared top weight 16 + 6*4
    assert payload["flat_degree_by_bound"]["0"]["constant"] is True
    assert no_bare_numbers(payload)


def test_disc_rejects_negative_bound_first(capsys, monkeypatch):
    calls = []
    real_elements_mod = coleman.KatzBasis.elements_mod

    def counting_elements_mod(self, m):
        calls.append(m)
        return real_elements_mod(self, m)

    monkeypatch.setattr(coleman.KatzBasis, "elements_mod", counting_elements_mod)
    code, out, err = run_cli(
        capsys,
        "disc",
        "--p", "5", "--component", "0", "--samples", "4,8,12,16,20",
        "--I", "6", "--m", "8", "--bounds", "-1",
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "configuration error: slope bound must be >= 0\n"
    assert calls == []


def test_up_matrix_normalizations(capsys):
    code, out, _ = run_cli(
        capsys, "up-matrix", "--k", "0", "--p", "5", "--I", "0", "--m", "6",
        "--normalization", "qexp",
    )
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == [["1"]]


def test_config_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "slopes", "--p", "6", "--k", "4", "--I", "2", "--m", "8")
    assert code == EXIT_CONFIG and "configured for p in (5, 7, 11, 13), got 6" in err
    code, _, err = run_cli(capsys, "slopes", "--p", "5", "--k", "4", "--I", "2", "--m", "1")
    assert code == EXIT_CONFIG
    code, out, err = run_cli(capsys, "classicality", "--k", "0", "--p", "5", "--I", "4")
    assert code == EXIT_CONFIG and out == ""
    assert err == "configuration error: classicality comparison needs k >= 2\n"
    # basis reads D coefficients of each form: --Q below D is refused
    code, _, err = run_cli(capsys, "basis", "--k", "24", "--Q", "2")
    assert code == EXIT_CONFIG and "below 3" in err
    code, _, _ = run_cli(capsys, "basis", "--k", "24", "--Q", "3")
    assert code == EXIT_OK
    # Z/2^m is refused by the ring, not by a traceback
    for argv in (["basis", "--k", "12"], ["tp-matrix", "--k", "12"]):
        code, _, err = run_cli(capsys, *argv, "--p", "2", "--m", "3")
        assert code == EXIT_CONFIG and "p must be a prime >= 3, got 2" in err
    for argv in (
        ["basis", "--k", "5"],
        ["tp-matrix", "--k", "5", "--p", "5"],
        ["ordinary-rank", "--k", "5", "--p", "5"],
        ["control-check", "--k", "5", "--p", "5", "--n", "1"],
        ["family-fit", "--p", "5", "--component", "1", "--weights", "5,9", "--m", "4"],
        # the library entry of each --k command refuses an odd weight
        *(
            [command, "--k", "5", "--p", "5", "--I", "2"]
            for command in ("up-matrix", "charseries", "slopes", "classicality", "duality")
        ),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_CONFIG, "configuration error: odd weight 5 has no level-1 forms\n")
    # the weight-2 control check at n = -1 would compare against an empty space
    code, _, err = run_cli(capsys, "control-check", "--k", "2", "--p", "5", "--n", "-1")
    assert code == EXIT_CONFIG and "n must be >= 0" in err
    for argv in (["basis", "--k", "12", "--p", "5"], ["basis", "--k", "12", "--m", "3"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and "--p and --m" in err
    code, _, err = run_cli(
        capsys, "disc", "--p", "5", "--component", "0", "--samples", "", "--I", "2", "--m", "6"
    )
    assert code == EXIT_CONFIG and "at least one sample" in err


def test_list_and_range_errors_exit_2(capsys):
    """List flags are converted after argparse, so a bad one is a
    configuration error with exit 2, not an argparse usage error."""
    disc = ["disc", "--p", "5", "--component", "0", "--samples", "4,8", "--I", "2", "--m", "6"]
    for argv, message in (
        (["family-fit", "--p", "5", "--component", "0", "--weights", "4,x"],
         "comma-separated integer list"),
        (["acceptance", "--criteria", "x"], "comma-separated integer list"),
        ([*disc, "--bounds", "x"], "bad --bounds value"),
        ([*disc, "--bounds", "1/0"], "bad --bounds value"),
        (["charseries", "--k", "4", "--p", "5", "--I", "-1", "--m", "6"], "twist depth must be >= 0"),
        (["charseries", "--k", "4", "--p", "5", "--I", "4", "--m", "0"],
         "precision exponent must be >= 1"),
        (["acceptance", "--criteria", "0"], "unknown acceptance criteria [0]"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("configuration error: ") and message in err


# a valid command line of each command that takes --p, --m or --I
VALID = {
    "basis": ["--k", "12", "--p", "5", "--m", "3"],
    "tp-matrix": ["--k", "12", "--p", "5"],
    "ordinary-rank": ["--k", "12", "--p", "5"],
    "control-check": ["--k", "4", "--p", "5", "--n", "1"],
    "family-fit": ["--p", "5", "--component", "0", "--weights", "4,8", "--m", "4"],
    **{
        name: ["--k", "4", "--p", "5", "--I", "2", "--m", "4"]
        for name in ("up-matrix", "charseries", "slopes", "classicality", "duality")
    },
    "disc": ["--p", "5", "--component", "0", "--samples", "4,8", "--I", "2", "--m", "4"],
}
RING = "p must be a prime >= 3, got {}"
THEORY_PRIMES = "p-adic theory is configured for p in (5, 7, 11, 13), got {}"
# the owner of "p is prime" at a composite p: the ring Z/p^m at basis,
# whose --p comes with --m, the Hecke prime check at tp-matrix and the
# theory primes elsewhere; at p = 2 with --m, the ring at both
COMPOSITE = {"basis": RING, "tp-matrix": "{} is not prime"}
CERTIFIES = ("slopes", "classicality", "duality")


def _set(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``, appended when absent."""
    if flag not in argv:
        return [*argv, flag, value]
    at = argv.index(flag) + 1
    return [*argv[:at], value, *argv[at + 1 :]]


def _range_refusals():
    """(command line, message) for a composite --p, --p 2 with --m,
    --m 0 and --I -1, on every command that takes the flag, each with
    its owner's message: --m 0 is refused by the ring
    (``padic._check_pm``) or, where slopes are certified, by the CLI's
    m >= 3 floor, and --I -1 by ``katz_basis``."""
    for name, command in COMMANDS.items():
        flags = {flag for flag, _ in command.flags}
        argv = [name, *VALID.get(name, ())]
        if "--p" in flags:
            yield _set(argv, "--p", "9"), COMPOSITE.get(name, THEORY_PRIMES).format(9)
        if "--m" in flags:
            owner = RING if name in COMPOSITE else THEORY_PRIMES
            yield _set(_set(argv, "--p", "2"), "--m", "4"), owner.format(2)
            yield _set(argv, "--m", "0"), (
                "--m must be >= 3 to certify any slope (ceiling is m - 2)"
                if name in CERTIFIES
                else "precision exponent must be >= 1, got 0"
            )
        if "--I" in flags:
            yield _set(argv, "--I", "-1"), "twist depth must be >= 0"


RANGE_REFUSALS = list(_range_refusals())


@pytest.mark.parametrize(
    "argv, message", RANGE_REFUSALS, ids=[" ".join(argv) for argv, _ in RANGE_REFUSALS]
)
def test_range_refusals_have_one_owner(capsys, monkeypatch, argv, message):
    """The library entry of each command refuses p, m and I before any
    Miller table or Katz element is built.  ``elements_mod`` builds its
    ring first, so it refuses a bad m before any element: an element
    counts as built when ``elements_mod`` returns."""
    built = []
    real_init, real_elements_mod = forms.MillerPowers.__init__, coleman.KatzBasis.elements_mod

    def counting_init(self, *args):
        built.append("MillerPowers")
        real_init(self, *args)

    def counting_elements_mod(self, m):
        elements = real_elements_mod(self, m)
        built.append("elements_mod")
        return elements

    monkeypatch.setattr(forms.MillerPowers, "__init__", counting_init)
    monkeypatch.setattr(coleman.KatzBasis, "elements_mod", counting_elements_mod)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_CONFIG, "", f"configuration error: {message}\n")
    assert built == []


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "rank.json"
    code, out, err = run_cli(
        capsys, "ordinary-rank", "--p", "5", "--k", "4", "--output", str(target)
    )
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("configuration error: ") and str(target) in err
    assert not target.exists()


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(padicforms.__file__).parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "padicforms.cli", *argv], capture_output=True, env=env
        )

    done = run("ordinary-rank", "--k", "12", "--p", "5")
    assert done.returncode == EXIT_OK
    assert done.stdout == (GOLDEN_DIR / "ordinary_rank_k12_p5.json").read_bytes()
    done = run("ordinary-rank", "--k", "12", "--p", "6")
    assert done.returncode == EXIT_CONFIG
    assert done.stdout == b"" and b"configured for p in (5, 7, 11, 13), got 6" in done.stderr


def test_unknown_flags_rejected():
    katz = ["--p", "5", "--k", "4", "--I", "2", "--m", "8"]
    for argv in (
        ["slopes", *katz, "--bogus", "1"],
        # T_p on M_k depends on (k, p[, n]) alone: no q-precision knob
        ["tp-matrix", "--k", "12", "--p", "5", "--Q", "10"],
        ["ordinary-rank", "--k", "12", "--p", "5", "--Q", "10"],
        ["control-check", "--k", "2", "--p", "5", "--n", "1", "--Q", "5"],
        # the Katz model depends on (k, p, I, m) alone: no q-precision knob
        ["up-matrix", *katz, "--Q", "5"],
        ["charseries", *katz, "--Q", "5"],
        ["slopes", *katz, "--Q", "5"],
        ["classicality", *katz, "--Q", "5"],
        ["disc", "--p", "5", "--component", "0", "--samples", "4", "--I", "2", "--Q", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rank.json"
    code, out, _ = run_cli(
        capsys, "ordinary-rank", "--p", "5", "--k", "4", "--output", str(target)
    )
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["rank"] == "1"


def test_env_default_m(capsys, monkeypatch):
    """--m defaults to 8, and the environment does not move it: the
    output follows from the command line alone."""
    monkeypatch.setenv("PADICFORMS_DEFAULT_M", "4")
    code, out, _ = run_cli(capsys, "charseries", "--k", "4", "--p", "5", "--I", "4")
    assert code == EXIT_OK
    assert json.loads(out)["charseries"]["m"] == "8"


@pytest.mark.parametrize("error", [VerificationError, PrecisionError])
def test_a_raised_check_exits_1(capsys, monkeypatch, error):
    """A runner that raises ``VerificationError`` or ``PrecisionError``
    exits 1 with one ``verification failure`` line and no output."""

    def failing_rank(k, p):
        raise error(f"no rank at k = {k}")

    monkeypatch.setattr(cli, "ordinary_rank_mod_p", failing_rank)
    code, out, err = run_cli(capsys, "ordinary-rank", "--p", "5", "--k", "12")
    assert (code, out, err) == (EXIT_VERIFICATION, "", "verification failure: no rank at k = 12\n")


def test_acceptance_subset_command(capsys):
    code, out, err = run_cli(capsys, "acceptance", "--criteria", "2", "--seed", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["criteria"][0]["number"] == "2"
    assert "criterion 2" in err
    code, _, _ = run_cli(capsys, "acceptance", "--criteria", "11")
    assert code == EXIT_CONFIG


GOLDEN_DIR = Path(__file__).parent / "golden"

# Byte-exact stdout of fixed CLI runs: behaviour is "the same" across a
# refactor exactly when these files still match.  Each file name encodes
# the arguments of the run that produced it; each entry pairs its
# expected exit code with its command line.
GOLDEN_RUNS = {
    "duality_k4_p5_I8_m8.json": (EXIT_OK, "duality --k 4 --p 5 --I 8 --m 8"),
    "duality_k2_p7_I6_m6.json": (EXIT_OK, "duality --k 2 --p 7 --I 6 --m 6"),
    "slopes_p5_k4_I12_m8.json": (EXIT_OK, "slopes --p 5 --k 4 --I 12 --m 8"),
    "classicality_k12_p5_I30_m10.json": (EXIT_OK, "classicality --k 12 --p 5 --I 30 --m 10"),
    "charseries_k0_p5_I2_m6.json": (EXIT_OK, "charseries --k 0 --p 5 --I 2 --m 6"),
    # projector-dependent runs; the p = 11 ones have an ordinary block of
    # rank 2, which fit_family splits through sub-projectors
    "ordinary_rank_k12_p5.json": (EXIT_OK, "ordinary-rank --k 12 --p 5"),
    "ordinary_rank_k24_p7.json": (EXIT_OK, "ordinary-rank --k 24 --p 7"),
    "ordinary_rank_k12_p11.json": (EXIT_OK, "ordinary-rank --k 12 --p 11"),
    "control_check_k4_p5_n3.json": (EXIT_OK, "control-check --k 4 --p 5 --n 3"),
    "control_check_k12_p11_n2.json": (EXIT_OK, "control-check --k 12 --p 11 --n 2"),
    # the weight-2 boundary: containment is tested one Hasse twist up, in M_14
    "control_check_k2_p13_n1.json": (EXIT_OK, "control-check --k 2 --p 13 --n 1"),
    "family_fit_p5_c0_w4-8-12-16_h2-5_m6.json": (
        EXIT_OK,
        "family-fit --p 5 --component 0 --weights 4,8,12,16 --hecke-primes 2,5 --m 6",
    ),
    "family_fit_p11_c2_w12-22-32_h2-3-11_m6.json": (
        EXIT_OK,
        "family-fit --p 11 --component 2 --weights 12,22,32 --hecke-primes 2,3,11 --m 6",
    ),
    # with T_11 alone the rank-2 block does not split mod 11: the only
    # run that reports unsplit_blocks[].charpoly_mod_p
    "family_fit_p11_c2_w12-22-32_h11_m6.json": (
        EXIT_OK,
        "family-fit --p 11 --component 2 --weights 12,22,32 --hecke-primes 11 --m 6",
    ),
    # deep certified spectra: ten m-raising retries to m_working 91, and
    # m_working 57 at q-precision 165
    "slopes_p5_k14_I34_m10.json": (EXIT_OK, "slopes --k 14 --p 5 --I 34 --m 10"),
    "slopes_p11_k10_I11_m12.json": (EXIT_OK, "slopes --k 10 --p 11 --I 11 --m 12"),
    "up_matrix_k4_p5_I12_m8.json": (EXIT_OK, "up-matrix --k 4 --p 5 --I 12 --m 8"),
    # rungs with several new Miller rows: the first rung at p = 13, and
    # rungs 4 -> 6, 9 -> 11 and 14 -> 16 at p = 11
    "up_matrix_k12_p13_I12_m8.json": (EXIT_OK, "up-matrix --k 12 --p 13 --I 12 --m 8"),
    "up_matrix_k10_p11_I20_m8.json": (EXIT_OK, "up-matrix --k 10 --p 11 --I 20 --m 8"),
    "slopes_p7_k8_I20_m8.json": (EXIT_OK, "slopes --k 8 --p 7 --I 20 --m 8"),
    "up_matrix_k-2_p7_I9_m6_naive.json": (
        EXIT_OK,
        "up-matrix --k -2 --p 7 --I 9 --m 6 --normalization naive",
    ),
    "basis_k24_Q12.json": (EXIT_OK, "basis --k 24 --Q 12"),
    "basis_k24_p5_m3.json": (EXIT_OK, "basis --k 24 --p 5 --m 3"),
    "tp_matrix_k24_p7_m4.json": (EXIT_OK, "tp-matrix --k 24 --p 7 --m 4"),
    # bounds 0 and 1/2: the file name writes 1/2 as 1_2
    "disc_p5_c0_s4-8-12-16_I6_m8_b0-1_2.json": (
        EXIT_OK,
        "disc --p 5 --component 0 --samples 4,8,12,16 --I 6 --m 8 --bounds 0,1/2",
    ),
    "acceptance_c2-6_seed3.json": (EXIT_OK, "acceptance --criteria 2,6 --seed 3"),
    "acceptance_seed0.json": (EXIT_OK, "acceptance --seed 0"),
    # the only failing verdict: at k = 2, p = 13 the source slopes are
    # consecutive integers, so the shift-by-k control lands in the target
    "duality_k2_p13_I6_m10.json": (EXIT_VERIFICATION, "duality --k 2 --p 13 --I 6 --m 10"),
    # operators at weight <= 1: T_p carries p^(1-k) on its U-part (6 = 5 + 1
    # at k = 0), the weight-normalized U_p is p^(1-k) times the q-expansion
    # operator (slope shift 3 at k = -2, first row p^5 at k = -4)
    "tp_matrix_k0_p5.json": (EXIT_OK, "tp-matrix --k 0 --p 5"),
    "slopes_p5_k-2_I12_m10.json": (EXIT_OK, "slopes --k -2 --p 5 --I 12 --m 10"),
    "up_matrix_k-4_p7_I12_m10.json": (EXIT_OK, "up-matrix --k -4 --p 7 --I 12 --m 10"),
    # D = 41: a 41 x 41 solve on lower unitriangular Katz heads
    "up_matrix_k4_p5_I120_m8.json": (EXIT_OK, "up-matrix --k 4 --p 5 --I 120 --m 8"),
    # D = 61: the certify-by-raising-m loop runs to m_working 180
    "slopes_p5_k4_I180_m8.json": (EXIT_OK, "slopes --k 4 --p 5 --I 180 --m 8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_outputs(capsys, name):
    expected_code, argv = GOLDEN_RUNS[name]
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == expected_code
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_goldens(capsys, monkeypatch, command):
    """The --help screens at 80 columns, byte for byte: help.txt for the
    top level, help_<command>.txt for each subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == EXIT_OK
    name = f"help_{command}.txt" if command else "help.txt"
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()
