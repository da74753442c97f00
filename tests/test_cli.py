import json
from pathlib import Path

import pytest

from padicforms.cli import EXIT_CONFIG, EXIT_OK, main


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
    assert out1 == out2  # byte-identical for identical JobConfig
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


def test_up_matrix_normalizations(capsys):
    code, out, _ = run_cli(
        capsys, "up-matrix", "--k", "0", "--p", "5", "--I", "0", "--m", "6",
        "--normalization", "qexp",
    )
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == [["1"]]


def test_config_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "slopes", "--p", "6", "--k", "4", "--I", "2", "--m", "8")
    assert code == EXIT_CONFIG and "not prime" in err
    code, _, err = run_cli(capsys, "slopes", "--p", "5", "--k", "4", "--I", "2", "--m", "1")
    assert code == EXIT_CONFIG
    # basis reads D coefficients of each form: --Q below D is refused
    code, _, err = run_cli(capsys, "basis", "--k", "24", "--Q", "2")
    assert code == EXIT_CONFIG and "below 3" in err
    code, _, _ = run_cli(capsys, "basis", "--k", "24", "--Q", "3")
    assert code == EXIT_OK
    # Z/2^m is refused up front, not by a traceback from the ring
    for argv in (["basis", "--k", "12"], ["tp-matrix", "--k", "12"]):
        code, _, err = run_cli(capsys, *argv, "--p", "2", "--m", "3")
        assert code == EXIT_CONFIG and "Z/2^m" in err
    for argv in (
        ["basis", "--k", "5"],
        ["tp-matrix", "--k", "5", "--p", "5"],
        ["ordinary-rank", "--k", "5", "--p", "5"],
        ["control-check", "--k", "5", "--p", "5", "--n", "1"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and "odd" in err
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
    monkeypatch.setenv("PADICFORMS_DEFAULT_M", "4")
    code, out, _ = run_cli(capsys, "charseries", "--k", "4", "--p", "5", "--I", "4")
    assert code == EXIT_OK
    assert json.loads(out)["charseries"]["m"] == "4"
    monkeypatch.setenv("PADICFORMS_DEFAULT_M", "zero")
    code, _, err = run_cli(capsys, "charseries", "--k", "4", "--p", "5", "--I", "4")
    assert code == EXIT_CONFIG


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
# the arguments of the run that produced it.
GOLDEN_RUNS = {
    "duality_k4_p5_I8_m8.json": ["duality", "--k", "4", "--p", "5", "--I", "8", "--m", "8"],
    "duality_k2_p7_I6_m6.json": ["duality", "--k", "2", "--p", "7", "--I", "6", "--m", "6"],
    "slopes_p5_k4_I12_m8.json": ["slopes", "--p", "5", "--k", "4", "--I", "12", "--m", "8"],
    "classicality_k12_p5_I30_m10.json": [
        "classicality", "--k", "12", "--p", "5", "--I", "30", "--m", "10",
    ],
    "charseries_k0_p5_I2_m6.json": ["charseries", "--k", "0", "--p", "5", "--I", "2", "--m", "6"],
    # projector-dependent runs; the p = 11 ones have an ordinary block of
    # rank 2, which fit_family splits through sub-projectors
    "ordinary_rank_k12_p5.json": ["ordinary-rank", "--k", "12", "--p", "5"],
    "ordinary_rank_k24_p7.json": ["ordinary-rank", "--k", "24", "--p", "7"],
    "ordinary_rank_k12_p11.json": ["ordinary-rank", "--k", "12", "--p", "11"],
    "control_check_k4_p5_n3.json": ["control-check", "--k", "4", "--p", "5", "--n", "3"],
    "control_check_k12_p11_n2.json": ["control-check", "--k", "12", "--p", "11", "--n", "2"],
    "family_fit_p5_c0_w4-8-12-16_h2-5_m6.json": [
        "family-fit", "--p", "5", "--component", "0", "--weights", "4,8,12,16",
        "--hecke-primes", "2,5", "--m", "6",
    ],
    "family_fit_p11_c2_w12-22-32_h2-3-11_m6.json": [
        "family-fit", "--p", "11", "--component", "2", "--weights", "12,22,32",
        "--hecke-primes", "2,3,11", "--m", "6",
    ],
    # with T_11 alone the rank-2 block does not split mod 11: the only
    # run that reports unsplit_blocks[].charpoly_mod_p
    "family_fit_p11_c2_w12-22-32_h11_m6.json": [
        "family-fit", "--p", "11", "--component", "2", "--weights", "12,22,32",
        "--hecke-primes", "11", "--m", "6",
    ],
    # deep certified spectra: ten m-raising retries to m_working 91, and
    # m_working 57 at q-precision 165
    "slopes_p5_k14_I34_m10.json": ["slopes", "--k", "14", "--p", "5", "--I", "34", "--m", "10"],
    "slopes_p11_k10_I11_m12.json": ["slopes", "--k", "10", "--p", "11", "--I", "11", "--m", "12"],
    "up_matrix_k4_p5_I12_m8.json": ["up-matrix", "--k", "4", "--p", "5", "--I", "12", "--m", "8"],
    # rungs with several new Miller rows: the first rung at p = 13, and
    # rungs 4 -> 6, 9 -> 11 and 14 -> 16 at p = 11
    "up_matrix_k12_p13_I12_m8.json": ["up-matrix", "--k", "12", "--p", "13", "--I", "12", "--m", "8"],
    "up_matrix_k10_p11_I20_m8.json": ["up-matrix", "--k", "10", "--p", "11", "--I", "20", "--m", "8"],
    "slopes_p7_k8_I20_m8.json": ["slopes", "--k", "8", "--p", "7", "--I", "20", "--m", "8"],
    "up_matrix_k-2_p7_I9_m6_naive.json": [
        "up-matrix", "--k", "-2", "--p", "7", "--I", "9", "--m", "6", "--normalization", "naive",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_outputs(capsys, name):
    code, out, _ = run_cli(capsys, *GOLDEN_RUNS[name])
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()
