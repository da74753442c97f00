"""Command-line surface.

Every command validates its configuration up front, emits deterministic
JSON (all numerics as decimal strings, sorted keys) to stdout or a
file, and exits 0 on success, 1 on a failed verification, 2 on a
configuration error.  The environment variable PADICFORMS_DEFAULT_M
sets the default working precision exponent when --m is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import acceptance as acceptance_mod
from . import serialize
from .coleman import classicality_check, katz_basis, slope_spectrum, up_matrix
from .duality import charseries_duality_check
from .eigencurve import WeightDisc, local_piece_report, two_var_charseries
from .errors import ConfigError, PrecisionError, VerificationError
from .forms import basis_dimension, miller_basis
from .hida import (
    control_check_h0,
    control_check_h0_weight2,
    fit_family,
    ordinary_rank_mod_p,
    tp_matrix,
)
from .padic import PadicMatrix, is_prime
from .qexp import ModRing, ZZ

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2


def _default_m() -> int:
    raw = os.environ.get("PADICFORMS_DEFAULT_M", "8")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"PADICFORMS_DEFAULT_M={raw!r} is not an integer")
    if value < 1:
        raise ConfigError("PADICFORMS_DEFAULT_M must be >= 1")
    return value


@dataclass
class JobConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    p: Optional[int] = None
    k: Optional[int] = None
    weights: Optional[tuple] = None
    twist_depth: Optional[int] = None
    qprec: Optional[int] = None
    m: Optional[int] = None
    hecke_primes: tuple = ()
    component: Optional[int] = None
    n: Optional[int] = None
    seed: int = 0
    output: Optional[str] = None
    normalization: str = "weight"
    bounds: tuple = ()
    criteria: Optional[tuple] = None

    def validate(self) -> None:
        if self.p is not None and not is_prime(self.p):
            raise ConfigError(f"--p {self.p} is not prime")
        if self.k is not None and self.k % 2 != 0:
            raise ConfigError(f"--k {self.k} is odd: odd-weight level-1 spaces are empty")
        if self.command == "basis" and (self.p is None) != (self.m is None):
            raise ConfigError("basis: --p and --m must be given together")
        if self.m is not None and self.m < 1:
            raise ConfigError("--m must be >= 1")
        if self.twist_depth is not None and self.twist_depth < 0:
            raise ConfigError("--I must be >= 0")
        if self.qprec is not None:
            # --Q must reach the coefficients the command reads: D of each
            # basis form, or D of each image under T_p, D the largest
            # dimension the command works in
            weights = [self.k]
            if self.command == "control-check":
                # the ordinary image at k + n(p-1) is tested in weight k,
                # or in weight k + (p-1) by the weight-2 variant
                twist = self.p - 1 if self.k == 2 else 0
                weights = [self.k + self.n * (self.p - 1), self.k + twist]
            d = max(basis_dimension(w) for w in weights)
            least = max(d, 1) * (1 if self.command == "basis" else self.p)
            if self.qprec < least:
                raise ConfigError(
                    f"--Q {self.qprec} below {least}, the q-precision "
                    f"{self.command} reads (D = {d})"
                )
        if self.command in ("slopes", "classicality", "duality") and (self.m or 0) < 3:
            raise ConfigError(
                "--m must be >= 3 to certify any slope (ceiling is m - 2)"
            )


def _emit(payload, config: JobConfig) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.output:
        with open(config.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _int_list(raw: str) -> tuple:
    if not raw:
        return ()
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {raw!r}")


def _cmd_basis(config: JobConfig) -> int:
    ring = ModRing(config.p, config.m) if config.p is not None else ZZ
    qprec = config.qprec or max(basis_dimension(config.k) + 8, 16)
    basis = miller_basis(config.k, qprec, ring)
    _emit(
        {
            "k": serialize.num(config.k),
            "dim": serialize.num(basis.dim),
            "level_tag": basis.level_tag,
            "forms": [serialize.qseries_json(f) for f in basis.forms],
        },
        config,
    )
    return EXIT_OK


def _cmd_tp_matrix(config: JobConfig) -> int:
    rows = tp_matrix(config.k, config.p, config.qprec)
    payload = {
        "p": serialize.num(config.p),
        "k": serialize.num(config.k),
        "ring": "Z",
        "rows": [[serialize.num(x) for x in row] for row in rows],
    }
    if config.m is not None:
        mat = PadicMatrix.from_rows(rows, config.p, config.m)
        payload["mod_p_m"] = serialize.matrix_json(mat)
    _emit(payload, config)
    return EXIT_OK


def _cmd_ordinary_rank(config: JobConfig) -> int:
    rank = ordinary_rank_mod_p(config.k, config.p, config.qprec)
    _emit(
        {
            "p": serialize.num(config.p),
            "k": serialize.num(config.k),
            "rank": serialize.num(rank),
        },
        config,
    )
    return EXIT_OK


def _cmd_control_check(config: JobConfig) -> int:
    if config.k == 2:
        report = control_check_h0_weight2(config.p, config.n, config.qprec)
    else:
        report = control_check_h0(config.k, config.p, config.n, config.qprec)
    _emit(serialize.control_json(report), config)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_family_fit(config: JobConfig) -> int:
    family = fit_family(
        config.p, config.component, list(config.weights), list(config.hecke_primes), config.m
    )
    _emit(serialize.family_json(family), config)
    return EXIT_OK


def _cmd_up_matrix(config: JobConfig) -> int:
    basis = katz_basis(config.k, config.p, config.twist_depth)
    matrix = up_matrix(basis, config.m, normalization=config.normalization)
    payload = serialize.matrix_json(matrix)
    payload["m_effective"] = serialize.num(matrix.m)
    payload["normalization"] = config.normalization
    payload["qprec"] = serialize.num(basis.qprec)
    _emit(payload, config)
    return EXIT_OK


def _cmd_charseries(config: JobConfig) -> int:
    report = slope_spectrum(
        config.k, config.p, config.twist_depth, config.m, classical=False
    )
    _emit(
        {
            "p": serialize.num(config.p),
            "k": serialize.num(config.k),
            "I": serialize.num(config.twist_depth),
            "m_working": serialize.num(report.m_working),
            "charseries": serialize.charseries_json(report.charseries),
            "slopes": serialize.polygon_json(report.slopes),
        },
        config,
    )
    return EXIT_OK


def _cmd_slopes(config: JobConfig) -> int:
    report = slope_spectrum(
        config.k,
        config.p,
        config.twist_depth,
        config.m,
        certify_below=min(Fraction(config.k - 1), Fraction(config.m - 2))
        if config.k >= 2
        else None,
        classical=config.k >= 2,
    )
    _emit(serialize.slope_report_json(report), config)
    bad = any(entry.get("verdict") not in ("match", None) for entry in report.verdicts)
    return EXIT_VERIFICATION if bad else EXIT_OK


def _cmd_classicality(config: JobConfig) -> int:
    report = classicality_check(config.k, config.p, config.twist_depth, config.m)
    _emit(serialize.classicality_json(report), config)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_disc(config: JobConfig) -> int:
    disc = WeightDisc(
        p=config.p,
        component=config.component,
        sample_weights=config.weights,
        m=config.m,
    )
    series = two_var_charseries(disc, config.twist_depth)
    reports = [local_piece_report(series, Fraction(b)) for b in config.bounds]
    _emit(serialize.disc_json(series, reports), config)
    return EXIT_OK


def _cmd_duality(config: JobConfig) -> int:
    report = charseries_duality_check(
        config.k, config.p, config.twist_depth, config.m
    )
    _emit(serialize.duality_json(report), config)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_acceptance(config: JobConfig) -> int:
    numbers = config.criteria or tuple(range(1, 11))
    results = acceptance_mod.run_all(config.seed, numbers)
    for res in results:
        sys.stderr.write(res.line() + "\n")
    payload = {
        "seed": serialize.num(config.seed),
        "criteria": [
            {
                "number": serialize.num(res.number),
                "name": res.name,
                "passed": res.passed,
                "details": res.details,
            }
            for res in results
        ],
        "all_passed": all(res.passed for res in results),
    }
    _emit(payload, config)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicforms",
        description="exact p-adic Hecke spectral computations on q-expansion models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *specs):
        cmd = sub.add_parser(name, help=help_text)
        for flag, kwargs in specs:
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("--output", help="write JSON here instead of stdout")
        return cmd

    intarg = lambda **kw: dict(type=int, **kw)
    add(
        "basis",
        "echelon basis of the weight-k level-1 space",
        ("--k", intarg(required=True)),
        ("--Q", intarg(dest="qprec")),
        ("--p", intarg()),
        ("--m", intarg()),
    )
    add(
        "tp-matrix",
        "matrix of T_p on the Miller basis, exact over Z",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--Q", intarg(dest="qprec")),
        ("--m", intarg()),
    )
    add(
        "ordinary-rank",
        "rank of the ordinary projector on the mod-p space",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--Q", intarg(dest="qprec")),
    )
    add(
        "control-check",
        "ordinary containment across a Hasse twist",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--n", intarg(required=True)),
        ("--Q", intarg(dest="qprec")),
    )
    add(
        "family-fit",
        "interpolate ordinary eigen-data across sample weights",
        ("--p", intarg(required=True)),
        ("--component", intarg(required=True)),
        ("--weights", dict(required=True)),
        ("--hecke-primes", dict(default="", dest="hecke_primes")),
        ("--m", intarg()),
    )
    add(
        "up-matrix",
        "U_p matrix on the Katz basis over Z/p^m",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--I", intarg(required=True, dest="twist_depth")),
        ("--m", intarg()),
        ("--normalization", dict(choices=["weight", "naive", "qexp"], default="weight")),
    )
    add(
        "charseries",
        "characteristic series of U_p",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--I", intarg(required=True, dest="twist_depth")),
        ("--m", intarg()),
    )
    add(
        "slopes",
        "certified Newton slopes of U_p with the classical comparison",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--I", intarg(required=True, dest="twist_depth")),
        ("--m", intarg()),
    )
    add(
        "classicality",
        "overconvergent vs classical slopes below min(k-1, m-2)",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--I", intarg(required=True, dest="twist_depth")),
        ("--m", intarg()),
    )
    add(
        "disc",
        "two-variable characteristic series over a weight disc",
        ("--p", intarg(required=True)),
        ("--component", intarg(required=True)),
        ("--samples", dict(required=True, dest="weights")),
        ("--I", intarg(required=True, dest="twist_depth")),
        ("--m", intarg()),
        ("--bounds", dict(default="0")),
    )
    add(
        "duality",
        "transpose, rank and theta-probe duality checks",
        ("--k", intarg(required=True)),
        ("--p", intarg(required=True)),
        ("--I", intarg(required=True, dest="twist_depth")),
        ("--m", intarg()),
    )
    add(
        "acceptance",
        "run the acceptance suite and emit a pass/fail table",
        ("--seed", intarg(default=0)),
        ("--criteria", dict(default="")),
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    config = JobConfig(command=args.command)
    for field_name in (
        "p",
        "k",
        "qprec",
        "m",
        "twist_depth",
        "component",
        "n",
        "seed",
        "output",
        "normalization",
    ):
        if hasattr(args, field_name):
            setattr(config, field_name, getattr(args, field_name))
    if getattr(args, "weights", None) is not None:
        config.weights = _int_list(args.weights)
    if getattr(args, "hecke_primes", None):
        config.hecke_primes = _int_list(args.hecke_primes)
    if getattr(args, "criteria", None):
        config.criteria = _int_list(args.criteria)
        bad = [n for n in config.criteria if not 1 <= n <= 10]
        if bad:
            raise ConfigError(f"unknown acceptance criteria {bad}")
    if getattr(args, "bounds", None):
        try:
            config.bounds = tuple(Fraction(b) for b in args.bounds.split(","))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad --bounds value {args.bounds!r}")
    if config.m is None and config.command in (
        "family-fit",
        "up-matrix",
        "charseries",
        "slopes",
        "classicality",
        "disc",
        "duality",
    ):
        config.m = _default_m()
    config.validate()
    return config


COMMANDS = {
    "basis": _cmd_basis,
    "tp-matrix": _cmd_tp_matrix,
    "ordinary-rank": _cmd_ordinary_rank,
    "control-check": _cmd_control_check,
    "family-fit": _cmd_family_fit,
    "up-matrix": _cmd_up_matrix,
    "charseries": _cmd_charseries,
    "slopes": _cmd_slopes,
    "classicality": _cmd_classicality,
    "disc": _cmd_disc,
    "duality": _cmd_duality,
    "acceptance": _cmd_acceptance,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return COMMANDS[config.command](config)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (VerificationError, PrecisionError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
