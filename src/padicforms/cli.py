"""Command-line surface.

Every command refuses a bad configuration before any computation,
emits deterministic JSON (encoded once by ``serialize.encode``, sorted
keys) to stdout or a file, and exits 0 on success, 1 on a failed
verification, 2 on a configuration error.  The CLI owns only the rules
that no library entry point sees (``_validate``); the range of p, m, I,
k and n is refused, with the library's message, by the entry point
each command calls, which checks it before any work.  The output
follows from the command line alone: --m defaults to 8 where a command
needs a working precision, and no environment variable is read.

Each command is one entry of ``COMMANDS``: its help text, its flags and
a runner that maps the parsed arguments to ``(payload, passed)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import acceptance as acceptance_mod
from . import serialize
from .charseries import check_slope_bound
from .coleman import classicality_check, katz_basis, slope_spectrum, up_matrix
from .duality import charseries_duality_check
from .eigencurve import local_piece_report, two_var_charseries
from .errors import ConfigError, PrecisionError, VerificationError
from .forms import basis_dimension, miller_basis
from .hecke import NORMALIZATIONS
from .hida import control_check_h0, fit_family, ordinary_rank_mod_p, tp_matrix
from .padic import PadicMatrix, _check_pm
from .qexp import ModRing, ZZ
from .weights import WeightDisc

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2


def _parse_list(raw: str, parse, error: str) -> tuple:
    try:
        return tuple(parse(x) for x in raw.split(",")) if raw else ()
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{error} {raw!r}")


# The list flags reach argparse as plain strings and are converted after
# parsing: argparse would turn a ConfigError (a ValueError) raised by a
# type= converter into its own usage error, with another message and no
# exit code 2 from main.
_INTS = (int, "expected a comma-separated integer list, got")
_LIST_FLAGS = {
    "weights": _INTS,
    "hecke_primes": _INTS,
    "criteria": _INTS,
    "bounds": (Fraction, "bad --bounds value"),
}


def _validate(args: argparse.Namespace) -> None:
    """Refuse what no library entry point sees, before any computation
    starts: a ``basis --p`` without ``--m`` or the reverse, a ``--Q``
    short of the dimension, a ``--bounds`` value (checked before the
    disc is built), and m < 3 for the commands that compare or certify
    slopes, which the library accepts for duality and uncompared
    spectra (those commands default ``--m`` to 8, so m is set).  The
    range of p, m, I and k is the library's: the entry of each command
    refuses it before any work."""
    get = vars(args).get
    p, k, m, qprec = (get(name) for name in ("p", "k", "m", "qprec"))
    if args.command == "basis" and (p is None) != (m is None):
        raise ConfigError("basis: --p and --m must be given together")
    for bound in get("bounds") or ():
        check_slope_bound(bound)
    if qprec is not None:
        # basis --Q must reach the D coefficients of each basis form
        d = basis_dimension(k)
        if qprec < max(d, 1):
            raise ConfigError(
                f"--Q {qprec} below {max(d, 1)}, the q-precision basis reads (D = {d})"
            )
    if args.command in ("slopes", "classicality", "duality") and m < 3:
        raise ConfigError(
            "--m must be >= 3 to certify any slope (ceiling is m - 2)"
        )


def _emit(payload, output) -> None:
    text = json.dumps(serialize.encode(payload), sort_keys=True, indent=2) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --output {output}: {exc.strerror}")


def _basis(args):
    ring = ModRing(args.p, args.m) if args.p is not None else ZZ
    qprec = args.qprec or max(basis_dimension(args.k) + 8, 16)
    basis = miller_basis(args.k, qprec, ring)
    return {
        "k": args.k,
        "dim": basis.dim,
        "level_tag": "Level1",
        "forms": [serialize.qseries_json(f) for f in basis.forms],
    }, True


def _tp_matrix(args):
    if args.m is not None:
        _check_pm(args.p, args.m)  # the ring, before T_p is computed
    rows = tp_matrix(args.k, args.p)
    payload = {"p": args.p, "k": args.k, "ring": "Z", "rows": rows}
    if args.m is not None:
        mat = PadicMatrix.from_rows(rows, args.p, args.m)
        payload["mod_p_m"] = serialize.matrix_json(mat)
    return payload, True


def _ordinary_rank(args):
    return {"p": args.p, "k": args.k, "rank": ordinary_rank_mod_p(args.k, args.p)}, True


def _control_check(args):
    report = control_check_h0(args.k, args.p, args.n)
    return serialize.control_json(report), report.passed


def _family_fit(args):
    family = fit_family(args.p, args.component, args.weights, args.hecke_primes, args.m)
    return serialize.family_json(family), True


def _up_matrix(args):
    basis = katz_basis(args.k, args.p, args.twist_depth)
    matrix = up_matrix(basis, args.m, normalization=args.normalization)
    payload = serialize.matrix_json(matrix)
    payload["basis_tag"] = f"katz:p{args.p}:k{args.k}:I{args.twist_depth}"
    payload["m_effective"] = matrix.m
    payload["normalization"] = args.normalization
    payload["qprec"] = basis.qprec
    return payload, True


def _charseries(args):
    report = slope_spectrum(args.k, args.p, args.twist_depth, args.m, classical=False)
    return {
        "p": args.p,
        "k": args.k,
        "I": args.twist_depth,
        "m_working": report.m_working,
        "charseries": serialize.charseries_json(report.charseries),
        "slopes": serialize.polygon_json(report.slopes),
    }, True


def _slopes(args):
    report = slope_spectrum(args.k, args.p, args.twist_depth, args.m)
    comparison = report.comparison
    return serialize.slope_report_json(report), comparison is None or comparison.passed


def _classicality(args):
    report = classicality_check(args.k, args.p, args.twist_depth, args.m)
    return serialize.classicality_json(report), report.comparison.passed


def _disc(args):
    disc = WeightDisc(
        p=args.p, component=args.component, sample_weights=args.weights, m=args.m
    )
    series = two_var_charseries(disc, args.twist_depth)
    reports = [local_piece_report(series, b) for b in args.bounds]
    return serialize.disc_json(series, reports), True


def _duality(args):
    report = charseries_duality_check(args.k, args.p, args.twist_depth, args.m)
    return serialize.duality_json(report), report.passed


def _acceptance(args):
    results = acceptance_mod.run_all(args.seed, args.criteria)
    for res in results:
        sys.stderr.write(res.line() + "\n")
    passed = all(res.passed for res in results)
    return {
        "seed": args.seed,
        "criteria": [
            {
                "number": res.number,
                "name": res.name,
                "passed": res.passed,
                "details": res.details,
            }
            for res in results
        ],
        "all_passed": passed,
    }, passed


class Command(NamedTuple):
    help: str
    flags: tuple  # (flag, add_argument keywords) pairs, before --output
    run: Callable  # parsed arguments -> (payload, passed)


_K = ("--k", dict(type=int, required=True))
_P = ("--p", dict(type=int, required=True))
_I = ("--I", dict(type=int, required=True, dest="twist_depth"))
_M = ("--m", dict(type=int))
_M8 = ("--m", dict(type=int, default=8))
_KATZ = (_K, _P, _I, _M8)
_COMPONENT = ("--component", dict(type=int, required=True))

COMMANDS = {
    "basis": Command(
        "echelon basis of the weight-k level-1 space",
        (_K, ("--Q", dict(type=int, dest="qprec")), ("--p", dict(type=int)), _M),
        _basis,
    ),
    "tp-matrix": Command(
        "matrix of T_p on the Miller basis, exact over Z", (_K, _P, _M), _tp_matrix
    ),
    "ordinary-rank": Command(
        "rank of the ordinary projector on the mod-p space", (_K, _P), _ordinary_rank
    ),
    "control-check": Command(
        "ordinary containment across a Hasse twist",
        (_K, _P, ("--n", dict(type=int, required=True))),
        _control_check,
    ),
    "family-fit": Command(
        "interpolate ordinary eigen-data across sample weights",
        (
            _P,
            _COMPONENT,
            ("--weights", dict(required=True)),
            ("--hecke-primes", dict(default="", dest="hecke_primes")),
            _M8,
        ),
        _family_fit,
    ),
    "up-matrix": Command(
        "U_p matrix on the Katz basis over Z/p^m",
        (*_KATZ, ("--normalization", dict(choices=tuple(NORMALIZATIONS), default="weight"))),
        _up_matrix,
    ),
    "charseries": Command("characteristic series of U_p", _KATZ, _charseries),
    "slopes": Command(
        "certified Newton slopes of U_p with the classical comparison",
        _KATZ,
        _slopes,
    ),
    "classicality": Command(
        "overconvergent vs classical slopes below min(k-1, m-2)",
        _KATZ,
        _classicality,
    ),
    "disc": Command(
        "two-variable characteristic series over a weight disc",
        (
            _P,
            _COMPONENT,
            ("--samples", dict(required=True, dest="weights")),
            _I,
            _M8,
            ("--bounds", dict(default="0")),
        ),
        _disc,
    ),
    "duality": Command(
        "transpose, rank and theta-probe duality checks",
        _KATZ,
        _duality,
    ),
    "acceptance": Command(
        "run the acceptance suite and emit a pass/fail table",
        (("--seed", dict(type=int, default=0)), ("--criteria", dict(default=""))),
        _acceptance,
    ),
}


def _usage(prog: str, parts) -> str:
    """Usage text for ``prog``: ``parts`` filled greedily to 78 columns,
    as argparse fills them at COLUMNS=80, never breaking inside a part.
    Written out because argparse's own filling differs between Python
    versions: before 3.13 it breaks a required flag from its metavar."""
    lines = [f"usage: {prog}"]
    for part in ("[-h]", *parts):
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(" " * len(f"usage: {prog}"))
        lines[-1] += " " + part
    return "\n".join(lines)[len("usage: ") :]


def _flag_usage(action: argparse.Action) -> str:
    """One flag with its metavar, in brackets unless it is required; no
    flag of ``COMMANDS`` sets its own metavar."""
    if action.choices:
        metavar = "{" + ",".join(action.choices) + "}"
    else:
        metavar = action.dest.upper()
    part = f"{action.option_strings[0]} {metavar}"
    return part if action.required else f"[{part}]"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicforms",
        usage=_usage("padicforms", ("{" + ",".join(COMMANDS) + "}", "...")),
        description="exact p-adic Hecke spectral computations on q-expansion models",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="padicforms")
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        actions = [cmd.add_argument(flag, **kwargs) for flag, kwargs in command.flags]
        actions.append(cmd.add_argument("--output", help="write JSON here instead of stdout"))
        cmd.usage = _usage(cmd.prog, map(_flag_usage, actions))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        for dest, (parse, error) in _LIST_FLAGS.items():
            if dest in vars(args):
                setattr(args, dest, _parse_list(getattr(args, dest), parse, error))
        _validate(args)
        payload, passed = command.run(args)
        _emit(payload, args.output)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (VerificationError, PrecisionError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    return EXIT_OK if passed else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
