"""JSON encoding of the library's objects.

Every numeric value is rendered as an exact decimal string (rationals
as "a/b"); no floats appear anywhere.  Dictionaries are emitted with
sorted keys by the CLI, so identical inputs give byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict

from .charseries import CharSeries, NewtonPolygon, newton_polygon
from .coleman import ClassicalityReport, SlopeReport
from .duality import DualityReport, ThetaProbeReport
from .eigencurve import TwoVarCharSeries
from .hida import ControlReport, OrdinaryFamily
from .padic import PadicMatrix
from .qexp import IntegerRing, ModRing, QSeries
from .weights import IwasawaTruncation


def num(value) -> str:
    """Decimal string for an int or Fraction."""
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def ring_json(ring) -> Any:
    if isinstance(ring, IntegerRing):
        return "Z"
    if isinstance(ring, ModRing):
        return {"p": num(ring.p), "m": num(ring.m)}
    raise TypeError(f"unknown ring {ring!r}")


def qseries_json(f: QSeries) -> Dict[str, Any]:
    return {
        "ring": ring_json(f.ring),
        "qprec": num(f.qprec),
        "coeffs": [num(c) for c in f.coeffs],
    }


def matrix_json(mat: PadicMatrix) -> Dict[str, Any]:
    out = {
        "p": num(mat.p),
        "m": num(mat.m),
        "size": num(mat.size),
        "rows": [[num(x) for x in row] for row in mat.rows],
    }
    if mat.basis_tag is not None:
        out["basis_tag"] = mat.basis_tag
    return out


def charseries_json(series: CharSeries) -> Dict[str, Any]:
    return {
        "p": num(series.p),
        "m": num(series.m),
        "reliable_degree": num(series.degree),
        "coeffs": [num(c) for c in series.coeffs],
    }


def polygon_json(poly: NewtonPolygon) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "slopes": [
            {"slope": num(s), "mult": num(mult)}
            for s, mult in zip(poly.slopes, poly.multiplicities)
        ],
        "vertices": [[num(j), num(v)] for j, v in poly.vertices],
        "certified_degree": num(poly.certified_degree),
        "next_slope_floor": None
        if poly.next_slope_floor is None
        else num(poly.next_slope_floor),
    }
    if poly.warning:
        out["warning"] = poly.warning
    return out


def slope_report_json(report: SlopeReport) -> Dict[str, Any]:
    return {
        "p": num(report.p),
        "k": num(report.weight),
        "I": num(report.twist_depth),
        "qprec": num(report.qprec),
        "m": num(report.m_requested),
        "m_working": num(report.m_working),
        "m_effective": num(report.m_effective),
        "charseries": [num(c) for c in report.charseries.coeffs],
        "slopes": polygon_json(report.slopes),
        "naive_slopes": polygon_json(report.naive_slopes),
        "threshold": num(report.threshold),
        "classical": None
        if report.classical_slopes is None
        else [num(s) for s in report.classical_slopes],
        "verdict": [
            {k: (num(v) if isinstance(v, (int, Fraction)) else v) for k, v in entry.items()}
            for entry in report.verdicts
        ],
        "naive_shift_checked": report.naive_shift_checked,
    }


def classicality_json(report: ClassicalityReport) -> Dict[str, Any]:
    return {
        "p": num(report.p),
        "k": num(report.weight),
        "I": num(report.twist_depth),
        "m": num(report.m_requested),
        "m_working": num(report.m_working),
        "compared_below": num(report.compared_below),
        "overconvergent": [num(s) for s in report.overconvergent],
        "classical": [num(s) for s in report.classical],
        "boundary": {
            "overconvergent": None
            if report.boundary_overconvergent is None
            else num(report.boundary_overconvergent),
            "classical": num(report.boundary_classical),
        },
        "verdict": report.verdict,
    }


def control_json(report: ControlReport) -> Dict[str, Any]:
    return {
        "p": num(report.p),
        "k": num(report.k),
        "n": num(report.n),
        "target_weight": num(report.target_weight),
        "rank_high": num(report.rank_high),
        "rank_low": num(report.rank_low),
        "weight2_twist": report.weight2_twist,
        "verdict": "pass" if report.passed else "fail",
    }


def iwasawa_json(fit: IwasawaTruncation) -> Dict[str, Any]:
    return {
        "p": num(fit.p),
        "component": num(fit.component),
        "m": num(fit.m),
        "poly_coeffs": [num(c) for c in fit.poly_coeffs],
    }


def family_json(family: OrdinaryFamily) -> Dict[str, Any]:
    return {
        "p": num(family.p),
        "component": num(family.component),
        "m": num(family.m),
        "rank": num(family.rank),
        "weights": [num(k) for k in family.sample_weights],
        "keys": [[num(x) for x in key] for key in family.keys],
        "eigenvalues": {
            num(k): {num(ell): [num(v) for v in vals] for ell, vals in data.items()}
            for k, data in family.eigen_data.items()
        },
        "fitted": {
            num(ell): [iwasawa_json(fits[key]) for key in family.keys]
            for ell, fits in family.fitted.items()
        },
        "congruence_checks": [
            {
                "weights": [num(x) for x in entry["weights"]],
                "prime": num(entry["prime"]),
                "system": num(entry["system"]),
                "required": num(entry["required"]),
                "observed": num(entry["observed"]),
                "holds": entry["holds"],
            }
            for entry in family.congruence_checks
        ],
        "unsplit_blocks": [
            {
                "weight": num(block["weight"]),
                "rank": num(block["rank"]),
                "charpoly_mod_p": {
                    num(ell): [num(c) for c in coeffs]
                    for ell, coeffs in block["charpoly_mod_p"].items()
                },
            }
            for block in family.unsplit_blocks
        ],
    }


def disc_json(series: TwoVarCharSeries, piece_reports=()) -> Dict[str, Any]:
    disc = series.disc
    return {
        "p": num(disc.p),
        "component": num(disc.component),
        "center": num(disc.component),
        "samples": [num(k) for k in disc.sample_weights],
        "m": num(disc.m),
        "I": num(series.twist_depth),
        "top_weight": num(series.top_weight),
        "D": num(series.degree),
        "qprec": num(series.qprec),
        "coeffs": [iwasawa_json(c) for c in series.coeffs],
        "slope_tables": {
            num(k): polygon_json(newton_polygon(s)) for k, s in series.samples
        },
        "flat_degree_by_bound": {
            num(rep.slope_bound): {
                "degrees": {num(k): num(d) for k, d in rep.degrees.items()},
                "constant": rep.constant,
            }
            for rep in piece_reports
        },
    }


def theta_probe_json(probe: ThetaProbeReport) -> Dict[str, Any]:
    return {
        "p": num(probe.p),
        "k": num(probe.weight),
        "shift": num(probe.shift),
        "bound": num(probe.bound),
        "classes": [
            {
                "source_qslope": num(c.source_qslope),
                "target_qslope": num(c.target_qslope),
                "present": c.present,
                "kernel_excluded": c.kernel_excluded,
            }
            for c in probe.classes
        ],
        "control_shift": num(probe.control_shift),
        "control_fails": not probe.control_contained,
        "verdict": "pass" if probe.passed else "fail",
    }


def duality_json(report: DualityReport) -> Dict[str, Any]:
    return {
        "p": num(report.p),
        "k": num(report.weight),
        "structural": report.structural_equal,
        "rank_duality": {
            "rank_source": num(report.rank_duality["rank_source"]),
            "rank_dual": num(report.rank_duality["rank_dual"]),
            "equal": report.rank_duality["equal"],
        },
        "theta_probe": theta_probe_json(report.theta),
        "verdict": report.verdict,
    }
