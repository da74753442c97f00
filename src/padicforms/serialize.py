"""JSON encoding of the library's objects.

The output format is known to one function, ``encode``: every number
becomes an exact decimal string (an int as "12", a Fraction as "1/2"),
``None``, booleans and strings pass through, tuples become lists and
dictionary keys become strings.  A number that is not an integer or a
Fraction, such as a float, raises ``TypeError`` instead of being
rounded.  A record, a ``NamedTuple`` such as ``SlopeReport``, raises
``TypeError`` as well: it is a tuple, but its fields are never written
as a list.  The ``*_json`` builders only pick and name the fields of a
report, and decide no verdict: a "pass" or "fail" names the report's
own ``passed``, and the per-class verdicts of a slope comparison are
``classical.Comparison.classes``.  The CLI encodes each payload once
and emits it with sorted keys, so identical inputs give byte-identical
output.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Any, Dict

from .charseries import CharSeries, NewtonPolygon, newton_polygon
from .coleman import SlopeReport
from .duality import DualityReport, ThetaProbeReport
from .eigencurve import TwoVarCharSeries
from .hida import ControlReport, OrdinaryFamily
from .padic import PadicMatrix
from .qexp import QSeries
from .weights import IwasawaTruncation


def encode(value) -> Any:
    """The JSON form of a value; encoding its own output changes nothing."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "_fields"):
        raise TypeError(f"a {type(value).__name__} record is encoded by its fields, not whole")
    if isinstance(value, (tuple, list)):
        return [encode(x) for x in value]
    if isinstance(value, dict):
        return {encode(key): encode(x) for key, x in value.items()}
    return str(index(value))


def qseries_json(f: QSeries) -> Dict[str, Any]:
    return {
        "ring": f.ring.json(),
        "qprec": f.qprec,
        "coeffs": f.coeffs,
    }


def matrix_json(mat: PadicMatrix) -> Dict[str, Any]:
    return {"p": mat.p, "m": mat.m, "size": mat.size, "rows": mat.rows}


def charseries_json(series: CharSeries) -> Dict[str, Any]:
    return {
        "p": series.p,
        "m": series.m,
        "reliable_degree": series.degree,
        "coeffs": series.coeffs,
    }


def polygon_json(poly: NewtonPolygon) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "slopes": [
            {"slope": s, "mult": mult} for s, mult in zip(poly.slopes, poly.multiplicities)
        ],
        "vertices": poly.vertices,
        "certified_degree": poly.certified_degree,
        "next_slope_floor": poly.next_slope_floor,
    }
    if poly.warning:
        out["warning"] = poly.warning
    return out


def slope_report_json(report: SlopeReport) -> Dict[str, Any]:
    """Returned already encoded: ``perfbench`` digests it with
    ``json.dumps`` alone, without the CLI."""
    comparison = report.comparison
    return encode(
        {
            "p": report.p,
            "k": report.weight,
            "I": report.twist_depth,
            "qprec": report.qprec,
            "m": report.m_requested,
            "m_working": report.m_working,
            "m_effective": report.m_working,  # the modulus of every field, kept for the bytes
            "charseries": report.charseries.coeffs,
            "slopes": polygon_json(report.slopes),
            "naive_slopes": polygon_json(report.naive_slopes),
            "threshold": report.weight - 1,
            "classical": comparison.spectrum if comparison else None,
            "verdict": comparison.classes if comparison else (),
            "naive_shift_checked": report.naive_shift_checked,
        }
    )


def classicality_json(report: SlopeReport) -> Dict[str, Any]:
    comparison = report.comparison
    return {
        "p": report.p,
        "k": report.weight,
        "I": report.twist_depth,
        "m": report.m_requested,
        "m_working": report.m_working,
        "compared_below": comparison.bound,
        "overconvergent": comparison.overconvergent,
        "classical": comparison.classical,
        "boundary": {
            "overconvergent": comparison.boundary_overconvergent,
            "classical": comparison.boundary_classical,
        },
        "verdict": comparison.verdict,
    }


def control_json(report: ControlReport) -> Dict[str, Any]:
    return {
        "p": report.p,
        "k": report.k,
        "n": report.n,
        "target_weight": report.target_weight,
        "rank_high": report.rank_high,
        "rank_low": report.rank_low,
        "weight2_twist": report.weight2_twist,
        "verdict": "pass" if report.passed else "fail",
    }


def iwasawa_json(fit: IwasawaTruncation) -> Dict[str, Any]:
    return {
        "p": fit.p,
        "component": fit.component,
        "m": fit.m,
        "poly_coeffs": fit.poly_coeffs,
    }


def family_json(family: OrdinaryFamily) -> Dict[str, Any]:
    disc = family.disc
    return {
        "p": disc.p,
        "component": disc.component,
        "m": disc.m,
        "rank": family.rank,
        "weights": disc.sample_weights,
        "keys": family.keys,
        "eigenvalues": family.eigen_data,
        "fitted": {
            ell: [iwasawa_json(fits[key]) for key in family.keys]
            for ell, fits in family.fitted.items()
        },
        "congruence_checks": family.congruence_checks,
        "unsplit_blocks": family.unsplit_blocks,
    }


def disc_json(series: TwoVarCharSeries, piece_reports=()) -> Dict[str, Any]:
    disc = series.disc
    return {
        "p": disc.p,
        "component": disc.component,
        "center": disc.component,
        "samples": disc.sample_weights,
        "m": disc.m,
        "I": series.twist_depth,
        "top_weight": series.top_weight,
        "D": series.degree,
        "qprec": series.qprec,
        "coeffs": [iwasawa_json(c) for c in series.coeffs],
        "slope_tables": {k: polygon_json(newton_polygon(s)) for k, s in series.samples},
        "flat_degree_by_bound": {
            rep.slope_bound: {"degrees": rep.degrees, "constant": rep.constant}
            for rep in piece_reports
        },
    }


def theta_probe_json(probe: ThetaProbeReport) -> Dict[str, Any]:
    return {
        "p": probe.p,
        "k": probe.weight,
        "shift": probe.shift,
        "bound": probe.bound,
        "classes": [
            {
                "source_qslope": c.source_qslope,
                "target_qslope": c.target_qslope,
                "present": c.present,
                "kernel_excluded": c.kernel_excluded,
            }
            for c in probe.classes
        ],
        "control_shift": probe.control_shift,
        "control_fails": not probe.control_contained,
        "verdict": "pass" if probe.passed else "fail",
    }


def duality_json(report: DualityReport) -> Dict[str, Any]:
    return {
        "p": report.p,
        "k": report.weight,
        "structural": report.structural_equal,
        "rank_duality": report.rank_duality,
        "theta_probe": theta_probe_json(report.theta),
        "verdict": report.verdict,
    }
