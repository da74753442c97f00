"""Span recording around the public functions of padicforms, installed
from outside the package.

A ``Recorder`` replaces each target function by a wrapper in every
``padicforms`` module that holds it (functions are imported by name into
several modules) and on its class (for methods).  Each call records a
span: name, start, end and parent.  Spans are kept in compact arrays
and turned into per-layer metrics when the run ends; ``restore`` puts
every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array


def _series_products(args, kwargs, result):
    q = min(len(args[0].coeffs), len(args[1].coeffs))
    return q * (q + 1) // 2


def _matrix_products(args, kwargs, result):
    return len(args[0].rows) ** 3


def _qexp_normalization(args, kwargs, result):
    norm = args[2] if len(args) > 2 else kwargs.get("normalization", "weight")
    return int(norm == "qexp")


# (layer name, module, attribute path, value taken from each call).
# Values are computed from arguments and results, never timed.
TARGETS = (
    ("qexp.QSeries.mul", "qexp", "QSeries.__mul__", _series_products),
    ("qexp.QSeries.inverse", "qexp", "QSeries.inverse", None),
    ("qexp.QSeries.new", "qexp", "QSeries.__post_init__", None),
    ("forms.miller_basis", "forms", "miller_basis", lambda a, k, r: r.dim),
    ("forms.eisenstein", "forms", "eisenstein", None),
    ("forms.delta", "forms", "delta", None),
    ("coleman.katz_basis", "coleman", "katz_basis", lambda a, k, r: r.dimension),
    ("coleman.KatzBasis.elements_mod", "coleman", "KatzBasis.elements_mod", None),
    ("coleman.up_matrix", "coleman", "up_matrix", _qexp_normalization),
    ("coleman.slope_spectrum", "coleman", "slope_spectrum", lambda a, k, r: r.m_working),
    ("coleman.classicality_check", "coleman", "classicality_check", None),
    ("linalg.solve_in_basis", "linalg", "solve_in_basis", lambda a, k, r: r.precision_loss),
    (
        "linalg.ordinary_projector",
        "linalg",
        "ordinary_projector",
        lambda a, k, r: getattr(r, "iterations", 0),
    ),
    ("charseries.char_series", "charseries", "char_series", None),
    ("charseries.newton_polygon", "charseries", "newton_polygon", None),
    ("padic.PadicMatrix.matmul", "padic", "PadicMatrix.__matmul__", _matrix_products),
    ("padic.PadicMatrix.pow", "padic", "PadicMatrix.__pow__", None),
    ("padic.PadicMatrix.new", "padic", "PadicMatrix.__post_init__", None),
    ("hida.fit_family", "hida", "fit_family", None),
    ("hida.control_check_h0", "hida", "control_check_h0", None),
    ("hida.ordinary_rank_mod_p", "hida", "ordinary_rank_mod_p", None),
    ("hida.operator_matrix", "hida", "operator_matrix", None),
    ("weights.interpolate_iwasawa", "weights", "interpolate_iwasawa", None),
    ("eigencurve.two_var_charseries", "eigencurve", "two_var_charseries", None),
    ("duality.theta_probe", "duality", "theta_probe", None),
) + tuple(
    (f"acceptance.criterion_{i}", "acceptance", f"criterion_{i}", None) for i in range(1, 11)
)

LAYERS = tuple(t[0] for t in TARGETS)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

_CRITERIA = {f"acceptance.criterion_{i}" for i in range(1, 11)}
# Layers reported by total time; the rest by self time.
TOTAL_TIME = {"coleman.slope_spectrum", "duality.theta_probe"} | _CRITERIA
# Layers reported without a call count.
NO_CALLS = {"duality.theta_probe"} | _CRITERIA

# Extra per-layer metrics beyond calls and time: name -> (unit, better).
DERIVED = {
    "qexp.QSeries.mul.coeff_products": ("count.computed", "lower"),
    "forms.miller_basis.rows_built": ("count.computed", "lower"),
    "coleman.katz_basis.rows_kept_ratio": ("ratio.computed", "higher"),
    "coleman.katz_basis.distinct_ratio": ("ratio.computed", "higher"),
    "coleman.slope_spectrum.certify_retries": ("count.computed", "lower"),
    "coleman.slope_spectrum.m_working_max": ("count.computed", "lower"),
    "linalg.solve_in_basis.pivot_loss": ("count.computed", "lower"),
    "padic.PadicMatrix.matmul.entry_products": ("count.computed", "lower"),
    "linalg.ordinary_projector.failures": ("count", "lower"),
    "linalg.ordinary_projector.iterations": ("count.computed", "lower"),
    "duality.theta_probe.spectrum_rebuilds": ("count", "lower"),
}


# Per-layer metrics that sum the values the layer's calls compute.
SUMMED = {
    "qexp.QSeries.mul.coeff_products": "qexp.QSeries.mul",
    "forms.miller_basis.rows_built": "forms.miller_basis",
    "linalg.solve_in_basis.pivot_loss": "linalg.solve_in_basis",
    "padic.PadicMatrix.matmul.entry_products": "padic.PadicMatrix.matmul",
    "linalg.ordinary_projector.iterations": "linalg.ordinary_projector",
}


def _timing(layer: str) -> str:
    return "total_s" if layer in TOTAL_TIME else "self_s"


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer in LAYERS:
        if layer not in NO_CALLS:
            specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.{_timing(layer)}", "s", "lower"))
        specs.extend(
            (name, unit, better)
            for name, (unit, better) in DERIVED.items()
            if name.rsplit(".", 1)[0] == layer
        )
    specs.append(("trace.overhead_s", "s", "lower"))
    specs.append(("trace.spans", "count", "lower"))
    return specs


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Span recorder; ``install`` wraps the targets, ``restore`` unwraps
    them.  Spans accumulate over any number of install/restore cycles."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.error = array("b")
        self.keys = {}  # span -> (k, p, I, Q) of katz_basis calls
        self._stack = []
        self._patched = []

    def _open(self, index: int) -> int:
        span = len(self.name)
        self.name.append(index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.value.append(0)
        self.error.append(0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        stack = self._stack
        while stack and stack.pop() != span:
            pass

    def _wrapper(self, index, fn, extract):
        rec = self
        is_katz = LAYERS[index] == "coleman.katz_basis"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec._open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.error[span] = 1
                raise
            finally:
                rec._close(span)
            if extract is not None:
                rec.value[span] = extract(args, kwargs, result)
            if is_katz:
                rec.keys[span] = (result.weight, result.p, result.twist_depth, result.qprec)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short name -> module) and in
        every loaded padicforms module that imported it by name."""
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "padicforms" or name.startswith("padicforms.")
        ]
        for index, (_, modname, path, extract) in enumerate(TARGETS):
            owner, attr = _resolve(modules[modname], path)
            original = owner.__dict__[attr]
            wrapper = self._wrapper(index, original, extract)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # metrics

    def _durations(self):
        return [max(e - s, 0.0) for s, e in zip(self.start, self.end)]

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans."""
        n_layers = len(LAYERS)
        dur = self._durations()
        covered = [0.0] * len(dur)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += dur[span]
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        total_s = [0.0] * n_layers
        values = [0] * n_layers
        for span, index in enumerate(self.name):
            calls[index] += 1
            self_s[index] += dur[span] - covered[span]
            total_s[index] += dur[span]
            values[index] += self.value[span]

        def spans_of(layer):
            i = _INDEX[layer]
            return [s for s, n in enumerate(self.name) if n == i]

        out = {}
        for i, layer in enumerate(LAYERS):
            if layer not in NO_CALLS:
                out[f"{layer}.calls"] = calls[i]
            out[f"{layer}.{_timing(layer)}"] = total_s[i] if layer in TOTAL_TIME else self_s[i]
        for name, layer in SUMMED.items():
            out[name] = values[_INDEX[layer]]
        out["linalg.ordinary_projector.failures"] = sum(
            self.error[s] for s in spans_of("linalg.ordinary_projector")
        )

        # katz_basis waste: kept dimension over Miller rows built inside it,
        # and distinct (k, p, I, Q) over calls
        katz = set(spans_of("coleman.katz_basis"))
        rows_in_katz = sum(
            self.value[s] for s in spans_of("forms.miller_basis") if self.parent[s] in katz
        )
        kept = sum(self.value[s] for s in katz)
        out["coleman.katz_basis.rows_kept_ratio"] = kept / rows_in_katz if rows_in_katz else 0.0
        out["coleman.katz_basis.distinct_ratio"] = (
            len(set(self.keys.values())) / len(katz) if katz else 0.0
        )

        # certification retries: q-expansion U_p matrices beyond the first
        # in each slope_spectrum call
        spectra = spans_of("coleman.slope_spectrum")
        qexp_builds = dict.fromkeys(spectra, 0)
        for s in spans_of("coleman.up_matrix"):
            if self.parent[s] in qexp_builds:
                qexp_builds[self.parent[s]] += self.value[s]
        out["coleman.slope_spectrum.certify_retries"] = sum(
            max(v - 1, 0) for v in qexp_builds.values()
        )
        out["coleman.slope_spectrum.m_working_max"] = max(
            (self.value[s] for s in spectra), default=0
        )

        theta = _INDEX["duality.theta_probe"]
        out["duality.theta_probe.spectrum_rebuilds"] = sum(
            1 for s in spectra if self._has_ancestor(s, theta)
        )
        out["trace.spans"] = len(self.name)
        return out

    def _has_ancestor(self, span: int, index: int) -> bool:
        parent = self.parent[span]
        while parent >= 0:
            if self.name[parent] == index:
                return True
            parent = self.parent[parent]
        return False

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a layer table plus one column
        per span field (parent -1 marks a job's top-level call)."""
        payload = {
            "layers": list(LAYERS),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle, separators=(",", ":"))
