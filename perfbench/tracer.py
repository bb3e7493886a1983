"""Outside-in tracer: wraps the package's public functions in spans.

Each wrapped function records a span (name, start, end, parent span,
job id) per call and bumps its call count.  ``from .weyl import
enumerate_by_length`` and similar imports copy function objects into other
modules, and ``cli.COMMANDS`` holds the subcommand functions in a dict, so
``install`` replaces every module global, module-level dict value and
class attribute that *is* the original object, not just the defining
module's name.  Methods are patched on their class (classmethods keep
their decorator).

Spans stay in memory in flat arrays and are written out by ``dump``.  A
layer's self time is the time its spans cover minus the time covered by
their child spans, accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

from jobs import _w0_counts

PACKAGE = "heckezonal"

LAYERS = ("cli", "scalars", "weyl", "hecke", "spherical", "tensor", "distinction", "gelfand")

# Public entry points of each layer that the workloads reach.  Tiny
# within-layer helpers (AffinePermutation.apply, is_identity) are left
# out: their time lands in the same layer either way, and wrapping them
# would multiply the tracing overhead.
TARGETS = {
    "cli": [
        "run", "build_parser", "emit", "growth_rows",
        "cmd_presentation", "cmd_eigen", "cmd_coefficient", "cmd_growth",
        "cmd_poincare", "cmd_distinction", "cmd_gelfand",
    ],
    "scalars": [
        "LaurentPoly.__add__", "LaurentPoly.__sub__", "LaurentPoly.__neg__",
        "LaurentPoly.__mul__", "LaurentPoly.__pow__", "LaurentPoly.inverse",
        "LaurentPoly.__eq__", "LaurentPoly.evaluate", "LaurentPoly.variable",
        "LaurentPoly.constant", "LaurentPoly.coefficients",
        "scalar_inverse", "scalar_power", "format_rational", "parse_rational",
    ],
    "weyl": [
        "AffinePermutation.__post_init__", "AffinePermutation.identity",
        "AffinePermutation.compose", "AffinePermutation.inverse",
        "AffinePermutation.length", "AffinePermutation.has_left_descent",
        "AffinePermutation.reduced_word",
        "ExtendedWeylElement.identity", "ExtendedWeylElement.from_full_window",
        "ExtendedWeylElement.length", "ExtendedWeylElement.multiply",
        "ExtendedWeylElement.inverse",
        "generator", "pi_element", "multiply", "all_reduced_words",
        "enumerate_by_length", "perm_compose", "conjugate_by_pi",
    ],
    "hecke": [
        "HeckeAlgebra.element", "HeckeAlgebra.one", "HeckeAlgebra.zero",
        "HeckeAlgebra.basis", "HeckeAlgebra.generator_basis", "HeckeAlgebra.product",
        "HeckeElement.__add__", "HeckeElement.__sub__", "HeckeElement.__neg__",
        "HeckeElement.scale", "HeckeElement.__mul__", "HeckeElement.__rmul__",
        "HeckeElement.__eq__", "HeckeElement.coefficient", "HeckeElement.support",
        "verify_presentation", "PresentationReport.to_json",
    ],
    "spherical": [
        "SphericalParams.numeric", "SphericalParams.generic",
        "SphericalParams.q_power", "SphericalParams.neg_inv_q1", "SphericalParams.algebra",
        "psi0_coefficient", "SphericalTruncation.build",
        "verify_eigen_generator", "verify_eigen_pi",
        "matrix_coefficient_scalar", "EigenReport.to_json",
    ],
    "tensor": [
        "PlaceOperator.__post_init__", "PlaceOperator.identity",
        "PlaceOperator.compose", "PlaceOperator.power",
        "t_operator", "gamma_operator", "ev",
    ],
    "distinction": [
        "coset_measure", "per_term_value", "growth_bfs", "poincare_closed_form",
        "poincare_series_coefficients", "growth_closed_form", "poincare_value",
        "distinction_integral", "nonvanishing_scan", "IntegralReport.to_json",
    ],
    "gelfand": [
        "mat_identity", "mat_mul", "mat_transpose", "rref", "nullspace",
        "FiniteRep.__post_init__", "FiniteRep.validate_closure",
        "FiniteRep.inverse_index", "FiniteRep.dual_matrices",
        "averaging_projector", "fixed_space", "check_pairing",
        "is_irreducible", "load_catalog", "GelfandReport.to_json",
    ],
}


def _bfs_hook(counts, args, result):
    e = result[0][0].e  # layer 0 holds the identity
    counts["weyl.bfs_elements"] += sum(len(layer) for layer in result)
    counts["weyl.bfs_new"] += sum(len(layer) for layer in result[1:])
    counts["weyl.bfs_tried"] += e * sum(len(layer) for layer in result[:-1])


def _reduced_word_hook(counts, args, result):
    counts["weyl.reduced_word_letters"] += len(result)


def _product_hook(counts, args, result):
    counts["hecke.product_terms_out"] += len(result.coeffs)


def _eigen_hook(counts, args, result):
    counts["spherical.eigen_checked"] += result.checked
    counts["spherical.eigen_skipped"] += result.boundary_skipped


def _cosets_hook(counts, args, result):
    counts["distinction.cosets"] += sum(_w0_counts(result.e, result.L))


# Counters computed from a wrapped call's arguments and result.
HOOKS = {
    "weyl:enumerate_by_length": _bfs_hook,
    "weyl:AffinePermutation.reduced_word": _reduced_word_hook,
    "hecke:HeckeAlgebra.product": _product_hook,
    "spherical:verify_eigen_generator": _eigen_hook,
    "spherical:verify_eigen_pi": _eigen_hook,
    "distinction:distinction_integral": _cosets_hook,
}

# Per-layer metrics that are plain call counts of one wrapped function.
CALL_COUNTERS = {
    "weyl.descent_tests": "weyl:AffinePermutation.has_left_descent",
    "weyl.compose_calls": "weyl:AffinePermutation.compose",
    "scalars.laurent_mul": "scalars:LaurentPoly.__mul__",
    "scalars.laurent_pow": "scalars:LaurentPoly.__pow__",
    "hecke.products": "hecke:HeckeAlgebra.product",
    "spherical.psi0_calls": "spherical:psi0_coefficient",
    "tensor.ev_calls": "tensor:ev",
    "tensor.compose_calls": "tensor:PlaceOperator.compose",
    "distinction.per_term_calls": "distinction:per_term_value",
    "gelfand.matmul_calls": "gelfand:mat_mul",
}


class Tracer:
    """Span recorder over the package's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.layer_self_ns = [0] * len(LAYERS)
        self.counts = {
            "weyl.bfs_elements": 0, "weyl.bfs_new": 0, "weyl.bfs_tried": 0,
            "weyl.reduced_word_letters": 0, "hecke.product_terms_out": 0,
            "spherical.eigen_checked": 0, "spherical.eigen_skipped": 0,
            "distinction.cosets": 0,
        }
        self.job = -1
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self.patched = 0

    def _wrap(self, fn, name_id: int, hook):
        layer_id = self.layer_of[name_id]
        stack, calls, layer_self, counts = self._stack, self.calls, self.layer_self_ns, self.counts
        start, end, name, parent, job_id = self.start, self.end, self.name, self.parent, self.job_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            frame = [idx, 0]
            parent.append(stack[-1][0] if stack else -1)
            name.append(name_id)
            job_id.append(self.job)
            end.append(0)
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                dur = t1 - t0
                layer_self[layer_id] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[name_id] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and patch every binding of each original."""
        layer_modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        classes = list({
            id(obj): obj
            for m in modules
            for obj in vars(m).values()
            if isinstance(obj, type) and obj.__module__.startswith(PACKAGE)
        }.values())
        for layer_id, (layer, module) in enumerate(zip(LAYERS, layer_modules)):
            for target in TARGETS[layer]:
                full = f"{layer}:{target}"
                owner = module
                *path, attr = target.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                original = raw.__func__ if kind else raw
                name_id = len(self.names)
                self.names.append(full)
                self.layer_of.append(layer_id)
                self.calls.append(0)
                wrapper = self._wrap(original, name_id, HOOKS.get(full))
                self.patched += self._rebind(original, wrapper, kind, modules, classes)

    def _rebind(self, original, wrapper, kind, modules, classes) -> int:
        patched = 0
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patched += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            patched += 1
        for cls in classes:
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)
                    patched += 1
                elif isinstance(value, (classmethod, staticmethod)) and value.__func__ is original:
                    setattr(cls, key, kind(wrapper))
                    patched += 1
        return patched

    def unused(self) -> list[str]:
        """Wrapped functions that recorded no span."""
        return [n for n, c in zip(self.names, self.calls) if c == 0]

    def metrics(self) -> dict:
        calls = dict(zip(self.names, self.calls))
        out = {}
        for layer_id, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = (self.layer_self_ns[layer_id] / 1e9, "s")
            layer_calls = sum(c for n, c in calls.items() if n.startswith(layer + ":"))
            out[f"{layer}.calls"] = (layer_calls, "count")
        for metric, target in CALL_COUNTERS.items():
            out[metric] = (calls[target], "count")
        c = self.counts
        for key in ("weyl.bfs_elements", "weyl.reduced_word_letters", "hecke.product_terms_out",
                    "spherical.eigen_checked", "distinction.cosets"):
            out[key] = (c[key], "count")
        out["weyl.bfs_yield"] = (c["weyl.bfs_new"] / c["weyl.bfs_tried"] if c["weyl.bfs_tried"] else 0.0, "ratio")
        seen = c["spherical.eigen_checked"] + c["spherical.eigen_skipped"]
        out["spherical.boundary_ratio"] = (c["spherical.eigen_skipped"] / seen if seen else 0.0, "ratio")
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header, then the raw arrays it describes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "spans": len(self.start),
            "arrays": [["start_ns", "q"], ["end_ns", "q"], ["name", "i"], ["parent", "i"], ["job", "i"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent, self.job_id):
                arr.tofile(fh)
