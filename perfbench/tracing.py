"""Span tracing of `imcalc` from the outside, for the per-layer metrics.

`Tracer.install` replaces each traced function with a wrapper wherever the
loaded `imcalc.*` modules bind it (and the traced methods on their classes);
`Tracer.uninstall` puts every original back.  Each call records a span
[layer, start, end, parent, extra] in memory.  A layer's self time is the
time of its spans minus the time of their child spans; its calls are the
spans whose parent is not of the same layer (so `-` counts once, not also as
the `+` it calls).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, layer); the same layer may appear on
# several rows
TARGETS = (
    ("imcalc.cli", "main", "cli"),
    ("imcalc.cli", "load_algebroid", "cli.load"),
    ("imcalc.cli", "load_candidate", "cli.load"),
    ("imcalc.poly", "Polynomial.__mul__", "poly.mul"),
    ("imcalc.poly", "Polynomial.__rmul__", "poly.mul"),
    ("imcalc.poly", "Polynomial.__add__", "poly.add"),
    ("imcalc.poly", "Polynomial.__radd__", "poly.add"),
    ("imcalc.poly", "Polynomial.__sub__", "poly.add"),
    ("imcalc.poly", "Polynomial.__rsub__", "poly.add"),
    ("imcalc.poly", "Polynomial.diff", "poly.diff"),
    ("imcalc.poly", "Polynomial.partial_eval", "poly.partial_eval"),
    ("imcalc.poly", "Polynomial.promote", "poly.partial_eval"),
    ("imcalc.poly", "Polynomial.eval", "poly.eval"),
    ("imcalc.poly", "parse", "poly.parse"),
    ("imcalc.poly", "format_polynomial", "poly.format"),
    ("imcalc.forms", "contract", "forms.contract"),
    ("imcalc.forms", "lie_derivative", "forms.lie_derivative"),
    ("imcalc.forms", "exterior_derivative", "forms.exterior_derivative"),
    ("imcalc.forms", "iterated_contract", "forms.iterated_contract"),
    ("imcalc.forms", "graded_bracket", "forms.graded_bracket"),
    ("imcalc.algebroid", "check_axioms", "algebroid.check_axioms"),
    ("imcalc.algebroid", "LieAlgebroid.anchor_derivation", "algebroid.anchor_derivation"),
    ("imcalc.algebroid", "tangent_prolongation", "algebroid.prolongation"),
    ("imcalc.algebroid", "cotangent_prolongation", "algebroid.prolongation"),
    ("imcalc.algebroid", "check_morphism_to_line", "algebroid.morphism"),
    ("imcalc.linforms", "decompose", "linforms.decompose"),
    ("imcalc.linforms", "linear_form", "linforms.linear_form"),
    ("imcalc.linforms", "form_frame_functional", "linforms.functional"),
    ("imcalc.imforms", "check_im_form", "imforms.check_im_form"),
    ("imcalc.imforms", "check_lagrangian", "imforms.check_lagrangian"),
    ("imcalc.multivec", "derivation_from_linear", "multivec.derivation"),
    ("imcalc.multivec", "check_gerstenhaber_derivation", "multivec.derivation"),
    ("imcalc.multivec", "multivector_frame_functional", "multivec.functional"),
    ("imcalc.weil", "cochain_from_bundle_forms", "weil.dh"),
    ("imcalc.weil", "horizontal_vanishing_report", "weil.dh"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def _mul_extra(args):
    a, b = args
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _diff_extra(args):
    return args  # (polynomial, coordinate); polynomials are immutable


def _morphism_extra(args):
    rank = args[0].rank
    return rank * (rank - 1) // 2


EXTRA = {"poly.mul": _mul_extra, "poly.diff": _diff_extra,
         "algebroid.morphism": _morphism_extra}


class Tracer:
    """Records spans of the traced `imcalc` functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        extra = EXTRA.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1,
                   extra(args) if extra else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "imcalc" or name.startswith("imcalc.")]
        for module_name, attr, layer in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(layer, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original)
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def take(self) -> list:
        """The spans recorded so far; recording starts afresh."""
        if self._stack:
            raise RuntimeError("spans taken inside a traced call")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass, from the spans `Tracer.take` returned:
    `calls` and `self_s` of every layer, a few counts of their arguments and
    each module's self time.  The run reports those BENCHMARK.json lists."""
    child = {}
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] = child.get(rec[3], 0.0) + (rec[2] - rec[1])
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    term_pairs = 0
    pairs = 0
    diff_keys = set()
    for i, (layer, start, end, parent, extra) in enumerate(spans):
        self_s[layer] += (end - start) - child.get(i, 0.0)
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += 1
        if layer == "poly.mul":
            term_pairs += extra
        elif layer == "poly.diff":
            diff_keys.add(extra)
        elif layer == "algebroid.morphism":
            pairs += extra

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["poly.mul.term_pairs"] = term_pairs
    diff_calls = calls["poly.diff"]
    out["poly.diff.repeat_ratio"] = 1 - len(diff_keys) / diff_calls if diff_calls else 0.0
    out["algebroid.morphism.pairs"] = pairs
    # a module's self time sums its layers; `cli.self_s` is the layer `cli`
    # (main's own time), so the cli module has no sum of its own
    for module in dict.fromkeys(layer.split(".")[0] for layer in LAYERS):
        if module != "cli":
            out[f"{module}.self_s"] = sum(v for layer, v in self_s.items()
                                          if layer.split(".")[0] == module)
    return out
