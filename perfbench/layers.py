"""Per-layer tracing of qborel, done from outside the package.

A :class:`Tracer` replaces the public functions and ring dunders listed in
``FUNCTIONS`` and ``METHODS`` with timing wrappers for the length of one
traced pass, then puts the originals back.  A module-level function is
replaced in every ``qborel`` namespace that imported it, so calls through
``qborel.verify.eval_free`` or ``qborel.pbwgen.shuffle_letter_mul`` are seen
as well as calls inside the defining module.

Calls are aggregated per (function, parent) edge instead of keeping a span
per call, because the ring dunders run millions of times.  The parent is
the nearest wrapped caller.  Self time is a call's duration minus the time
of the wrapped calls made inside it; inclusive time counts only the
outermost activation of a function, so recursion is not counted twice.
Size counters are read from arguments and return values.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref

# (layer, defining module, attribute)
FUNCTIONS = (
    ("datum.make_datum", "qborel.datum", "make_datum"),
    ("freeword.skew_bracket", "qborel.freeword", "skew_bracket"),
    ("freeword.pbw_bracketing", "qborel.freeword", "pbw_bracketing"),
    ("shuffle.eval_free", "qborel.shuffle", "eval_free"),
    ("shuffle.eval_word", "qborel.shuffle", "eval_word"),
    ("shuffle.letter_mul", "qborel.shuffle", "shuffle_letter_mul"),
    ("shuffle.braided_coproduct", "qborel.shuffle", "braided_coproduct"),
    ("shuffle.tensor_project_pair", "qborel.shuffle", "tensor_project_pair"),
    ("pbwgen.generator_image", "qborel.pbwgen", "generator_image"),
    ("pbwgen.tau_table", "qborel.pbwgen", "tau_table"),
    ("pbwgen.pbw_generators", "qborel.pbwgen", "pbw_generators"),
    ("verify.sigma", "qborel.verify", "verify_sigma_closed_form"),
    ("verify.serre", "qborel.verify", "verify_serre"),
    ("verify.identities", "qborel.verify", "verify_identity_suite"),
    ("verify.arrangements", "qborel.verify", "verify_arrangements"),
    ("verify.coproduct", "qborel.verify", "verify_coproducts"),
    ("verify.pbw", "qborel.verify", "verify_pbw_independence"),
    ("verify.pbw_rows", "qborel.verify", "pbw_product_rows"),
    ("cli.run_command", "qborel.cli", "run_command"),
)

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                 "__rpow__", "__neg__")

# (layer, defining module, class, attributes)
METHODS = (
    ("coeffring.laurent_mul", "qborel.coeffring", "LaurentPoly",
     ("__mul__", "__rmul__")),
    ("coeffring.laurent_add", "qborel.coeffring", "LaurentPoly",
     ("__add__", "__radd__")),
    ("coeffring.div_exact", "qborel.coeffring", "LaurentPoly", ("div_exact",)),
    ("coeffring.fraction_ops", "fractions", "Fraction", _FRACTION_OPS),
    ("freeword.free_mul", "qborel.freeword", "FreeElem", ("__mul__", "__pow__")),
)

# Every per-layer metric the traced run reports: (name, unit, better).
# verify.cases comes from the CLI output and trace.overhead_s from the
# untraced passes of the same run; the rest come from a Tracer.
_COUNTED = ("coeffring.laurent_mul", "coeffring.laurent_add",
            "coeffring.div_exact", "coeffring.fraction_ops",
            "datum.make_datum", "freeword.skew_bracket",
            "freeword.pbw_bracketing", "freeword.free_mul")
PER_LAYER = (
    *((f"{layer}.{stat}", unit, "lower") for layer in _COUNTED
      for stat, unit in (("calls", "count"), ("self_s", "s"))),
    ("shuffle.eval_free.calls", "count", "lower"),
    ("shuffle.eval_free.s", "s", "lower"),
    ("shuffle.eval_free.self_s", "s", "lower"),
    ("shuffle.eval_free.words_in", "count", "lower"),
    ("shuffle.eval_free.terms_out", "count", "lower"),
    ("shuffle.eval_word.terms_out", "count", "lower"),
    ("shuffle.eval_free.useful_ratio", "ratio", "higher"),
    ("shuffle.letter_mul.calls", "count", "lower"),
    ("shuffle.letter_mul.self_s", "s", "lower"),
    ("shuffle.letter_mul.terms_out", "count", "lower"),
    ("shuffle.braided_coproduct.calls", "count", "lower"),
    ("shuffle.braided_coproduct.self_s", "s", "lower"),
    ("shuffle.tensor_project_pair.calls", "count", "lower"),
    ("shuffle.tensor_project_pair.self_s", "s", "lower"),
    ("shuffle.peak_terms", "count", "lower"),
    ("pbwgen.generator_image.calls", "count", "lower"),
    ("pbwgen.generator_image.self_s", "s", "lower"),
    ("pbwgen.generator_image.computed_ratio", "ratio", "lower"),
    ("pbwgen.tau_table.calls", "count", "lower"),
    ("pbwgen.tau_table.self_s", "s", "lower"),
    ("pbwgen.pbw_generators.self_s", "s", "lower"),
    *((f"verify.{suite}.s", "s", "lower")
      for suite in ("sigma", "serre", "identities", "arrangements",
                    "coproduct", "pbw", "pbw_rows")),
    ("verify.rank_step.s", "s", "lower"),
    ("verify.cases", "count", "higher"),
    ("cli.run_command.s", "s", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Aggregated spans and size counters for the wrapped layers."""

    def __init__(self):
        self.edges: dict = {}      # (layer, parent layer) -> [calls, self_s]
        self.inclusive: dict = {}  # layer -> seconds, outermost calls only
        self.words_in = 0          # words of the FreeElems given to eval_free
        self.free_terms_out = 0    # terms of the ShuffleElems eval_free returns
        self.word_terms_out = 0    # terms of the ShuffleElems eval_word returns
        self.letter_terms_out = 0  # terms of the letter-product results
        self.peak_terms = 0        # largest ShuffleElem a wrapped call returned
        self.image_keys = 0        # distinct (datum, k, m) given to generator_image
        self._seen = weakref.WeakKeyDictionary()  # datum -> {(k, m)}
        self._stack: list = []     # [layer, time covered by child spans]
        self._active: dict = {}    # layer -> open activations
        self._patches: list = []   # (owner, attribute, original)

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed layer; call :meth:`remove` afterwards."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"shuffle.eval_free": self._after_eval_free,
                 "shuffle.eval_word": self._after_eval_word,
                 "shuffle.letter_mul": self._after_letter_mul,
                 "pbwgen.generator_image": self._after_generator_image}
        try:
            for layer, module, attr in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(layer, original, hooks.get(layer))
                for name, mod in list(sys.modules.items()):
                    if name != "qborel" and not name.startswith("qborel."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            for layer, module, cls_name, attrs in METHODS:
                cls = getattr(importlib.import_module(module), cls_name)
                for attr in attrs:
                    self._patch(cls, attr, self._wrap(layer, vars(cls)[attr], None))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, fn, hook):
        stack, edges = self._stack, self.edges
        active, inclusive = self._active, self.inclusive
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            active[layer] = active.get(layer, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((layer, parent))
                if edge is None:
                    edges[(layer, parent)] = [1, dt - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += dt - frame[1]
                depth = active[layer] - 1
                active[layer] = depth
                if not depth:
                    inclusive[layer] = inclusive.get(layer, 0.0) + dt
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- size counters ---------------------------------------------------------

    # Every hooked call returns a ShuffleElem.
    def _after_eval_free(self, args, result) -> None:
        self.words_in += len(args[1].terms)
        self.free_terms_out += len(result.terms)
        self.peak_terms = max(self.peak_terms, len(result.terms))

    def _after_eval_word(self, args, result) -> None:
        self.word_terms_out += len(result.terms)
        self.peak_terms = max(self.peak_terms, len(result.terms))

    def _after_letter_mul(self, args, result) -> None:
        self.letter_terms_out += len(result.terms)
        self.peak_terms = max(self.peak_terms, len(result.terms))

    def _after_generator_image(self, args, result) -> None:
        datum, k, m = args[:3]
        seen = self._seen.setdefault(datum, set())
        if (k, m) not in seen:
            seen.add((k, m))
            self.image_keys += 1
        self.peak_terms = max(self.peak_terms, len(result.terms))

    # -- results ---------------------------------------------------------------

    def metrics(self, cases: int, overhead_s: float) -> dict:
        """Every PER_LAYER value for the pass this tracer watched."""
        calls: dict = {}
        self_s: dict = {}
        for (layer, _parent), (n, s) in self.edges.items():
            calls[layer] = calls.get(layer, 0) + n
            self_s[layer] = self_s.get(layer, 0.0) + s
        out = {}
        for layer in {layer for layer, *_ in FUNCTIONS + METHODS}:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            out[f"{layer}.s"] = self.inclusive.get(layer, 0.0)
        out["shuffle.eval_free.words_in"] = self.words_in
        out["shuffle.eval_free.terms_out"] = self.free_terms_out
        out["shuffle.eval_word.terms_out"] = self.word_terms_out
        # 0 when eval_free never ran
        out["shuffle.eval_free.useful_ratio"] = (
            self.free_terms_out / self.word_terms_out if self.word_terms_out else 0.0)
        out["shuffle.letter_mul.terms_out"] = self.letter_terms_out
        out["shuffle.peak_terms"] = self.peak_terms
        image_calls = calls.get("pbwgen.generator_image", 0)
        out["pbwgen.generator_image.computed_ratio"] = (
            self.image_keys / image_calls if image_calls else 0.0)
        # matrix assembly and the mod-p elimination: everything in
        # verify_pbw_independence that is not a wrapped call
        out["verify.rank_step.s"] = self_s.get("verify.pbw", 0.0)
        out["verify.cases"] = cases
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _unit, _better in PER_LAYER}

    def edge_table(self) -> list:
        """The aggregated (layer, parent) edges, busiest first."""
        rows = [{"layer": layer, "parent": parent, "calls": n, "self_s": s}
                for (layer, parent), (n, s) in self.edges.items()]
        return sorted(rows, key=lambda r: -r["self_s"])
