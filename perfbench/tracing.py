"""Span recorder and outside-in instrumentation of the awlab layers.

Nothing under src/awlab is edited.  `instrument` replaces selected public
functions with recording wrappers in every awlab module namespace that
binds them (so `from .hecke import apply_D` bindings are caught too), and
counts calls of LaurentPoly multiplication.  Spans stay in memory as
[name, parent index, start, end] rows until the run ends; a span's self
time is its duration minus the durations of its direct children, which
never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Public functions spanned, by layer (the awlab module that defines them).
SPANNED = {
    "scalars": ("check_genericity", "lambda_n", "mu_n", "alpha_n", "beta_n",
                "kappa_n", "e1", "e3"),
    "laurent": ("exact_quotient",),
    "hecke": ("apply_T0", "apply_T1", "apply_Y", "apply_D", "apply_D_prime",
              "apply_t0_T0_inv", "apply_t1_T1_inv"),
    "polynomials": ("askey_wilson_P", "nonsymmetric_E", "y_matrix",
                    "recurrence_ratio"),
    "verify": ("run_suite", "check_hecke_relations", "check_factorization",
               "check_bridge_identity"),
    "cli": ("main",),
}

CLOSED_FORMS = ("lambda_n", "mu_n", "alpha_n", "beta_n", "kappa_n", "e1", "e3")
TRIAL_CHECKS = ("check_hecke_relations", "check_factorization",
                "check_bridge_identity")
HECKE_COUNTED = {"apply_T0": "T0", "apply_T1": "T1", "apply_Y": "Y",
                 "apply_D": "D", "apply_D_prime": "D_prime"}
# Constructions whose coefficient size is the growth the laurent layer pays for.
MEASURED_BITS = ("askey_wilson_P", "nonsymmetric_E")

#: Every per-layer metric with its unit and the direction that is better.
PER_LAYER = {
    "scalars.certify_s": ("s", "lower"),
    "scalars.certify_calls": ("count", "lower"),
    "scalars.certify_accept_ratio": ("ratio", "higher"),
    "scalars.closed_form_s": ("s", "lower"),
    "scalars.closed_form_calls": ("count", "lower"),
    "laurent.exact_quotient_s": ("s", "lower"),
    "laurent.exact_quotient_calls": ("count", "lower"),
    "laurent.mul_calls": ("count", "lower"),
    "laurent.max_coeff_bits": ("bits", "lower"),
    "hecke.self_s": ("s", "lower"),
    "hecke.T0_calls": ("count", "lower"),
    "hecke.T1_calls": ("count", "lower"),
    "hecke.Y_calls": ("count", "lower"),
    "hecke.D_calls": ("count", "lower"),
    "hecke.D_prime_calls": ("count", "lower"),
    "polynomials.self_s": ("s", "lower"),
    "polynomials.E_build_s": ("s", "lower"),
    "polynomials.y_matrix_s": ("s", "lower"),
    "polynomials.y_matrix_builds": ("count", "lower"),
    "polynomials.P_build_s": ("s", "lower"),
    "polynomials.P_hit_ratio": ("ratio", "higher"),
    "polynomials.E_hit_ratio": ("ratio", "higher"),
    "polynomials.cache_entries": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "host.reference_s": ("s", "lower"),
}


def _awlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "awlab" or name.startswith("awlab."))]


def rebind(original, replacement) -> int:
    """Point every awlab namespace binding of `original` at `replacement`."""
    hits = 0
    for module in _awlab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _coeff_bits(poly) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for _, v in poly.items()), default=0)


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.mul_calls = 0
        self.max_coeff_bits = 0
        self.certify_accepted = 0
        self.caches: dict[str, object] = {}

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[3] = clock()
        return traced

    def _bits_wrapper(self, fn):
        misses = fn.cache_info if hasattr(fn, "cache_info") else None

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = misses().misses if misses else None
            poly = fn(*args, **kwargs)
            if before is None or misses().misses != before:
                self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(poly))
            return poly
        return measured

    def _certify_wrapper(self, fn):
        @functools.wraps(fn)
        def certify(*args, **kwargs):
            point = fn(*args, **kwargs)
            self.certify_accepted += 1
            return point
        return certify

    def _count_mul(self, fn):
        @functools.wraps(fn)
        def mul(a, b):
            self.mul_calls += 1
            return fn(a, b)
        return mul

    def instrument(self) -> None:
        """Wrap the public functions in SPANNED; call after importing awlab."""
        for module in _awlab_modules():
            for attr, value in vars(module).items():
                if (callable(getattr(value, "cache_info", None))
                        and getattr(value, "__module__", None) == module.__name__):
                    self.caches[f"{module.__name__}.{attr}"] = value
        for layer, names in SPANNED.items():
            module = sys.modules[f"awlab.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapped = original
                if name in MEASURED_BITS:
                    wrapped = self._bits_wrapper(wrapped)
                if name == "check_genericity":
                    wrapped = self._certify_wrapper(wrapped)
                wrapped = self._span_wrapper(f"{layer}.{name}", wrapped)
                if not rebind(original, wrapped):
                    raise RuntimeError(f"awlab.{layer}.{name} is bound nowhere")
        laurent_poly = sys.modules["awlab.laurent"].LaurentPoly
        counted = self._count_mul(laurent_poly.__mul__)
        laurent_poly.__mul__ = counted
        laurent_poly.__rmul__ = counted

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            totals[name] += end - start - child[i]
            calls[name] += 1
        return totals, calls

    def trial_checks_without_hecke(self) -> list[str]:
        """Trial-based checks that applied no operator at all (vacuous passes)."""
        vacuous = []
        for i, (name, _, start, end) in enumerate(self.spans):
            if name.split(".", 1)[1] not in TRIAL_CHECKS:
                continue
            j = i + 1
            applied = 0
            while j < len(self.spans) and self.spans[j][2] < end:
                applied += self.spans[j][0].startswith("hecke.")
                j += 1
            if not applied:
                vacuous.append(name)
        return vacuous

    def layer_metrics(self, stdout_bytes: int, reports: int,
                      failed_reports: int) -> dict[str, float]:
        """The per-layer metrics of one traced run, by name."""
        self_s, calls = self.self_times()

        def layer_self(layer: str) -> float:
            return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

        def cache(name: str):
            fn = self.caches.get(name)
            return fn.cache_info() if fn is not None else None

        def hit_ratio(name: str) -> float:
            info = cache(name)
            looked_up = info.hits + info.misses if info else 0
            return info.hits / looked_up if looked_up else 0.0

        y_info = cache("awlab.polynomials.y_matrix")
        certify_calls = calls["scalars.check_genericity"]
        metrics = {
            "scalars.certify_s": self_s["scalars.check_genericity"],
            "scalars.certify_calls": certify_calls,
            "scalars.certify_accept_ratio": (
                self.certify_accepted / certify_calls if certify_calls else 0.0),
            "scalars.closed_form_s": sum(self_s[f"scalars.{n}"] for n in CLOSED_FORMS),
            "scalars.closed_form_calls": sum(calls[f"scalars.{n}"] for n in CLOSED_FORMS),
            "laurent.exact_quotient_s": self_s["laurent.exact_quotient"],
            "laurent.exact_quotient_calls": calls["laurent.exact_quotient"],
            "laurent.mul_calls": self.mul_calls,
            "laurent.max_coeff_bits": self.max_coeff_bits,
            "hecke.self_s": layer_self("hecke"),
        }
        for fn, label in HECKE_COUNTED.items():
            metrics[f"hecke.{label}_calls"] = calls[f"hecke.{fn}"]
        metrics.update({
            "polynomials.self_s": layer_self("polynomials"),
            "polynomials.E_build_s": self_s["polynomials.nonsymmetric_E"],
            "polynomials.y_matrix_s": self_s["polynomials.y_matrix"],
            "polynomials.y_matrix_builds": y_info.misses if y_info else 0,
            "polynomials.P_build_s": self_s["polynomials.askey_wilson_P"],
            "polynomials.P_hit_ratio": hit_ratio("awlab.polynomials.askey_wilson_P"),
            "polynomials.E_hit_ratio": hit_ratio("awlab.polynomials.nonsymmetric_E"),
            "polynomials.cache_entries": sum(
                fn.cache_info().currsize for fn in self.caches.values()),
            "verify.self_s": layer_self("verify"),
            "verify.checks": reports,
            "verify.checks_failed": failed_reports,
            "cli.self_s": layer_self("cli"),
            "cli.stdout_bytes": stdout_bytes,
            "trace.spans": len(self.spans),
        })
        return metrics

    def write(self, path, header: dict) -> None:
        """Write the spans as JSON lines, after a header line with the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({"run": self.run_id, "id": i,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")
