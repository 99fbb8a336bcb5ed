"""Per-layer tracing from outside the package.

The tracer wraps every layer boundary it can find at run time and records
one span per call: name, start, end and parent.  A layer boundary is

* a public module-level function of a layer (a name without a leading
  underscore), or a private one that another finhyp module imports, and
* one of the `CycloNum` methods in CYCLO_METHODS.

Each wrapped function is rebound under every name, in every `finhyp.*`
namespace, that holds the original object, so calls made through
`from .x import y` are caught as well.  Names are found by scanning the
modules, never from a fixed list, so a refactor that deletes or renames a
function only makes the metrics that need it missing (see REQUIRED).

Self time is a span's duration minus the time its child spans cover.
"""

import functools
import importlib
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from math import gcd
from time import perf_counter

LAYERS = ("cli", "checks", "hypergeometric", "charsums", "cyclo", "finfield",
          "params", "padic")
CYCLO_METHODS = ("__mul__", "__add__", "from_powers", "embed", "galois",
                 "inverse", "__eq__")

# metric -> span names it is computed from; it is missing if none was wrapped
REQUIRED = {
    "padic.gamma.prefetch_ms": ("padic.prefetch_gamma_p",),
    "padic.gamma.values_requested": ("padic.prefetch_gamma_p", "padic.gamma_p"),
    "padic.gamma.values_distinct": ("padic.prefetch_gamma_p", "padic.gamma_p"),
    "padic.gamma.cold_calls": ("padic.prefetch_gamma_p", "padic.gamma_p"),
    "padic.gamma.warm_op_share": ("padic.prefetch_gamma_p", "padic.gamma_p"),
    "padic.sum.calls": ("padic.padic_sum_direct", "padic.padic_sum_via_orbits"),
    "padic.gauss_sum_padic.calls": ("padic.gauss_sum_padic",),
    "padic.prec_shortfall_max": ("padic.padic_sum_direct",
                                 "padic.padic_sum_via_orbits", "padic.gamma_p",
                                 "padic.gauss_sum_padic"),
    "cyclo.mul.calls": ("cyclo.CycloNum.__mul__",),
    "cyclo.mul.self_ms": ("cyclo.CycloNum.__mul__",),
    "cyclo.mul.coeff_pairs": ("cyclo.CycloNum.__mul__",),
    "cyclo.from_powers.calls": ("cyclo.CycloNum.from_powers",),
    "cyclo.from_powers.self_ms": ("cyclo.CycloNum.from_powers",),
    "cyclo.embed.calls": ("cyclo.CycloNum.embed",),
    "cyclo.max_degree": tuple(f"cyclo.CycloNum.{m}" for m in CYCLO_METHODS),
    "charsums.gauss_sum.calls": ("charsums.gauss_sum",),
    "charsums.tables_needed": ("charsums.gauss_sum", "hypergeometric.classic_sum"),
    "hypergeometric.classic_sum.calls": ("hypergeometric.classic_sum",),
    "hypergeometric.algebra_sum_direct.calls": ("hypergeometric.algebra_sum_direct",),
    "hypergeometric.algebra_sum_fourier.calls": ("hypergeometric.algebra_sum_fourier",),
    "finfield.make_field.calls": ("finfield.make_field",),
    "finfield.fields_built": ("finfield.make_field",),
}


def _euler_phi(n):
    out, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            out -= out // d
        d += 1
    if m > 1:
        out -= out // m
    return out


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.wrapped = set()
        self.layers_found = set()
        # counters filled by the observers below
        self.coeff_pairs = 0
        self.max_degree = 0
        self.gamma_requested = 0
        self.gamma_seen = {}
        self.gamma_cold_calls = 0
        self.gamma_cold_spans = []
        self.gamma_spans = []
        self.tables = set()
        self.fields = set()
        self.shortfall = None
        self._phi = {}

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        self.wrapped.add(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(i, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every layer boundary of the imported finhyp package."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "finhyp" or n.startswith("finhyp.")) and m is not None]
        bound = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if callable(obj):
                    bound.setdefault(id(obj), []).append((mod, attr))
        done = set()
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"finhyp.{layer}")
            except ImportError:
                continue
            self.layers_found.add(layer)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if id(obj) in done:
                    continue
                done.add(id(obj))
                holders = bound.get(id(obj), [])
                imported = any(h is not mod for h, _ in holders)
                if attr.startswith("_") and not imported:
                    continue
                name = f"{layer}.{attr}"
                w = self._wrap(name, obj, self._observer(name))
                for holder, hattr in holders:
                    if vars(holder).get(hattr) is obj:
                        setattr(holder, hattr, w)
        cyclo = sys.modules.get("finhyp.cyclo")
        cls = getattr(cyclo, "CycloNum", None)
        if cls is not None:
            for meth in CYCLO_METHODS:
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                name = f"cyclo.CycloNum.{meth}"
                w = self._wrap(name, fn, self._observer(name))
                for alias, val in list(cls.__dict__.items()):
                    if val is raw:
                        setattr(cls, alias, staticmethod(w) if static else w)

    # ----------------------------------------------------------- observers

    def _observer(self, name):
        if name.startswith("cyclo.CycloNum."):
            return self._obs_mul if name.endswith("__mul__") else self._obs_cyclo
        return {
            "padic.prefetch_gamma_p": self._obs_prefetch,
            "padic.gamma_p": self._obs_gamma,
            "padic.padic_sum_direct": self._obs_prec,
            "padic.padic_sum_via_orbits": self._obs_prec,
            "padic.gauss_sum_padic": self._obs_prec,
            "charsums.gauss_sum": self._obs_gauss_sum,
            "hypergeometric.classic_sum": self._obs_classic_table,
            "hypergeometric.greene_factor": self._obs_classic_table,
            "hypergeometric.katz_unnormalized": self._obs_classic_table,
            "finfield.make_field": self._obs_make_field,
        }.get(name)

    def phi(self, n):
        v = self._phi.get(n)
        if v is None:
            v = self._phi[n] = _euler_phi(n)
        return v

    def _obs_cyclo(self, i, args, kwargs, result):
        coeffs = getattr(result, "coeffs", None)
        if coeffs is not None and len(coeffs) > self.max_degree:
            self.max_degree = len(coeffs)

    def _obs_mul(self, i, args, kwargs, result):
        a, b = args[0], args[1]
        na = getattr(a, "conductor", 1)
        nb = getattr(b, "conductor", None)
        if nb is None:
            self.coeff_pairs += self.phi(na)
        else:
            deg = self.phi(na * nb // gcd(na, nb))
            self.coeff_pairs += deg * deg
        self._obs_cyclo(i, args, kwargs, result)

    def _residues(self, xs, p, prec):
        mod = p**prec
        out = []
        for x in xs:
            if hasattr(x, "u") and hasattr(x, "v"):  # a PadicNum argument
                r = 0 if getattr(x, "exact", False) else x.u * p**x.v % mod
            else:
                x = Fraction(x)
                r = x.numerator * pow(x.denominator, -1, mod) % mod
            out.append(r or mod)
        return out

    def _gamma_request(self, i, xs, p, prec):
        self.gamma_requested += len(xs)
        seen = self.gamma_seen.setdefault((p, prec), set())
        new = set(self._residues(xs, p, prec)) - seen
        self.gamma_spans.append(i)
        if new:
            seen.update(new)
            self.gamma_cold_calls += 1
            self.gamma_cold_spans.append(i)

    @staticmethod
    def _arg(args, kwargs, pos, key, default=None):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(key, default)

    def _obs_prefetch(self, i, args, kwargs, result):
        xs = list(self._arg(args, kwargs, 0, "args"))
        p, prec = self._arg(args, kwargs, 1, "p"), self._arg(args, kwargs, 2, "prec")
        self._gamma_request(i, xs, p, prec)

    def _obs_gamma(self, i, args, kwargs, result):
        x = self._arg(args, kwargs, 0, "x")
        p, prec = self._arg(args, kwargs, 1, "p"), self._arg(args, kwargs, 2, "prec")
        self._gamma_request(i, [x], p, prec)
        self._obs_prec(i, args, kwargs, result, prec=prec)

    def _obs_prec(self, i, args, kwargs, result, prec=None):
        if prec is None:  # the sums and gauss_sum_padic take prec fourth
            prec = self._arg(args, kwargs, 3, "prec")
        delivered = getattr(result, "abs_prec", None)
        if delivered is None:
            delivered = getattr(result, "prec", None)
        if prec is None or delivered is None:
            return
        gap = prec - delivered
        if self.shortfall is None or gap > self.shortfall:
            self.shortfall = gap

    def _obs_gauss_sum(self, i, args, kwargs, result):
        chi = args[0]
        a = self._arg(args, kwargs, 1, "a", 1)
        self.tables.add((chi.field.q, a % chi.field.p))

    def _obs_classic_table(self, i, args, kwargs, result):
        self.tables.add((self._arg(args, kwargs, 1, "q"), 1))

    def _obs_make_field(self, i, args, kwargs, result):
        self.fields.add((self._arg(args, kwargs, 0, "p"),
                         self._arg(args, kwargs, 1, "f", 1)))

    # ------------------------------------------------------------ analysis

    def aggregate(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        stats = {}
        for i in range(n):
            dur = ends[i] - starts[i]
            s = stats.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i]
        return stats


def layer_metrics(tracer, traced_wall, untraced_wall, op_starts):
    """The per-layer metrics of one traced pass, plus the names missing.

    op_starts holds the start time of each op of the pass, in order; a span
    belongs to the last op that started before it.
    """
    stats = tracer.aggregate()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s

    def calls(*names):
        return sum(stats.get(n, (0,))[0] for n in names)

    def self_ms(name):
        return 1000.0 * stats.get(name, (0, 0.0, 0.0))[2]

    def incl_ms(name):
        return 1000.0 * stats.get(name, (0, 0.0, 0.0))[1]

    # an op is warm for Gamma_p when it requested values and none were new
    def op_of(i):
        return bisect_right(op_starts, tracer.span_start[i]) - 1

    gamma_ops = {op_of(i) for i in tracer.gamma_spans}
    cold_ops = {op_of(i) for i in tracer.gamma_cold_spans}
    warm_share = (len(gamma_ops - cold_ops) / len(gamma_ops)) if gamma_ops else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1000.0 * layer_self[layer], "ms")
    m.update({
        "padic.gamma.prefetch_ms": (incl_ms("padic.prefetch_gamma_p"), "ms"),
        "padic.gamma.values_requested": (tracer.gamma_requested, "count"),
        "padic.gamma.values_distinct": (
            sum(len(s) for s in tracer.gamma_seen.values()), "count"),
        "padic.gamma.cold_calls": (tracer.gamma_cold_calls, "count"),
        "padic.gamma.warm_op_share": (warm_share, "ratio"),
        "padic.sum.calls": (calls("padic.padic_sum_direct",
                                  "padic.padic_sum_via_orbits"), "count"),
        "padic.gauss_sum_padic.calls": (calls("padic.gauss_sum_padic"), "count"),
        "padic.prec_shortfall_max": (tracer.shortfall or 0, "digits"),
        "cyclo.mul.calls": (calls("cyclo.CycloNum.__mul__"), "count"),
        "cyclo.mul.self_ms": (self_ms("cyclo.CycloNum.__mul__"), "ms"),
        "cyclo.mul.coeff_pairs": (tracer.coeff_pairs, "count"),
        "cyclo.from_powers.calls": (calls("cyclo.CycloNum.from_powers"), "count"),
        "cyclo.from_powers.self_ms": (self_ms("cyclo.CycloNum.from_powers"), "ms"),
        "cyclo.embed.calls": (calls("cyclo.CycloNum.embed"), "count"),
        "cyclo.max_degree": (tracer.max_degree, "count"),
        "charsums.gauss_sum.calls": (calls("charsums.gauss_sum"), "count"),
        "charsums.tables_needed": (len(tracer.tables), "count"),
        "hypergeometric.classic_sum.calls": (calls("hypergeometric.classic_sum"), "count"),
        "hypergeometric.algebra_sum_direct.calls": (
            calls("hypergeometric.algebra_sum_direct"), "count"),
        "hypergeometric.algebra_sum_fourier.calls": (
            calls("hypergeometric.algebra_sum_fourier"), "count"),
        "finfield.make_field.calls": (calls("finfield.make_field"), "count"),
        "finfield.fields_built": (len(tracer.fields), "count"),
        "trace.coverage": (sum(layer_self.values()) / traced_wall, "ratio"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.spans": (len(tracer.span_start), "count"),
    })
    missing = sorted(
        metric for metric, needs in REQUIRED.items()
        if not any(n in tracer.wrapped for n in needs)
    ) + [f"{layer}.self_ms" for layer in LAYERS if layer not in tracer.layers_found]
    for metric in missing:
        m.pop(metric, None)
    return m, missing
