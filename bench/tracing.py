"""Per-layer tracing of fig8 from outside the program.

``Tracer.install`` replaces every public function of every ``fig8`` module
with a wrapper, in each module namespace that binds it (so
``genus2.smallest_excluding_prime``, imported from ``resfin``, is wrapped
too).  A function's layer is the module that defines it.

Most wrappers record a span: name, start, end, parent span and job id.
Spans stay in memory and are written out when the run ends.  A layer's
self time is the duration of its spans minus the time covered by their
child spans.  Hot kernels and small helpers called once per tree node or
group element are count-only, because a span each would dominate the
trace; their time lands in the calling span.  Some wrappers also add to
work counters (letters reduced, entry bits, tree nodes, primes tried).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "words", "sl2", "torus", "selfint", "perms", "covers",
          "magnus", "resfin", "lps", "genus2")

# Module-level functions wrapped as counters instead of spans.
COUNT_ONLY = {
    "torus.vieta_flip",
    "torus.normalize_slope",
    "torus.are_farey_neighbors",
    "torus.mcshane_term_trace",
    "torus.slope_str",
    "sl2.trace_to_length",
    "sl2.length_to_trace",
    "perms.character",
    "perms.commutator",
    "perms.class_parity",
    "perms.class_size",
    "words.random_reduced_word",
    "resfin.abelian_excluding_prime",
}

# Class methods wrapped as counters: (module, class, method) -> counter name.
# Mat2.reduce_mod has one caller, resfin.smallest_excluding_prime, which
# calls it once per prime it tries.
KERNELS = {
    ("sl2", "Mat2", "__mul__"): "sl2.mat_mul",
    ("sl2", "Mat2", "reduce_mod"): "resfin.primes_tried",
    ("perms", "Permutation", "__mul__"): "perms.perm_mul",
    ("magnus", "MagnusSeries", "__mul__"): "magnus.series_mul",
}


class Tracer:
    def __init__(self, modules: dict[str, object]):
        self.modules = modules  # layer name -> module, plus "fig8" -> package
        self.spans: list[tuple] = []  # (name, start, end, parent, job)
        self.stack: list[int] = [-1]
        self.job = -1
        self.counters: Counter = Counter()
        self.parse_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return wrapper

    def _count(self, fn, name):
        counters = self.counters
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return _with_counters(self, self._count(fn, name), name)
        return _with_counters(self, self._span(fn, name), name)

    # -- install / remove ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("fig8.") or home not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._set(mod, attr, wrapped[id(obj)])
        for (layer, cls_name, method), counter in KERNELS.items():
            cls = getattr(self.modules[layer], cls_name)
            self._set(cls, method, _kernel(self, getattr(cls, method), counter))
        self._install_parse_timer()

    def _install_parse_timer(self) -> None:
        """cli.parse_s: time in build_parser plus the parser's parse_args."""
        cli = self.modules["cli"]
        build = cli.build_parser
        tracer = self

        @functools.wraps(build)
        def build_parser():
            start = time.perf_counter()
            parser = build()
            parse = parser.parse_args

            def parse_args(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return parse(*args, **kwargs)
                finally:
                    tracer.parse_s += time.perf_counter() - t0

            parser.parse_args = parse_args
            tracer.parse_s += time.perf_counter() - start
            return parser

        self._set(cli, "build_parser", build_parser)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer in LAYERS:
                calls[layer] += 1
                self_s[layer] += (end - start) - child[i]
        return calls, self_s

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def _with_counters(tracer: Tracer, wrapper, name):
    """Work counters read from arguments or results at the layer boundary."""
    counters = tracer.counters
    if name == "words.free_reduce":
        def counted(letters):
            counters["words.reduce_letters"] += len(letters)
            return wrapper(letters)
    elif name == "genus2.dehn_twist":
        def counted(w, power):
            counters["genus2.twist_power_sum"] += power
            return wrapper(w, power)
    elif name == "genus2.certify_nontrivial":
        def counted(w):
            cert = wrapper(w)
            counters["genus2.certified"] += 1
            if cert.nontrivial:
                counters["genus2.nontrivial"] += 1
                counters["genus2.witness_letters"] += len(cert.witness)
            return cert
    elif name == "lps.lps_girth_check":
        def counted(p, q):
            result = wrapper(p, q)
            counters["lps.bfs_vertices"] += result.group_order
            return result
    elif name in ("covers.extends_cover", "covers.regular_extends"):
        def counted(*args, **kwargs):
            decision = wrapper(*args, **kwargs)
            counters["covers.decisions"] += 1
            if getattr(decision, "status", None) == "unknown":
                counters["covers.unknown"] += 1
            return decision
    else:
        return wrapper
    return functools.wraps(wrapper)(counted)


def _kernel(tracer: Tracer, method, counter):
    counters = tracer.counters
    if counter == "sl2.mat_mul":
        @functools.wraps(method)
        def mat_mul(self, other):
            product = method(self, other)
            counters[counter] += 1
            counters["sl2.entry_bits_sum"] += max(
                abs(product.a11).bit_length(), abs(product.a12).bit_length(),
                abs(product.a21).bit_length(), abs(product.a22).bit_length(),
            )
            return product
        return mat_mul

    @functools.wraps(method)
    def counted(self, arg):
        counters[counter] += 1
        return method(self, arg)

    return counted
