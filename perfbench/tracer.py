"""Tracing from outside the library: wrap each layer's public functions.

The library binds many names by import (`search` binds `pairing`, `act` and
`word_matrix`; `criteria` binds `word_matrix`), so a wrapper installed only in
the defining module would miss most calls.  `Tracer.install` therefore
replaces the original object in every loaded `burau` module that binds it,
and `Tracer.uninstall` puts every binding back.

Two kinds of probe are used:

* spans (name, start, end, parent) around calls that are few enough to
  record one by one; spans stay in memory and are written out at the end;
* counters without spans for Laurent arithmetic and zigzag products, which
  run millions of times.  Laurent calls are also timed, outermost call only,
  so `laurent.self_s` is the time spent inside Laurent arithmetic.

A layer's self time is the duration of its spans minus the part covered by
child spans and by Laurent arithmetic below them.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter

from burau.criteria import KernelCertificate, Rejection
from burau.laurent import LaurentPoly
from burau.matrices import spread
from burau.zigzag import Elt

# (defining module, attribute, span name).  Every loaded burau module that
# binds the same object gets the wrapper too.
FUNCTION_SPANS = (
    ("matrices", "pairing", "matrices.pairing"),
    ("matrices", "act", "matrices.act"),
    ("matrices", "word_matrix", "matrices.word_matrix"),
    ("complexes", "apply_twist", "complexes.apply_twist"),
    ("complexes", "minimize", "complexes.minimize"),
    ("complexes", "hom_table", "complexes.hom_table"),
    ("garside", "garside_context", "garside.context"),
    ("garside", "is_trivial_braid", "garside.is_trivial_braid"),
    ("garside", "samecurve_check", "garside.samecurve_check"),
    ("criteria", "criterion1", "criteria.criterion1"),
    ("criteria", "criterion2", "criteria.criterion2"),
    ("criteria", "seal_certificate", "criteria.seal"),
    ("search", "enumerate_curves", "search.enumerate"),
    ("search", "find_pairs", "search.find_pairs"),
    ("search", "confirm_pair", "search.confirm"),
    ("search", "verify_bigelow3", "search.verify_bigelow3"),
    ("search", "bucket_search", "search.walk"),
)

# (module, class, method, span name) for methods that get a span.
METHOD_SPANS = (
    ("matrices", "BurauMatrix", "mat_mul", "matrices.mat_mul"),
    ("garside", "_NFState", "push_letter", "garside.nf_push"),
    ("garside", "_NFState", "push_simple", "garside.nf_push"),
)

# Laurent arithmetic: counted, and timed as one block of self time.
LAURENT_METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "scale", "shift", "bar",
    "evaluate", "reduce_mod", "as_monomial",
)
LAURENT_STATIC = ("from_dict",)

# Rejection clauses the criteria can name; each gets a counter.
REJECTION_CLAUSES = (
    "pairing", "hom", "verification", "fix-vector", "commutator-matrix",
    "trivial-braid",
)

LAYERS = ("matrices", "complexes", "garside", "criteria", "search")


class Tracer:
    """`clock.total` is the time its timer has spent sampling so far; that
    time is taken out of every span and of Laurent self time."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []  # (name, start, end, parent, laurent_s, sampled_s)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.laurent_s = 0.0
        self._in_laurent = False
        self._restore: list = []
        self.minimize_max = 0

    # ---- probes ----------------------------------------------------------

    def _span(self, fn, name, after=None):
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            laurent0 = tracer.laurent_s
            sampled0 = clock.total
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (
                    name, start, end, parent, tracer.laurent_s - laurent0,
                    clock.total - sampled0,
                )
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _laurent(self, fn, key):
        tracer = self
        clock = self.clock
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if tracer._in_laurent:
                return fn(*args, **kwargs)
            tracer._in_laurent = True
            sampled0 = clock.total
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.laurent_s += perf_counter() - start - (clock.total - sampled0)
                tracer._in_laurent = False

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- after-call hooks: counts read from arguments and results --------

    def _after_word_matrix(self, args, out):
        self.counts["matrices.word_matrix.letters"] += len(args[1])

    def _after_minimize(self, args, out):
        self.counts["complexes.summands_in"] += len(args[0].summands)
        self.counts["complexes.summands_out"] += len(out.summands)
        self.minimize_max = max(self.minimize_max, len(out.summands))

    def _after_outcome(self, args, out):
        if isinstance(out, Rejection):
            self.counts[f"criteria.rejected.{out.clause}"] += 1
        else:
            self.counts["criteria.certified"] += 1

    def _after_enumerate(self, args, out):
        self.counts["search.store_records"] += len(out)

    def _after_find_pairs(self, args, out):
        self.counts["search.pair_hits"] += len(out)

    def _after_confirm(self, args, out):
        if isinstance(out, KernelCertificate):
            self.counts["search.confirm_certificates"] += 1

    def _after_walk(self, args, out):
        self.counts["search.walk.candidates"] += len(out["candidates"])
        self.counts["search.walk.certificates"] += len(out["certificates"])

    # ---- install / uninstall ---------------------------------------------

    def _rebind(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if name != "burau" and not name.startswith("burau."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _set_attr(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        after = {
            "matrices.word_matrix": self._after_word_matrix,
            "complexes.minimize": self._after_minimize,
            "criteria.criterion1": self._after_outcome,
            "criteria.criterion2": self._after_outcome,
            "search.verify_bigelow3": self._after_outcome,
            "search.enumerate": self._after_enumerate,
            "search.find_pairs": self._after_find_pairs,
            "search.confirm": self._after_confirm,
            "search.walk": self._after_walk,
        }
        for modname, attr, span in FUNCTION_SPANS:
            mod = importlib.import_module(f"burau.{modname}")
            original = getattr(mod, attr)
            self._rebind(original, self._span(original, span, after.get(span)))
        for modname, cls, method, span in METHOD_SPANS:
            owner = getattr(importlib.import_module(f"burau.{modname}"), cls)
            self._set_attr(owner, method, self._span(owner.__dict__[method], span))

        for method in LAURENT_METHODS:
            key = f"laurent.{method.strip('_')}.calls"
            self._set_attr(
                LaurentPoly, method, self._laurent(LaurentPoly.__dict__[method], key)
            )
        for method in LAURENT_STATIC:
            fn = LaurentPoly.__dict__[method].__func__
            self._set_attr(
                LaurentPoly,
                method,
                staticmethod(self._laurent(fn, f"laurent.{method}.calls")),
            )
        self._set_attr(Elt, "__mul__", self._counted(Elt.__dict__["__mul__"], "zigzag.elt_mul.calls"))
        self._rebind(spread, self._counted(spread, "matrices.spread.calls"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- results ---------------------------------------------------------

    def _span_totals(self):
        """Per span name: calls, inclusive seconds, self seconds; plus the
        number of spans of each name whose parent has a given name."""
        calls: Counter = Counter()
        total = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        child_laurent = [0.0] * len(self.spans)
        for name, start, end, parent, laurent, sampled in self.spans:
            if parent >= 0:
                child_time[parent] += end - start - sampled
                child_laurent[parent] += laurent
        self_time = defaultdict(float)
        under = Counter()
        for sid, (name, start, end, parent, laurent, sampled) in enumerate(self.spans):
            duration = end - start - sampled
            calls[name] += 1
            total[name] += duration
            own_laurent = laurent - child_laurent[sid]
            self_time[name.split(".")[0]] += duration - child_time[sid] - own_laurent
            if parent >= 0:
                under[(name, self.spans[parent][0])] += 1
        return calls, total, self_time, under

    def metrics(self, walk_bands: int, scale: float) -> dict:
        """Per-layer numbers under the names BENCHMARK.json lists.

        `walk_bands` is the number of band matrices one bucket walk builds
        before its first step, so that the remaining `word_matrix` calls
        made directly by the walk count its restarts.  Every time is
        multiplied by `scale`, the traced pass's clock factor."""
        calls, total, self_time, under = self._span_totals()
        c = self.counts
        m: dict[str, tuple] = {}

        def count(name, value):
            m[name] = (value, "count")

        def secs(name, value):
            m[name] = (value * scale, "s")

        count("laurent.mul.calls", c["laurent.mul.calls"])
        count("laurent.add.calls", c["laurent.add.calls"])
        count("laurent.from_dict.calls", c["laurent.from_dict.calls"])
        secs("laurent.self_s", self.laurent_s)
        for name in ("pairing", "act", "word_matrix", "mat_mul"):
            count(f"matrices.{name}.calls", calls[f"matrices.{name}"])
            secs(f"matrices.{name}.s", total[f"matrices.{name}"])
        count("matrices.word_matrix.letters", c["matrices.word_matrix.letters"])
        count("matrices.spread.calls", c["matrices.spread.calls"])
        count("zigzag.elt_mul.calls", c["zigzag.elt_mul.calls"])
        count("complexes.apply_twist.calls", calls["complexes.apply_twist"])
        secs("complexes.apply_twist.s", total["complexes.apply_twist"])
        secs("complexes.minimize.s", total["complexes.minimize"])
        count("complexes.summands_in", c["complexes.summands_in"])
        count("complexes.summands_out", c["complexes.summands_out"])
        count("complexes.summands_max", self.minimize_max)
        count("complexes.hom_table.calls", calls["complexes.hom_table"])
        secs("complexes.hom_table.s", total["complexes.hom_table"])
        secs("garside.context.s", total["garside.context"])
        count("garside.nf_push.calls", calls["garside.nf_push"])
        secs("garside.nf_push.s", total["garside.nf_push"])
        count("garside.is_trivial_braid.calls", calls["garside.is_trivial_braid"])
        secs("garside.is_trivial_braid.s", total["garside.is_trivial_braid"])
        secs("garside.samecurve_check.s", total["garside.samecurve_check"])
        secs("criteria.criterion1.s", total["criteria.criterion1"])
        secs("criteria.seal.s", total["criteria.seal"])
        count("criteria.certified", c["criteria.certified"])
        for clause in REJECTION_CLAUSES:
            count(f"criteria.rejected.{clause}", c[f"criteria.rejected.{clause}"])
        secs("search.enumerate.s", total["search.enumerate"])
        count("search.store_records", c["search.store_records"])
        secs("search.find_pairs.s", total["search.find_pairs"])
        count("search.pairs_scanned", under[("matrices.pairing", "search.find_pairs")])
        hits = c["search.pair_hits"]
        count("search.pair_hits", hits)
        secs("search.confirm.s", total["search.confirm"])
        certs = c["search.confirm_certificates"]
        count("search.confirm_certificates", certs)
        m["search.confirm_yield"] = (certs / hits if hits else 0.0, "ratio")
        count("search.verify_bigelow3.calls", calls["search.verify_bigelow3"])
        secs("search.verify_bigelow3.s", total["search.verify_bigelow3"])
        secs("search.walk.s", total["search.walk"])
        direct = under[("matrices.word_matrix", "search.walk")]
        count("search.walk.restarts", max(direct - walk_bands * calls["search.walk"], 0))
        candidates = c["search.walk.candidates"]
        count("search.walk.candidates", candidates)
        m["search.walk.certified_share"] = (
            c["search.walk.certificates"] / candidates if candidates else 0.0,
            "ratio",
        )
        for layer in LAYERS:
            secs(f"{layer}.self_s", self_time[layer])
        count("trace.spans", len(self.spans))
        return m

    def write_spans(self, path) -> None:
        """One line per span: name, start, end, parent index (-1 at the
        root), with times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, _, _ in self.spans:
                fh.write(f"{name},{start - origin:.7f},{end - origin:.7f},{parent}\n")
