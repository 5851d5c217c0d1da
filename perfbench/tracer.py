"""Per-layer tracing of klr from outside the library.

The tracer replaces entry points of each klr layer (class attributes and
module globals, in every klr module that holds the same object) with
wrappers that time the call, and restores the originals afterwards.  Layers
are the package modules; ``cartan`` and ``sequences`` are small helpers
whose time counts as self time of the layer that calls them.  Constructors
and accessors (``LaurentPoly(...)``, ``is_zero``, ``q_power``) are not
wrapped either: their time is self time of the caller.

Spans are aggregated per (name, parent name) as [calls, total s, self s],
because leaf spans run into the millions (~500k ``LaurentPoly.__mul__``
calls per 1 000 pairings).  Self time is the span's duration minus the
durations of its child spans, so the self times of all spans plus the
root's own self time add up to the root's duration exactly.
"""

from __future__ import annotations

import math
import sys
import time

ROOT_SPAN = "bench"

# (module, attribute path, span name).  A span name is "<layer>.<entry>";
# two attributes may share a name (``__mul__`` and its alias ``__rmul__``).
TARGETS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul"),
    ("laurent", "LaurentPoly.exact_div", "laurent.exact_div"),
    ("laurent", "LaurentPoly.__add__", "laurent.add"),
    ("laurent", "LaurentPoly.__radd__", "laurent.add"),
    ("laurent", "LaurentPoly.__sub__", "laurent.sub"),
    ("laurent", "LaurentPoly.__rsub__", "laurent.sub"),
    ("laurent", "LaurentPoly.__neg__", "laurent.neg"),
    ("laurent", "LaurentPoly.__eq__", "laurent.eq"),
    ("laurent", "LaurentPoly.__pow__", "laurent.pow"),
    ("laurent", "LaurentPoly.bar", "laurent.bar"),
    ("laurent", "LaurentPoly.truncate", "laurent.truncate"),
    ("laurent", "qint", "laurent.qint"),
    ("laurent", "qfact", "laurent.qfact"),
    ("laurent", "qbinom", "laurent.qbinom"),
    ("gdim", "GradedDim.__add__", "gdim.add"),
    ("gdim", "GradedDim.__sub__", "gdim.sub"),
    ("gdim", "GradedDim.__neg__", "gdim.neg"),
    ("gdim", "GradedDim.__mul__", "gdim.mul"),
    ("gdim", "GradedDim.__rmul__", "gdim.mul"),
    ("gdim", "GradedDim.__eq__", "gdim.eq"),
    ("gdim", "GradedDim.reduced", "gdim.reduced"),
    ("gdim", "GradedDim.divide_poly", "gdim.divide_poly"),
    ("gdim", "GradedDim.bar", "gdim.bar"),
    ("gdim", "GradedDim.series", "gdim.series"),
    ("permutations", "canonical_word", "permutations.canonical_word"),
    ("permutations", "identity", "permutations.identity"),
    ("permutations", "inverse", "permutations.inverse"),
    ("permutations", "inversions", "permutations.inversions"),
    ("permutations", "left_mult_letter", "permutations.left_mult_letter"),
    ("permutations", "word_to_perm", "permutations.word_to_perm"),
    ("permutations", "apply_perm_to_seq", "permutations.apply_perm_to_seq"),
    ("permutations", "apply_word_to_seq", "permutations.apply_word_to_seq"),
    ("permutations", "all_permutations", "permutations.all_permutations"),
    ("permutations", "block_sum", "permutations.block_sum"),
    ("permutations", "longest_element", "permutations.longest_element"),
    ("elements", "KLRRing.__init__", "elements.ring_init"),
    ("elements", "KLRRing.multiply", "elements.multiply"),
    ("elements", "KLRRing.evaluate_word", "elements.evaluate_word"),
    ("elements", "KLRRing.gdim_hom", "elements.gdim_hom"),
    ("elements", "KLRRing.nilhecke_em", "elements.nilhecke_em"),
    ("elements", "KLRRing.juxtapose", "elements.juxtapose"),
    ("elements", "KLRRing.psi", "elements.psi"),
    ("elements", "KLRRing.sigma", "elements.sigma"),
    ("elements", "KLRRing._cross", "elements.cross"),
    ("elements", "KLRRing._dot", "elements.dot"),
    ("elements", "KLRElement.__add__", "elements.element_add"),
    ("elements", "KLRElement.__sub__", "elements.element_sub"),
    ("elements", "KLRElement.__eq__", "elements.element_eq"),
    ("elements", "KLRElement.degree", "elements.degree"),
    ("elements", "diagram_degree", "elements.diagram_degree"),
    ("polyrep", "act", "polyrep.act"),
    ("polyrep", "act_word", "polyrep.act_word"),
    ("polyrep", "default_orientation", "polyrep.default_orientation"),
    ("characters", "pair_monomials", "characters.pair_monomials"),
    ("characters", "pair_recursive", "characters.pair_recursive"),
    ("characters", "_pair_plain", "characters.pair_plain"),
    ("characters", "comultiply", "characters.comultiply"),
    ("characters", "tight", "characters.tight"),
    ("characters", "char_projective", "characters.char_projective"),
    ("quotients", "quotient_gdim", "quotients.quotient_gdim"),
    ("quotients", "graded_basis", "quotients.graded_basis"),
    ("quotients", "ideal_degree_dim", "quotients.ideal_degree_dim"),
    ("quotients", "_rank", "quotients.rank"),
    ("quotients", "sym_plus_spec", "quotients.sym_plus_spec"),
    ("quotients", "cyclotomic_spec", "quotients.cyclotomic_spec"),
    ("cli", "main", "cli.main"),
]

LAYERS = ("laurent", "gdim", "permutations", "elements", "polyrep",
          "characters", "quotients", "cli")

# Per-layer metrics: (metric name, unit).  ``<span>.calls`` and
# ``<span>.self_s`` come straight from the spans; the rest are derived in
# Tracer.metrics.
SPAN_METRICS = [
    "laurent.mul", "laurent.exact_div",
    "gdim.add", "gdim.mul", "gdim.eq", "gdim.reduced",
    "elements.gdim_hom", "elements.multiply", "elements.evaluate_word",
    "elements.cross", "elements.dot",
    "permutations.canonical_word",
    "characters.pair_monomials", "characters.pair_recursive",
    "characters.pair_plain", "characters.comultiply", "characters.tight",
    "quotients.quotient_gdim", "quotients.graded_basis",
    "quotients.ideal_degree_dim", "quotients.rank",
    "polyrep.act", "polyrep.act_word",
    "cli.main",
]
DERIVED_METRICS = [
    ("elements.gdim_hom.perms_scanned", "count"),
    ("elements.gdim_hom.match_ratio", "1"),
    ("elements.multiply.terms_out", "count"),
    ("elements.cross.hit_ratio", "1"),
    ("elements.dot.hit_ratio", "1"),
    ("elements.cache_entries", "count"),
    ("characters.pair_plain.distinct_ratio", "1"),
    ("characters.comultiply.terms", "count"),
    ("quotients.graded_basis.keys", "count"),
    ("quotients.rank.rows", "count"),
    ("quotients.rank.cols", "count"),
    ("quotients.rank.useful_ratio", "1"),
]
TOTAL_METRICS = ([(f"layer.{layer}.self_s", "s") for layer in LAYERS]
                 + [("bench.self_s", "s"), ("trace.run_s", "s"),
                    ("trace.overhead_ratio", "1")])


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span in SPAN_METRICS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return out + DERIVED_METRICS + TOTAL_METRICS


def klr_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "klr" or name.startswith("klr."))]


def _resolve(module, path):
    """(owner, attribute, original) for a target, or None if it is absent."""
    owner = sys.modules[f"klr.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if classes:
        original = owner.__dict__.get(attr)  # the class's own attribute
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _ratio(num, den):
    return num / den if den else 0.0


def _cache_sizes(ring):
    return {name: len(value) for name, value in vars(ring).items()
            if name.endswith("_cache") and isinstance(value, dict)}


class Tracer:
    """Wraps klr entry points while installed; one instance per traced pass."""

    def __init__(self):
        self.root = [ROOT_SPAN, 0.0]  # [name, time covered by child spans]
        self.stack = [self.root]
        self.stats = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.count = {}
        self.pair_plain_args = set()
        self.rings = {}  # id -> (ring, cache sizes when first seen)
        self.patches = []  # (owner, attribute, original)
        self.missing = []
        self.broken_observers = set()
        self.run_s = None

    # -- observers: counts taken at the layer boundary ---------------------

    def _add(self, key, n):
        self.count[key] = self.count.get(key, 0) + n

    def _observe(self, name, args, result):
        if name == "elements.gdim_hom":
            self._add("perms_scanned", math.factorial(len(args[2])))
            self._add("matches", sum(result.num.coeffs.values()))
        elif name == "elements.multiply":
            self._add("terms_out", len(result.terms))
        elif name == "elements.ring_init":
            self.watch(args[0])
        elif name == "characters.pair_plain":
            self.pair_plain_args.add((args[1], args[2]))
        elif name == "characters.comultiply":
            self._add("comultiply_terms", len(result))
        elif name == "quotients.graded_basis":
            self._add("basis_keys", len(result))
        elif name == "quotients.rank":
            rows = args[0]
            self._add("rank_rows", len(rows))
            self._add("rank_cols", len(rows[0]) if rows else 0)
            self._add("rank", result)

    OBSERVED = frozenset([
        "elements.gdim_hom", "elements.multiply", "elements.ring_init",
        "characters.pair_plain", "characters.comultiply",
        "quotients.graded_basis", "quotients.rank"])

    def watch(self, ring):
        """Count cache growth of a ring from now on."""
        if id(ring) not in self.rings:
            self.rings[id(ring)] = (ring, _cache_sizes(ring))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name):
        stack, stats, clock = self.stack, self.stats, time.perf_counter
        observe = self._observe if name in self.OBSERVED else None
        broken = self.broken_observers

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    # an observer that no longer fits the library loses its
                    # count, and the pass goes on; faults() reports it
                    try:
                        observe(name, args, result)
                    except Exception:
                        broken.add(name)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                rec = stats.get((name, parent[0]))
                if rec is None:
                    stats[(name, parent[0])] = [1, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.perfbench_span = name
        return traced

    def install(self):
        modules = klr_modules()
        for module, path, name in TARGETS:
            if f"klr.{module}" not in sys.modules:
                continue  # the workload never imported it, so nothing calls it
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # a module function: patch every klr module that imported it by name
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def restored(self):
        """True iff every patched attribute is the original object again
        and no wrapper is left anywhere in klr."""
        for owner, attr, original in self.patches:
            if owner.__dict__.get(attr) is not original:
                return False
        for mod in klr_modules():
            for value in vars(mod).values():
                if hasattr(value, "perfbench_span"):
                    return False
                if isinstance(value, type) and any(
                        hasattr(v, "perfbench_span")
                        for v in vars(value).values()):
                    return False
        return True

    def faults(self):
        """Why the traced figures cannot be trusted; empty if they can.

        A target that is not found or an observer that failed would make
        its figures read 0 while the pass itself still passes.
        """
        out = [f"not found: {target}" for target in self.missing]
        out += [f"observer failed: {name}"
                for name in sorted(self.broken_observers)]
        if not self.restored():
            out.append("klr not restored")
        total, run_s = self.accounted()
        if abs(total - run_s) > 1e-6 * max(run_s, 1.0):
            out.append(f"self times add up to {total} s, not {run_s} s")
        return out

    def run(self, fn):
        """Run fn() as the root span with the wrappers installed."""
        self.install()
        start = time.perf_counter()
        try:
            fn()
        finally:
            self.run_s = time.perf_counter() - start
            self.uninstall()

    # -- metrics -------------------------------------------------------------

    def span_totals(self):
        """name -> [calls, total_s, self_s], summed over parents."""
        out = {}
        for (name, _), (calls, total, own) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def bench_self_s(self):
        return self.run_s - self.root[1]

    def metrics(self):
        """Every per-layer metric except trace.overhead_ratio, by name."""
        spans = self.span_totals()
        c = self.count.get
        out = {}
        for span in SPAN_METRICS:
            calls, _, own = spans.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = own
        misses = {"_cross_cache": 0, "_dot_cache": 0}
        entries = 0
        for ring, before in self.rings.values():
            after = _cache_sizes(ring)
            entries += sum(after.values())
            for cache in misses:
                misses[cache] += after.get(cache, 0) - before.get(cache, 0)
        cross = spans.get("elements.cross", (0,))[0]
        dot = spans.get("elements.dot", (0,))[0]
        pair_plain = spans.get("characters.pair_plain", (0,))[0]
        out.update({
            "elements.gdim_hom.perms_scanned": c("perms_scanned", 0),
            "elements.gdim_hom.match_ratio": _ratio(c("matches", 0),
                                                    c("perms_scanned", 0)),
            "elements.multiply.terms_out": c("terms_out", 0),
            "elements.cross.hit_ratio": (
                1 - _ratio(misses["_cross_cache"], cross) if cross else 0.0),
            "elements.dot.hit_ratio": (
                1 - _ratio(misses["_dot_cache"], dot) if dot else 0.0),
            "elements.cache_entries": entries,
            "characters.pair_plain.distinct_ratio": _ratio(
                len(self.pair_plain_args), pair_plain),
            "characters.comultiply.terms": c("comultiply_terms", 0),
            "quotients.graded_basis.keys": c("basis_keys", 0),
            "quotients.rank.rows": c("rank_rows", 0),
            "quotients.rank.cols": c("rank_cols", 0),
            "quotients.rank.useful_ratio": _ratio(c("rank", 0),
                                                  c("rank_rows", 0)),
        })
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                own for name, (_, _, own) in spans.items()
                if name.split(".", 1)[0] == layer)
        out["bench.self_s"] = self.bench_self_s()
        out["trace.run_s"] = self.run_s
        return out

    def accounted(self):
        """Self times of all spans plus the root's own time, against run_s."""
        total = sum(own for _, _, own in self.stats.values())
        return total + self.bench_self_s(), self.run_s

    def table(self):
        """The aggregated spans, for writing out."""
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own)
                in sorted(self.stats.items(), key=lambda kv: -kv[1][2])]
