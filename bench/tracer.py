"""Spans around cohdual's public functions, recorded from outside the package.

A :class:`Tracer` replaces each traced function in every cohdual namespace
that binds it (``ring_act`` is imported by name into five modules, and
``Element.from_terms`` is wrapped on the class), so calls made inside the
package are seen as well as calls made by the CLI.  Every call becomes a
span (name, start, end, parent) held in flat arrays; nothing is written
until :meth:`Tracer.dump`.  Self time, computed by :class:`LayerTotals`, is a
span's duration minus the durations of its direct children; calls on one
thread nest, so the children never overlap.

Counters are recorded at the same boundaries: output terms of the products,
matrix entries and columns handed to the rank routines, document bytes,
inconclusive certificate windows, ``Fp`` constructions, and the hit and
miss counts of the Čech dimension cache.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

# check function -> the name its CheckLine carries
CHECK_LINES = {
    "realization_sweep": "realization-window-sweep",
    "delta_formula": "profile-of-the-d-family",
    "independence_trials": "independence-random-combinations",
    "perfection_and_surjectivity": "pairing-perfection-and-surjectivity",
    "balance_trials": "pairing-balance",
    "regularity_sweep": "regular-sequence-on-dual",
    "leibniz_weyl_trials": "leibniz-and-weyl",
    "separation_pairs": "profile-separation",
    "roundtrip_trials": "expression-document-roundtrip",
}

CLI_COMMANDS = ("cohomology", "dfam", "delta", "act", "derive", "pair",
                "gamma", "regular", "check", "indep")

_MODULES = ("algebra", "fields", "linalg", "cech", "duality", "independence",
            "exprio", "checks", "cli")


def _terms_out(args, result):
    return len(result.terms)


def _matrix_entries(args, result):
    return sum(len(row) for row in args[0])


def _column_count(args, result):
    return len(args[0])


def _payload_bytes(args, result):
    return len(result)


def _file_bytes(args, result):
    return Path(args[0]).stat().st_size


# (module, function, size counter) for every function that gets a span
SPANNED = (
    ("algebra", "ring_act", ("terms_out", _terms_out)),
    ("algebra", "linear_combine", None),
    ("algebra", "derivation_act", None),
    ("duality", "matlis_pair", ("terms_out", _terms_out)),
    ("duality", "pairing_perfection_check", None),
    ("duality", "regular_on_dual_check", None),
    ("linalg", "integer_rank", ("entries", _matrix_entries)),
    ("linalg", "sparse_column_rank", ("columns", _column_count)),
    ("cech", "build_degree_piece", None),
    ("cech", "cech_dims_at_degree", None),
    ("cech", "verify_realization", None),
    ("independence", "independence_certificate", None),
    ("independence", "make_d", None),
    ("independence", "delta", None),
    ("independence", "shift_equiv_window", None),
    ("independence", "fit_shift_form", None),
    ("exprio", "write_document", ("bytes", _payload_bytes)),
    ("exprio", "parse_element", None),
    ("exprio", "serialize_element", None),
    ("exprio", "read_document", ("bytes", _file_bytes)),
    ("exprio", "element_to_document", None),
    ("exprio", "element_from_document", None),
    ("cli", "main", None),
)


class Tracer:
    """Span recorder; :meth:`install` wraps cohdual, :meth:`uninstall` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, size=None, error=None):
        """Return fn wrapped so that each call records one span.

        ``size`` is (stat, measure(args, result)) and adds to the counter
        ``name.stat``; ``error`` is (counter, exception type) and counts the
        calls that raise it.
        """
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        size_key, measure = (f"{name}.{size[0]}", size[1]) if size else (None, None)
        error_key, error_type = error if error else (None, ())

        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                counts[error_key] = counts.get(error_key, 0) + 1
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if measure is not None:
                counts[size_key] = counts.get(size_key, 0) + measure(args, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced functions in every cohdual module that binds them."""
        mods = {m: importlib.import_module(f"cohdual.{m}") for m in _MODULES}
        swap = {}
        for module, func, size in SPANNED:
            original = getattr(mods[module], func)
            error = None
            if func == "independence_certificate":
                error = ("independence.inconclusive",
                         mods["independence"].InconclusiveWindowError)
            swap[id(original)] = (original,
                                  self.wrap(f"{module}.{func}", original, size, error))
        for mod in [*mods.values(), importlib.import_module("cohdual")]:
            for attr, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])

        algebra, fields, checks = mods["algebra"], mods["fields"], mods["checks"]
        from_terms = algebra.Element.__dict__["from_terms"].__func__
        self._replace(algebra.Element, "from_terms", classmethod(
            self.wrap("algebra.Element.from_terms", from_terms)))

        counts = self.counts
        fp_init = fields.Fp.__init__

        def counted_init(obj, value, p):
            counts["fields.Fp.new"] = counts.get("fields.Fp.new", 0) + 1
            fp_init(obj, value, p)

        self._replace(fields.Fp, "__init__", counted_init)

        # run_suite calls the checks through these tables, not the module names
        wrapped = {fn: self.wrap(f"checks.{CHECK_LINES[fn.__name__]}", fn)
                   for fn, _ in checks._CRITERIA}
        self._replace(checks, "_CRITERIA", tuple(
            (wrapped[fn], seeded) for fn, seeded in checks._CRITERIA))
        self._replace(checks, "_SEEDED", {wrapped[fn] for fn in checks._SEEDED})
        self._replace(checks, "SUITES", {
            name: tuple(wrapped[fn] for fn in fns)
            for name, fns in checks.SUITES.items()})
        self._dims_cache = mods["cech"]._dims_by_signs
        self._cache_base = self._dims_cache.cache_info()

    def uninstall(self):
        """Put back every attribute :meth:`install` replaced and read the cache."""
        info = self._dims_cache.cache_info()
        for key, now, before in (("hits", info.hits, self._cache_base.hits),
                                 ("misses", info.misses, self._cache_base.misses)):
            name = f"cech.dims_cache.{key}"
            self.counts[name] = self.counts.get(name, 0) + now - before
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        """Write the spans and counters: a JSON header line, then the arrays."""
        header = {"names": self.names, "spans": len(self.start), "counts": self.counts}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(out)


def load(path):
    """Read a file written by :meth:`Tracer.dump` back into a Tracer."""
    tracer = Tracer()
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        n = header["spans"]
        for column in (tracer.kind, tracer.parent, tracer.start, tracer.end):
            column.fromfile(src, n)
    tracer.names = header["names"]
    tracer.counts = header["counts"]
    return tracer


class LayerTotals:
    """Calls, self time and total time per span name, summed over traces."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, tracer: Tracer) -> None:
        names = tracer.names
        kind, parent, start, end = tracer.kind, tracer.parent, tracer.start, tracer.end
        own = [e - s for s, e in zip(start, end)]
        dur = list(own)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        for i, k in enumerate(kind):
            name = names[k]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own[i]
            self.total_s[name] = self.total_s.get(name, 0.0) + dur[i]
        for key, value in tracer.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def value(self, metric: str) -> float:
        """Look up a per-layer metric named ``<span>.calls|self_s|s`` or a counter."""
        if metric == "cech.dims_cache.hit_ratio":
            hits = self.counts.get("cech.dims_cache.hits", 0)
            looked = hits + self.counts.get("cech.dims_cache.misses", 0)
            return hits / looked if looked else 0.0
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            return self.calls.get(span, 0)
        if stat == "self_s":
            return self.self_s.get(span, 0.0)
        if stat == "s":
            return self.total_s.get(span, 0.0)
        return self.counts.get(metric, 0)
