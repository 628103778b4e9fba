"""Per-layer tracing from outside the library.

The tracer wraps nearvec's public functions and methods with span and
count wrappers for the length of a traced pass, then puts the originals
back.  A span records its name, start, end and parent; spans stay in
memory and are summarised when the pass ends.  Counts are deterministic
for a given op list, so they can be compared exactly between runs.
"""

import functools
import inspect
import itertools
import statistics
from collections import Counter
from time import perf_counter

# (module, attribute, span name, optional (count name, size of result))
SPANS = (
    ("finite_field", "Field.op_tables", "finite_field.op_tables", None),
    ("finite_field", "Field._build_tables", "finite_field.build_tables", None),
    ("finite_field", "Field.pow_table", "finite_field.pow_table", None),
    ("space", "TwistedSpace.__init__", "space.construct", None),
    ("space", "TwistedSpace.quasi_kernel", "space.quasi_kernel", None),
    ("space", "quasi_kernel_bruteforce", "space.quasi_kernel_bruteforce", None),
    ("space", "check_axioms", "space.check_axioms", None),
    ("span", "span_of", "span.span_of", ("span.span_members", lambda r: len(r.members))),
    ("span", "linear_combinations", "span.linear_combinations", ("span.closure_members", len)),
    ("span", "subspace_closure_oracle", "span.subspace_closure_oracle",
     ("span.closure_members", len)),
    ("span", "dim_of_vector", "span.dim_of_vector", None),
    ("span", "extract_basis", "span.extract_basis", None),
    ("span", "coordinates_in_independent_set", "span.coordinates_in_independent_set", None),
    ("structure", "is_regular", "structure.is_regular",
     ("structure.is_regular.pairs", lambda r: r.pairs_checked)),
    ("structure", "regularity_equivalences", "structure.regularity_equivalences", None),
    ("structure", "decompose", "structure.decompose", None),
    ("structure", "induced_addition", "structure.induced_addition", None),
    ("structure", "maximality_witness", "structure.maximality_witness", None),
    ("near_field", "check_axioms", "near_field.check_axioms", None),
    ("verify", "axioms_suite", "verify.axioms", None),
    ("verify", "vstheorem_suite", "verify.vstheorem", None),
    ("verify", "keylemma_suite", "verify.keylemma", None),
    ("verify", "span_oracle_suite", "verify.span-oracle", None),
    ("verify", "decomposition_suite", "verify.decomposition", None),
    ("verify", "quasi_kernel_oracle_suite", "verify.quasi-kernel-oracle", None),
    ("cli", "cmd_info", "cli.info", None),
    ("cli", "cmd_qk", "cli.qk", None),
    ("cli", "cmd_decompose", "cli.decompose", None),
    ("cli", "cmd_span", "cli.span", None),
    ("cli", "cmd_dim", "cli.dim", None),
    ("cli", "cmd_hom", "cli.hom", None),
    ("cli", "emit", "cli.emit", None),
)

# count-only wrappers, for methods called too often to afford a span
COUNTERS = (
    ("finite_field", "Field.add", "finite_field.arith.calls"),
    ("finite_field", "Field.mul", "finite_field.arith.calls"),
    ("finite_field", "Field.pow", "finite_field.arith.calls"),
    ("finite_field", "Field.inv", "finite_field.arith.calls"),
    ("finite_field", "Field.neg", "finite_field.arith.calls"),
    ("space", "TwistedSpace.add", "space.add.calls"),
    ("space", "TwistedSpace.scalar_mul", "space.scalar_mul.calls"),
)

# counts that must repeat exactly between two traced passes of one op list
REPEATABLE = (
    "space.add.calls",
    "span.closure_members",
    "structure.is_regular.pairs",
    "finite_field.table_builds",
)


def _fixed_arity(fn):
    """The positional parameter count of a function that takes nothing
    else (no defaults, *args, **kwargs or keyword-only parameters)."""
    code = fn.__code__
    if fn.__defaults__ or code.co_kwonlyargcount:
        return None
    if code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS):
        return None
    return code.co_argcount


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, nested in same name)
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._active = Counter()
        self._undo = []
        self._tickers = []

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn, measure):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            nested = active[name] > 0
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, nested)
            if measure is not None:
                counts[measure[0]] += measure[1](result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        # an itertools.count per wrapper and a fixed arity keep the cost
        # per call at about a third of a generic *args wrapper
        ticker = itertools.count()
        self._tickers.append((name, ticker))
        tick = ticker.__next__
        arity = _fixed_arity(fn)
        if arity == 2:
            def wrapper(a, b):
                tick()
                return fn(a, b)
        elif arity == 3:
            def wrapper(a, b, c):
                tick()
                return fn(a, b, c)
        else:
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _collect_ticks(self):
        for name, ticker in self._tickers:
            # next() on a count returns how many calls it has seen so far
            self.counts[name] += next(ticker)
        self._tickers.clear()

    # -- patching -------------------------------------------------------

    def install(self, nv):
        """Patch every hook; a function re-bound by ``from .x import y``
        in another nearvec module is patched there too."""
        modules = [getattr(nv, m) for m in nv.MODULES]
        for mod_name, attr, name, measure in SPANS:
            self._patch(nv, mod_name, attr, modules,
                        lambda fn, name=name, measure=measure:
                        self._span_wrapper(name, fn, measure))
        for mod_name, attr, name in COUNTERS:
            self._patch(nv, mod_name, attr, modules,
                        lambda fn, name=name: self._count_wrapper(name, fn))

    def _patch(self, nv, mod_name, attr, modules, make):
        owner = getattr(nv, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                return
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{mod_name}.{attr}")
            return
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
        self._collect_ticks()

    # -- summary ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer seconds, self seconds, call counts and counters."""
        total = Counter()
        own = Counter()
        calls = Counter()
        durations = {}
        for name, start, end, parent, nested in self.spans:
            d = end - start
            calls[name] += 1
            own[name] += d
            durations.setdefault(name, []).append(d)
            if not nested:
                total[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        out = {}
        for name in calls:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.p50_ms"] = statistics.median(durations[name]) * 1000
        out.update(self.counts)
        out["finite_field.table_builds"] = calls["finite_field.build_tables"]
        return out

    def repeatable_counts(self):
        metrics = self.layer_metrics()
        return {k: metrics.get(k, 0) for k in REPEATABLE}
