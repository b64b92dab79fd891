"""Span recorder for the traced benchmark run.

Timing comes from outside the program: `install` rebinds public
functions of the quadfactor modules to timing wrappers, and `uninstall`
puts the originals back.  This works because the modules call each
other through module attributes (`sieve.sieve_range`, `arith.factorize`)
or module globals (`sieve_primes` inside `sieve`), both of which read
the rebound attribute at call time.

A span has a name, a parent span, a start, an end and a busy time.  For
an ordinary call busy = end - start.  A generator gets one span whose
busy time is the sum of the intervals spent inside its `next()`, so each
item of a sieve stream costs two clock reads, not a span.  Parents are tracked per thread, so spans opened in pool worker
threads are roots and stay off the consumer's blocking path.  A span's
self time is its busy time minus the busy time of its children.
"""

import itertools
import threading
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "busy", "resumes")

    def __init__(self, sid, name, parent, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = None
        self.end = None
        self.busy = 0.0
        self.resumes = 0

    def add(self, t0, t1):
        if self.start is None:
            self.start = t0
        self.end = t1
        self.busy += t1 - t0
        self.resumes += 1

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        st = self._stack()
        span = Span(next(self._ids), name, st[-1].id if st else None,
                    threading.get_ident())
        self.spans.append(span)
        return span

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name, fn, args, kwargs):
        span = self.open(name)
        st = self._stack()
        st.append(span)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.add(t0, perf_counter())
            st.pop()

    def stream(self, span, gen):
        """Re-yield `gen`, charging the time inside each `next()` to `span`."""
        st = self._stack()
        items = 0
        try:
            while True:
                st.append(span)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span.add(t0, perf_counter())
                    st.pop()
                items += 1
                yield item
        finally:
            gen.close()
            self.count(span.name + ".items", items)

    def self_times(self):
        """Span id -> busy time minus the busy time of its children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.busy
        return {s.id: s.busy - child.get(s.id, 0.0) for s in self.spans}

    def subtree(self, root_id):
        """Ids of the spans under `root_id`, itself included."""
        kids = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s.id)
        out, todo = [], [root_id]
        while todo:
            sid = todo.pop()
            out.append(sid)
            todo.extend(kids.get(sid, ()))
        return out


# Module attributes that get a wrapper.  kind "call" opens a span per
# call, "gen" one span per generator, "count" only counts calls.  The
# hook, if any, turns (args, kwargs, result) into extra counters.
def _rootset_pairs(a, k, r):
    return {"sieve.root_pairs": sum(len(rs.roots) for rs in r)}


def _rho_counts(a, k, r):
    spec, x = a[0], a[1]
    return {"primitive.hits": r.checkpoints[-1][1],
            "primitive.prefix_terms": min(x, abs(spec.b))}


def _census_counts(a, k, r):
    spec, x = a[0], a[1]
    return {"primitive.hits": x - r.count,
            "primitive.prefix_terms": min(x, abs(spec.b))}


def _chebyshev_counts(a, k, r):
    return {"stats.distinct_primes": r.s + r.s_prime}


def _stormer_counts(a, k, r):
    return {"stormer.truncated_D": len(r.truncated_Ds),
            "stormer.solutions": len(r.solutions)}


PROBES = (
    ("cli", "main", "call", None),
    ("arith", "primes_upto", "call", None),
    ("arith", "factorize", "call", None),
    ("arith", "is_prime", "count", None),
    ("sieve", "sieve_primes", "call", _rootset_pairs),
    ("sieve", "sieve_range", "gen", None),
    ("primitive", "rho", "call", _rho_counts),
    ("primitive", "non_primitive_census", "call", _census_counts),
    ("stats", "chebyshev_report", "call", _chebyshev_counts),
    ("stormer", "stormer_search", "call", _stormer_counts),
    ("stormer", "enumerate_D", "call", lambda a, k, r: {"stormer.D": len(r)}),
    ("stormer", "pell_solutions_odd", "call",
     lambda a, k, r: {"stormer.chain_elements": len(r)}),
)


def _wrap(rec, name, kind, fn, hook):
    if kind == "count":
        def counted(*args, **kwargs):
            rec.count(name + ".calls")
            return fn(*args, **kwargs)
        return counted
    if kind == "gen":
        def traced_gen(*args, **kwargs):
            rec.count(name + ".calls")
            return rec.stream(rec.open(name), fn(*args, **kwargs))
        return traced_gen

    def traced(*args, **kwargs):
        rec.count(name + ".calls")
        result = rec.call(name, fn, args, kwargs)
        if hook is not None:
            for key, n in hook(args, kwargs, result).items():
                rec.count(key, n)
        return result
    return traced


def install(package, rec):
    """Rebind every probe; returns the (module, attr, original) list to restore."""
    saved = []
    for mod_name, attr, kind, hook in PROBES:
        mod = getattr(package, mod_name)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, _wrap(rec, f"{mod_name}.{attr}", kind, fn, hook))
    return saved


def uninstall(saved):
    """Restore the originals; returns the attributes that did not come back."""
    for mod, attr, fn in saved:
        setattr(mod, attr, fn)
    return [f"{mod.__name__}.{attr}" for mod, attr, fn in saved
            if getattr(mod, attr) is not fn]


def layer_metrics(rec, wall_s):
    """Per-layer metrics of one traced run whose `cli.main` took wall_s."""
    busy = {}
    for s in rec.spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.busy
    selfs = rec.self_times()
    self_by = {}
    for s in rec.spans:
        self_by[s.name] = self_by.get(s.name, 0.0) + selfs[s.id]
    c = rec.counters
    roots = [s for s in rec.spans if s.name == "cli.main"]
    blocking = sum(selfs[i] for r in roots for i in rec.subtree(r.id))
    elements = c.get("stormer.chain_elements", 0)
    return {
        "arith.primes_upto.s": busy.get("arith.primes_upto", 0.0),
        "arith.primes_upto.calls": c.get("arith.primes_upto.calls", 0),
        "arith.factorize.s": busy.get("arith.factorize", 0.0),
        "arith.factorize.calls": c.get("arith.factorize.calls", 0),
        "arith.is_prime.calls": c.get("arith.is_prime.calls", 0),
        "sieve.sieve_primes.s": busy.get("sieve.sieve_primes", 0.0),
        "sieve.root_pairs": c.get("sieve.root_pairs", 0),
        "sieve.sieve_range.s": busy.get("sieve.sieve_range", 0.0),
        "sieve.terms": c.get("sieve.sieve_range.items", 0),
        "sieve.kernel.s": busy.get("sieve.sieve_range", 0.0) - busy.get("sieve.sieve_primes", 0.0),
        "primitive.classify.self_s": (self_by.get("primitive.rho", 0.0)
                                      + self_by.get("primitive.non_primitive_census", 0.0)),
        "primitive.hits": c.get("primitive.hits", 0),
        "primitive.prefix_terms": c.get("primitive.prefix_terms", 0),
        "stats.chebyshev.self_s": self_by.get("stats.chebyshev_report", 0.0),
        "stats.distinct_primes": c.get("stats.distinct_primes", 0),
        "stormer.enumerate_D.s": busy.get("stormer.enumerate_D", 0.0),
        "stormer.D": c.get("stormer.D", 0),
        "stormer.pell_solutions_odd.s": busy.get("stormer.pell_solutions_odd", 0.0),
        "stormer.chains": c.get("stormer.pell_solutions_odd.calls", 0),
        "stormer.chain_elements": elements,
        "stormer.search.self_s": self_by.get("stormer.stormer_search", 0.0),
        "stormer.truncated_D": c.get("stormer.truncated_D", 0),
        "stormer.useful_ratio": c.get("stormer.solutions", 0) / elements if elements else 0.0,
        "cli.self_s": self_by.get("cli.main", 0.0),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": blocking,
    }
