"""Span tracing of the sigtorus layers, installed from outside the package.

Each traced function is replaced by a wrapper at every place it is bound:
``from .links import signature_nullity`` in ``verify`` and ``cli`` copies the
name at import time, so patching ``links`` alone would miss those callers.
Methods and constructors are patched on their class, which every caller goes
through.  A span is (name, start, end, parent span, request id); spans stay
in memory while ``recording`` is set and are written out once, at the end of
the run.
"""

import functools
import json
import sys
import time

# (span name, module, attribute path).  Span names are "<module>.<function>".
TARGETS = (
    ("hermitian.inertia", "hermitian", "inertia"),
    ("hermitian.jacobi_eigenvalues", "hermitian", "jacobi_eigenvalues"),
    ("hermitian.HermitianMatrix", "hermitian", "HermitianMatrix.__init__"),
    ("hermitian.integer_inertia", "hermitian", "integer_inertia"),
    ("angles.TorusPoint", "angles", "TorusPoint.__init__"),
    ("links.load_link", "links", "load_link"),
    ("links.assemble_form_raw", "links", "assemble_form_raw"),
    ("links.signature_nullity", "links", "signature_nullity"),
    ("laurent.LaurentPoly.eval_with_scale", "laurent", "LaurentPoly.eval_with_scale"),
    ("laurent.RationalFunction.derivative", "laurent", "RationalFunction.derivative"),
    ("corrections.signature_jump", "corrections", "signature_jump"),
    ("slope.slope", "slope", "slope"),
    ("slope.torres_generic", "slope", "torres_generic"),
    ("verify.directional_limit", "verify", "directional_limit"),
    ("verify.verify_3d", "verify", "verify_3d"),
    ("verify.verify_4d", "verify", "verify_4d"),
    ("verify.predict_torres", "verify", "predict_torres"),
    ("verify.verify_corner_limits", "verify", "verify_corner_limits"),
    ("verify.verify_lt", "verify", "verify_lt"),
    ("verify.verify_multi_lt", "verify", "verify_multi_lt"),
    ("cli.main", "cli", "main"),
)


def _matrix_n(h, *args, **kwargs):
    return len(getattr(h, "entries", h))


def _limit_key(link, rest, side="plus", *args, **kwargs):
    return id(link), tuple(rest), side


def _point_key(link, point, *args, **kwargs):
    return id(link), tuple(point)


# Extra counters: work_n3 sums n^3 over calls; unique_ratio is the number of
# distinct (link, point[, side]) inputs within a request over the calls.
WORK = {"hermitian.inertia": _matrix_n}
KEYS = {"verify.directional_limit": _limit_key,
        "links.signature_nullity": _point_key}

# The per-layer metrics reported, by span name.
REPORTED = {name: ("calls", "self_s") for name, _, _ in TARGETS}
REPORTED["hermitian.inertia"] += ("work_n3",)
REPORTED["verify.directional_limit"] += ("unique_ratio",)
REPORTED["links.signature_nullity"] += ("unique_ratio",)
REPORTED["slope.slope"] += ("raised",)
REPORTED["cli.main"] = ("self_s",)

UNITS = {"calls": "count", "self_s": "s", "work_n3": "count",
         "unique_ratio": "ratio", "raised": "count"}

# Counters that must repeat exactly between two traced runs of one seed.
EXACT = ("calls", "work_n3", "unique_ratio", "raised")


def metric_names():
    return ["%s.%s" % (name, stat) for name, stats in REPORTED.items() for stat in stats]


class _Stats:
    __slots__ = ("calls", "self_s", "raised", "work", "keys")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.work = 0
        self.keys = set()


class Tracer:
    """Spans and per-layer counters for one process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, request id]
        self.stack = []   # [span index, time covered by child spans]
        self.request = 0
        self.recording = True  # keep spans (the counters are kept regardless)
        self.sites = []   # (owner, attribute, original, wrapper)
        self.stats = {name: _Stats() for name, _, _ in TARGETS}

    def install(self):
        """Wrap every target at every binding site in the loaded sigtorus.

        The first call builds the wrappers; later calls put them back after
        ``uninstall``.
        """
        if not self.sites:
            self._find_sites()
        for owner, attr, _, wrapped in self.sites:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)

    def _find_sites(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sigtorus" or name.startswith("sigtorus."))]
        for span, module, path in TARGETS:
            owner = sys.modules["sigtorus." + module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            if cls_path:
                self.sites.append((owner, attr, original, wrapped))
                continue
            found = [(mod, key, original, wrapped) for mod in modules
                     for key, value in vars(mod).items() if value is original]
            if not found:
                raise RuntimeError("no binding site found for %s" % span)
            self.sites.extend(found)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        work = WORK.get(name)
        key = KEYS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if work is not None:
                stats.work += work(*args, **kwargs) ** 3
            if key is not None:
                stats.keys.add((tracer.request,) + key(*args, **kwargs))
            span = [name, 0.0, 0.0, stack[-1][0] if stack else None, tracer.request]
            frame = [len(spans), 0.0]
            if tracer.recording:
                spans.append(span)
            stack.append(frame)
            span[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                span[2] = end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return functools.update_wrapper(wrapper, fn)

    def begin_pass(self):
        for stats in self.stats.values():
            stats.reset()

    def pass_metrics(self):
        """The per-layer values of the pass since ``begin_pass``."""
        out = {}
        for name, wanted in REPORTED.items():
            stats = self.stats[name]
            values = {"calls": stats.calls, "self_s": stats.self_s,
                      "work_n3": stats.work, "raised": stats.raised,
                      "unique_ratio": (len(stats.keys) / stats.calls
                                       if stats.calls else 0.0)}
            for stat in wanted:
                out["%s.%s" % (name, stat)] = values[stat]
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
