"""Outside-in layer trace of the resultant drivers.

The tracer replaces public functions where the drivers look them up
(module attributes of macres.macaulay.assembly and macres.bezoutian,
methods of MacaulayAssembly and ParamPoly) by wrappers that record a
span per call: name, start, end, parent span and the index of the
resultant call it belongs to.  Spans stay in memory until the run ends.
No private helper of macres is wrapped.

Each determinant is named after the matrix it is taken of: the
assembled matrix M, its extraneous submatrix, or one of the two side
minors E and E_dual.  Work on any system other than the first one a
resultant call assembles (permuted systems and sign-calibration
probes) counts as fallback.
"""

import gzip
import json
import time

from macres.corering import ParamPoly
import macres.bezoutian as bezoutian_module
import macres.macaulay.assembly as assembly_module

# Index-set functions of macres.combinat, wrapped in the assembly
# module's namespace, where the assembly and sign code call them.
COMBINAT = ("critical_degree", "et_rows", "etj_basis", "minimal_t",
            "monomial_basis", "rho_size", "stj_basis")

DET_NAMES = {"M": "linalg.det_m", "extraneous": "linalg.det_extraneous",
             "side": "linalg.det_sides"}

# (metric, unit) in report order; counts and times are per resultant call
PER_LAYER = [
    ("bezoutian.calls", "count/call"),
    ("bezoutian.self_s", "s/call"),
    ("bezoutian.terms", "terms/call"),
    ("bezoutian.used_ratio", "ratio"),
    ("corering.poly_exact_div.calls", "count/call"),
    ("corering.poly_exact_div.self_s", "s/call"),
    ("corering.param_exact_div.calls", "count/call"),
    ("corering.param_exact_div.in_det_s", "s/call"),
    ("corering.param_exact_div.quotient_s", "s/call"),
    ("combinat.calls", "count/call"),
    ("combinat.self_s", "s/call"),
    ("assembly.build.calls", "count/call"),
    ("assembly.build.self_s", "s/call"),
    ("assembly.entries", "entries/call"),
    ("assembly.submatrix.self_s", "s/call"),
    ("assembly.ladder.useful_ratio", "ratio"),
    ("assembly.sign.self_s", "s/call"),
    ("assembly.fallback.systems", "systems/call"),
    ("assembly.fallback_s", "s/call"),
    ("assembly.driver.self_s", "s/call"),
    ("linalg.det.calls", "count/call"),
    ("linalg.det_m.self_s", "s/call"),
    ("linalg.det_m.rows", "rows"),
    ("linalg.det_m.bits", "bits"),
    ("linalg.det_m.terms", "terms"),
    ("linalg.det_extraneous.self_s", "s/call"),
    ("linalg.det_sides.self_s", "s/call"),
    ("trace.wall_s", "s/call"),
]


class Tracer:
    """Span recorder; install() patches macres, uninstall() restores it."""

    def __init__(self):
        # span: [name, start, end, parent index, call index, detail]
        self.spans = []
        self._stack = []
        self._saved = []
        self.call = -1
        self._tags = {}          # id(matrix) -> (kind, matrix)
        self._bez = {}           # id(bezoutian) -> (bezoutian, Y-degrees read)
        self._first_system = None
        self._fallback_start = None
        self.fallback_s = {}     # call index -> wall seconds of fallback
        self.bez_terms = 0
        self.bez_used = 0
        self.entries = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name(args) if callable(name) else name, clock(), 0.0,
                   stack[-1] if stack else -1, self.call, None]
            if before is not None:
                before(rec, args)
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(rec, args, out)
            return out

        return wrapper

    def install(self):
        am = assembly_module
        ma = am.MacaulayAssembly
        plan = [
            (am, "bareiss_det", self._det_name, None, self._after_det),
            (am, "bezoutian", "bezoutian", self._note_system, self._after_bez),
            (am, "build_assembly", "assembly.build", self._note_system,
             self._after_build),
            (am, "sign_normalization", "assembly.sign", None, None),
            (bezoutian_module, "poly_exact_div", "corering.poly_exact_div",
             None, None),
            (ParamPoly, "exact_div", "corering.param_exact_div", None, None),
            (ma, "extraneous_matrix", "assembly.submatrix", None,
             self._tagger("extraneous")),
            (ma, "e_matrix", "assembly.submatrix", None, self._tagger("side")),
            (ma, "e_dual_matrix", "assembly.submatrix", None,
             self._tagger("side")),
        ]
        plan += [(am, nm, "combinat", None, None) for nm in COMBINAT]
        for obj, attr, name, before, after in plan:
            if not hasattr(obj, attr):
                continue
            orig = getattr(obj, attr)
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self._wrap(orig, name, before, after))

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- hooks -----------------------------------------------------------------

    def _note_system(self, rec, args):
        system = args[0]
        if self._first_system is None:
            self._first_system = system
        elif system is not self._first_system and self._fallback_start is None:
            self._fallback_start = rec[1]

    def _after_bez(self, rec, args, out):
        self.bez_terms += len(out.poly.terms)
        self._bez[id(out)] = (out, set())

    def _after_build(self, rec, args, out):
        m = out.matrix
        self.entries += m.nrows * m.ncols
        self._tags[id(m)] = ("M", m)
        seen = self._bez.get(id(out.bez))
        want = sum(d - 1 for d in out.system.ds.degrees) - out.t
        if seen is not None and want >= 0:
            seen[1].add(want)

    def _tagger(self, kind):
        def after(rec, args, out):
            self._tags[id(out)] = (kind, out)
        return after

    def _det_name(self, args):
        kind = self._tags.pop(id(args[0]), (None,))[0]
        return DET_NAMES.get(kind, "linalg.det_other")

    def _after_det(self, rec, args, out):
        if rec[0] != "linalg.det_m":
            return
        if isinstance(out, ParamPoly):
            coeffs = out.terms.values()
        else:
            coeffs = [out] if out else []
        bits = max((abs(int(c)).bit_length() for c in coeffs), default=0)
        rec[5] = (args[0].nrows, bits, len(coeffs))

    # -- resultant calls -------------------------------------------------------

    def run(self, fn, *args, **kwargs):
        """Call fn (a resultant driver) under a root span."""
        self.call += 1
        self._first_system = None
        self._fallback_start = None
        rec = ["driver", time.perf_counter(), 0.0, -1, self.call, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if self._fallback_start is not None:
                self.fallback_s[self.call] = rec[2] - self._fallback_start
            for bez, degrees in self._bez.values():
                n = bez.system.n
                self.bez_used += sum(1 for e in bez.poly.terms
                                     if sum(e[n:]) in degrees)
            self._bez.clear()
            self._tags.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self, factors):
        """(self seconds by name, span count by name, param exact_div
        self seconds by parent kind), each span's time scaled by the
        factor of its resultant call."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, count, division = {}, {}, {"det": 0.0, "quotient": 0.0}
        for i, (name, start, end, parent, call, _) in enumerate(spans):
            own = (end - start - child[i]) * factors[call]
            self_s[name] = self_s.get(name, 0.0) + own
            count[name] = count.get(name, 0) + 1
            if name == "corering.param_exact_div" and parent >= 0:
                pname = spans[parent][0]
                if pname.startswith("linalg.det"):
                    division["det"] += own
                elif pname == "driver":
                    division["quotient"] += own
        return self_s, count, division

    def metrics(self, factors, traced_s):
        """Per-layer metrics; factors[c] scales the wall times of
        resultant call c to the reference speed, and traced_s is the
        scaled time of all calls."""
        calls = len(factors)
        self_s, count, division = self.self_times(factors)
        dets = [s[5] for s in self.spans if s[0] == "linalg.det_m" and s[5]]
        builds = count.get("assembly.build", 0)

        def mean(k):
            return sum(d[k] for d in dets) / len(dets) if dets else 0.0

        def per_call(x):
            return x / calls

        values = {
            "bezoutian.calls": per_call(count.get("bezoutian", 0)),
            "bezoutian.self_s": per_call(self_s.get("bezoutian", 0.0)),
            "bezoutian.terms": per_call(self.bez_terms),
            "bezoutian.used_ratio": (self.bez_used / self.bez_terms
                                     if self.bez_terms else 0.0),
            "corering.poly_exact_div.calls":
                per_call(count.get("corering.poly_exact_div", 0)),
            "corering.poly_exact_div.self_s":
                per_call(self_s.get("corering.poly_exact_div", 0.0)),
            "corering.param_exact_div.calls":
                per_call(count.get("corering.param_exact_div", 0)),
            "corering.param_exact_div.in_det_s": per_call(division["det"]),
            "corering.param_exact_div.quotient_s":
                per_call(division["quotient"]),
            "combinat.calls": per_call(count.get("combinat", 0)),
            "combinat.self_s": per_call(self_s.get("combinat", 0.0)),
            "assembly.build.calls": per_call(builds),
            "assembly.build.self_s": per_call(self_s.get("assembly.build", 0.0)),
            "assembly.entries": per_call(self.entries),
            "assembly.submatrix.self_s":
                per_call(self_s.get("assembly.submatrix", 0.0)),
            "assembly.ladder.useful_ratio": calls / builds if builds else 0.0,
            "assembly.sign.self_s": per_call(self_s.get("assembly.sign", 0.0)),
            "assembly.fallback.systems": per_call(len(self.fallback_s)),
            "assembly.fallback_s": per_call(sum(
                s * factors[c] for c, s in self.fallback_s.items())),
            "assembly.driver.self_s": per_call(self_s.get("driver", 0.0)),
            "linalg.det.calls": per_call(sum(
                c for k, c in count.items() if k.startswith("linalg.det"))),
            "linalg.det_m.self_s": per_call(self_s.get("linalg.det_m", 0.0)),
            "linalg.det_m.rows": mean(0),
            "linalg.det_m.bits": mean(1),
            "linalg.det_m.terms": mean(2),
            "linalg.det_extraneous.self_s":
                per_call(self_s.get("linalg.det_extraneous", 0.0)),
            "linalg.det_sides.self_s":
                per_call(self_s.get("linalg.det_sides", 0.0)),
            "trace.wall_s": per_call(traced_s),
        }
        return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}

    def layer_shares(self, factors):
        """Share of traced time in each layer: whole spans (children
        included) for the Bezoutian and the determinants, self time for
        the rest."""
        self_s, _, division = self.self_times(factors)
        def whole(pick):
            return sum((end - start) * factors[call]
                       for name, start, end, _, call, _ in self.spans
                       if pick(name))

        total = whole(lambda name: name == "driver")
        layers = {
            "bezoutian": whole(lambda name: name == "bezoutian"),
            "linalg": whole(lambda name: name.startswith("linalg.det")),
            "quotient": division["quotient"],
            "assembly": sum(self_s.get(k, 0.0) for k in
                            ("assembly.build", "assembly.submatrix",
                             "assembly.sign")),
            "combinat": self_s.get("combinat", 0.0),
            "driver": self_s.get("driver", 0.0),
        }
        return {k: round(v / total, 4) if total else 0.0
                for k, v in layers.items()}

    def write(self, path):
        """Write every span as one JSON line: name, start and end in
        seconds from the first span, parent index, call index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, call, _ in self.spans:
                out.write(json.dumps([name, round(start - t0, 7),
                                      round(end - t0, 7), parent, call]))
                out.write("\n")
