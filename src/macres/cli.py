"""Command line front end.

Reads polynomial systems as JSON documents, dispatches to the library,
and prints results in a stable JSON or text form.  Each command is a
function from its arguments to a payload and its text lines; main
alone reads the clock, prints and picks the exit code.  The scalar and
monomial text forms are those of macres.corering.  Identical input
bytes give identical output bytes; timing is attached only on request.

Input document shape:

    {"degrees": [1, 1, 2],
     "mode": "integer",
     "polys": [[{"c": "3", "e": [1, 0, 0]}, ...], ...],
     "t": 2}

mode is one of generic, integer, rational.  In generic mode "polys"
may be omitted entirely (full generic coefficients); when present its
coefficient strings are ignored and each listed exponent gets a
parameter named a_i_k, i the 1-based polynomial index and k the
1-based canonical rank of the exponent among the degree-d_i monomials.

Exit codes: 0 success, 1 usage or parse error, 2 degenerate
specialization, 3 internal invariant violation (including a failing
verify suite).
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .bezoutian import (
    bezoutian,
    generic_system,
    monomial_system,
    sparse_generic_system,
    system_from_terms,
)
from .combinat import (
    DegreeSystem,
    critical_degree,
    hilbert_function,
    minimal_t,
    monomial_basis,
    rho_size,
)
from .corering import InexactDivisionError, ParamRing, monomial_text
from .macaulay import (
    DegenerateSystemError,
    build_assembly,
    resultant_generic,
    resultant_specialized,
)
from .macaulay.formulas import (
    dixon_resultant,
    gcp,
    jacobian_variant,
    ternary_quadric_sylvester,
    univariate_formulas,
)


class CliError(Exception):
    """Bad usage or unparsable input."""


class InputDocument:
    """A validated input: degrees, mode, optional t, built system."""

    __slots__ = ("degrees", "mode", "t", "system")

    def __init__(self, degrees, mode, t, system):
        self.degrees = degrees
        self.mode = mode
        self.t = t
        self.system = system


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_input(data):
    """Validate an input document and build its polynomial system."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as ex:
            raise CliError("input is not UTF-8: %s" % ex)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as ex:
        raise CliError("input is not valid JSON: %s" % ex)
    if not isinstance(doc, dict):
        raise CliError("input document must be a JSON object")
    degrees = doc.get("degrees")
    if (not isinstance(degrees, list) or not degrees
            or not all(isinstance(d, int) and not isinstance(d, bool)
                       and d >= 1 for d in degrees)):
        raise CliError("degrees: expected a nonempty list of positive "
                       "integers")
    n = len(degrees)
    if "n" in doc and doc["n"] != n:
        raise CliError("n: does not match the length of degrees")
    mode = doc.get("mode", "integer")
    if mode not in ("generic", "integer", "rational"):
        raise CliError("mode: expected one of generic, integer, rational")
    t = doc.get("t")
    if t is not None and (not isinstance(t, int) or isinstance(t, bool)
                          or t < 0):
        raise CliError("t: expected a nonnegative integer")
    polys = doc.get("polys")
    if polys is None:
        if mode != "generic":
            raise CliError("polys: required outside generic mode")
        return InputDocument(degrees, mode, t, generic_system(degrees))
    if not isinstance(polys, list) or len(polys) != n:
        raise CliError("polys: expected a list of %d term lists" % n)
    supports = []
    for i, (terms, d) in enumerate(zip(polys, degrees)):
        if not isinstance(terms, list):
            raise CliError("polys[%d]: expected a list of terms" % i)
        seen = {}
        for k, term in enumerate(terms):
            path = "polys[%d][%d]" % (i, k)
            if not isinstance(term, dict) or "e" not in term:
                raise CliError(path + ': expected an object with "e"')
            e = term["e"]
            if (not isinstance(e, list) or len(e) != n
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               and x >= 0 for x in e)):
                raise CliError(path + ".e: expected a list of %d nonnegative "
                               "integers" % n)
            if sum(e) != d:
                raise CliError(path + ".e: term degree %d does not match the "
                               "declared degree %d" % (sum(e), d))
            e = tuple(e)
            if e in seen:
                raise CliError(path + ".e: duplicate exponent")
            if mode == "generic":
                seen[e] = None
                continue
            c = term.get("c")
            if not isinstance(c, str):
                raise CliError(path + ".c: expected a coefficient string")
            try:
                value = Fraction(c)
            except (ValueError, ZeroDivisionError):
                raise CliError(path + ".c: cannot parse %r" % c)
            if mode == "integer":
                if value.denominator != 1:
                    raise CliError(path + ".c: not an integer")
                value = int(value)
            seen[e] = value
        supports.append(seen)
    if mode == "generic":
        system = sparse_generic_system(degrees, supports)
    else:
        domain = "int" if mode == "integer" else "fraction"
        try:
            system = system_from_terms(degrees, supports, domain)
        except ValueError as ex:
            raise CliError("polys: %s" % ex)
    return InputDocument(degrees, mode, t, system)


# ---------------------------------------------------------------------------
# stable text forms
# ---------------------------------------------------------------------------

def _mono_text(e):
    return monomial_text(["X%d" % (i + 1) for i in range(len(e))], e) or "1"


def label_text(label):
    """Stable one-token text for an assembly row or column label."""
    kind = label[0]
    if kind == "mono":
        return _mono_text(label[1])
    if kind == "slice":
        return "T[%s]" % ",".join(str(x) for x in label[1])
    if kind == "mult":
        return "f%d*%s" % (label[1], _mono_text(label[2]))
    if kind == "dual":
        return "dual(f%d*%s)" % (label[1], _mono_text(label[2]))
    return repr(label)


def _terms(p):
    """The terms of an MPoly or ParamPoly as JSON objects, in the
    monomial order."""
    return [{"c": str(c), "e": list(e)} for e, c in p.sorted_terms()]


# ---------------------------------------------------------------------------
# command plumbing
# ---------------------------------------------------------------------------

def _read_doc(args):
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(args.input, "rb") as fh:
                data = fh.read()
        except OSError as ex:
            raise CliError("cannot read %s: %s" % (args.input, ex))
    return parse_input(data)


def _pick_t(args, doc):
    if args.t is None:
        return doc.t
    if args.t < 0:
        raise CliError("t: expected a nonnegative integer")
    return args.t


SIGN_NOTE_ON = ("sign normalized: the pure power system X_i^d_i has "
                "resultant +1")
SIGN_NOTE_OFF = "raw quotient det(M_t)/det(E_t), no sign normalization"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _head(command, doc):
    return {"command": command, "degrees": list(doc.degrees), "mode": doc.mode}


def cmd_resultant(args):
    doc = _read_doc(args)
    system = doc.system
    t = _pick_t(args, doc)
    symbolic = isinstance(system.domain, ParamRing)
    if symbolic:
        try:
            out = resultant_generic(system, t,
                                    max_symbolic_size=args.max_symbolic_size)
        except DegenerateSystemError:
            raise
        except ValueError as ex:
            raise CliError(str(ex))
    else:
        out = resultant_specialized(system, t)
    normalized = args.normalize_sign == "on"
    value = out.value
    if not normalized and out.sigma < 0:
        value = -value
    payload = _head("resultant", doc)
    payload.update(t=out.t, sigma=out.sigma, normalized=normalized,
                   sign_note=SIGN_NOTE_ON if normalized else SIGN_NOTE_OFF)
    if symbolic:
        payload["result"] = {"parameters": list(system.domain.names),
                             "terms": _terms(value), "text": str(value)}
    else:
        payload["result"] = {"value": str(value), "det_m": str(out.det_m),
                             "det_extraneous": str(out.det_ebb)}
    lines = ["t: %d" % out.t, "sigma: %+d" % out.sigma,
             "resultant: %s" % value]
    return payload, lines


def cmd_matrix(args):
    doc = _read_doc(args)
    t = _pick_t(args, doc)
    if t is None:
        t = minimal_t(doc.system.ds)
    m = build_assembly(doc.system, t).matrix
    rows = [label_text(l) for l in m.row_labels]
    cols = [label_text(l) for l in m.col_labels]
    entries = [[str(m.entry(i, j)) for j in range(m.ncols)]
               for i in range(m.nrows)]
    payload = _head("matrix", doc)
    payload.update(t=t, size=[m.nrows, m.ncols], rows=rows, cols=cols,
                   entries=entries,
                   blocks={name: [list(rr), list(cc)]
                           for name, (rr, cc) in m.blocks.items()})
    lines = ["t: %d" % t, "size: %d x %d" % (m.nrows, m.ncols),
             "cols: " + " | ".join(cols)]
    for lab, row in zip(rows, entries):
        lines.append("row %s: %s" % (lab, " | ".join(row)))
    return payload, lines


def cmd_bezoutian(args):
    doc = _read_doc(args)
    n = doc.system.n
    names = ["X%d" % (i + 1) for i in range(n)] + \
            ["Y%d" % (i + 1) for i in range(n)]
    terms = _terms(bezoutian(doc.system).poly)
    payload = _head("bezoutian", doc)
    payload.update(variables=names, terms=terms)
    lines = ["variables: " + " ".join(names)]
    for term in terms:
        lines.append("%s: %s" % (",".join(str(x) for x in term["e"]),
                                 term["c"]))
    return payload, lines


def cmd_gcp(args):
    doc = _read_doc(args)
    t = _pick_t(args, doc)
    try:
        coeffs = [str(c) for c in gcp(doc.system, t)]
    except TypeError as ex:
        raise CliError(str(ex))
    used = t if t is not None else critical_degree(doc.system.ds) + 1
    payload = _head("gcp", doc)
    payload.update(t=used, coefficients=coeffs, order="lowest degree first")
    lines = ["t: %d" % used,
             "coefficients (lowest degree first): " + " ".join(coeffs)]
    return payload, lines


def cmd_sizes(args):
    degrees = list(args.degrees) if args.degrees else _read_doc(args).degrees
    try:
        ds = DegreeSystem(degrees)
    except ValueError as ex:
        raise CliError(str(ex))
    tmin = minimal_t(ds)
    tn = critical_degree(ds)
    row = {
        "degrees": degrees,
        "minimal_t": tmin,
        "minimal_size": rho_size(ds, tmin),
        "classical_t": tn + 1,
        "classical_size": rho_size(ds, tn + 1),
    }
    payload = {"command": "sizes", "rows": [row]}
    lines = ["degrees=%s minimal_t=%d minimal=%d classical_t=%d classical=%d"
             % (",".join(str(d) for d in degrees), tmin, row["minimal_size"],
                tn + 1, row["classical_size"])]
    return payload, lines


# ---------------------------------------------------------------------------
# the verify suites: fast self-contained identity checks
# ---------------------------------------------------------------------------

def _suite_combinat():
    import itertools
    checks = []
    ok = True
    for n in (1, 2, 3):
        for degs in itertools.combinations_with_replacement((1, 2, 3), n):
            ds = DegreeSystem(degs)
            tn = critical_degree(ds)
            for t in range(tn + 1):
                if hilbert_function(ds, t) != hilbert_function(ds, tn - t):
                    ok = False
                if rho_size(ds, t) != rho_size(ds, tn - t):
                    ok = False
    checks.append(("hilbert and rho symmetry, n<=3 d<=3", ok))
    table = [
        ((10, 70), 70, 80),
        ((150, 200), 200, 350),
        ((1, 1, 2), 3, 6),
        ((1, 2, 5), 14, 28),
        ((2, 2, 6), 21, 45),
        ((1, 1, 2, 3), 12, 35),
        ((2, 2, 5, 5), 94, 364),
        ((2, 3, 4, 5), 90, 364),
        ((4, 4, 4, 4, 4), 670, 4845),
        ((2, 3, 3, 3, 3, 3, 3), 2373, 38760),
        ((3,) * 10, 175803, 14307150),
        ((2,) * 20, 39875264, 131282408400),
    ]
    ok = True
    for degs, small, classical in table:
        ds = DegreeSystem(degs)
        if rho_size(ds, minimal_t(ds)) != small:
            ok = False
        if rho_size(ds, critical_degree(ds) + 1) != classical:
            ok = False
    checks.append(("size table rows", ok))
    return checks


def _suite_worked_example():
    checks = []
    system = generic_system((1, 1, 2))
    ring = system.domain
    a = [ring.gen("a_1_%d" % k) for k in (1, 2, 3)]
    b = [ring.gen("a_2_%d" % k) for k in (1, 2, 3)]
    cs = [ring.gen("a_3_%d" % k) for k in range(1, 7)]
    m1 = a[1] * b[2] - a[2] * b[1]
    m2 = a[0] * b[2] - a[2] * b[0]
    m3 = a[0] * b[1] - a[1] * b[0]
    point = [m1, -m2, m3]
    oracle = ring.zero()
    for cv, e in zip(cs, monomial_basis(3, 2)):
        term = cv
        for x, k in zip(point, e):
            term = term * x ** k
        oracle = oracle + term
    vals = [resultant_generic(system, t).value for t in (0, 1, 2)]
    checks.append(("(1,1,2) quotient equals the elimination oracle at "
                   "t=0,1,2", all(v == oracle for v in vals)))
    out2 = resultant_generic(system, 2)
    checks.append(("(1,1,2) classical extraneous factor is a_1_1",
                   out2.det_ebb == a[0]))
    return checks


def _suite_formulas():
    import random
    rng = random.Random(20240)
    checks = []

    def rand_sys(degs, lo=-5, hi=5):
        return system_from_terms(degs, [
            {e: rng.randint(lo, hi) for e in monomial_basis(len(degs), d)}
            for d in degs])

    ok = 0
    for _ in range(5):
        s = rand_sys((2, 2, 2))
        try:
            q = resultant_specialized(s).value
        except DegenerateSystemError:
            continue
        if dixon_resultant(s).value == q and \
                ternary_quadric_sylvester(s).value == q:
            ok += 1
    checks.append(("dixon and ternary-quadric match the quotient", ok >= 3))
    ok = 0
    for _ in range(5):
        s = rand_sys((1, 1, 2))
        try:
            q = resultant_specialized(s).value
        except DegenerateSystemError:
            continue
        if jacobian_variant(s).value == q:
            ok += 1
    checks.append(("jacobian variant matches the quotient", ok >= 3))
    s22 = generic_system((2, 2))
    vals = [univariate_formulas(s22, t).value for t in range(4)]
    checks.append(("binary (2,2) determinants agree at every t",
                   all(v == vals[0] for v in vals)))
    coeffs = gcp(system_from_terms((2, 2), [{(1, 1): 1}, {(2, 0): 1}]), 3)
    checks.append(("gcp of the root-at-infinity pair is s^4 - s",
                   coeffs == [0, -1, 0, 0, 1]))
    checks.append(("monomial system resultant is +1",
                   resultant_specialized(monomial_system((2, 2, 3))).value == 1))
    return checks


SUITES = {
    "combinat": _suite_combinat,
    "worked-example": _suite_worked_example,
    "formulas": _suite_formulas,
}


def cmd_verify(args):
    if args.suite == "all":
        names = sorted(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise CliError("unknown suite %r; choose from %s or all"
                       % (args.suite, ", ".join(sorted(SUITES))))
    results = []
    for name in names:
        for check, good in SUITES[name]():
            results.append((name, check, bool(good)))
    payload = {
        "command": "verify",
        "suite": args.suite,
        "checks": [{"suite": s, "name": c, "ok": g} for s, c, g in results],
        "ok": all(g for _, _, g in results),
    }
    lines = ["%s  [%s] %s" % ("ok  " if g else "FAIL", s, c)
             for s, c, g in results]
    lines.append("all checks passed" if payload["ok"]
                 else "some checks FAILED")
    return payload, lines


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_common(sub, with_input=True):
    if with_input:
        sub.add_argument("input", nargs="?", default="-",
                         help="input JSON file, or - for stdin")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--timing", action="store_true",
                     help="attach wall-clock timing to the output")


def _build_parser():
    parser = _Parser(prog="macres",
                     description="exact multivariate resultants through "
                                 "structured matrix quotients")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("resultant", help="resultant of the input system")
    _add_common(p)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--normalize-sign", choices=("on", "off"), default="on")
    p.add_argument("--max-symbolic-size", type=int, default=16)
    p.set_defaults(func=cmd_resultant)

    p = subs.add_parser("matrix", help="the degree-t assembly")
    _add_common(p)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("bezoutian", help="the Bezoutian polynomial")
    _add_common(p)
    p.set_defaults(func=cmd_bezoutian)

    p = subs.add_parser("gcp",
                        help="generalized characteristic polynomial")
    _add_common(p)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=cmd_gcp)

    p = subs.add_parser("sizes",
                        help="minimal and classical matrix sizes")
    p.add_argument("degrees", nargs="*", type=int)
    p.add_argument("--input", default="-",
                   help="input JSON file when no degrees are given")
    _add_common(p, with_input=False)
    p.set_defaults(func=cmd_sizes)

    p = subs.add_parser("verify", help="run built-in identity suites")
    p.add_argument("suite", nargs="?", default="all")
    _add_common(p, with_input=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    clock = time.perf_counter
    started = clock()
    try:
        payload, lines = args.func(args)
    except CliError as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 1
    except DegenerateSystemError as ex:
        sys.stderr.write("degenerate: %s\n" % ex)
        return 2
    except (AssertionError, InexactDivisionError) as ex:
        sys.stderr.write("invariant violation: %s\n" % ex)
        return 3
    if args.timing:
        payload["timing_seconds"] = round(clock() - started, 6)
        lines.append("timing_seconds: %s" % payload["timing_seconds"])
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    # a verify report that is not ok is printed in full, then exits 3
    return 0 if payload.get("ok", True) else 3


if __name__ == "__main__":
    sys.exit(main())
