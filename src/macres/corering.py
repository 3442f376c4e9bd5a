"""Exact coefficient arithmetic and sparse multivariate polynomials.

Three coefficient domains are supported and never mixed implicitly:
plain integers, fractions.Fraction, and ParamPoly (integer polynomials
in named generic parameters).  Polynomials in the actual variables
X_1..X_n (and Y_1..Y_n where needed) are MPoly values whose
coefficients live in one of those domains.
"""

import re
from fractions import Fraction


class MixedScalarError(ValueError):
    """Raised when two values from different coefficient domains meet."""


class InexactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


# ---------------------------------------------------------------------------
# monomial order
# ---------------------------------------------------------------------------

def monomial_key(e):
    """Sort key for exponent vectors: total degree ascending, then
    lexicographic descending on the vector itself."""
    return (sum(e), tuple(-c for c in e))


def monomial_text(names, e):
    """The monomial with exponent vector e in the named variables, as
    "X1^2*X3"; the empty string for the constant monomial."""
    return "*".join(name if k == 1 else "%s^%d" % (name, k)
                    for name, k in zip(names, e) if k)


# ---------------------------------------------------------------------------
# parameter polynomials (the generic-coefficient domain)
# ---------------------------------------------------------------------------

_FIELD_BITS = 8
_FIELD_MAX = (1 << _FIELD_BITS) - 1


class ParamRing:
    """Ring of integer polynomials in a fixed list of named parameters.

    Exponent vectors are packed into a single int, 8 bits per parameter,
    parameter 0 in the lowest bits.  Packed keys add under monomial
    multiplication, and plain integer comparison of keys is a valid
    monomial order, which the exact-division routine relies on.  A
    product whose exponent would pass _FIELD_MAX raises OverflowError
    instead of carrying into the next field.
    """

    def __init__(self, names):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.names = names
        self.nparams = len(names)
        self.index = {s: i for i, s in enumerate(names)}
        # the lowest bit of every field above the first, and the bit
        # past the last one: a carry out of some field lands on one
        self.carry_bits = sum(1 << (_FIELD_BITS * i)
                              for i in range(1, self.nparams + 1))

    def pack(self, exps):
        if len(exps) != self.nparams:
            raise ValueError("exponent vector has wrong length")
        key = 0
        for i, e in enumerate(exps):
            if e < 0 or e > _FIELD_MAX:
                raise OverflowError("parameter exponent %d out of packing range" % e)
            key |= e << (_FIELD_BITS * i)
        return key

    def unpack(self, key):
        out = []
        for _ in range(self.nparams):
            out.append(key & _FIELD_MAX)
            key >>= _FIELD_BITS
        return tuple(out)

    def zero(self):
        return ParamPoly(self, {})

    def one(self):
        return ParamPoly(self, {0: 1})

    def const(self, c):
        return ParamPoly(self, {0: int(c)})

    def gen(self, i):
        if isinstance(i, str):
            i = self.index[i]
        return ParamPoly(self, {1 << (_FIELD_BITS * i): 1})

    def __repr__(self):
        return "ParamRing(%d params)" % self.nparams


def _packed_divides(a, b):
    """Whether the packed monomial a divides the packed monomial b,
    checked field by field."""
    while a:
        if (a & _FIELD_MAX) > (b & _FIELD_MAX):
            return False
        a >>= _FIELD_BITS
        b >>= _FIELD_BITS
    return True


class ParamPoly:
    """Sparse integer polynomial over a ParamRing.

    terms maps packed exponent key -> nonzero int coefficient.
    Values are treated as immutable once constructed.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {k: c for k, c in terms.items() if c != 0}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if not isinstance(other, ParamPoly) or other.ring is not self.ring:
            raise MixedScalarError("operands live in different coefficient domains")

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, ParamPoly) or other.ring is not self.ring:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

    def __neg__(self):
        return ParamPoly(self.ring, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ParamPoly(self.ring, out)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ParamPoly(self.ring, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        self._check_no_carry(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return ParamPoly(self.ring, out)

    def _check_no_carry(self, other):
        """Raise OverflowError if a product of keys carries out of a
        field.  The ORs of the keys bound every exponent, so pairs are
        checked only when the ORs themselves carry."""
        carry_bits = self.ring.carry_bits
        a = b = 0
        for k in self.terms:
            a |= k
        for k in other.terms:
            b |= k
        if not (a ^ b ^ (a + b)) & carry_bits:
            return
        for k1 in self.terms:
            for k2 in other.terms:
                if (k1 ^ k2 ^ (k1 + k2)) & carry_bits:
                    raise OverflowError("parameter exponent above %d"
                                        % _FIELD_MAX)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        r = self.ring.one()
        b = self
        while k:
            if k & 1:
                r = r * b
            k >>= 1
            if k:
                b = b * b
        return r

    def _leading(self):
        k = max(self.terms)
        return k, self.terms[k]

    def exact_div(self, other):
        """Quotient self/other, raising InexactDivisionError unless the
        division is exact over the integers."""
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division of ParamPoly by zero")
        if self.is_zero():
            return self.ring.zero()
        kq, cq = other._leading()
        ring = self.ring
        if len(other.terms) == 1:
            # a constant or monomial divisor divides term by term
            quo = {}
            for k, c in self.terms.items():
                if not _packed_divides(kq, k):
                    raise InexactDivisionError("monomial not divisible")
                q, r = divmod(c, cq)
                if r:
                    raise InexactDivisionError("coefficient not divisible")
                quo[k - kq] = q
            return ParamPoly(ring, quo)
        rem = dict(self.terms)
        quo = {}
        while rem:
            kr = max(rem)
            cr = rem[kr]
            kd = kr - kq
            if kd < 0:
                raise InexactDivisionError("monomial under divisor's leading monomial")
            if not _packed_divides(kq, kr):
                raise InexactDivisionError("leading monomial not divisible")
            q, r = divmod(cr, cq)
            if r:
                raise InexactDivisionError("leading coefficient not divisible")
            quo[kd] = quo.get(kd, 0) + q
            for k2, c2 in other.terms.items():
                k = kd + k2
                s = rem.get(k, 0) - q * c2
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return ParamPoly(ring, quo)

    def evaluate(self, values):
        """Evaluate at integer parameter values (list indexed like ring.names)."""
        if len(values) != self.ring.nparams:
            raise ValueError("wrong number of parameter values")
        total = 0
        for k, c in self.terms.items():
            v = c
            key = k
            i = 0
            while key:
                e = key & _FIELD_MAX
                if e:
                    v *= values[i] ** e
                key >>= _FIELD_BITS
                i += 1
            total += v
        return total

    def sorted_terms(self):
        """(exponent vector, coefficient) pairs in the monomial order."""
        return sorted(((self.ring.unpack(k), c) for k, c in self.terms.items()),
                      key=lambda ec: monomial_key(ec[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = monomial_text(self.ring.names, e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = str(abs(c)) + "*" + mono
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_scalar_text(text, ring=None):
    """Invert the printed form of a scalar: a Fraction for numeric
    scalars, a ParamPoly when the ring is given.

    Symbolic scalars print as, for example, "2*a_1_1^2*a_2_3 - a_3_1":
    terms ordered by total degree then reverse-lexicographic exponent,
    joined with " + " or " - ", integer coefficient first, factors joined
    by "*" with "^" for powers.  Numeric scalars print as plain integers
    or fractions like "22/7".
    """
    text = text.strip()
    if ring is None:
        return Fraction(text)
    chunks = _TERM_SPLIT.split(text)
    first = chunks[0]
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:]
    pending = [(sign, first)]
    for op, term in zip(chunks[1::2], chunks[2::2]):
        pending.append((1 if op == "+" else -1, term))
    out = ring.zero()
    for sign, term in pending:
        p = ring.const(sign)
        for factor in term.split("*"):
            if "^" in factor:
                name, _, k = factor.partition("^")
                p = p * ring.gen(name) ** int(k)
            elif factor.isdigit():
                p = p * ring.const(int(factor))
            else:
                p = p * ring.gen(factor)
        out = out + p
    return out


# ---------------------------------------------------------------------------
# scalar helpers (dispatch over the three domains)
# ---------------------------------------------------------------------------

def scalar_domain_of(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(c, int):
        return "int"
    if isinstance(c, Fraction):
        return "fraction"
    if isinstance(c, ParamPoly):
        return c.ring
    raise TypeError("not a scalar: %r" % (c,))


def scalar_zero(domain):
    if domain == "int":
        return 0
    if domain == "fraction":
        return Fraction(0)
    return domain.zero()


def scalar_one(domain):
    if domain == "int":
        return 1
    if domain == "fraction":
        return Fraction(1)
    return domain.one()


def scalar_from_int(domain, c):
    if domain == "int":
        return int(c)
    if domain == "fraction":
        return Fraction(c)
    return domain.const(c)


def scalar_is_zero(c):
    if isinstance(c, ParamPoly):
        return c.is_zero()
    return c == 0


def scalar_exact_div(a, b):
    """a/b in the common domain, exact or InexactDivisionError."""
    if isinstance(a, ParamPoly) or isinstance(b, ParamPoly):
        if not isinstance(a, ParamPoly) or not isinstance(b, ParamPoly):
            raise MixedScalarError("mixing ParamPoly with plain scalars")
        return a.exact_div(b)
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        if b == 0:
            raise ZeroDivisionError
        return Fraction(a) / Fraction(b)
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError("%d not divisible by %d" % (a, b))
    return q


# ---------------------------------------------------------------------------
# multivariate polynomials in the X (and Y) variables
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse polynomial in nvars variables with Scalar coefficients.

    terms maps exponent tuple -> nonzero Scalar.  The domain tag is one
    of "int", "fraction", or a ParamRing instance, and every coefficient
    must belong to it.
    """

    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars, domain, terms=None):
        self.nvars = nvars
        self.domain = domain
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent tuple of wrong length: %r" % (e,))
                if isinstance(c, int) and not isinstance(c, bool) and domain != "int":
                    c = scalar_from_int(domain, c)
                if scalar_domain_of(c) != domain and scalar_domain_of(c) is not domain:
                    raise MixedScalarError("coefficient outside the declared domain")
                if not scalar_is_zero(c):
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars, domain):
        return MPoly(nvars, domain, {})

    @staticmethod
    def constant(nvars, domain, c):
        return MPoly(nvars, domain, {(0,) * nvars: c})

    @staticmethod
    def one(nvars, domain):
        return MPoly.constant(nvars, domain, scalar_one(domain))

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, e):
        return self.terms.get(tuple(e), scalar_zero(self.domain))

    def term_count(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.domain == other.domain
                and self.terms == other.terms)

    # -- arithmetic via operators (delegates to poly_arith) ----------------

    def __add__(self, other):
        return poly_arith(self, other, "add")

    def __sub__(self, other):
        return poly_arith(self, other, "sub")

    def __mul__(self, other):
        return poly_arith(self, other, "mul")

    def __neg__(self):
        return MPoly(self.nvars, self.domain, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        """Multiply every coefficient by the scalar c (same domain)."""
        if isinstance(c, int) and self.domain != "int":
            c = scalar_from_int(self.domain, c)
        return MPoly(self.nvars, self.domain,
                     {e: v * c for e, v in self.terms.items()})

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: monomial_key(ec[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        names = (["X%d" % (i + 1) for i in range(self.nvars)]
                 if self.nvars <= 12 else
                 ["X[%d]" % (i + 1) for i in range(self.nvars)])
        parts = []
        for e, c in self.sorted_terms():
            mono = monomial_text(names, e)
            cs = str(c)
            body = ("(%s)" % cs if isinstance(c, ParamPoly) and len(c.terms) > 1
                    else cs)
            if mono:
                if body == "1":
                    body = mono
                elif body == "-1":
                    body = "-" + mono
                else:
                    body = body + "*" + mono
            parts.append(body)
        return " + ".join(parts)

    __repr__ = __str__


def poly_arith(p, q, kind):
    """Add, subtract, or multiply two MPoly values over the same domain."""
    if not isinstance(p, MPoly) or not isinstance(q, MPoly):
        raise TypeError("poly_arith expects MPoly operands")
    if p.nvars != q.nvars:
        raise ValueError("variable-count mismatch: %d vs %d" % (p.nvars, q.nvars))
    if p.domain != q.domain and p.domain is not q.domain:
        raise MixedScalarError("operands over different coefficient domains")
    if kind == "add" or kind == "sub":
        out = dict(p.terms)
        for e, c in q.terms.items():
            s = out.get(e)
            c2 = (-c) if kind == "sub" else c
            s = c2 if s is None else s + c2
            if scalar_is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly(p.nvars, p.domain, out)
    if kind == "mul":
        out = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                s = out.get(e)
                s = prod if s is None else s + prod
                if scalar_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MPoly(p.nvars, p.domain, out)
    raise ValueError("unknown kind %r" % (kind,))


def specialize(p, assignment):
    """Map an MPoly over a ParamRing to an MPoly over the integers by
    substituting integer values for every parameter.

    assignment maps parameter name -> int and must cover all parameters
    of the ring.
    """
    if not isinstance(p.domain, ParamRing):
        raise TypeError("specialize expects an MPoly over a parameter ring")
    ring = p.domain
    missing = [s for s in ring.names if s not in assignment]
    if missing:
        raise KeyError("missing parameter values: %s" % ", ".join(missing))
    values = [int(assignment[s]) for s in ring.names]
    out = {}
    for e, c in p.terms.items():
        v = c.evaluate(values)
        if v:
            out[e] = v
    return MPoly(p.nvars, "int", out)


def derivative(p, i):
    """Partial derivative of an MPoly with respect to variable i."""
    out = {}
    for e, c in p.terms.items():
        k = e[i]
        if k:
            e2 = list(e)
            e2[i] = k - 1
            prev = out.get(tuple(e2))
            add = c * k
            out[tuple(e2)] = add if prev is None else prev + add
    return MPoly(p.nvars, p.domain, out)
