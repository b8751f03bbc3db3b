"""Exact integer Laurent polynomials in one variable t, plus a gcd.

``_monomial_sum`` writes this module's polynomials and the group-ring
elements of ``racks`` as signed sums of monomials.

Values are dicts exponent -> coefficient with no zero entries; exponents
may be negative.  Both are ``int``: a float or a ``bool`` is a TypeError,
as is an arithmetic operand of another class (an ``int`` factor scales).
Results that are only defined up to units (+- t^k) are normalized by
``unit_normalize``: zero valuation, positive leading coefficient.

``divexact`` is long division that must be exact at every step.
``laurent_gcd`` multiplies the integer gcd of the contents by the gcd of
the primitive parts, which the primitive remainder sequence gives.
"""

from __future__ import annotations

from math import gcd as _int_gcd

from .core import _require_int


def _monomial_sum(terms, names) -> str:
    """Write (coefficient, exponent tuple) terms, in the order given, as a
    signed sum such as "t^2 - 3*t + 1" or "-1 + t1": one factor name^e per
    nonzero exponent (the name alone for e = 1), a coefficient of absolute
    value 1 left out before a factor, the first sign attached; "0" for no
    terms."""
    parts = []
    for c, exps in terms:
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps, strict=True) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + "*".join(factors))
    return " ".join(parts) or "0"


class Laurent:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(e) is not int or type(c) is not int:
                    raise TypeError(f"exponent and coefficient must be integers, got {e!r}: {c!r}")
                if c:
                    cleaned[e] = c
        self.coeffs = cleaned

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def const(n: int) -> "Laurent":
        return Laurent({0: n})

    @staticmethod
    def t(exp: int = 1, coeff: int = 1) -> "Laurent":
        return Laurent({exp: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self):
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int:
            return Laurent({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def leading(self) -> int:
        return self.coeffs[self.degree()]

    def shift(self, k: int) -> "Laurent":
        return Laurent({e + k: c for e, c in self.coeffs.items()})

    def unit_normalize(self) -> "Laurent":
        """Canonical representative of the orbit under multiplication by
        +- t^k: valuation zero, positive leading coefficient; 0 maps to 0."""
        if not self.coeffs:
            return Laurent()
        p = self.shift(-self.valuation())
        if p.leading() < 0:
            p = -p
        return p

    def __str__(self):
        return _monomial_sum(((self.coeffs[e], (e,)) for e in sorted(self.coeffs, reverse=True)), ("t",))

    __repr__ = __str__


def _to_poly(p: Laurent) -> list[int]:
    """Coefficient list (ascending, index 0 = t^0) of p / t^val."""
    v = p.valuation()
    out = [0] * (p.degree() - v + 1)
    for e, c in p.coeffs.items():
        out[e - v] = c
    return out


def _from_poly(coeffs) -> Laurent:
    return Laurent({e: c for e, c in enumerate(coeffs)})


def divexact(p: Laurent, d: Laurent) -> Laurent:
    """Exact quotient p / d by long division; raises ArithmeticError as
    soon as the leading coefficient of d does not divide a step's head
    coefficient, or on a nonzero remainder."""
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return Laurent()
    num, den = _to_poly(p), _to_poly(d)
    dn, lc = len(den) - 1, den[-1]
    quot = [0] * (len(num) - dn)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(num[k + dn], lc)
        if r:
            raise ArithmeticError("division is not exact")
        quot[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ArithmeticError("division is not exact")
    return _from_poly(quot).shift(p.valuation() - d.valuation())


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced mod b.

    Computed division-free: R <- lc(b)*R - coeff(R, e + deg b) * t^e * b for
    e = deg a - deg b down to 0.
    """
    db = len(b) - 1
    lc = b[-1]
    r = list(a)
    for e in range(len(a) - 1 - db, -1, -1):
        head = r[e + db]
        r = [lc * c for c in r]
        if head:
            for i, d in enumerate(b):
                r[e + i] -= head * d
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


def _primitive(p: list[int]) -> tuple[int, list[int]]:
    """The content of p (the gcd of its coefficients) and its primitive
    part, p over the content, with a positive leading coefficient;
    (0, [0]) for zero."""
    g = _int_gcd(*p)
    if not g:
        return 0, [0]
    if p[-1] < 0:
        g = -g
    return abs(g), [c // g for c in p]


def laurent_gcd(p: Laurent, q: Laurent) -> Laurent:
    """A greatest common divisor in Z[t, t^-1], unit-normalized.

    After the t-valuations are divided out, the gcd is the integer gcd of
    the contents times the gcd of the primitive parts, which the primitive
    remainder sequence gives: a, b <- b, pp(prem(a, b)) until b is zero
    (Knuth, TAOCP Vol. 2, 4.6.1, Algorithm E).  When deg a < deg b the
    first step only swaps them.
    """
    if not p:
        return q.unit_normalize()
    if not q:
        return p.unit_normalize()
    (ca, a), (cb, b) = _primitive(_to_poly(p)), _primitive(_to_poly(q))
    while b != [0]:
        a, b = b, _primitive(_prem(a, b))[1]
    return (Laurent.const(_int_gcd(ca, cb)) * _from_poly(a)).unit_normalize()


# ---------------------------------------------------------------------------
# Multivariable polynomials over Z[t1^+-, ..., tn^+-] (construction and
# specialization only; no gcd machinery is provided for these).


class MultiLaurent:
    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = _require_int(nvars, "variable count", 0)
        cleaned = {}
        if coeffs:
            for exps, c in coeffs.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
                if type(c) is not int or any(type(e) is not int for e in exps):
                    raise TypeError(f"exponents and coefficient must be integers, got {exps!r}: {c!r}")
                if c:
                    cleaned[exps] = c
        self.coeffs = cleaned

    @staticmethod
    def zero(nvars: int) -> "MultiLaurent":
        return MultiLaurent(nvars)

    @staticmethod
    def const(nvars: int, n: int) -> "MultiLaurent":
        return MultiLaurent(nvars, {(0,) * _require_int(nvars, "variable count", 0): n})

    @staticmethod
    def var(nvars: int, i: int, coeff: int = 1) -> "MultiLaurent":
        if _require_int(i, "variable index") not in range(_require_int(nvars, "variable count", 0)):
            raise ValueError(f"variable index {i!r} is not in range({nvars})")
        exps = [0] * nvars
        exps[i] = 1
        return MultiLaurent(nvars, {tuple(exps): coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, MultiLaurent)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"variable counts differ: {self.nvars} and {other.nvars}")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MultiLaurent(self.nvars, out)

    def __neg__(self):
        return MultiLaurent(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self + (-other)

    def specialize(self) -> Laurent:
        """Substitute every variable by the single variable t."""
        out: dict[int, int] = {}
        for exps, c in self.coeffs.items():
            e = sum(exps)
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __str__(self):
        names = [f"t{i + 1}" for i in range(self.nvars)]
        return _monomial_sum(((self.coeffs[exps], exps) for exps in sorted(self.coeffs)), names)

    __repr__ = __str__
