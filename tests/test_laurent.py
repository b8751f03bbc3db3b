import math
import operator
import random

import pytest

from comtes.laurent import Laurent, MultiLaurent, divexact, laurent_gcd
from reference import divides, laurent_text, multi_laurent_text

T = Laurent.t()
ONE = Laurent.one()


def rand_poly(rng, max_terms=4):
    return Laurent({rng.randrange(-3, 4): rng.randrange(-5, 6) for _ in range(rng.randrange(0, max_terms))})


class TestArithmetic:
    def test_unit_normalize(self):
        assert Laurent({3: -1, 2: 2}).unit_normalize() == T - Laurent.const(2)
        assert Laurent.zero().unit_normalize() == Laurent.zero()
        # idempotent and unit-invariant
        rng = random.Random(1)
        for _ in range(200):
            p = rand_poly(rng)
            n = p.unit_normalize()
            assert n.unit_normalize() == n
            shifted = p.shift(rng.randrange(-3, 4))
            if rng.random() < 0.5:
                shifted = -shifted
            assert shifted.unit_normalize() == n

    def test_ring_axioms_random(self, rng):
        for _ in range(200):
            a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a) == Laurent.zero()

    @pytest.mark.parametrize("coeffs", [{0: 1.7}, {0: 0.5}, {0: 0.0}, {0: True}, {0: "1"}, {1.0: 1}, {True: 1}])
    def test_non_integer_entries_rejected(self, coeffs):
        # no truncation: 1.7 is not 1, and 0.5 is not a stored zero coefficient
        with pytest.raises(TypeError, match="must be integers"):
            Laurent(coeffs)

    @pytest.mark.parametrize(
        "op, left, right",
        [
            (operator.mul, T, 1.5),
            (operator.mul, 1.5, T),
            (operator.mul, T, True),
            (operator.mul, True, T),
            (operator.mul, T, "2"),
            (operator.add, T, 1),
            (operator.add, 1, T),
            (operator.add, T, 1.5),
            (operator.sub, T, 1),
            (operator.sub, T, True),
        ],
        ids=lambda v: getattr(v, "__name__", repr(v)),
    )
    def test_operand_that_is_not_a_laurent_or_an_int_factor_is_a_type_error(self, op, left, right):
        with pytest.raises(TypeError, match="'Laurent'"):
            op(left, right)

    def test_int_factor_scales(self):
        assert T * 3 == 3 * T == Laurent.t(1, 3)
        assert T * 0 == Laurent.zero()

    def test_str(self):
        assert str(T * T - T + ONE) == "t^2 - t + 1"
        assert str(Laurent({-2: -3})) == "-3*t^-2"
        assert str(Laurent.zero()) == "0"


class TestDivision:
    def test_divexact(self):
        assert divexact(T * T - ONE, T - ONE) == T + ONE
        with pytest.raises(ArithmeticError):
            divexact(T + ONE, Laurent.const(2))

    def test_product_division_roundtrip(self, rng):
        for _ in range(300):
            a, b = rand_poly(rng), rand_poly(rng)
            if not b:
                continue
            assert divexact(a * b, b) == a


def _long_division_reference(p, d):
    """The long division that ``divexact`` replaced: divide step by step
    (raising at an inexact step), then reject a nonzero remainder."""
    num = [p.coeffs.get(e, 0) for e in range(p.valuation(), p.degree() + 1)]
    den = [d.coeffs.get(e, 0) for e in range(d.valuation(), d.degree() + 1)]
    dn, lc = len(den) - 1, den[-1]
    if len(num) - 1 < dn:
        quot, rem = [0], num
    else:
        quot = [0] * (len(num) - dn)
        for k in range(len(num) - 1 - dn, -1, -1):
            head = num[k + dn]
            if head % lc != 0:
                raise ArithmeticError("division is not exact")
            quot[k] = head // lc
            for i, c in enumerate(den):
                num[k + i] -= quot[k] * c
        rem = num
    if any(rem):
        raise ArithmeticError("division is not exact")
    return Laurent({e: c for e, c in enumerate(quot)}).shift(p.valuation() - d.valuation())


def _outcome(f, *args):
    try:
        return f(*args)
    except ArithmeticError:
        return ArithmeticError


class TestDivisionDifferential:
    def test_divexact_matches_the_long_division_reference(self):
        rng = random.Random(19)
        cases = [
            (Laurent.const(6), Laurent.const(3)),
            (Laurent.const(6), Laurent.const(4)),
            (Laurent({-3: 2, -1: 4}), Laurent({-5: 2})),
            (Laurent({-2: 1}), T - ONE),
            (T * T * T - ONE, T * T - ONE),
        ]
        for _ in range(3000):
            d = rand_poly(rng) or ONE
            a = rand_poly(rng)
            # exact cases: products, with a small perturbation some of the time
            p = a * d if rng.random() < 0.6 else a
            if rng.random() < 0.2:
                p = p + Laurent.t(rng.randrange(-4, 5), rng.choice((-1, 1)))
            cases.append((p, d))
        raised = exact = 0
        for p, d in cases:
            got = _outcome(divexact, p, d)
            want = _outcome(_long_division_reference, p, d) if p else Laurent.zero()
            assert got == want, (p, d)
            raised += got is ArithmeticError
            exact += got is not ArithmeticError
        assert raised > 500 and exact > 500

    def test_zero_and_division_by_zero(self):
        assert divexact(Laurent.zero(), T - ONE) == Laurent.zero()
        with pytest.raises(ZeroDivisionError):
            divexact(T, Laurent.zero())
        with pytest.raises(ArithmeticError):
            divexact(ONE, T - ONE)  # degree too small: nonzero remainder

    def test_zero_has_no_degree_or_valuation(self):
        with pytest.raises(ValueError, match="^zero polynomial has no degree$"):
            Laurent.zero().degree()
        with pytest.raises(ValueError, match="^zero polynomial has no valuation$"):
            Laurent.zero().valuation()


def _subresultant_gcd_reference(p, q):
    """The subresultant gcd that ``laurent_gcd`` replaced: integer gcd of
    the contents times the subresultant-sequence gcd of the primitive parts."""

    def poly(x):
        return [x.coeffs.get(e, 0) for e in range(x.valuation(), x.degree() + 1)]

    def primitive(a):
        g = 0
        for c in a:
            g = math.gcd(g, abs(c))
        out = [c // g for c in a]
        return [-c for c in out] if out[-1] < 0 else out

    def prem(a, b):
        db, lc, r = len(b) - 1, b[-1], list(a)
        for e in range(len(a) - 1 - db, -1, -1):
            head = r[e + db]
            r = [lc * c for c in r]
            for i, c in enumerate(b):
                r[e + i] -= head * c
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        return r

    if not p:
        return q.unit_normalize()
    if not q:
        return p.unit_normalize()
    a, b = primitive(poly(p)), primitive(poly(q))
    if len(a) < len(b):
        a, b = b, a
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r = prem(a, b)
        if r == [0]:
            break
        denom = g * h**delta
        assert all(c % denom == 0 for c in r)
        a, b = b, [c // denom for c in r]
        g = a[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
    else:
        b = [1]
    content = math.gcd(math.gcd(*p.coeffs.values()), math.gcd(*q.coeffs.values()))
    return (Laurent.const(content) * Laurent({e: c for e, c in enumerate(primitive(b))})).unit_normalize()


class TestGcd:
    def test_matches_the_subresultant_reference(self):
        rng = random.Random(1919)
        shared = 0
        for k in range(6000):
            a, b = rand_poly(rng, 5), rand_poly(rng, 5)
            if k % 2:
                common = rand_poly(rng, 4)
                a, b = a * common, b * common
                shared += bool(common)
            assert laurent_gcd(a, b) == _subresultant_gcd_reference(a, b), (a, b)
        assert shared > 2000

    def test_examples(self):
        assert laurent_gcd(T * T - T, T - ONE) == T - ONE
        assert laurent_gcd(Laurent({1: 2}), Laurent({3: 3})) == ONE
        assert laurent_gcd(Laurent.zero(), Laurent({3: -2})) == Laurent.const(2)
        assert laurent_gcd(Laurent.zero(), Laurent.zero()) == Laurent.zero()

    def test_divides_both_and_captures_common_divisors(self, rng):
        candidates = [T - ONE, T + ONE, Laurent.const(2), Laurent.const(3), Laurent({2: 1, 0: 1})]
        for _ in range(400):
            a, b = rand_poly(rng), rand_poly(rng)
            g = laurent_gcd(a, b)
            if not (a or b):
                assert not g
                continue
            assert g == g.unit_normalize()
            assert divides(g, a) and divides(g, b)
            for d in candidates:
                if divides(d, a) and divides(d, b):
                    assert divides(d, g)

    def test_gcd_of_structured_products(self, rng):
        for _ in range(150):
            common = rand_poly(rng)
            a = common * rand_poly(rng)
            b = common * rand_poly(rng)
            g = laurent_gcd(a, b)
            if a or b:
                assert divides(common, g) or not common


class TestMultiLaurent:
    def test_specialize_to_single_variable(self):
        p = MultiLaurent.var(3, 0) + MultiLaurent.var(3, 2, -1) + MultiLaurent.const(3, 2)
        assert p.specialize() == Laurent.const(2)  # t - t + 2

    def test_str(self):
        p = MultiLaurent.var(2, 0) + MultiLaurent.const(2, -1)
        assert str(p) == "-1 + t1"

    def test_exponent_tuples_must_have_one_entry_per_variable(self):
        with pytest.raises(ValueError, match="2 entries"):
            MultiLaurent(2, {(1,): 1})
        with pytest.raises(ValueError):
            MultiLaurent(1, {(0, 0): 0})
        assert MultiLaurent(2, {(1, 0): 1}) == MultiLaurent.var(2, 0)

    @pytest.mark.parametrize("coeffs", [{(0, 1): 1.7}, {(0, 1): 0.5}, {(0, 1): True}, {(0, 0.5): 1}, {(0, False): 1}])
    def test_non_integer_entries_rejected(self, coeffs):
        with pytest.raises(TypeError, match="must be integers"):
            MultiLaurent(2, coeffs)

    @pytest.mark.parametrize("i", [2, 5, -1])
    def test_variable_index_out_of_range_rejected(self, i):
        with pytest.raises(ValueError, match=rf"^variable index {i} is not in range\(2\)$"):
            MultiLaurent.var(2, i)

    @pytest.mark.parametrize("i", [True, 1.0], ids=repr)
    def test_variable_index_that_is_not_an_int_rejected(self, i):
        with pytest.raises(TypeError, match=rf"^variable index must be an integer, got {i!r}$"):
            MultiLaurent.var(2, i)

    def test_variable_count_that_is_a_bool_rejected(self):
        with pytest.raises(TypeError, match=r"^variable count must be an integer, got True$"):
            MultiLaurent.var(True, 0)

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match=r"^variable count must be non-negative, got -1$"):
            MultiLaurent.zero(-1)

    def test_float_variable_count_rejected(self):
        with pytest.raises(TypeError, match=r"^variable count must be an integer, got 1\.5$"):
            MultiLaurent(1.5)

    def test_constant_names_a_negative_variable_count(self):
        with pytest.raises(ValueError, match=r"^variable count must be non-negative, got -2$"):
            MultiLaurent.const(-2, 1)

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    def test_sum_of_different_variable_counts_rejected(self, op):
        two, three = MultiLaurent(2, {(1, 0): 1}), MultiLaurent(3)
        with pytest.raises(ValueError, match=r"^variable counts differ: 2 and 3$"):
            op(two, three)
        with pytest.raises(ValueError, match=r"^variable counts differ: 3 and 2$"):
            op(three, two)

    def test_variable_index_one_is_the_second_variable(self):
        assert MultiLaurent.var(2, 1) == MultiLaurent(2, {(0, 1): 1})

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    @pytest.mark.parametrize("other", [1, 1.5, T], ids=repr)
    def test_operand_that_is_not_a_multilaurent_is_a_type_error(self, op, other):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(MultiLaurent.var(2, 0), other)

    def test_add_neg(self):
        p = MultiLaurent.var(2, 1)
        assert (p - p) == MultiLaurent.zero(2)


def _coefficient(rng):
    return rng.choice((-1, 1, rng.randrange(-9, 10)))


def test_writer_matches_the_replaced_ones_on_seeded_polynomials():
    # Laurent and MultiLaurent print byte for byte as the writers that
    # _monomial_sum replaced (tests/reference.py)
    rng = random.Random(37)
    texts = set()
    for _ in range(5000):
        p = Laurent({rng.randrange(-4, 5): _coefficient(rng) for _ in range(rng.randrange(0, 5))})
        n = rng.randrange(0, 4)
        q = MultiLaurent(n, {tuple(rng.randrange(-3, 4) for _ in range(n)): _coefficient(rng) for _ in range(rng.randrange(0, 5))})
        assert str(p) == laurent_text(p.coeffs)
        assert str(q) == multi_laurent_text(n, q.coeffs)
        texts |= {str(p), str(q)}
    # the zero polynomial, negative exponents and a coefficient -1 before a factor occur
    assert "0" in texts
    assert any("^-" in t for t in texts) and any(t.startswith("-t") for t in texts)
