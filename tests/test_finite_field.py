"""Tests for exact GF(p^r) arithmetic."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import CORPUS, MODULI, get_field
from nearvec.errors import (
    DivisionByZeroError,
    InvalidConfigError,
    InvalidElementError,
    NonPrimeError,
    ReduciblePolynomialError,
    TooLargeError,
)
from nearvec.finite_field import TABLE_LIMIT, Field, is_prime, prime_factors
from nearvec.space import TwistedSpace


def test_make_prime_field():
    f = Field(11)
    assert f.order == 11 and f.mult_order == 10
    assert f.modulus is None


def test_make_extension_field():
    f = Field(3, 2, (1, 0, 1))  # x^2 + 1 has no root mod 3
    assert f.order == 9
    assert f.modulus == (1, 0, 1)


def test_make_rejects_composite_characteristic():
    with pytest.raises(NonPrimeError):
        Field(4)


def test_make_rejects_reducible_modulus():
    with pytest.raises(ReduciblePolynomialError) as err:
        Field(5, 2, (1, 0, 1))  # 2^2 = -1 mod 5
    assert err.value.factor is not None


def test_make_rejects_oversized_field():
    with pytest.raises(TooLargeError):
        Field(2, 21, (1, 1) + (0,) * 19 + (1,))


@pytest.mark.parametrize("p, r", [(2 ** 61 - 1, 1), (2 ** 89 - 1, 1), (2, 10 ** 6), (3, 13)])
def test_oversized_field_is_refused_before_any_work(p, r):
    # a primality scan of 2^61 - 1 alone takes about 10^9 steps
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        Field(p, r)
    assert time.perf_counter() - start < 0.5


def test_make_requires_monic_modulus():
    with pytest.raises(ValueError):
        Field(3, 2, (1, 0, 2))
    with pytest.raises(ValueError):
        Field(3, 2, None)


def test_pow_and_inv_examples():
    f = Field(11)
    assert f.pow(2, 5) == 10
    assert f.inv(7) == 8
    assert f.add(0, 5) == 5
    assert f.pow(3, 0) == 1
    assert f.pow(0, 3) == 0
    assert f.pow(0, 0) == 1
    assert f.pow(2, -1) == f.inv(2)
    with pytest.raises(DivisionByZeroError):
        f.inv(0)
    with pytest.raises(DivisionByZeroError):
        f.pow(0, -2)


def test_elements_enumeration():
    assert list(Field(3).elements()) == [0, 1, 2]
    nine = list(get_field(3, 2).elements())
    assert len(nine) == 9 and nine[0] == 0
    assert len(list(Field(11).elements())) == 11


def test_coeffs_round_trip():
    for key in ((3, 2), (5, 2), (2, 3)):
        f = get_field(*key)
        for a in f.elements():
            assert f.element(f.coeffs(a)) == a
    with pytest.raises(ValueError):
        get_field(3, 2).element((3, 0))
    with pytest.raises(ValueError):
        get_field(3, 2).element((1,))


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (5, 2), (7, 2), (11, 2)]


@pytest.mark.parametrize("key", SMALL_FIELDS, ids=str)
def test_field_axioms_exhaustive(key):
    # the certifying sweep for orders up to 121
    f = get_field(*key)
    add, mul = f.op_tables()
    els = range(f.order)
    for a in els:
        assert add[0][a] == a
        assert add[a][f.neg(a)] == 0
        if a:
            assert mul[a][f.inv(a)] == 1
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("key", SMALL_FIELDS, ids=str)
def test_lagrange_and_frobenius(key):
    f = get_field(*key)
    add, _ = f.op_tables()
    images = [f.frobenius(a) for a in f.elements()]
    assert sorted(images) == list(f.elements())
    for a in f.elements():
        if a:
            assert f.pow(a, f.mult_order) == 1
        for b in f.elements():
            assert f.frobenius(add[a][b]) == add[images[a]][images[b]]
            assert f.frobenius(f.mul(a, b)) == f.mul(images[a], images[b])


def test_generator_is_smallest():
    assert Field(11).generator() == 2
    f9 = get_field(3, 2)
    g = f9.generator()
    seen = set()
    x = 1
    for _ in range(f9.mult_order):
        x = f9.mul(x, g)
        seen.add(x)
    assert len(seen) == f9.mult_order
    for smaller in range(2, g):
        powers = set()
        y = 1
        for _ in range(f9.mult_order):
            y = f9.mul(y, smaller)
            powers.add(y)
        assert len(powers) < f9.mult_order


def test_is_prime_and_factors():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_factors(168) == [2, 3, 7]
    assert prime_factors(7) == [7]


# arithmetic beyond the dense-table regime runs through the slow path;
# sample it against the defining identities
F1024 = Field(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))  # x^10 + x^3 + 1
el1024 = hst.integers(min_value=0, max_value=1023)


@settings(max_examples=200, deadline=None)
@given(el1024, el1024, el1024)
def test_large_field_sampled_laws(a, b, c):
    f = F1024
    assert f.add(a, b) == f.add(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.mult_order) == 1


def _digit_add(f, a, b):
    return f.element(tuple((x + y) % f.p for x, y in zip(f.coeffs(a), f.coeffs(b))))


# every corpus field, plus fields whose tables take the row kernels'
# r > 1 fold, XOR and prime-slice routes at sizes near the table limit
CORPUS_FIELDS = sorted({(p, r, MODULI.get((p, r))) for p, r, _ in CORPUS})
TABLE_FIELDS = CORPUS_FIELDS + [
    (3, 5, (1, 2, 0, 0, 0, 1)),
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
    (1021, 1, None),
]


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=str)
def test_op_tables_match_per_element_arithmetic(key):
    f = Field(*key)
    add, mul = f.op_tables()
    n = f.order
    assert all(add[a] == f._add_row(a) for a in range(n))
    if n <= 256:
        rows = range(n)
    else:
        # all n^2 entries of _raw_mul would take minutes; take the rows at
        # the block boundaries of the add-table rotation plus a seeded few
        top = n // f.p
        rows = {0, 1, top - 1, top, n - 1}
        rows = sorted(rows | set(random.Random(n).sample(range(n), 24)))
    for a in rows:
        assert add[a] == [_digit_add(f, a, b) for b in range(n)], a
        assert mul[a] == [f._raw_mul(a, b) for b in range(n)], a
    for a in range(1, n):
        assert f._raw_mul(a, f.inv(a)) == 1


ARITH_FIELDS = CORPUS_FIELDS + [
    (1031, 1, None),
    (2, 11, (1, 0, 1) + (0,) * 8 + (1,)),
    (3, 7, (2, 0, 1, 0, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("key", ARITH_FIELDS, ids=str)
def test_add_and_mul_do_not_depend_on_call_history(key):
    """add and mul match the digit-wise and polynomial references on a
    fresh field, and again once op_tables has run where it may."""
    f = Field(*key)
    rng = random.Random(f.order)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(200)]
    pairs += [(0, 0), (0, f.order - 1), (f.order - 1, 1)]

    def check():
        for a, b in pairs:
            assert f.add(a, b) == _digit_add(f, a, b), (a, b)
            assert f.mul(a, b) == f._raw_mul(a, b), (a, b)

    check()
    if f.order <= TABLE_LIMIT:
        f.op_tables()
        check()
    else:
        with pytest.raises(TooLargeError):
            f.op_tables()
        assert f._add_rows == {} and f._mul_rows == {}


@pytest.mark.parametrize(
    "key",
    CORPUS_FIELDS + [(3, 7, (2, 0, 1, 0, 0, 0, 0, 1)), (2, 11, (1, 0, 1) + (0,) * 8 + (1,))],
    ids=str,
)
def test_pow_table_matches_pow(key):
    f = Field(*key)  # fresh: pow goes through polynomial products, no tables
    m = f.mult_order
    for k in (0, 1, 2, f.p, 5, m - 1, m + 3):
        expected = [f.pow(x, k) for x in range(f.order)]
        assert f.pow_table(k) == expected, k


def test_add_row_above_table_limit_matches_digit_add():
    f = Field(3, 7, (2, 0, 1, 0, 0, 0, 0, 1))
    assert f.order > TABLE_LIMIT
    for a in random.Random(7).sample(range(f.order), 6) + [0, f.order - 1]:
        assert f._add_row(a) == [_digit_add(f, a, b) for b in range(f.order)]


@pytest.mark.parametrize("key", [(2, 11, (1, 0, 1) + (0,) * 8 + (1,)), (1031, 1, None)],
                         ids=str)
def test_inv_reads_the_log_walk(key):
    f = Field(*key)  # fresh: no dense table, so inv is exp[-log a]
    assert f._mul_table is None
    for a in f.units():
        assert f._raw_mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("key", [(13, 1, None), (3, 2, (1, 0, 1)), (1031, 1, None)],
                         ids=str)
def test_rows_are_cached_up_to_the_table_limit(key):
    f = Field(*key)
    for a in (0, 1, f.order - 1):
        assert f.add_row(a) == [f.add(a, b) for b in f.elements()]
        assert f.mul_row(a) == [f._raw_mul(a, b) for b in f.elements()]
    if f.order > TABLE_LIMIT:
        assert f._add_rows == {} and f._mul_rows == {}
        with pytest.raises(TooLargeError):
            f.op_tables()
    else:
        assert f.add_row(1) is f.add_row(1)
        add, mul = f.op_tables()
        # the dense tables are lists of the cached rows, not copies
        assert add[1] is f.add_row(1) and mul[1] is f.mul_row(1)
        assert len(add) == len(mul) == f.order


# every Field method that takes an element, called with x as that element
ELEMENT_CALLS = {
    "add_row": lambda f, x: f.add_row(x),
    "mul_row": lambda f, x: f.mul_row(x),
    "add_left": lambda f, x: f.add(x, 3),
    "add_right": lambda f, x: f.add(3, x),
    "mul_left": lambda f, x: f.mul(x, 3),
    "mul_right": lambda f, x: f.mul(3, x),
    "neg": lambda f, x: f.neg(x),
    "inv": lambda f, x: f.inv(x),
    "pow": lambda f, x: f.pow(x, 2),
    "coeffs": lambda f, x: f.coeffs(x),
}


@pytest.mark.parametrize("a", [-1, 13, 100, 1.0, True, None], ids=repr)
@pytest.mark.parametrize("method", list(ELEMENT_CALLS))
def test_row_outside_the_field_raises(method, a):
    # rows 1 are cached first: 1.0 and True hash like 1, yet are refused
    f = Field(13)
    rows = f.add_row(1), f.mul_row(1)
    with pytest.raises(InvalidElementError) as info:
        ELEMENT_CALLS[method](f, a)
    assert isinstance(info.value, IndexError)
    assert (f._add_rows, f._mul_rows) == ({1: rows[0]}, {1: rows[1]})


@pytest.mark.parametrize("a", [-1, 2048, 5000, 1.0, True, None], ids=repr)
@pytest.mark.parametrize("method", list(ELEMENT_CALLS))
def test_operand_outside_a_field_above_the_table_limit_raises(method, a):
    f = get_field(2, 11)
    assert f.order > TABLE_LIMIT
    with pytest.raises(InvalidElementError) as info:
        ELEMENT_CALLS[method](f, a)
    assert isinstance(info.value, IndexError)


# every call that takes an exponent k; the space's power tables feed
# span_of's straightening
EXPONENT_CALLS = {
    "pow": lambda f, k: f.pow(3, k),
    "pow_of_zero": lambda f, k: f.pow(0, k),
    "pow_table": lambda f, k: f.pow_table(k),
    "space_power_table": lambda f, k: TwistedSpace(f, (1,)).power_table(k),
}


@pytest.mark.parametrize("k", [2.5, None, "3", True], ids=repr)
@pytest.mark.parametrize("method", list(EXPONENT_CALLS))
@pytest.mark.parametrize("key", [(13, 1), (2, 11)], ids=str)
def test_exponent_that_is_no_integer_raises(key, method, k):
    # True is refused as for elements, though pow(3, True) would be 3
    f = get_field(*key)
    with pytest.raises(InvalidConfigError, match="exponent") as info:
        EXPONENT_CALLS[method](f, k)
    assert repr(k) in str(info.value)


# every field of the shared corpus, plus GF(2^10), GF(2^11) and GF(3^7)
LOG_WALK_FIELDS = sorted(
    {(p, r, MODULI.get((p, r))) for p, r in MODULI}
    | {(p, r, MODULI.get((p, r))) for p, r, _ in CORPUS}
) + [
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
    (2, 11, (1, 0, 1) + (0,) * 8 + (1,)),
    (3, 7, (2, 0, 1, 0, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("key", LOG_WALK_FIELDS, ids=str)
def test_log_walk_and_negation_match_polynomial_references(key):
    f = Field(*key)
    g = f.generator()
    # g^i as successive polynomial products, and -x coefficient by coefficient
    exp = [1]
    for _ in range(2, f.order):
        exp.append(f._raw_mul(exp[-1], g))
    log = [None] * f.order
    for i, e in enumerate(exp):
        log[e] = i
    assert f._log_walk() == (exp, log)
    assert f.neg_table() == [
        f.element(tuple(-c % f.p for c in f.coeffs(x))) for x in f.elements()
    ]
