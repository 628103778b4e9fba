"""Tests for near-field structures and the exhaustive axiom checker."""

import json
import random
import signal
from contextlib import contextmanager
from itertools import permutations

import pytest

from conftest import MODULI, get_field
from nearvec import near_field as nf
from nearvec.errors import InvalidConfigError, TooLargeError
from nearvec.finite_field import Field

FIELD_KEYS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
              (2, 2), (3, 2), (5, 2)]


@pytest.mark.parametrize("key", FIELD_KEYS, ids=str)
def test_field_near_fields_pass_all_axioms(key):
    structure = nf.from_field(get_field(*key))
    report = nf.check_axioms(structure)
    assert report.all_pass, report.failed()
    assert nf.right_distributivity_failure(structure.add, structure.mul) is None
    assert nf.distributive_elements(structure) == frozenset(structure.elements())


def max_product_structure(n=4):
    """max as addition and the product mod n: square tables in range,
    but neither forms a group."""
    return nf.NearField(
        [[max(a, b) for b in range(n)] for a in range(n)],
        [[(a * b) % n for b in range(n)] for a in range(n)],
    )


def test_axiom_checker_reports_counterexamples():
    bad = max_product_structure()
    report = nf.check_axioms(bad)
    assert not report.all_pass
    assert "add_inverses" in report.failed()
    assert report.witness("add_inverses") is not None


def test_out_of_range_table_entry_is_rejected():
    with pytest.raises(ValueError):
        nf.NearField([[0, 5], [1, 0]], [[0, 0], [0, 1]])


def test_axiom_report_serializes():
    report = nf.check_axioms(nf.from_field(Field(7)))
    payload = report.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert all(entry["pass"] for entry in payload.values())


class TestDickson9:
    def test_left_near_field_axioms_pass(self):
        d9 = nf.dickson9()
        assert nf.check_axioms(d9).all_pass

    def test_right_distributivity_fails(self):
        d9 = nf.dickson9()
        cx = nf.right_distributivity_failure(d9.add, d9.mul)
        assert cx is not None
        a, b, c = cx
        lhs = d9.mul[d9.add[a][b]][c]
        rhs = d9.add[d9.mul[a][c]][d9.mul[b][c]]
        assert lhs != rhs

    def test_right_scan_finds_the_first_failing_triple(self):
        d9 = nf.dickson9()
        add, mul, els = d9.add, d9.mul, d9.elements()
        first = next(
            (a, b, c) for a in els for b in els for c in els
            if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]
        )
        assert nf.right_distributivity_failure(add, mul) == first

    def test_distributive_elements_are_the_prime_subfield(self):
        assert nf.distributive_elements(nf.dickson9()) == frozenset({0, 1, 2})

    def test_not_isomorphic_to_the_field_of_order_nine(self):
        d9 = nf.dickson9()
        g9 = nf.from_field(get_field(3, 2))
        assert nf.find_isomorphism(g9, d9) is None
        assert nf.find_isomorphism(d9, g9) is None

    def test_multiplicative_group_is_quaternion(self):
        d9 = nf.dickson9()
        orders = sorted(d9.mul_order(x) for x in d9.nonzero())
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_distributive_elements_form_a_subnear_field():
    for structure in (nf.dickson9(), nf.from_field(get_field(3, 2))):
        dist = nf.distributive_elements(structure)
        assert structure.zero in dist and structure.one in dist
        for a in dist:
            for b in dist:
                assert structure.add[a][b] in dist
                assert structure.mul[a][b] in dist


def test_isomorphism_reflexive_and_symmetric():
    d9 = nf.dickson9()
    g9 = nf.from_field(get_field(3, 2))
    g5 = nf.from_field(Field(5))
    for structure in (d9, g9, g5):
        iso = nf.find_isomorphism(structure, structure)
        assert iso is not None
    # symmetric: GF(9) built over a different modulus is still GF(9)
    other9 = nf.from_field(Field(3, 2, (2, 2, 1)))  # x^2 + 2x + 2
    fwd = nf.find_isomorphism(g9, other9)
    bwd = nf.find_isomorphism(other9, g9)
    assert fwd is not None and bwd is not None
    for a in range(9):
        for b in range(9):
            assert fwd[g9.add[a][b]] == other9.add[fwd[a]][fwd[b]]
            assert bwd[other9.add[a][b]] == g9.add[bwd[a]][bwd[b]]


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, a block that runs past ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def relabelled(structure, seed):
    """A copy of ``structure`` with its elements renamed by a seeded
    permutation."""
    n = structure.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    add, mul = ([[perm[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
                for t in (structure.add, structure.mul))
    return nf.NearField(add, mul, zero=perm[structure.zero], one=perm[structure.one])


def is_isomorphism(f, n1, n2):
    """Cell by cell: f is a bijection carrying zero, one and both tables."""
    els = n1.elements()
    return (
        sorted(f) == sorted(f.values()) == list(els)
        and f[n1.zero] == n2.zero and f[n1.one] == n2.one
        and all(f[n1.add[a][b]] == n2.add[f[a]][f[b]]
                and f[n1.mul[a][b]] == n2.mul[f[a]][f[b]] for a in els for b in els)
    )


def _small_near_fields():
    for key in MODULI:
        if key[0] ** key[1] <= 64:
            yield pytest.param(key, id=str(key))
    yield pytest.param("dickson9", id="dickson9")


@pytest.mark.parametrize("key", _small_near_fields())
def test_isomorphism_found_against_a_relabelled_copy(key):
    structure = nf.dickson9() if key == "dickson9" else nf.from_field(get_field(*key))
    copy = relabelled(structure, seed=structure.size)
    for n1, n2 in ((structure, copy), (copy, structure)):
        iso = nf.find_isomorphism(n1, n2)
        assert iso is not None and is_isomorphism(iso, n1, n2)


def test_dickson9_is_not_isomorphic_to_a_relabelled_gf9():
    d9 = nf.dickson9()
    g9 = relabelled(nf.from_field(get_field(3, 2)), seed=9)
    assert nf.find_isomorphism(d9, g9) is None
    assert nf.find_isomorphism(g9, d9) is None


def test_isomorphism_search_is_complete_on_corrupted_tables():
    # one cell of a small field's tables changed: no longer a near-field,
    # but still isomorphic to its relabelled copy whenever every
    # multiplicative order exists; a copy with one more cell changed is
    # judged against an exhaustive search over the relabellings
    rng = random.Random(7)
    found = 0
    for key in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):
        base = nf.from_field(get_field(*key))
        n = base.size
        for _ in range(40):
            tables = [[list(row) for row in t] for t in (base.add, base.mul)]
            rng.choice(tables)[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            n1 = nf.NearField(*tables)
            n2 = relabelled(n1, seed=rng.randrange(1 << 16))
            if rng.random() < 0.5:
                tables = [[list(row) for row in t] for t in (n2.add, n2.mul)]
                rng.choice(tables)[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                n2 = nf.NearField(*tables, zero=n2.zero, one=n2.one)
            try:
                with deadline(10):
                    iso = nf.find_isomorphism(n1, n2)
            except InvalidConfigError:
                continue
            rest = [x for x in n1.elements() if x not in (n1.zero, n1.one)]
            exhaustive = any(
                is_isomorphism({n1.zero: n2.zero, n1.one: n2.one, **dict(zip(rest, images))},
                               n1, n2)
                for images in permutations(y for y in n2.elements()
                                           if y not in (n2.zero, n2.one))
            )
            assert (iso is not None) == exhaustive
            assert iso is None or is_isomorphism(iso, n1, n2)
            found += iso is not None
    assert found


def test_isomorphism_rejects_different_sizes_and_large_inputs():
    g5 = nf.from_field(Field(5))
    g7 = nf.from_field(Field(7))
    assert nf.find_isomorphism(g5, g7) is None
    big = nf.from_field(Field(11, 2, (1, 0, 1)))
    with pytest.raises(TooLargeError):
        nf.find_isomorphism(big, big)


def test_char_and_element_orders():
    d9 = nf.dickson9()
    assert d9.char() == 3
    assert d9.add_order(0) == 1
    assert all(d9.add_order(x) == 3 for x in d9.nonzero())
    g4 = nf.from_field(get_field(2, 2))
    assert g4.char() == 2


def test_order_walks_refuse_tables_that_form_no_group():
    # 1 + 1 = 1 under max, so the additive walk from 1 never meets 0; 2 * 2
    # = 0 mod 4, so the multiplicative walk from 2 never meets 1
    bad = max_product_structure()
    with deadline(5):
        with pytest.raises(InvalidConfigError, match="1 has no order under the addition table"):
            bad.char()
        with pytest.raises(InvalidConfigError, match="2 has no order under the multiplication table"):
            nf.find_isomorphism(bad, bad)


def test_negation_refuses_an_addition_row_without_zero():
    # row 1 of max is [1, 1, 2, 3]: 1 has no negative
    bad = max_product_structure()
    with pytest.raises(InvalidConfigError, match="1 has no negative: row 1 of"):
        bad.neg(0)


def test_unique_order_two_element_in_odd_characteristic():
    for structure in (nf.from_field(Field(7)), nf.from_field(get_field(3, 2)),
                      nf.dickson9()):
        involutions = [
            x for x in structure.nonzero()
            if x != structure.one and structure.mul[x][x] == structure.one
        ]
        assert len(involutions) == 1
        x = involutions[0]
        # the order-2 unit multiplies as additive negation
        for a in structure.elements():
            assert structure.mul[x][a] == structure.neg(a)
    for structure in (nf.from_field(Field(2)), nf.from_field(get_field(2, 2)),
                      nf.from_field(get_field(2, 3))):
        assert not any(
            x != structure.one and structure.mul[x][x] == structure.one
            for x in structure.nonzero()
        )


# -- row-wise scans against cell-by-cell references ---------------------------
#
# The scans compare whole rows and walk cells only inside the first failing
# row; these references walk every cell in row-major order, so both must
# name the same first failing triple.


def _triples(n):
    return ((a, b, c) for a in range(n) for b in range(n) for c in range(n))


def associativity_reference(t):
    return next(
        ((a, b, c) for a, b, c in _triples(len(t)) if t[t[a][b]][c] != t[a][t[b][c]]),
        None,
    )


def left_distributivity_reference(add, mul):
    return next(
        ((a, b, c) for a, b, c in _triples(len(add))
         if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]),
        None,
    )


def right_distributivity_reference(add, mul):
    return next(
        ((a, b, c) for a, b, c in _triples(len(add))
         if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]),
        None,
    )


def homomorphism_reference(f, src, dst):
    n = len(src)
    return next(
        ((a, b) for a in range(n) for b in range(n) if f[src[a][b]] != dst[f[a]][f[b]]),
        None,
    )


GF256 = Field(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x + 1


def _scan_structures():
    # GF(2^8) is the largest carrier whose rows are read as bytes, and
    # GF(257) the smallest read through tuples
    fields = [get_field(*key) for key in ((2, 1), (3, 1), (2, 3), (11, 1), (11, 2))]
    for field in fields + [GF256, Field(257)]:
        yield pytest.param(*field.op_tables(), id=repr(field))
    d9 = nf.dickson9()
    yield pytest.param(d9.add, d9.mul, id="dickson9")
    yield pytest.param([[0]], [[0]], id="size1")


def _single_cell_corruptions(add, mul, rng, count, rows):
    """(index of the changed table, add, mul): copies with one cell in the
    first ``rows`` rows of one table changed, every such change for tables
    of at most three elements, else ``count`` seeded ones."""
    n = len(add)
    cells = [(which, a, b, x) for which in (0, 1) for a in range(rows) for b in range(n)
             for x in range(n) if x != (add, mul)[which][a][b]]
    if n > 3:
        cells = rng.sample(cells, count)
    for which, a, b, x in cells:
        tables = [[list(row) for row in add], [list(row) for row in mul]]
        tables[which][a][b] = x
        yield which, *tables


@pytest.mark.parametrize("add, mul", _scan_structures())
def test_row_scans_match_cell_references_under_corruption(add, mul):
    n = len(add)
    rng = random.Random(n)
    # a full reference scan of GF(121) walks 1.8 million cells, so there
    # only the corrupted table is checked for associativity
    variants = [] if n > 64 else [(None, add, mul)]
    # the references over GF(2^8) and GF(257) walk up to 17 million
    # cells, so their corruptions sit in the first two rows, where the
    # first failing triple comes early
    rows = n if n <= 121 else 2
    variants += _single_cell_corruptions(add, mul, rng, 4 if n > 64 else 24, rows)
    for which, add_t, mul_t in variants:
        for index, t in enumerate((add_t, mul_t)):
            if n <= 64 or index == which:
                assert nf.associativity_failure(t) == associativity_reference(t)
        assert nf.left_distributivity_failure(add_t, mul_t) == (
            left_distributivity_reference(add_t, mul_t))
        assert nf.right_distributivity_failure(add_t, mul_t) == (
            right_distributivity_reference(add_t, mul_t))
        # the identity and the multiplication by the last element, from
        # each (possibly corrupted) table to its clean counterpart
        for f in (range(n), mul[n - 1]):
            for src, dst in ((add_t, add), (mul_t, mul)):
                assert nf.homomorphism_failure(f, src, dst) == (
                    homomorphism_reference(f, src, dst))


def test_rows_are_bytes_up_to_256_elements():
    # bytes read by translation up to the byte alphabet, tuples above it
    # and on any table that is not square over its carrier
    for field, read in ((GF256, bytes.translate), (Field(257), nf._read_tuples)):
        add, mul = field.op_tables()
        got, (keys, luts), (col_keys, col_luts) = nf.encode_rows(add, zip(*mul))
        assert got is read
        assert list(map(list, keys)) == add
        assert list(map(list, col_keys)) == list(map(list, zip(*mul)))
    assert nf.encode_rows([[0, 1], [1, 2]])[0] is nf._read_tuples
    assert nf.encode_rows([[0, 1], [1]])[0] is nf._read_tuples
    read, (keys, luts) = nf.encode_rows([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert keys == [b"\x01\x02\x00", b"\x02\x00\x01", b"\x00\x01\x02"]
    assert all(len(lut) == 256 for lut in luts)
    # row 1 read at the entries of row 0
    assert read(keys[0], luts[1]) == b"\x00\x01\x02"


def test_row_getter_returns_tuples_for_every_row_length():
    seq = [10, 11, 12]
    assert nf.row_getter([])(seq) == ()
    assert nf.row_getter([2])(seq) == (12,)
    assert nf.row_getter([2, 0])(seq) == (12, 10)
