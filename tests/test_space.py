"""Tests for twisted spaces, the quasi-kernel and the axiom checker."""

import json
import random
from functools import reduce
from itertools import product
from operator import xor

import pytest

from conftest import CORPUS, check_components_against_bruteforce, get_space
from nearvec import cli, verify
from nearvec import near_field as nf
from nearvec.errors import (
    InvalidConfigError,
    InvalidVectorError,
    NearVecError,
    NotCoprimeError,
    TooLargeError,
)
from nearvec.finite_field import TABLE_LIMIT, Field
from nearvec.space import (
    TwistedSpace,
    additive_closure,
    check_axioms,
    check_axioms_raw,
    quasi_kernel_bruteforce,
    quasi_kernel_closed_form,
    quasi_kernel_report,
    vector_from_json,
    vector_to_json,
)


class TestConstruction:
    def test_flawed_exponents_are_rejected_with_witness(self):
        with pytest.raises(NotCoprimeError) as err:
            TwistedSpace(Field(11), (3, 5, 3))
        exc = err.value
        assert exc.index == 1 and exc.exponent == 5 and exc.gcd == 5
        assert (exc.alpha, exc.beta, exc.vector) == (2, 8, (0, 1, 0))
        # the witness really is a fixed-point-freeness violation
        f = Field(11)
        assert f.pow(exc.alpha, 5) == f.pow(exc.beta, 5) == 10

    def test_valid_construction_and_classes(self):
        space = get_space(11, 1, (3, 7, 3))
        assert [c.support for c in space.classes] == [(0, 2), (1,)]
        assert space.size == 11 ** 3

    def test_untwisted_space_is_single_class(self):
        space = get_space(5, 1, (1, 1))
        assert len(space.classes) == 1

    def test_frobenius_equivalent_exponents_merge(self):
        space = get_space(3, 2, (1, 3))
        assert len(space.classes) == 1

    def test_exponents_reduce_mod_unit_group_order(self):
        space = TwistedSpace(Field(11), (13, 7, 3))
        assert space.exponents == (3, 7, 3)

    def test_size_bound(self):
        with pytest.raises(TooLargeError):
            TwistedSpace(Field(13), (1, 1, 1, 1, 1, 1))

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            TwistedSpace(Field(5), (0, 1))


class TestArithmetic:
    def test_scalar_action_example(self):
        space = get_space(11, 1, (3, 7, 3))
        assert space.scalar_mul(2, (1, 1, 1)) == (8, 7, 8)

    def test_identity_and_zero_scalars(self):
        space = get_space(11, 1, (3, 7, 3))
        for v in [(1, 2, 3), (0, 0, 0), (10, 4, 7)]:
            assert space.scalar_mul(1, v) == v
            assert space.scalar_mul(0, v) == space.zero

    def test_vector_addition_and_negation(self):
        space = get_space(11, 1, (3, 7, 3))
        assert space.add((1, 2, 3), (10, 9, 8)) == (0, 0, 0)
        assert space.add((1, 2, 3), space.zero) == (1, 2, 3)
        for v in space.vectors()[:50]:
            assert space.neg(v) == space.scalar_mul(space.field.neg(1), v)

    def test_enumeration_is_lexicographic(self):
        space = get_space(5, 1, (1, 1))
        vecs = space.vectors()
        assert vecs[:6] == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)]
        assert vecs == sorted(vecs)


F2048 = Field(2, 11, (1, 0, 1) + (0,) * 8 + (1,))  # x^11 + x^2 + 1


@pytest.mark.parametrize("field, exponents", [
    (Field(11), (3, 7, 3)),
    (Field(1031), (7, 3)),
    (F2048, (3,)),
], ids=repr)
def test_vector_arithmetic_matches_coordinate_references(field, exponents):
    """add, scalar_mul and neg against digit-wise sums, polynomial
    products and digit-wise negation, coordinate by coordinate, on both
    sides of TABLE_LIMIT."""
    space = TwistedSpace(field, exponents)
    p = field.p
    rng = random.Random(field.order)

    def ref_add(a, b):
        return field.element(tuple((x + y) % p for x, y in zip(field.coeffs(a), field.coeffs(b))))

    def ref_neg(a):
        return field.element(tuple(-x % p for x in field.coeffs(a)))

    def ref_twist(alpha, q):
        out = 1
        for _ in range(q):
            out = field._raw_mul(out, alpha)
        return out

    for _ in range(60):
        v = tuple(rng.randrange(field.order) for _ in range(space.n))
        w = tuple(rng.randrange(field.order) for _ in range(space.n))
        alpha = rng.randrange(field.order)
        assert space.add(v, w) == tuple(map(ref_add, v, w))
        assert space.neg(v) == tuple(map(ref_neg, v))
        assert space.scalar_mul(alpha, v) == tuple(
            field._raw_mul(ref_twist(alpha, q), x) for q, x in zip(space.exponents, v)
        )


SUMSET_BELOW_LIMIT = [(2, 1, (1,)), (2, 3, (1, 3)), (3, 2, (1, 5)), (11, 1, (3, 7, 3))]
SUMSET_ABOVE_LIMIT = [
    (Field(1031), (7,)),
    (Field(2, 11, (1, 0, 1) + (0,) * 8 + (1,)), (3,)),
]


class TestSumset:
    """``sumset`` against the pairwise sums of ``add``."""

    @staticmethod
    def seeded_sets(space, rng):
        vectors = [tuple(rng.randrange(space.field.order) for _ in range(space.n))
                   for _ in range(40)]
        sizes = (0, 1, 2, 7, 40)
        return [(vectors[:i], vectors[-j:] if j else []) for i in sizes for j in sizes]

    def check(self, space):
        rng = random.Random(space.field.order)
        for A, B in self.seeded_sets(space, rng):
            expected = {space.add(a, b) for a in A for b in B}
            assert space.sumset(set(A), B) == expected
            assert space.sumset(A, iter(B)) == expected

    @pytest.mark.parametrize("key", SUMSET_BELOW_LIMIT, ids=str)
    def test_matches_pairwise_sums_below_table_limit(self, key):
        self.check(get_space(*key))

    @pytest.mark.parametrize("field, exponents", SUMSET_ABOVE_LIMIT, ids=repr)
    def test_matches_pairwise_sums_above_table_limit(self, field, exponents, monkeypatch):
        assert field.order > TABLE_LIMIT
        space = TwistedSpace(field, exponents)

        def no_rows(a):
            raise AssertionError("a short sumset built an O(|F|) field row")

        # add and sumset compute each sum there; neither may build a row
        monkeypatch.setattr(field, "_add_row", no_rows)
        self.check(space)

    def test_additive_closure_is_the_generated_subgroup(self):
        space = get_space(3, 2, (1, 5))
        gens = [(1, 0), (0, 4)]
        closure = additive_closure(space, gens)
        assert len(closure) == 9
        assert space.sumset(closure, closure) == closure


class TestAdditiveMultiples:
    """``additive_multiples`` against the walk g, g + g, ... by ``add``."""

    @staticmethod
    def walk(space, g):
        cyclic, x = [], g
        while x != space.zero:
            cyclic.append(x)
            x = space.add(x, g)
        return cyclic

    def check(self, space):
        rng = random.Random(space.field.order)
        vectors = [tuple(rng.randrange(space.field.order) for _ in range(space.n))
                   for _ in range(3)] + list(space.standard_basis())
        for g in vectors:
            if g != space.zero:
                assert space.additive_multiples(g) == self.walk(space, g), g

    @pytest.mark.parametrize("key", CORPUS, ids=str)
    def test_matches_the_add_walk(self, key):
        self.check(get_space(*key))

    @pytest.mark.parametrize("field, exponents", SUMSET_ABOVE_LIMIT, ids=repr)
    def test_matches_the_add_walk_above_table_limit(self, field, exponents, monkeypatch):
        space = TwistedSpace(field, exponents)

        def no_rows(a):
            raise AssertionError("a cyclic factor built an O(|F|) field row")

        # each multiple is computed per coordinate, with no row built
        monkeypatch.setattr(field, "_mul_row", no_rows)
        self.check(space)


class TestQuasiKernel:
    def test_worked_example_structure(self):
        space = get_space(11, 1, (3, 7, 3))
        qk = quasi_kernel_bruteforce(space)
        expected = {(a, 0, c) for a in range(11) for c in range(11)}
        expected |= {(0, b, 0) for b in range(11)}
        assert qk.members == expected
        assert len(qk.members) == 131

    def test_untwisted_quasi_kernel_is_everything(self):
        space = get_space(5, 1, (1, 1))
        assert quasi_kernel_bruteforce(space).members == set(space.vectors())

    def test_zero_always_in_quasi_kernel(self):
        for key in [(5, 1, (1, 3)), (3, 2, (1, 5)), (7, 1, (1, 5, 5))]:
            assert get_space(*key).quasi_kernel().members >= {get_space(*key).zero}

    def test_single_coordinate_space_has_full_quasi_kernel(self):
        space = get_space(13, 2, (5,))
        assert space.quasi_kernel().members == set(space.vectors())

    @pytest.mark.parametrize(
        "key",
        [(5, 1, (1, 3)), (3, 2, (1, 5)), (3, 2, (1, 3)), (7, 1, (1, 5, 5)),
         (2, 3, (1, 3)), (11, 1, (3, 7, 3))],
        ids=str,
    )
    def test_oracle_equivalence_spot(self, key):
        space = get_space(*key)
        assert quasi_kernel_bruteforce(space).members == \
            quasi_kernel_closed_form(space).members

    def test_interleaved_class_supports(self):
        # exponents (1,3,3,1) over GF(5) split into two non-contiguous
        # blocks; the quasi-kernel is the union of both coordinate planes
        space = TwistedSpace(Field(5), (1, 3, 3, 1))
        assert [c.support for c in space.classes] == [(0, 3), (1, 2)]
        qk = quasi_kernel_bruteforce(space)
        expected = {(a, 0, 0, d) for a in range(5) for d in range(5)}
        expected |= {(0, b, c, 0) for b in range(5) for c in range(5)}
        assert qk.members == expected
        assert qk.members == quasi_kernel_closed_form(space).members

    def test_class_supports_partition(self):
        space = get_space(11, 1, (3, 7, 3))
        check_components_against_bruteforce(space, quasi_kernel_bruteforce(space))
        parts = [space.class_members(cls.index) for cls in space.classes]
        union = set()
        for i, part in enumerate(parts):
            for other in parts[i + 1:]:
                assert part & other == {space.zero}
            union |= part
        assert union == space.quasi_kernel().members

    def test_closed_under_scalars(self):
        space = get_space(11, 1, (3, 7, 3))
        qk = space.quasi_kernel()
        for v in qk.members:
            for a in range(11):
                assert space.scalar_mul(a, v) in qk.members

    def test_additive_closure_generates_space(self):
        space = get_space(11, 1, (3, 7, 3))
        closure = additive_closure(space, space.quasi_kernel().sorted_members())
        assert len(closure) == space.size

    @pytest.mark.parametrize("key", CORPUS, ids=str)
    def test_class_membership_and_counts_match_bruteforce(self, key):
        # class_of and quasi_kernel_report read Q(V) off the exponent
        # classes; the brute-force scan knows nothing of the classes
        space = get_space(*key)
        brute = quasi_kernel_bruteforce(space)
        by_class = {
            v for v in space.iter_vectors()
            if v == space.zero or space.class_of(v) is not None
        }
        assert by_class == brute.members
        report = quasi_kernel_report(space, member_limit=0)
        assert report["member_count"] == len(brute.members)
        assert [c["count"] for c in report["class_supports"]] == (
            check_components_against_bruteforce(space, brute))
        assert "members" not in report

    @pytest.mark.parametrize("vector", [[1, 0, 0], (1, 0), (11, 0, 0)], ids=str)
    def test_class_of_validates_while_the_internal_lookup_does_not(self, vector):
        # the public lookup refuses what is no vector of the space; the
        # internal one, for vectors the library built, agrees with it on
        # every vector and checks nothing
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(InvalidVectorError):
            space.class_of(vector)
        assert all(space._class_of(v) == space.class_of(v) for v in space.iter_vectors())


Z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]


def space_tables(space):
    """The explicit addition table of V and the action of every scalar,
    over the enumerated vectors: the input of ``check_axioms_raw``."""
    vectors = space.vectors()
    index = {v: i for i, v in enumerate(vectors)}
    add = [[index[space.add(v, w)] for w in vectors] for v in vectors]
    endos = [
        [index[space.scalar_mul(a, v)] for v in vectors]
        for a in range(space.field.order)
    ]
    return add, endos


class TestAxioms:
    @pytest.mark.parametrize(
        "key", [(11, 1, (3, 7, 3)), (5, 1, (1, 1)), (3, 2, (1, 5)), (2, 2, (1, 2)),
                # above the dense-table limit, and a million vectors
                (4099, 1, (1,)), (2, 11, (1,)), (101, 1, (1, 1, 1))],
        ids=str,
    )
    def test_twisted_spaces_pass_all_five(self, key):
        report = check_axioms(get_space(*key))
        assert report.all_pass, report.failed()

    # the raw scans are O(|V|^3): the 625- and 729-vector spaces stay out
    @pytest.mark.parametrize(
        "key", [k for k in CORPUS if k[0] ** (k[1] * len(k[2])) <= 343], ids=str,
    )
    def test_certificate_agrees_with_raw_oracle(self, key):
        space = get_space(*key)
        raw = check_axioms_raw(*space_tables(space))
        assert check_axioms(space).all_pass == raw.all_pass, raw.failed()

    @pytest.mark.parametrize("psi, failed", [
        # not injective: -1 is moved and e_2 is fixed by 1 and 2
        ([0] + [1] * 6, {"2_zero_id_negid", "4_fixed_point_free"}),
        # a bijection fixing 0, 1 and -1 that is not multiplicative
        ([0, 1, 3, 2, 4, 5, 6], {"3_units_act_as_automorphisms"}),
    ], ids=["constant", "swap_2_3"])
    def test_corrupted_twist_fails_both_checkers(self, psi, failed):
        space = TwistedSpace(Field(7), (1, 1))
        space._psi[1] = psi
        certified = check_axioms(space)
        raw = check_axioms_raw(*space_tables(space))
        for report in (certified, raw):
            assert not report.all_pass
            if len(failed) == 1:
                assert report.failed() == sorted(failed)
            else:
                assert failed <= set(report.failed())

    def test_raw_field_acting_on_itself_passes(self):
        f = Field(7)
        add, mul = f.op_tables()
        endos = [tuple(mul[a][x] for x in range(7)) for a in range(7)]
        report = check_axioms_raw(add, endos)
        assert report.all_pass, report.failed()

    def test_raw_truncated_a_group_fails_generation_only(self):
        els = list(product(range(3), range(9)))
        idx = {e: i for i, e in enumerate(els)}
        add = [
            [idx[((a + c) % 3, (b + d) % 9)] for (c, d) in els]
            for (a, b) in els
        ]
        zero_map = tuple(idx[(0, 0)] for _ in els)
        id_map = tuple(range(len(els)))
        neg_map = tuple(idx[((-a) % 3, (-b) % 9)] for (a, b) in els)
        report = check_axioms_raw(add, [zero_map, id_map, neg_map])
        assert report.failed() == ["5_quasi_kernel_generates"]
        witness = report.witness("5_quasi_kernel_generates")
        quasi = {els[i] for i in witness[1]}
        # the torsion part: exactly the elements killed by 3
        assert quasi == {(a, b) for a in range(3) for b in (0, 3, 6)}

    def test_raw_positive_cone_analog_misses_negation(self):
        f = Field(7)
        add, mul = f.op_tables()
        endos = [tuple(mul[a][x] for x in range(7)) for a in (0, 1, 2, 4)]
        report = check_axioms_raw(add, endos)
        assert "2_zero_id_negid" in report.failed()
        assert report.witness("2_zero_id_negid") == ("missing_neg_id",)

    def test_raw_corrupted_group_table(self):
        add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        add[1][2] = 1
        add[2][1] = 1
        endos = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
        report = check_axioms_raw(add, endos)
        assert "1_additive_group" in report.failed()

    def test_raw_ragged_table_and_short_endomorphism_are_rejected(self):
        with pytest.raises(ValueError):
            check_axioms_raw([[0, 1], [1]], [(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            check_axioms_raw([[0, 1], [1, 0]], [(0, 0), (0,)])

    @pytest.mark.parametrize("table, endos, where", [
        ([[0, 1, 2], [1, 2, 0], [2, 0, 5]], [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
         r"add_table\[2\]\[2\]"),
        (Z3, [[0, 0, 0], [0, 1, 2], [0, 2, 7]], r"endomorphisms\[2\]\[2\]"),
        (Z3, [[0, 0, 0], [0, 1, 2], [0, 2, -1]], r"endomorphisms\[2\]\[2\]"),
    ], ids=["table_entry_5", "image_7", "image_negative"])
    def test_raw_out_of_range_entries_are_rejected(self, table, endos, where):
        with pytest.raises(ValueError, match=where):
            check_axioms_raw(table, endos)

    # the failing entries of each raw case, pinned; every other entry passes
    RAW_REPORTS = {
        "field7_self_action": {},
        "z3": {},
        "dickson9": {},
        "positive_cone": {
            "2_zero_id_negid": ["missing_neg_id"],
            "5_quasi_kernel_generates": ["quasi_kernel", [0], "generated_count", 1],
        },
        "corrupted_z3": {
            "1_additive_group": ["no_inverse", 1],
            "2_zero_id_negid": ["missing_neg_id"],
            "3_units_act_as_automorphisms": ["not_additive", 2, 1, 2],
        },
        "truncated_z3_z9": {
            "5_quasi_kernel_generates": [
                "quasi_kernel", [0, 3, 6, 9, 12, 15, 18, 21, 24], "generated_count", 9],
        },
        "nonassociative_z5": {
            "1_additive_group": ["not_associative", 1, 1, 2],
            "3_units_act_as_automorphisms": ["not_additive", 2, 1, 1],
            "5_quasi_kernel_generates": ["quasi_kernel", [0], "generated_count", 1],
        },
        "trivial": {"3_units_act_as_automorphisms": ["identity_missing_from_units"]},
        "z5_unclosed_units": {
            "3_units_act_as_automorphisms": ["not_closed_under_composition", 2, 3],
            "5_quasi_kernel_generates": ["quasi_kernel", [0], "generated_count", 1],
        },
    }

    @staticmethod
    def raw_cases():
        f7 = Field(7)
        add7, mul7 = f7.op_tables()
        yield "field7_self_action", add7, [tuple(mul7[a]) for a in range(7)]
        yield "positive_cone", add7, [tuple(mul7[a]) for a in (0, 1, 2, 4)]
        units3 = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
        yield "z3", Z3, units3
        bad = [list(row) for row in Z3]
        bad[1][2] = bad[2][1] = 1
        yield "corrupted_z3", bad, units3
        d9 = nf.dickson9()
        yield "dickson9", [list(r) for r in d9.add], [tuple(r) for r in d9.mul]
        els = list(product(range(3), range(9)))
        idx = {e: i for i, e in enumerate(els)}
        add = [[idx[((a + c) % 3, (b + d) % 9)] for (c, d) in els] for (a, b) in els]
        yield "truncated_z3_z9", add, [
            tuple(idx[(0, 0)] for _ in els),
            tuple(range(len(els))),
            tuple(idx[((-a) % 3, (-b) % 9)] for (a, b) in els),
        ]
        z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        z5[1][1] = 3
        yield "nonassociative_z5", z5, [(0,) * 5, tuple(range(5)), (0, 4, 3, 2, 1)]
        yield "trivial", [[0]], [(0,)]
        # 4 o 2 = 3 is missing from {0, 1, 4, 2} acting on Z_5
        z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        yield "z5_unclosed_units", z5, [tuple(k * x % 5 for x in range(5)) for k in (0, 1, 4, 2)]

    def test_raw_reports_are_unchanged(self):
        cases = list(self.raw_cases())
        assert {name for name, _, _ in cases} == set(self.RAW_REPORTS)
        for name, add, endos in cases:
            report = check_axioms_raw(add, endos).to_json()
            failing = {k: e["counterexample"] for k, e in report.items() if not e["pass"]}
            assert failing == self.RAW_REPORTS[name], name
            assert all(e["counterexample"] is None for e in report.values() if e["pass"])

    def test_raw_size_bound(self):
        with pytest.raises(TooLargeError):
            check_axioms_raw([[0] * 5000] * 5000, [])


# -- condition 3 against its cell-by-cell reference ---------------------------
#
# ``check_axioms_raw`` finds the first composite missing from the units
# through the composition table, and checks no inverses; this reference
# walks the definition pair by pair, inverses included, so both must give
# the same entry.


def units_reference(add, maps):
    """Condition 3 on a group with identity 0: every nonzero map bijective
    and additive, the identity among them, every composite and every
    inverse present; the first failure as ``check_axioms_raw`` tags it."""
    n = len(add)
    els = range(n)
    units = [m for m in maps if m != (0,) * n]
    for m in units:
        if len(set(m)) != n:
            return ("not_bijective", maps.index(m))
        for a in els:
            for b in els:
                if m[add[a][b]] != add[m[a]][m[b]]:
                    return ("not_additive", maps.index(m), a, b)
    unit_set = set(units)
    if tuple(els) not in unit_set:
        return ("identity_missing_from_units",)
    for f in units:
        for g in units:
            if tuple(f[g[x]] for x in els) not in unit_set:
                return ("not_closed_under_composition", maps.index(f), maps.index(g))
    for f in units:
        inv_f = [0] * n
        for x in els:
            inv_f[f[x]] = x
        if tuple(inv_f) not in unit_set:
            return ("inverse_map_missing", maps.index(f))
    return None


def _groups_with_endomorphisms():
    """(add, endomorphisms) of Z_n for n <= 9, x -> kx, and of Z_2^k for
    k <= 3 as bit vectors, x -> the sum of the images of its bits."""
    for n in range(1, 10):
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        yield add, [tuple(k * x % n for x in range(n)) for k in range(n)]
    for k in range(1, 4):
        n = 1 << k
        add = [[a ^ b for b in range(n)] for a in range(n)]
        endos = [
            tuple(reduce(xor, (y for i, y in enumerate(images) if x >> i & 1), 0)
                  for x in range(n))
            for images in product(range(n), repeat=k)
        ]
        yield add, endos


def test_units_condition_matches_cell_reference_on_endomorphism_sets():
    rng = random.Random(24)
    tags = set()
    for add, endos in _groups_with_endomorphisms():
        n = len(add)
        for _ in range(200):
            maps = rng.sample(endos, rng.randint(1, min(len(endos), 6)))
            # the zero and identity maps usually, a map that is no
            # endomorphism now and then
            maps += [m for m in (endos[0], tuple(range(n))) if rng.random() < 0.8]
            if rng.random() < 0.1:
                maps.append(tuple(rng.randrange(n) for _ in range(n)))
            rng.shuffle(maps)
            expected = units_reference(add, maps)
            entry = check_axioms_raw(add, maps).entries["3_units_act_as_automorphisms"]
            assert entry == (expected is None, expected), (add, maps)
            tags.add(expected and expected[0])
    assert {None, "not_bijective", "not_additive", "not_closed_under_composition",
            "identity_missing_from_units"} <= tags
    assert "inverse_map_missing" not in tags


class TestSerialization:
    def test_config_round_trip(self):
        space = get_space(3, 2, (1, 5))
        config = space.to_config()
        rebuilt = TwistedSpace.from_config(json.loads(json.dumps(config)))
        assert rebuilt.exponents == space.exponents
        assert rebuilt.field == space.field

    @pytest.mark.parametrize("config, message", [
        ({"p": 11, "exponents": "13"}, "key 'exponents' must be a list of integers"),
        ({"p": "11", "exponents": [1]}, "key 'p' must be an integer"),
        ({"exponents": [1]}, "no 'p' key"),
        ({"p": 11}, "no 'exponents' key"),
        ({"p": 11, "r": 1.0, "exponents": [1]}, "key 'r' must be an integer"),
        ({"p": 11, "exponents": [1, True]}, "key 'exponents' must be a list"),
        ({"p": 3, "r": 2, "modulus_poly": "101", "exponents": [1]},
         "key 'modulus_poly' must be null or a list of integers"),
        ([11, [1]], "must be a JSON object, not list"),
    ], ids=["exponents_string", "p_string", "no_p", "no_exponents", "r_float",
            "exponent_bool", "modulus_string", "not_object"])
    def test_malformed_config_is_rejected(self, config, message):
        with pytest.raises(InvalidConfigError, match=message) as info:
            TwistedSpace.from_config(config)
        assert isinstance(info.value, NearVecError)
        assert isinstance(info.value, ValueError)

    def test_config_defaults_r_and_modulus(self):
        space = TwistedSpace.from_config({"p": 5, "exponents": [1, 3]})
        assert space.field == Field(5) and space.exponents == (1, 3)

    def test_vector_json_round_trip_prime_field(self):
        space = get_space(11, 1, (3, 7, 3))
        for v in [(0, 0, 0), (2, 5, 6), (10, 10, 10)]:
            data = vector_to_json(space, v)
            assert data == list(v)
            assert vector_from_json(space, data) == v

    def test_vector_json_round_trip_extension_field(self):
        space = get_space(3, 2, (1, 5))
        for v in space.vectors()[:10]:
            data = vector_to_json(space, v)
            assert vector_from_json(space, json.loads(json.dumps(data))) == v

    def test_vector_json_rejects_bad_input(self):
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(ValueError):
            vector_from_json(space, [1, 2])
        with pytest.raises(ValueError):
            vector_from_json(space, [1, 2, 99])
        for bad in ([1, 2], [1, 2, 99], [1, True, 3], [1, 2, "3"], 7):
            with pytest.raises(InvalidVectorError):
                vector_from_json(space, bad)

    @pytest.mark.parametrize("bad", [
        [[1, "a"], [0, 0]], [[1, 2, 0], [0, 0]], [[1, 5], [0, 0]], [9, 0], [[1, 1.0], 0],
    ], ids=["string_coeff", "long_coeffs", "coeff_range", "int_range", "float_coeff"])
    def test_vector_json_rejects_bad_coefficients(self, bad):
        space = get_space(3, 2, (1, 5))
        with pytest.raises(InvalidVectorError, match="coordinate"):
            vector_from_json(space, bad)

    def test_quasi_kernel_report(self):
        payload = quasi_kernel_report(get_space(11, 1, (3, 7, 3)))
        assert payload["member_count"] == 131
        assert len(payload["members"]) == 131
        assert json.loads(json.dumps(payload)) == payload


def _verify_raw(tmp_path, fixture):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(fixture))
    return cli.cmd_verify(cli.build_parser().parse_args(["verify", "--raw", str(path)]))


@pytest.mark.parametrize("call, message", [
    (lambda tmp: Field(5, 0), "extension degree"),
    # isinstance(r, int) used to build GF(11) with r = True
    (lambda tmp: Field(11, True), "positive integer, got True"),
    (lambda tmp: Field(3, 2), "explicit modulus"),
    (lambda tmp: Field(3, 2, (1, 1)), "monic of degree 2"),
    # int(c) used to read 1.9 as 1 and True as 1
    (lambda tmp: Field(3, 2, (1.9, 0, 1)), "coefficients must be integers, got 1.9"),
    (lambda tmp: Field(3, 2, (1, 0, True)), "coefficients must be integers, got True"),
    (lambda tmp: Field(5).element((1, 2)), "expected 1 coefficients"),
    (lambda tmp: Field(5).element((7,)), r"integers in \[0, 5\)"),
    (lambda tmp: nf.NearField([[0, 1], [1, 0]], [[0]]), "square and same-sized"),
    (lambda tmp: nf.NearField([[0, 1], [1, 2]], [[0, 0], [0, 1]]),
     r"entry \(1, 1\) is outside range\(2\)"),
    # check_axioms used to index the tables at zero = 5
    (lambda tmp: nf.NearField([[0, 1], [1, 0]], [[0, 0], [0, 1]], zero=5),
     r"zero = 5 is outside range\(2\)"),
    (lambda tmp: TwistedSpace(Field(5), ()), "at least one coordinate"),
    (lambda tmp: TwistedSpace(Field(5), (0,)), "exponents must be >= 1"),
    # int(q) used to build (3.7, 7) as (3, 7) and ("3", True) as (3, 1)
    (lambda tmp: TwistedSpace(Field(11), (3.7, 7)), "exponent 0 must be an integer, got 3.7"),
    (lambda tmp: TwistedSpace(Field(11), (3, True)), "exponent 1 must be an integer, got True"),
    (lambda tmp: TwistedSpace(Field(11), ("3", 7)), "exponent 0 must be an integer, got '3'"),
    (lambda tmp: check_axioms_raw([[0, 1], [1, 2]], []),
     r"add_table\[1\]\[1\] = 2 lies outside"),
    (lambda tmp: check_axioms_raw([1, 2], []), "lists of lists"),
    (lambda tmp: check_axioms_raw([[0, 1], [1]], []), "must be square"),
    (lambda tmp: check_axioms_raw([[0, 1], [1, 0]], [[0]]), "must list 2 images"),
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), ["nope"]), "unknown suite"),
    # a string was read letter by letter, "xallx" ran every suite through a
    # substring test, and "all" hid any name beside it
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), "axioms"),
     "must be a list or tuple, got 'axioms'"),
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), "xallx"), "must be a list or tuple"),
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), ["all", "bogus"]),
     r"unknown suite\(s\): bogus$"),
    # an empty selection used to pass with no suite run, a repeated one
    # to run its suite twice
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), []), "no suite selected"),
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), ["axioms", "axioms"]),
     "selected more than once"),
    (lambda tmp: verify.run_suites(get_space(5, 1, (1,)), ["all", "axioms"]),
     "selected more than once"),
    (lambda tmp: _verify_raw(tmp, []), "JSON object, not list"),
    (lambda tmp: _verify_raw(tmp, {"add_table": [[0]]}), "no 'endomorphisms' entry"),
], ids=["field_degree", "field_degree_bool", "field_no_modulus",
        "field_modulus_degree", "field_modulus_float", "field_modulus_bool",
        "element_length", "element_range", "near_field_shape", "near_field_entry",
        "near_field_zero", "space_no_coordinates", "space_exponent",
        "space_exponent_float", "space_exponent_bool", "space_exponent_str",
        "raw_entry", "raw_shape", "raw_square", "raw_images", "unknown_suite",
        "suites_string", "suites_substring", "suites_all_and_unknown",
        "suites_empty", "suites_repeated", "suites_all_and_axioms",
        "raw_fixture_list", "raw_fixture_key"])
def test_malformed_input_raises_invalid_config_error(tmp_path, call, message):
    # a NearVecError for callers catching the package's errors, and still a
    # ValueError for those catching the builtin
    with pytest.raises(InvalidConfigError, match=message) as info:
        call(tmp_path)
    assert isinstance(info.value, NearVecError)
    assert isinstance(info.value, ValueError)
