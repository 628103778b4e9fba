"""Tests for induced additions, kernels, regularity and decomposition."""

import json
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import CORPUS, corpus_spaces, get_field, get_space
from nearvec import near_field as nf
from nearvec import span as spn
from nearvec import structure as st
from nearvec import verify
from nearvec.errors import (
    HypothesisUnmetError,
    InvariantError,
    NotInQuasiKernelError,
    TooLargeError,
    ZeroVectorError,
)
from nearvec.finite_field import TABLE_LIMIT, Field
from nearvec.space import (
    CLASS_TABLE_LIMIT,
    ExponentClass,
    TwistedSpace,
    _orbit_sums,
    quasi_kernel_bruteforce,
)

# the four spaces of the verify_all benchmark workload
VERIFY_ALL_SPACES = (
    (11, 1, (3, 7, 3)), (11, 1, (1, 1, 1)), (11, 2, (7,)), (2, 3, (1, 3)),
)
NON_REGULAR = [key for key in CORPUS if len(get_space(*key).classes) > 1]


class TestInducedAddition:
    def test_table_entries_from_worked_example(self):
        space = get_space(11, 1, (3, 7, 3))
        assert st.induced_addition(space, (3, 0, 4)).table[1][1] == 7
        assert st.induced_addition(space, (0, 5, 0)).table[1][1] == 8

    def test_zero_scalar_is_neutral(self):
        space = get_space(11, 1, (3, 7, 3))
        table = st.induced_addition(space, (3, 0, 4)).table
        assert all(table[a][0] == a and table[0][a] == a for a in range(11))

    def test_rejects_non_quasi_kernel_and_zero(self):
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(NotInQuasiKernelError):
            st.induced_addition(space, (1, 1, 0))
        with pytest.raises(ZeroVectorError):
            st.induced_addition(space, (0, 0, 0))

    @pytest.mark.parametrize(
        "key", [(11, 1, (3, 7, 3)), (3, 2, (1, 5)), (5, 1, (1, 3)), (2, 3, (1, 3))],
        ids=str,
    )
    def test_closed_form_matches_definitional_everywhere(self, key):
        space = get_space(*key)
        for v in space.quasi_kernel().sorted_nonzero():
            assert (
                st.induced_addition(space, v).table
                == st.induced_addition_closed_form(space, v).table
            )

    @pytest.mark.parametrize("key", CORPUS, ids=str)
    def test_table_matches_tuple_orbit_resolve(self, key):
        space = get_space(*key)
        qstar = space.quasi_kernel().sorted_nonzero()
        if space.size > 2000:
            qstar = random.Random(space.size).sample(qstar, 8)
        add = space.add
        for v in qstar:
            multiples = [space.scalar_mul(a, v) for a in range(space.field.order)]
            resolve = {w: g for g, w in enumerate(multiples)}
            expected = [[resolve[add(va, vb)] for vb in multiples] for va in multiples]
            assert st._addition_table(space, v) == expected, v

    @pytest.mark.parametrize("key", [(2, 8, (1, 2)), (2, 8, (1, 7)), (257, 1, (1, 3))],
                             ids=str)
    def test_resolve_matches_tuple_orbit_resolve_across_the_byte_boundary(self, key):
        # rows of GF(2^8) resolve as bytes, those of GF(257) as tuples;
        # both give the literal resolve's table, or its first escaping
        # pair.  The mixed-support (3, 5) escapes unless the exponents
        # form one class, as 1 and 2 do over GF(2^8) (a Frobenius twist)
        p, r, exponents = key
        field = Field(p, r, (1, 1, 0, 1, 1, 0, 0, 0, 1) if r == 8 else None)
        space = TwistedSpace(field, exponents)
        order = field.order
        add = space.add
        qstar = space.quasi_kernel().sorted_nonzero()
        vectors = random.Random(order).sample(qstar, 3) + [(3, 5)]
        for v in vectors:
            multiples = [space.scalar_mul(a, v) for a in range(order)]
            resolve = {w: g for g, w in enumerate(multiples)}
            sums = [[resolve.get(add(va, vb)) for vb in multiples] for va in multiples]
            escape = next(((a, b) for a in range(order) for b in range(order)
                           if sums[a][b] is None), None)
            expected = (None, escape) if escape else (sums, None)
            if v == (3, 5):
                assert (escape is None) == (len(space.classes) == 1), v
            assert _orbit_sums(space, v) == expected, v
            if escape is None:
                assert st._addition_table(space, v) == sums, v
            else:
                with pytest.raises(NotInQuasiKernelError):
                    st._addition_table(space, v)
        assert (space._add_luts is not None) == (order <= 256)

    def test_table_rejects_mixed_support_vector(self):
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(NotInQuasiKernelError, match=r"\(1, 1, 0\)"):
            st._addition_table(space, (1, 1, 0))

    def test_verify_all_resolves_each_table_once(self, monkeypatch):
        # fresh spaces, so each memo starts empty: a raw resolve is the
        # read of v's multiples inside _orbit_sums, whoever asked for it,
        # and the brute-force Q(V) asks for every nonzero vector
        for p, r, exponents in VERIFY_ALL_SPACES:
            space = TwistedSpace(get_field(p, r), exponents)
            multiples = space.multiples
            resolves = Counter()

            def counting(v, multiples=multiples, resolves=resolves):
                if sys._getframe(1).f_code is st._orbit_sums.__code__:
                    resolves[v] += 1
                return multiples(v)

            monkeypatch.setattr(space, "multiples", counting)
            assert verify.run_suites(space, ["all"])["pass"], space
            assert len(resolves) == space.size - 1, space
            assert max(resolves.values()) == 1, (space, resolves.most_common(1))

    def test_defining_property(self):
        space = get_space(11, 1, (3, 7, 3))
        v = (3, 0, 4)
        table = st.induced_addition(space, v).table
        for a in range(11):
            for b in range(11):
                lhs = space.scalar_mul(table[a][b], v)
                rhs = space.add(space.scalar_mul(a, v), space.scalar_mul(b, v))
                assert lhs == rhs

    def test_depends_only_on_class(self):
        space = get_space(11, 1, (3, 7, 3))
        t1 = st.induced_addition(space, (1, 0, 0)).table
        t2 = st.induced_addition(space, (3, 0, 4)).table
        t3 = st.induced_addition(space, (0, 5, 0)).table
        assert t1 == t2
        assert t1 != t3

    def test_multiples_share_the_table(self):
        # unchanged along scalar orbits, exhaustively on small spaces
        for key in [(5, 1, (1, 3)), (3, 2, (1, 5)), (11, 1, (3, 7, 3))]:
            space = get_space(*key)
            for v in space.quasi_kernel().sorted_nonzero():
                table = st.induced_addition(space, v).table
                for theta in range(1, space.field.order):
                    assert (
                        st.induced_addition(space, space.scalar_mul(theta, v)).table
                        == table
                    )

    def test_tables_equal_iff_same_class(self):
        space = get_space(11, 1, (1, 3, 7))
        qstar = space.quasi_kernel().sorted_nonzero()
        for v in qstar:
            for w in qstar:
                same = (
                    st.induced_addition(space, v).table
                    == st.induced_addition(space, w).table
                )
                assert same == (space.class_of(v) == space.class_of(w))


class TestInducedNearField:
    def test_passes_axioms_and_both_distributive_laws(self):
        space = get_space(11, 1, (3, 7, 3))
        structure = st.induced_nearfield(space, (3, 0, 4))
        assert nf.check_axioms(structure).all_pass
        assert nf.right_distributivity_failure(structure.add, structure.mul) is None

    def test_isomorphic_to_base_field_via_exponent_map(self):
        space = get_space(11, 1, (3, 7, 3))
        structure = st.induced_nearfield(space, (3, 0, 4))
        base = nf.from_field(space.field)
        assert nf.find_isomorphism(structure, base) is not None
        f = space.field
        cube = {a: f.pow(a, 3) for a in range(11)}
        for a in range(11):
            for b in range(11):
                assert cube[structure.add[a][b]] == f.add(cube[a], cube[b])
                assert cube[structure.mul[a][b]] == f.mul(cube[a], cube[b])

    def test_untwisted_induced_table_is_plain_addition(self):
        space = get_space(5, 1, (1, 1))
        structure = st.induced_nearfield(space, (1, 0))
        add, _ = space.field.op_tables()
        assert [list(r) for r in structure.add] == [list(r) for r in add]


class TestKernel:
    def test_kernel_is_the_component(self):
        space = get_space(11, 1, (3, 7, 3))
        expected = frozenset(
            (a, 0, c) for a in range(11) for c in range(11)
        )
        assert st.kernel(space, (3, 0, 4)) == expected

    def test_untwisted_kernel_is_everything(self):
        space = get_space(5, 1, (1, 1))
        assert st.kernel(space, (1, 0)) == frozenset(space.vectors())

    def test_base_vector_always_inside(self):
        for key in [(11, 1, (3, 7, 3)), (5, 1, (1, 3)), (3, 2, (1, 5))]:
            space = get_space(*key)
            for u in space.quasi_kernel().sorted_nonzero()[:10]:
                assert u in st.kernel(space, u)

    def test_kernel_equals_component_for_every_base(self):
        for key in [(5, 1, (1, 3)), (3, 2, (1, 5)), (7, 1, (1, 5))]:
            space = get_space(*key)
            deco = st.decompose(space)
            for u in space.quasi_kernel().sorted_nonzero():
                comp = deco.component_of(u)
                assert st.kernel(space, u) == comp.members


class TestCompatibilityAndRegularity:
    def test_same_class_vectors_are_compatible(self):
        space = get_space(11, 1, (3, 7, 3))
        assert st.are_compatible(space, (1, 0, 0), (0, 0, 1)) == 1
        assert st.are_compatible(space, (1, 0, 0), (1, 0, 0)) == 1

    def test_cross_class_vectors_are_not(self):
        space = get_space(11, 1, (3, 7, 3))
        assert st.are_compatible(space, (1, 0, 0), (0, 1, 0)) is None

    def test_regularity_matches_class_count(self):
        for key in [(11, 1, (3, 7, 3)), (5, 1, (1, 3)), (13, 1, (1, 5, 7)),
                    (5, 1, (1, 1)), (3, 2, (1, 3)), (11, 1, (3, 3))]:
            space = get_space(*key)
            cert = st.is_regular(space)
            assert cert.regular == (len(space.classes) == 1)
            if not cert.regular:
                u, v = cert.witness
                assert st.are_compatible(space, u, v) is None

    def test_dimension_one_spaces_are_regular(self):
        for key in [(11, 1, (7,)), (13, 2, (5,)), (3, 2, (5,))]:
            assert st.is_regular(get_space(*key)).regular

    @pytest.mark.parametrize(
        "key", [k for k in CORPUS if get_space(*k).size <= 2000], ids=str
    )
    def test_orbit_scan_matches_all_pairs_scan(self, key):
        space = get_space(*key)
        qstar = space.quasi_kernel().sorted_nonzero()
        members = space.quasi_kernel().members
        units = range(1, space.field.order)
        witness = None
        for i, u in enumerate(qstar):
            for v in qstar[i:]:
                if not any(
                    space.add(u, space.scalar_mul(lam, v)) in members
                    for lam in units
                ):
                    witness = (u, v)
                    break
            if witness:
                break
        cert = st.is_regular(space)
        assert (cert.regular, cert.witness) == (witness is None, witness)
        # one pair per unordered pair of scalar orbits
        orbits = len(qstar) // (space.field.order - 1)
        if cert.regular:
            assert cert.pairs_checked == orbits * (orbits + 1) // 2

    @pytest.mark.parametrize("key", CORPUS, ids=str)
    def test_closed_form_matches_pairwise_oracle(self, key):
        space = get_space(*key)
        cert = st.is_regular(space)
        closed = st.regularity_closed_form(space)
        assert (closed.regular, closed.witness) == (cert.regular, cert.witness)


class TestSharedAdditionLemma:
    def test_same_class_expansions_share_addition(self):
        space = get_space(11, 1, (3, 7, 3))
        e1, e2, e3 = space.standard_basis()
        assert st.verify_shared_addition(space, [e1, e3], (1, 0, 1), (2, 0, 3))

    def test_untwisted_everything_shares(self):
        space = get_space(5, 1, (1, 1))
        basis = list(space.standard_basis())
        assert st.verify_shared_addition(space, basis, (1, 1), (2, 1))

    def test_non_quasi_kernel_vector_rejected(self):
        space = get_space(11, 1, (3, 7, 3))
        e1, e2, _ = space.standard_basis()
        with pytest.raises(NotInQuasiKernelError):
            st.verify_shared_addition(space, [e1, e2], (1, 1, 0), (1, 0, 0))

    def test_wrong_slot_table_fails_both_routes(self, monkeypatch):
        # fresh spaces: a shared one's memo would keep the wrong table
        space = TwistedSpace(Field(11), (3, 7, 3))
        basis = spn.extract_basis(space)
        target = space.scalar_mul(2, basis[0])
        resolve = st._orbit_sums

        def corrupted(space_, v):
            table, escape = resolve(space_, v)
            if v == target:
                table = [list(row) for row in table]
                table[1][1], table[1][2] = table[1][2], table[1][1]
            return table, escape

        monkeypatch.setattr(st, "_orbit_sums", corrupted)
        suite = verify.keylemma_suite(space)
        assert not suite["pass"]
        failed = suite["checks"][0]
        assert (failed["name"], failed["pass"]) == ("shared_addition", False)
        v, w = map(tuple, failed["witness"])
        slots = {
            space.scalar_mul(t, b)
            for u in (v, w)
            for t, b in zip(spn.coordinates_in_independent_set(space, basis, u), basis)
            if t
        }
        assert target in slots | {v, w}
        assert st.verify_shared_addition(space, basis, v, w) is False

        monkeypatch.undo()
        clean = TwistedSpace(Field(11), (3, 7, 3))
        assert st.verify_shared_addition(clean, basis, v, w) is True

    def test_cross_class_pair_has_no_matching_slots(self):
        space = get_space(11, 1, (3, 7, 3))
        e1, e2, _ = space.standard_basis()
        with pytest.raises(HypothesisUnmetError):
            st.verify_shared_addition(space, [e1, e2], (1, 0, 0), (0, 1, 0))


class TestEquivalences:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ((7, 1, (1, 1, 1)), True),
            ((11, 1, (3, 7, 3)), False),
            ((11, 1, (3, 3)), True),
            ((5, 1, (1, 3)), False),
            ((3, 2, (1, 3)), True),
            ((2, 3, (1, 3)), False),
        ],
        ids=str,
    )
    def test_consistent_with_expected_verdict(self, key, expected):
        report = st.regularity_equivalences(get_space(*key))
        assert report.consistent
        assert report.verdict is expected
        assert set(report.conditions) == {"1", "1'", "2", "2'", "3", "4", "5", "6", "7"}

    def test_verdict_is_the_class_count_verdict_on_corpus(self):
        for space in corpus_spaces():
            report = st.regularity_equivalences(space)
            assert report.consistent, space
            assert report.verdict == (len(space.classes) == 1), space

    def test_report_serializes(self):
        report = st.regularity_equivalences(get_space(5, 1, (1, 3)))
        payload = report.to_json()
        assert json.loads(json.dumps(payload)) == payload

    def test_witnesses_on_a_two_class_space(self):
        # 5 and 1 share the first module-law failure, in their two shapes;
        # 3 and 7 fail before any division-ring scan is needed
        payload = st.regularity_equivalences(get_space(5, 1, (1, 3))).to_json()
        assert list(payload["conditions"]) == ["3", "4", "5", "6", "7", "1", "2", "1'", "2'"]
        assert not any(payload["conditions"].values())
        assert payload["witnesses"] == {
            "3": ["missing", [1, 1]],
            "4": [[0, 1], [1, 0]],
            "5": [[0, 1], [1, 0], [1, 1]],
            "6": [[0, 1], [1, 0]],
            "7": [[0, 1], [1, 0]],
            "1": [[0, 1], [0, [1, 1]]],
        }

    def test_division_ring_verdict_tags_the_near_field_scan(self):
        space = get_space(5, 1, (1,))
        table = [list(row) for row in space.class_addition_table(0)]
        assert st._division_ring_verdict(space, table) == (True, None)
        table[2][3], table[2][4] = table[2][4], table[2][3]
        cx = nf.left_distributivity_failure(table, space.field.op_tables()[1])
        assert cx is not None
        assert st._division_ring_verdict(space, table) == (False, ("left", *cx))

    @staticmethod
    def module_law_reference(space, table):
        # every cell in (i, a, b) order; the scan compares whole rows
        fadd = space.field.op_tables()[0]
        els = range(space.field.order)
        return next(
            ((i, (a, b)) for i, psi in enumerate(space._psi) for a in els for b in els
             if psi[table[a][b]] != fadd[psi[a]][psi[b]]),
            None,
        )

    @pytest.mark.parametrize("key", [
        (2, 1, (1,)), (3, 1, (1,)), (2, 3, (1, 3)), (11, 1, (3, 7, 3)), (11, 2, (7,)),
    ], ids=str)
    def test_module_law_scan_matches_cell_reference_under_corruption(self, key):
        space = get_space(*key)
        order = space.field.order
        rng = random.Random(order)
        for cls in space.classes:
            clean = space.class_addition_table(cls.index)
            assert st._module_law_failure(space, clean) == (
                self.module_law_reference(space, clean))
            for _ in range(12):
                table = [list(row) for row in clean]
                a, b = rng.randrange(order), rng.randrange(order)
                table[a][b] = rng.choice([x for x in range(order) if x != table[a][b]])
                assert st._module_law_failure(space, table) == (
                    self.module_law_reference(space, table))


    # -- the per-vector scans that the one-pass oracles replaced ------------

    @staticmethod
    def is_regular_reference(space):
        qstar = space.quasi_kernel().sorted_nonzero()
        reps = []
        seen = set()
        for v in qstar:
            if v not in seen:
                multiples = space.multiples(v)
                reps.append((v, multiples))
                seen.update(multiples)
        checked = 0
        for i, (u, _) in enumerate(reps):
            for v, multiples in reps[i:]:
                checked += 1
                if st._first_compatible(space, u, multiples) is None:
                    return st.RegularityCertificate(False, (u, v), checked)
        return st.RegularityCertificate(True, None, checked)

    @classmethod
    def equivalences_reference(cls, space):
        """Each condition scanned over every vector of Q(V)* in sorted
        order, the law verdicts cached per table, the orbit of each vector
        found through its own multiples."""
        qk = space.quasi_kernel()
        qstar = qk.sorted_nonzero()

        def cached(scan):
            verdicts = {}

            def verdict(t):
                if id(t) not in verdicts:
                    verdicts[id(t)] = scan(space, t)
                return verdicts[id(t)]

            return verdict

        module_law_failure = cached(st._module_law_failure)
        division_ring_verdict = cached(st._division_ring_verdict)
        module_fail = module_ok = None
        for v in qstar:
            bad = module_law_failure(st._addition_table(space, v))
            if bad is None:
                if module_ok is None:
                    module_ok = v
            elif module_fail is None:
                module_fail = (v, bad)
            if module_fail is not None and module_ok is not None:
                break

        reg = cls.is_regular_reference(space)
        q_is_v = len(qk.members) == space.size
        dr_fail = None
        if q_is_v or reg.regular or module_fail is None:
            for v in qstar:
                passed, cx = division_ring_verdict(st._addition_table(space, v))
                if not passed:
                    dr_fail = (v, cx)
                    break

        conditions = {}
        witnesses = {}
        conditions["3"] = q_is_v and dr_fail is None
        witnesses["3"] = dr_fail if q_is_v else ("missing", next(
            v for v in space.iter_vectors() if v not in qk.members))

        ok, wit = True, None
        reference = None
        for v in qstar:
            t = st._addition_table(space, v)
            if reference is None:
                reference = (v, t)
            elif t != reference[1]:
                ok, wit = False, (reference[0], v)
                break
        conditions["4"], witnesses["4"] = ok, wit

        conditions["5"], witnesses["5"] = module_fail is None, None
        if module_fail is not None:
            w, (i, bad) = module_fail
            witnesses["5"] = (w, space.standard_basis()[i], bad)

        ok, wit = reg.regular, reg.witness
        if ok:
            seen_orbit = {}
            for v in qstar:
                rep = min(space.multiples(v)[1:])
                t = st._addition_table(space, v)
                prev = seen_orbit.get(rep)
                if prev is None:
                    seen_orbit[rep] = (v, t)
                elif t != prev[1]:
                    ok, wit = False, ("orbit", prev[0], v)
                    break
        conditions["6"], witnesses["6"] = ok, wit

        conditions["7"] = reg.regular and dr_fail is None
        witnesses["7"] = dr_fail if reg.regular else reg.witness

        conditions["1"], witnesses["1"] = module_fail is None, module_fail
        conditions["2"], witnesses["2"] = module_ok is not None, module_ok
        conditions["1'"], witnesses["1'"] = (
            (dr_fail is None, dr_fail) if module_fail is None else (False, None)
        )
        if module_ok is not None:
            passed, cx = division_ring_verdict(st._addition_table(space, module_ok))
            conditions["2'"] = passed
            witnesses["2'"] = module_ok if passed else (module_ok, cx)
        else:
            conditions["2'"], witnesses["2'"] = False, None
        return st.EquivalenceReport(conditions, witnesses)

    @pytest.mark.parametrize("key", CORPUS, ids=str)
    def test_one_pass_oracles_match_the_per_vector_scans(self, key):
        space = get_space(*key)
        assert st.is_regular(space).to_json() == self.is_regular_reference(space).to_json()
        assert (st.regularity_equivalences(space).to_json()
                == self.equivalences_reference(space).to_json())

    @staticmethod
    def corrupted_tables(space, rng):
        """A stand-in for ``_addition_table`` that gives up to three
        sampled vectors of Q(V)* a table with two entries of one row
        swapped.  Every table it hands out is interned by content, as
        ``_orbit_sums`` interns the true ones."""
        clean = st._addition_table
        order = space.field.order
        qstar = space.quasi_kernel().sorted_nonzero()
        swaps = {
            v: (rng.randrange(order), *rng.sample(range(order), 2))
            for v in rng.sample(qstar, rng.randint(1, min(3, len(qstar))))
        }
        interned = {}

        def addition_table(space_, v):
            table = clean(space_, v)
            if v in swaps:
                a, b, c = swaps[v]
                table = [list(row) for row in table]
                table[a][b], table[a][c] = table[a][c], table[a][b]
            return interned.setdefault(tuple(map(tuple, table)), table)

        return addition_table

    def test_one_pass_oracles_match_the_per_vector_scans_under_corruption(
            self, monkeypatch):
        # on a regular space every witness below comes from a corrupted
        # table; the sweep must reach each of them
        reached = Counter()
        keys = [k for k in CORPUS if len(get_space(*k).quasi_kernel().members) <= 400]
        for seed in range(4):
            rng = random.Random(seed)
            for key in keys:
                space = get_space(*key)
                monkeypatch.setattr(st, "_addition_table", self.corrupted_tables(space, rng))
                got = st.regularity_equivalences(space).to_json()
                assert got == self.equivalences_reference(space).to_json(), (key, seed)
                monkeypatch.undo()
                if len(space.classes) == 1:
                    witnesses = got["witnesses"]
                    reached["4"] += "4" in witnesses
                    reached["5"] += "5" in witnesses
                    reached["orbit"] += witnesses.get("6", [None])[0] == "orbit"
        assert min(reached["4"], reached["5"], reached["orbit"]) > 0, reached


class TestDecomposition:
    def test_worked_example_components(self):
        space = get_space(11, 1, (3, 7, 3))
        deco = st.decompose(space)
        sizes = sorted(len(c.members) for c in deco.components)
        assert sizes == [11, 121]
        big = next(c for c in deco.components if len(c.members) == 121)
        assert big.members == frozenset(
            (a, 0, c) for a in range(11) for c in range(11)
        )

    def test_regular_space_is_a_single_component(self):
        deco = st.decompose(get_space(5, 1, (1, 1)))
        assert len(deco.components) == 1
        assert len(deco.components[0].members) == 25

    def test_components_follow_class_order(self):
        # one component per exponent class, in class order, each over
        # its class's own support
        for key in [(11, 1, (3, 7, 3)), (13, 1, (1, 5, 7)), (3, 2, (1, 1, 5))]:
            space = get_space(*key)
            deco = st.decompose(space)
            assert [(c.class_id, c.support) for c in deco.components] == [
                (c.index, c.support) for c in space.classes
            ]

    def test_induced_is_built_on_first_read(self):
        # decompose builds no induced addition; the first read builds the
        # class twist table, and later reads return the same object
        space = TwistedSpace(Field(11), (3, 7, 3))
        comps = st.decompose(space).components
        assert all("induced" not in vars(c) for c in comps)
        comp = comps[0]
        assert comp.induced is comp.induced
        assert comp.induced == st.induced_addition(space, comp.basis[0])

    def test_split_reassembles(self):
        space = get_space(11, 1, (1, 3, 7))
        deco = st.decompose(space)
        for v in [(1, 2, 3), (0, 0, 0), (10, 0, 4)]:
            parts = deco.split(v)
            total = space.zero
            for part in parts:
                total = space.add(total, part)
            assert total == v

    def test_component_quasi_kernels_partition(self):
        space = get_space(11, 1, (3, 7, 3))
        deco = st.decompose(space)
        qk = space.quasi_kernel()
        seen = set()
        for comp in deco.components:
            nz = comp.members - {space.zero}
            assert nz <= qk.nonzero
            assert not (seen & nz)
            seen |= nz
        assert seen == qk.nonzero

    def test_unique_under_reversed_enumeration(self):
        # the space with its coordinates reversed splits into the same
        # components once each vector is reversed back
        for key in [(11, 1, (3, 3, 7)), (13, 1, (1, 5, 7)), (3, 2, (1, 1, 5))]:
            space = get_space(*key)
            mirrored = TwistedSpace(space.field, space.exponents[::-1])
            fwd = st.decompose(space)
            rev = st.decompose(mirrored)
            assert {c.members for c in fwd.components} == {
                frozenset(v[::-1] for v in c.members) for c in rev.components
            }

    def test_uniqueness_check_fails_on_an_order_dependent_grouping(self, monkeypatch):
        # classes that always set coordinate 0 apart depend on the
        # coordinate order: GF(11)(3,3,7) splits as (0,), (1,), (2,), its
        # reversal (7,3,3) as (0,), (1, 2), which maps back to (2,), (0, 1)
        compute_classes = TwistedSpace._compute_classes

        def coordinate_zero_alone(self):
            rest = (tuple(i for i in c.support if i) for c in compute_classes(self))
            return tuple(
                ExponentClass(index=j, support=sup, exponent=self.exponents[sup[0]])
                for j, sup in enumerate([(0,)] + [sup for sup in rest if sup])
            )

        monkeypatch.setattr(TwistedSpace, "_compute_classes", coordinate_zero_alone)
        space = TwistedSpace(Field(11), (3, 3, 7))
        assert [c.support for c in space.classes] == [(0,), (1,), (2,)]
        checks = {c["name"]: c for c in verify.decomposition_suite(space)["checks"]}
        assert checks["unique_under_reversed_enumeration"] == {
            "name": "unique_under_reversed_enumeration", "pass": False,
            "witness": [[0], [0, 1], [1]],
        }

    @pytest.mark.parametrize("supports", [((0, 2), (1, 2)), ((0,), (1,))], ids=repr)
    def test_certificate_refuses_supports_that_do_not_partition(self, supports):
        # GF(11)(3,7,3) splits into supports (0, 2) and (1,); moving the
        # supports keeps the class ids, and the partition is checked first
        space = TwistedSpace(Field(11), (3, 7, 3))
        deco = st.decompose(space)
        moved = st.Decomposition(space, tuple(
            st.RegularComponent(space, c.class_id, sup)
            for c, sup in zip(deco.components, supports)
        ))
        with pytest.raises(InvariantError, match="do not partition range"):
            st._certify_decomposition(space, moved)

    def test_members_that_do_not_partition_are_refused(self):
        space = TwistedSpace(Field(11), (3, 7, 3))
        big, small = st.decompose(space).components
        shared = st.Decomposition(space, (big, big))
        with pytest.raises(InvariantError, match="do not partition range"):
            st._certify_decomposition(space, shared)
        # (0, 1, 0) in place of (1, 0, 0) in the 121-member component:
        # the certificate reads the classes, not the member sets, so the
        # per-vector placement oracle names (0, 1, 0), which lies in both
        swapped = st.RegularComponent(space, big.class_id, big.support)
        swapped.members = (big.members - {(1, 0, 0)}) | {(0, 1, 0)}
        deco = st.Decomposition(space, (swapped, small))
        st._certify_decomposition(space, deco)
        assert verify._class_placement_breach(space, deco) == (0, 1, 0)

    def test_certificate_reassembles_the_all_ones_vector(self, monkeypatch):
        space = TwistedSpace(Field(11), (3, 7, 3))
        split = st.Decomposition._split
        monkeypatch.setattr(st.Decomposition, "_split", lambda self, v: split(self, v)[:-1])
        with pytest.raises(InvariantError, match=r"reassemble \(1, 1, 1\)"):
            st.decompose(space)
        # a coordinate given to two parts: 1 + 1 != 1 in GF(11)
        monkeypatch.setattr(st.Decomposition, "_split",
                            lambda self, v: split(self, v) + split(self, v)[-1:])
        with pytest.raises(InvariantError, match=r"reassemble \(1, 1, 1\)"):
            st.decompose(space)

    def test_split_oracle_names_the_first_unsplit_vector(self, monkeypatch):
        space = TwistedSpace(Field(11), (3, 7, 3))
        result = verify.decomposition_suite(space)
        assert result["pass"] and result["checks"][0] == {
            "name": "direct_sum_split", "pass": True, "components": 2,
        }
        split = st.Decomposition._split

        def lossy(self, v):
            # drop the last part, the (1,) component's, of vectors with a
            # zero coordinate: the certificate's all-ones vector
            # reassembles and (0, 1, 0) is the first lost
            parts = split(self, v)
            return parts[:-1] if 0 in v else parts

        monkeypatch.setattr(st.Decomposition, "_split", lossy)
        deco = st.decompose(space)
        assert st.split_oracle_failure(space, deco) == (0, 1, 0)
        result = verify.decomposition_suite(space)
        assert not result["pass"]
        assert result["checks"][0] == {
            "name": "direct_sum_split", "pass": False, "witness": [0, 1, 0],
            "components": 2,
        }

    def test_partition_check_names_the_uncovered_vector(self, monkeypatch):
        space = TwistedSpace(Field(11), (3, 7, 3))
        decompose = st.decompose

        def dropping(space_):
            # the components as decompose builds them, less (0, 0, 5)
            deco = decompose(space_)
            for c in deco.components:
                c.members = c.members - {(0, 0, 5)}
            return deco

        monkeypatch.setattr(st, "decompose", dropping)
        checks = {c["name"]: c for c in verify.decomposition_suite(space)["checks"]}
        assert checks["quasi_kernel_partition"] == {
            "name": "quasi_kernel_partition", "pass": False, "witness": [0, 0, 5],
        }
        assert checks["direct_sum_split"]["pass"]

    def test_partition_check_reads_the_class_map(self):
        # swapping the two components' class ids, each keeping its member
        # set: the certificate finds support (0, 2) on class 1, and the
        # class map places (0, 0, 1), supported on class 0's coordinate
        # 2, in the other component
        space = TwistedSpace(Field(11), (3, 7, 3))
        big, small = st.decompose(space).components
        components = []
        for c, cid in ((big, small.class_id), (small, big.class_id)):
            comp = st.RegularComponent(space, cid, c.support)
            comp.members = c.members
            components.append(comp)
        swapped = st.Decomposition(space, tuple(components))
        with pytest.raises(InvariantError, match=r"\(0, 2\) is not the support of class 1"):
            st._certify_decomposition(space, swapped)
        assert verify._class_placement_breach(space, swapped) == (0, 0, 1)
        assert verify._class_placement_breach(space, st.decompose(space)) is None

    def test_component_basis_slices_standard_basis(self):
        space = get_space(11, 1, (3, 7, 3))
        deco = st.decompose(space)
        all_basis = [b for comp in deco.components for b in comp.basis]
        assert sorted(all_basis) == sorted(space.standard_basis())

    def test_component_basis_slice_spans_its_component(self):
        from nearvec import span as spn

        for key in [(11, 1, (3, 7, 3)), (3, 2, (1, 1, 5)), (13, 1, (1, 5, 7))]:
            space = get_space(*key)
            for comp in st.decompose(space).components:
                assert spn.span_of(space, comp.basis).members == comp.members

    def test_maximality_witnesses_exhaustive(self):
        # a vector outside Q(V) is refused with the first pair (a, b) of
        # nonzero scalars whose sum leaves its orbit; one inside Q(V) has
        # a different addition
        def first_escape(space, m):
            units = range(1, space.field.order)
            multiples = [space.scalar_mul(a, m) for a in range(space.field.order)]
            orbit = set(multiples)
            return next(
                (a, b) for a in units for b in units
                if space.add(multiples[a], multiples[b]) not in orbit
            )

        for key in [(11, 1, (3, 7, 3)), (3, 2, (1, 1, 5)), (5, 1, (1, 3, 3))]:
            space = get_space(*key)
            qk = space.quasi_kernel().members
            for comp in st.decompose(space).components:
                for m in space.vectors():
                    if m in comp.members:
                        continue
                    witness = st.maximality_witness(space, comp, m)
                    if m in qk:
                        assert witness[0] == "different_addition", (key, m)
                    else:
                        expected = ("not_in_quasi_kernel", first_escape(space, m))
                        assert witness == expected, (key, m)
        # in GF(31), 2^(1/11) = 2: the exponent-11 coordinate agrees with
        # the exponent-1 one on 1 + 1 and the exponent-7 one does not, so
        # the first escaping pair is the earliest over all coordinates,
        # neither the first nor the last disagreeing coordinate's
        for exponents in [(1, 11, 7), (1, 7, 11)]:
            space = get_space(31, 1, exponents)
            comp = st.decompose(space).components[0]
            for m in [(1, 1, 1), (2, 3, 5)]:
                witness = st.maximality_witness(space, comp, m)
                assert witness == ("not_in_quasi_kernel", first_escape(space, m)) == (
                    "not_in_quasi_kernel", (1, 1)), (exponents, m)

    @pytest.mark.parametrize("inside", [(0, 0, 0), (1, 0, 0)], ids=str)
    def test_maximality_witness_refuses_an_inside_vector(self, inside):
        # "inside" is read off the class, so the member set is not built
        space = TwistedSpace(Field(11), (3, 7, 3))
        comp = st.decompose(space).components[0]
        with pytest.raises(HypothesisUnmetError, match="inside the component"):
            st.maximality_witness(space, comp, inside)
        assert "members" not in vars(comp)

    def test_maximality_witness_reads_the_addition_memo(self, monkeypatch):
        # an outsider whose table _addition_table resolved is not resolved
        # again, and its witness is the one a full resolve gives
        fresh = TwistedSpace(Field(11), (3, 7, 3))
        comp = st.decompose(fresh).components[1]
        others = [v for v in fresh.quasi_kernel().sorted_nonzero()
                  if v not in comp.members][:20]
        expected = [st.maximality_witness(fresh, comp, v) for v in others]
        assert all(w[0] == "different_addition" for w in expected)
        space = TwistedSpace(Field(11), (3, 7, 3))
        comp = st.decompose(space).components[1]
        for v in others:
            st._addition_table(space, v)

        def refuse(v):
            raise AssertionError(f"{v} resolved again")

        monkeypatch.setattr(space, "multiples", refuse)
        assert [st.maximality_witness(space, comp, v) for v in others] == expected

    @pytest.mark.parametrize("key", NON_REGULAR, ids=str)
    def test_oracles_agree_whichever_resolves_first(self, key):
        # the orbit memo is filled by whichever oracle asks first; a fresh
        # space and one filled first by the brute-force Q(V) give the same
        # witnesses, tables, interning (the first vector sharing each
        # vector's table object) and Q(V) for every vector
        def results(space):
            witnesses = [
                st.maximality_witness(space, comp, v)
                for comp in st.decompose(space).components
                for v in space.iter_vectors()
                if v != space.zero and space.class_of(v) != comp.class_id
            ]
            qstar = space.quasi_kernel().sorted_nonzero()
            tables = [st._addition_table(space, v) for v in qstar]
            first = {}
            shared = [first.setdefault(id(t), v) for v, t in zip(qstar, tables)]
            return witnesses, tables, shared, quasi_kernel_bruteforce(space).members

        p, r, exponents = key
        fresh = TwistedSpace(get_field(p, r), exponents)
        brute_first = TwistedSpace(get_field(p, r), exponents)
        quasi_kernel_bruteforce(brute_first)
        assert len(brute_first._resolved_orbits) == brute_first.size - 1
        assert results(fresh) == results(brute_first)

    def test_decomposition_report_serializes(self):
        payload = st.decompose(get_space(5, 1, (1, 3))).to_json()
        assert json.loads(json.dumps(payload)) == payload


class TestClosedFormDecomposition:
    def test_components_match_definitional_additions_on_corpus(self):
        for space in corpus_spaces():
            for comp in st.decompose(space).components:
                rep = comp.induced.base_vector
                assert comp.induced.table == st.induced_addition(space, rep).table, (
                    space, comp.class_id)

    def test_class_table_above_dense_limit_matches_definition(self):
        space = TwistedSpace(Field(1031), (7,))
        assert space.field.order > TABLE_LIMIT
        assert space.class_addition_table(0) == st._addition_table(space, (1,))

    def test_bound_admits_the_fields_that_decompose(self):
        assert CLASS_TABLE_LIMIT >= 2053
        deco = st.decompose(TwistedSpace(Field(2053), (5,)))
        assert [len(c.members) for c in deco.components] == [2053]

    def test_field_above_bound_is_refused_before_allocation(self):
        # decompose never reads the class addition table, so only reading
        # the component's addition is refused
        space = TwistedSpace(Field(4099), (1,))
        assert space.field.order > CLASS_TABLE_LIMIT
        tracemalloc.start()
        try:
            (comp,) = st.decompose(space).components
            assert len(comp) == 4099 and len(comp.members) == 4099
            with pytest.raises(TooLargeError, match=str(CLASS_TABLE_LIMIT)):
                comp.induced
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table would hold 4099^2 list slots, over 130 MB
        assert peak < 16 * 2**20
        assert space._class_add_tables == {}
