"""Tests for linear combinations, span, dimension, bases and coordinates."""

import gc
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as hst

from conftest import (
    check_components_against_bruteforce,
    corpus_spaces,
    get_field,
    get_space,
)
from nearvec import near_field as nf
from nearvec import space as space_mod
from nearvec import span as spn
from nearvec import structure as st
from nearvec import verify
from nearvec.errors import (
    HypothesisUnmetError,
    InvalidSlotError,
    InvalidVectorError,
    NearVecError,
    NotABasisError,
    NotInQuasiKernelError,
    TooLargeError,
)
from nearvec.finite_field import TABLE_LIMIT, Field
from nearvec.space import (
    TwistedSpace,
    additive_closure,
    quasi_kernel_bruteforce,
    quasi_kernel_closed_form,
    quasi_kernel_report,
)


class TestLinearCombinations:
    def test_quasi_kernel_vector_gives_its_line(self):
        space = get_space(11, 1, (3, 7, 3))
        line = {space.scalar_mul(a, (3, 0, 4)) for a in range(11)}
        assert spn.linear_combinations(space, (3, 0, 4)) == line
        assert len(line) == 11

    def test_zero_vector(self):
        space = get_space(11, 1, (3, 7, 3))
        assert spn.linear_combinations(space, space.zero) == {space.zero}

    def test_mixed_vector_fills_both_components(self):
        space = get_space(11, 1, (3, 7, 3))
        f = space.field
        expected = {
            (f.mul(2, t), s, f.mul(6, t)) for t in range(11) for s in range(11)
        }
        assert spn.linear_combinations(space, (2, 5, 6)) == expected
        assert len(expected) == 121


class TestSpan:
    def test_worked_example_mixed_vector(self):
        space = get_space(11, 1, (3, 7, 3))
        span = spn.span_of(space, [(2, 5, 6)])
        assert span.dim == 2
        assert len(span.members) == 121
        assert set(span.generators) == {(2, 0, 6), (0, 5, 0)}

    def test_worked_example_quasi_kernel_vector(self):
        space = get_space(11, 1, (3, 7, 3))
        span = spn.span_of(space, [(3, 0, 4)])
        assert span.dim == 1
        assert span.members == {space.scalar_mul(a, (3, 0, 4)) for a in range(11)}

    def test_empty_generators(self):
        space = get_space(11, 1, (3, 7, 3))
        span = spn.span_of(space, [])
        assert span.dim == 0 and span.members == {space.zero}

    def test_single_class_pair_spans_component(self):
        space = get_space(11, 1, (3, 7, 3))
        span = spn.span_of(space, [(1, 0, 0), (0, 0, 1)])
        assert span.members == frozenset(
            (a, 0, c) for a in range(11) for c in range(11)
        )

    def test_span_equals_linear_combinations_for_single_vectors(self):
        for key in [(5, 1, (1, 3)), (3, 2, (1, 5)), (7, 1, (1, 5))]:
            space = get_space(*key)
            for v in space.iter_vectors():
                assert spn.span_of(space, [v]).members == \
                    spn.linear_combinations(space, v)

    def test_span_agrees_with_closure_oracle_on_generator_sets(self):
        space = get_space(5, 1, (1, 3))
        vecs = list(space.iter_vectors())
        for gens in [
            [(1, 2)], [(1, 0), (0, 2)], [(1, 1), (2, 2)],
            [(1, 2), (3, 4), (2, 1)], [],
        ]:
            assert spn.span_of(space, gens).members == \
                spn.subspace_closure_oracle(space, gens)

    def test_naive_closure_cross_checks_the_worklist_oracle(self):
        space = get_space(5, 1, (1, 3))
        for gens in [[(1, 2)], [(1, 0)], [(2, 3), (0, 1)]]:
            assert spn.subspace_closure_naive(space, gens) == \
                spn.subspace_closure_oracle(space, gens)

    def test_span_by_intersection_of_all_subspaces(self):
        # on GF(5)^2 with exponents (1, 3) the subspaces can be listed
        # outright, so span can be computed straight from its definition
        space = get_space(5, 1, (1, 3))
        vectors = set(space.iter_vectors())
        lines = set()
        for v in vectors - {space.zero}:
            line = frozenset(space.scalar_mul(a, v) for a in range(5))
            lines.add(line)
        candidates = {frozenset({space.zero}), frozenset(vectors)}
        for line in lines:
            candidates.add(line)
        for l1 in lines:
            for l2 in lines:
                candidates.add(frozenset(spn.subspace_closure_oracle(space, l1 | l2)))
        closed = [c for c in candidates if spn.is_subspace(space, c)]
        for gens in [[(1, 2)], [(3, 0)], [(1, 0), (0, 1)], [(2, 4)]]:
            expected = frozenset(vectors)
            for sub in closed:
                if set(gens) <= sub:
                    expected &= sub
            assert spn.span_of(space, gens).members == expected

    def test_component_supports_json(self):
        space = get_space(11, 1, (3, 7, 3))
        payload = spn.span_of(space, [(2, 5, 6)]).to_json()
        assert payload["dim"] == 2
        assert payload["component_supports"] == [[0, 2], [1]]
        assert payload["member_count"] == 121


# corpus spaces of at most this many vectors take the listing sweep; the
# larger ones are GF(5^2)^3 and GF(13^2), with r = 1, 2 and 3 all below
LISTING_MAX_SIZE = 2401
MEMBERSHIP_MAX_SIZE = 729


def generator_sets(space, rng):
    """Seeded generator sets: the empty set, one to three random vectors,
    and dependent sets (a vector with a multiple, and with the sum of
    the two)."""
    vectors = list(space.iter_vectors())
    v, w = rng.choice(vectors), rng.choice(vectors)
    twice = space.scalar_mul(rng.randrange(space.field.order), v)
    sets = [[], [v, twice], [v, w, space.add(v, w)]]
    sets += [rng.sample(vectors, k) for k in (1, 2, 3) if k <= len(vectors)]
    return sets


class TestEchelonForm:
    """``iter_members`` and ``in`` read the echelon form, with the
    closure oracle as reference."""

    @pytest.mark.parametrize("space", [
        s for s in corpus_spaces() if s.size <= LISTING_MAX_SIZE], ids=repr)
    def test_iter_members_is_the_sorted_closure(self, space):
        rng = random.Random(space.size)
        for gens in generator_sets(space, rng):
            sub = spn.span_of(space, gens)
            expected = sorted(spn.subspace_closure_oracle(space, gens))
            assert list(sub.iter_members()) == expected, gens
            assert sub.member_count == len(expected), gens

    @pytest.mark.parametrize("space", [
        s for s in corpus_spaces() if s.size <= MEMBERSHIP_MAX_SIZE], ids=repr)
    def test_membership_matches_the_closure(self, space):
        rng = random.Random(space.size)
        for gens in generator_sets(space, rng):
            sub = spn.span_of(space, gens)
            closure = spn.subspace_closure_oracle(space, gens)
            assert [v in sub for v in space.iter_vectors()] == \
                [v in closure for v in space.iter_vectors()], gens

    @pytest.mark.parametrize("space", [
        s for s in corpus_spaces() if s.size <= MEMBERSHIP_MAX_SIZE], ids=repr)
    def test_coordinates_expand_exactly_the_closure(self, space):
        # mixed and dependent generator sets, which a solve over
        # independent quasi-kernel vectors never meets
        rng = random.Random(space.size)
        for gens in generator_sets(space, rng):
            sub = spn.span_of(space, gens)
            closure = spn.subspace_closure_oracle(space, gens)
            for v in space.iter_vectors():
                coeffs = sub.coordinates(v)
                assert (coeffs is None) == (v not in closure), (gens, v)
                if coeffs is not None:
                    total = space.zero
                    for a, g in zip(coeffs, sub.generators, strict=True):
                        total = space.add(total, space.scalar_mul(a, g))
                    assert total == v, (gens, v)

    def test_membership_validates(self):
        sub = spn.span_of(get_space(11, 1, (3, 7, 3)), [(2, 5, 6)])
        with pytest.raises(InvalidVectorError):
            (99, 0, 0) in sub

    def test_million_member_span_is_counted_not_built(self):
        space = TwistedSpace(Field(101), (1, 3, 7))
        sub = spn.span_of(space, space.standard_basis())
        payload = sub.to_json()
        assert payload["member_count"] == 1030301 and payload["dim"] == 3
        assert "members" not in payload
        assert (100, 7, 55) in sub
        assert "members" not in vars(sub)

    def test_equal_spans_have_equal_forms(self):
        space = get_space(7, 1, (1, 1, 5))
        a = spn.span_of(space, [(1, 2, 0), (0, 1, 3)])
        b = spn.span_of(space, [(1, 3, 3), (2, 4, 0), (0, 0, 6)])
        assert a.members == b.members and a.echelon == b.echelon
        c = spn.span_of(space, [(1, 2, 0)])
        assert c.echelon != a.echelon


class TestDimension:
    def test_worked_examples(self):
        space = get_space(11, 1, (3, 7, 3))
        assert spn.dim_of_vector(space, (2, 5, 6)).value == 2
        assert spn.dim_of_vector(space, (0, 0, 0)).value == 0
        assert spn.dim_of_vector(space, (3, 0, 4)).value == 1

    def test_witness_is_a_minimal_representation(self):
        space = get_space(11, 1, (3, 7, 3))
        qk = space.quasi_kernel().members
        result = spn.dim_of_vector(space, (2, 5, 6))
        assert len(result.witness) == result.value
        total = space.zero
        for term in result.witness:
            assert term in qk and term != space.zero
            total = space.add(total, term)
        assert total == (2, 5, 6)

    def test_three_class_space(self):
        space = get_space(11, 1, (1, 3, 7))
        assert spn.dim_of_vector(space, (1, 1, 1)).value == 3
        assert spn.dim_of_vector(space, (1, 1, 0)).value == 2
        assert spn.dim_of_vector(space, (0, 4, 0)).value == 1


# fields for the property sweep: characteristic 2, r = 3 and prime fields
SWEEP_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1), (17, 1)]
SWEEP_MAX_SIZE = 2000


@hst.composite
def spaces_with_vectors(draw):
    """(p, r, exponents, vectors) for an admissible space of at most
    SWEEP_MAX_SIZE vectors; an exponent is either a fresh unit exponent
    or a Frobenius twin q p^l of an earlier one."""
    p, r = draw(hst.sampled_from(SWEEP_FIELDS))
    order = p ** r
    m = order - 1
    max_n = 1
    while order ** (max_n + 1) <= SWEEP_MAX_SIZE:
        max_n += 1
    n = draw(hst.sampled_from(range(max_n, 0, -1)))
    units = [q for q in range(1, max(m, 2)) if gcd(q, m) == 1]
    exponents = []
    for _ in range(n):
        if exponents and m > 1 and draw(hst.integers(0, 3)) == 0:
            base = draw(hst.sampled_from(exponents))
            exponents.append(base * p ** draw(hst.integers(0, r - 1)) % m)
        else:
            exponents.append(draw(hst.sampled_from(units)))
    vector = hst.tuples(*[hst.integers(0, order - 1)] * n)
    vectors = draw(hst.lists(vector, min_size=1, max_size=8))
    return p, r, tuple(exponents), vectors


def sweep(test):
    """Run ``test`` on the seeded draws of ``spaces_with_vectors`` and on
    a few fixed edge cases."""
    for decorate in (
        example((3, 2, (1, 3, 5), [(1, 2, 3), (0, 8, 0)])),  # Frobenius twins
        example((13, 1, (5,), [(7,), (0,)])),  # n = 1
        example((3, 3, (1, 5), [(4, 20), (0, 26)])),  # r = 3, two classes
        example((2, 3, (1, 3, 6), [(1, 5, 7), (0, 0, 3)])),  # r = 3
        example((2, 2, (1, 2), [(1, 3), (0, 2)])),  # char 2, Frobenius twins
        given(spaces_with_vectors()),
        settings(max_examples=300, deadline=None, database=None),
        seed(20261018),
    ):
        test = decorate(test)
    return test


class TestDimensionSweep:
    @sweep
    def test_closed_form_matches_search(self, drawn):
        p, r, exponents, vectors = drawn
        space = get_space(p, r, exponents)
        qk = space.quasi_kernel().members
        dim_search = spn.dim_searcher(space)
        for v in vectors:
            closed = spn.dim_of_vector(space, v)
            search = dim_search(v)
            assert (closed.value, closed.witness) == (search.value, search.witness), v
            total = space.zero
            for term in closed.witness:
                assert term in qk and term != space.zero
                total = space.add(total, term)
            assert total == v


def pair_by_pair_layers(space):
    """The sumset layers of Q(V)* by one ``add`` per (frontier vector,
    summand) pair, each layer finished before the stop test."""
    qstar = space.quasi_kernel().sorted_nonzero()
    level = {q: (None, q) for q in qstar}
    depth = {q: 1 for q in qstar}
    frontier, t = qstar, 1
    while frontier and len(depth) < space.size - 1:
        t += 1
        new = []
        for w in frontier:
            for q in qstar:
                u = space.add(w, q)
                if u != space.zero and u not in depth:
                    depth[u] = t
                    level[u] = (w, q)
                    new.append(u)
        frontier = new
    return depth, level


@pytest.mark.parametrize("space", [
    s for s in corpus_spaces() if s.size <= LISTING_MAX_SIZE], ids=repr)
def test_dim_layers_match_the_pair_by_pair_search(space):
    # a fresh space, so no layers are cached from another test
    fresh = TwistedSpace(space.field, space.exponents)
    depth, level = spn._dim_layers(fresh)
    want_depth, want_level = pair_by_pair_layers(fresh)
    assert list(depth.items()) == list(want_depth.items())
    assert list(level.items()) == list(want_level.items())


class TestSpanOracleOrbits:
    """``span_oracle_suite`` closes each scalar orbit once; a wrong span
    still fails at its own vector, first of its orbit or not."""

    space = get_space(11, 1, (3, 7, 3))
    v = (2, 5, 6)
    decoy = (2, 5, 7)  # a span of the same size, another set

    def orbit_in_sweep_order(self):
        return sorted(set(self.space.multiples(self.v)) - {self.space.zero})

    def suite_with_wrong_span_at(self, monkeypatch, target):
        real = spn.span_of
        assert real(self.space, [self.decoy]).members != \
            spn.subspace_closure_oracle(self.space, [target])

        def span_of(space, generators):
            generators = list(generators)
            if generators == [target]:
                generators = [self.decoy]
            return real(space, generators)

        monkeypatch.setattr(spn, "span_of", span_of)
        return verify.span_oracle_suite(self.space)

    def test_suite_passes_unpatched(self):
        assert verify.span_oracle_suite(self.space)["pass"]

    @pytest.mark.parametrize("position", [0, 1, -1], ids=["first", "second", "last"])
    def test_wrong_span_fails_at_its_vector(self, monkeypatch, position):
        orbit = self.orbit_in_sweep_order()
        assert len(orbit) == 10
        target = orbit[position]
        result = self.suite_with_wrong_span_at(monkeypatch, target)
        check = result["checks"][0]
        assert not result["pass"] and check["mode"] == "exhaustive"
        assert check["witness"] == ["span_vs_closure", list(target)]


def list_sampled_inputs(space, seed):
    """What ``span_of`` and ``maximality_witness`` receive from the
    sampled span-oracle and decomposition suites on a passing space, with
    every sample drawn from the list of all vectors: the reference for
    the suites' sampling by position."""
    vectors = list(space.iter_vectors())
    per_vector = 3 * space.size * space.field.order
    sample = max(10, min(verify.SPAN_SAMPLE, 30_000_000 // per_vector))
    spans = [[v] for v in random.Random(seed).sample(vectors, min(sample, len(vectors)))]
    rng = random.Random(seed + 1)
    candidates = [v for v in vectors if v != space.zero]
    pair_rounds = max(3, min(20, 10_000_000 // max(2 * space.size * space.field.order, 1)))
    spans += [rng.sample(candidates, min(2, len(candidates)))
              for _ in range(min(pair_rounds, len(candidates)))]
    rng = random.Random(seed)
    outsiders = []
    for comp in st.decompose(space).components:
        out = [v for v in vectors if v != space.zero and space._class_of(v) != comp.class_id]
        if len(out) > verify.SPAN_SAMPLE:
            out = rng.sample(out, verify.SPAN_SAMPLE)
        outsiders += [(comp.class_id, m) for m in out]
    return spans, outsiders


class TestSuitesKeepNoWholeSpaceState:
    """The span-oracle and decomposition suites sample vectors by
    position and leave nothing of |V| size on the space."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("key", [(11, 1, (3, 7, 3)), (5, 2, (1, 7, 13))], ids=str)
    def test_sampled_inputs_match_list_sampling(self, monkeypatch, key, seed):
        space = TwistedSpace(get_field(*key[:2]), key[2])
        max_size = 100
        assert space.size > max_size
        spans, outsiders = [], []
        span_of, witness = spn.span_of, st.maximality_witness

        def recorded_span_of(space_, generators):
            spans.append(list(generators))
            return span_of(space_, generators)

        def recorded_witness(space_, comp, outsider):
            outsiders.append((comp.class_id, outsider))
            return witness(space_, comp, outsider)

        monkeypatch.setattr(spn, "span_of", recorded_span_of)
        monkeypatch.setattr(st, "maximality_witness", recorded_witness)
        result = verify.span_oracle_suite(space, seed=seed, max_size=max_size)
        assert result["pass"] and result["checks"][0]["mode"] == "sampled"
        assert verify.decomposition_suite(space, seed=seed, max_size=max_size)["pass"]
        assert (spans, outsiders) == list_sampled_inputs(space, seed)

    def test_suites_leave_no_whole_space_state(self):
        # GF(31)^3 is sampled by both suites, with no max_size.  A space
        # that kept its vector list, Q(V) and the dimension layers held
        # 8 MB after each.  A full collection empties the interpreter's
        # free lists, which tracemalloc counts as held.
        tracemalloc.start()
        try:
            space = TwistedSpace(Field(31), (1, 1, 7))
            assert space.size > verify.MAXIMALITY_SWEEP_LIMIT
            for suite in (verify.span_oracle_suite, verify.decomposition_suite):
                assert suite(space)["pass"]
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                assert held < 0.5 * 2**20, f"{suite.__name__}: {held / 2**20:.2f} MB"
        finally:
            tracemalloc.stop()


class TestQuasiKernelSweep:
    @sweep
    def test_bruteforce_and_induced_addition_match_closed_form(self, drawn):
        p, r, exponents, _ = drawn
        space = get_space(p, r, exponents)
        brute = quasi_kernel_bruteforce(space)
        closed = quasi_kernel_closed_form(space)
        assert brute.members == closed.members
        check_components_against_bruteforce(space, brute)
        basis = space.standard_basis()
        for cls in space.classes:
            v = basis[cls.support[0]]
            assert st.induced_addition(space, v) == \
                st.induced_addition_closed_form(space, v), cls


class TestSolverSweep:
    @sweep
    def test_solves_match_the_closure_oracle(self, drawn):
        # the parts of every drawn vector but the first span the subset;
        # the drawn vectors and the standard basis are the targets
        p, r, exponents, vectors = drawn
        space = get_space(p, r, exponents)
        parts_by_class = {}
        for v in vectors[1:]:
            for cid, part in space.class_parts(v).items():
                parts_by_class.setdefault(cid, []).append(part)
        independent = []
        for cid, parts in parts_by_class.items():
            kept = []
            for j, part in enumerate(parts):
                candidate = [parts[i] for i in kept] + [part]
                if spn.is_linearly_independent(space, candidate)[0]:
                    kept.append(j)
            assert spn._echelon(space, cid, parts)[0] == kept, cid
            independent += [parts[j] for j in kept]
        assert spn.is_linearly_independent(space, independent)[0]
        closure = spn.subspace_closure_oracle(space, independent)
        for target in vectors + list(space.standard_basis()):
            coeffs = spn.coordinates_in_independent_set(space, independent, target)
            assert (coeffs is None) == (target not in closure), target
            if coeffs is not None:
                total = space.zero
                for a, b in zip(coeffs, independent):
                    total = space.add(total, space.scalar_mul(a, b))
                assert total == target


class TestIndependence:
    def test_standard_basis_is_independent(self):
        space = get_space(11, 1, (3, 7, 3))
        ok, witness = spn.is_linearly_independent(space, space.standard_basis())
        assert ok and witness is None

    def test_parallel_vectors_are_dependent_with_witness(self):
        space = get_space(11, 1, (3, 7, 3))
        vecs = [(1, 0, 0), (2, 0, 0)]
        ok, witness = spn.is_linearly_independent(space, vecs)
        assert not ok
        total = space.zero
        for a, v in zip(witness, vecs):
            total = space.add(total, space.scalar_mul(a, v))
        assert total == space.zero and any(witness)

    def test_vector_in_span_of_another_is_dependent(self):
        space = get_space(5, 1, (1, 3))
        v = (2, 0)
        w = (4, 0)  # w in span(v)
        assert w in spn.span_of(space, [v]).members
        ok, _ = spn.is_linearly_independent(space, [v, w])
        assert not ok

    def test_rejects_non_quasi_kernel_vectors(self):
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(NotInQuasiKernelError):
            spn.is_linearly_independent(space, [(1, 1, 0)])

    def test_scan_bound(self):
        space = get_space(13, 2, (5,))
        vecs = [space.standard_basis()[0]] * 6
        with pytest.raises(TooLargeError):
            spn.is_linearly_independent(space, vecs)


class TestBasis:
    def test_standard_vectors_emerge_first(self):
        space = get_space(11, 1, (3, 7, 3))
        assert set(spn.extract_basis(space)) == set(space.standard_basis())

    def test_single_coordinate_space(self):
        space = get_space(13, 2, (5,))
        basis = spn.extract_basis(space)
        assert basis == ((1,),)

    def test_closed_form_is_the_greedy_walk(self):
        # the greedy definition, span membership decided by the closure
        # oracle, is the oracle for the closed form
        for space in corpus_spaces():
            if space.size > 2000:
                continue
            picks = []
            closure = {space.zero}
            for v in space.quasi_kernel().sorted_nonzero():
                if v not in closure:
                    picks.append(v)
                    closure = spn.subspace_closure_oracle(space, picks)
            assert tuple(picks) == spn.extract_basis(space), space

    def test_basis_is_n_independent_vectors(self):
        for key in [(11, 1, (3, 7, 3)), (5, 1, (1, 3)), (3, 2, (1, 1, 5))]:
            space = get_space(*key)
            basis = spn.extract_basis(space)
            assert len(basis) == space.n
            ok, _ = spn.is_linearly_independent(space, basis)
            assert ok


class TestIsSubspace:
    def test_component_is_a_subspace(self):
        space = get_space(11, 1, (3, 7, 3))
        comp = {(a, 0, c) for a in range(11) for c in range(11)}
        assert spn.is_subspace(space, comp)

    def test_random_pair_is_not(self):
        space = get_space(11, 1, (3, 7, 3))
        assert not spn.is_subspace(space, {(0, 0, 0), (1, 1, 0)})

    def test_trivial_subspace(self):
        space = get_space(11, 1, (3, 7, 3))
        assert spn.is_subspace(space, {space.zero})
        assert not spn.is_subspace(space, set())

    def test_matches_span_of_quasi_elements(self):
        space = get_space(5, 1, (1, 3))
        qk = space.quasi_kernel().members
        for subset in [
            {(a, 0) for a in range(5)},
            {(0, b) for b in range(5)},
            {(a, a) for a in range(5)},
            set(space.iter_vectors()),
            {space.zero},
        ]:
            closed = spn.is_subspace(space, subset)
            span = spn.span_of(space, sorted(subset & qk))
            assert closed == (span.members == frozenset(subset))


class TestCanonicalCoordinates:
    def test_round_trip_all_vectors(self):
        for key in [(11, 1, (3, 7, 3)), (3, 2, (1, 5)), (5, 1, (1, 1)),
                    (2, 2, (1, 2)), (2, 3, (3, 5))]:
            space = get_space(*key)
            cmap = spn.CoordinateMap(space, spn.extract_basis(space))
            for v in space.iter_vectors():
                assert cmap.from_coords(cmap.to_coords(v)) == v

    def test_untwisted_coordinates_are_literal(self):
        space = get_space(5, 1, (1, 1))
        cmap = spn.CoordinateMap(space, space.standard_basis())
        for v in space.iter_vectors():
            assert cmap.to_coords(v) == v

    def test_scaled_basis_example(self):
        space = get_space(11, 1, (3, 7, 3))
        cmap = spn.CoordinateMap(
            space, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        assert cmap.to_coords((2, 0, 0)) == (1, 0, 0)

    def test_pushforward_addition_is_the_induced_addition(self):
        space = get_space(11, 1, (3, 7, 3))
        basis = spn.extract_basis(space)
        cmap = spn.CoordinateMap(space, basis)
        coords = {v: cmap.to_coords(v) for v in space.iter_vectors()}
        tables = [cmap.addition_table(i) for i in range(space.n)]
        sample = list(space.iter_vectors())[:: max(1, space.size // 400)]
        for v in sample:
            for w in sample:
                expected = tuple(
                    tables[i][coords[v][i]][coords[w][i]] for i in range(space.n)
                )
                assert coords[space.add(v, w)] == expected

    def test_eta_maps_are_near_field_isomorphisms(self):
        space = get_space(11, 1, (3, 7, 3))
        basis = spn.extract_basis(space)
        cmap = spn.CoordinateMap(space, basis)
        _, mul = space.field.op_tables()
        for slot in range(space.n):
            induced = st.induced_nearfield(space, basis[slot])
            pushforward = nf.NearField(cmap.addition_table(slot), mul)
            assert nf.check_axioms(pushforward).all_pass
            assert [list(r) for r in induced.add] == [
                list(r) for r in pushforward.add
            ]

    @pytest.mark.parametrize("slot", [5, -1])
    def test_addition_table_rejects_slots_outside_range(self, slot):
        space = get_space(11, 1, (3, 7, 3))
        cmap = spn.CoordinateMap(space, spn.extract_basis(space))
        with pytest.raises(InvalidSlotError, match=rf"slot {slot} "):
            cmap.addition_table(slot)

    def test_rejects_bad_bases(self):
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(NotABasisError):
            spn.CoordinateMap(space, [(1, 0, 0), (2, 0, 0), (0, 1, 0)])
        with pytest.raises(NotABasisError):
            spn.CoordinateMap(space, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(NotABasisError):
            spn.CoordinateMap(
                space, [(1, 1, 0), (0, 1, 0), (0, 0, 1)]
            )
        # n vectors but none in class {1}: three in the plane of {0, 2}
        with pytest.raises(NotABasisError):
            spn.CoordinateMap(space, [(1, 0, 0), (0, 0, 1), (1, 0, 1)])
        # one class whose second coordinate is straightened by Frobenius
        gf4 = get_space(2, 2, (1, 2))
        with pytest.raises(NotABasisError):
            spn.CoordinateMap(gf4, [(1, 1), gf4.scalar_mul(2, (1, 1))])


class TestReduceOnce:
    """A coordinate solve eliminates each exponent class of its basis
    once, however many targets it then solves."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        echelon = spn._echelon

        def counted(space, cid, vectors):
            calls.append(cid)
            return echelon(space, cid, vectors)

        monkeypatch.setattr(spn, "_echelon", counted)
        return calls

    def test_coordinate_map(self, eliminations):
        space = get_space(11, 1, (3, 7, 3))
        cmap = spn.CoordinateMap(space, spn.extract_basis(space))
        for v in space.iter_vectors():
            assert cmap.from_coords(cmap.to_coords(v)) == v
        assert sorted(eliminations) == list(range(len(space.classes)))

    def test_keylemma_suite(self, eliminations):
        space = get_space(11, 1, (1, 1, 1))
        assert verify.keylemma_suite(space)["pass"]
        assert sorted(eliminations) == list(range(len(space.classes)))


class TestExoticSpanWitnesses:
    def test_distinct_span_witness(self):
        space = get_space(11, 1, (3, 7, 3))
        v, w = spn.distinct_span_witness(space)
        qk = space.quasi_kernel().members
        assert v != w and v not in qk and w not in qk
        assert spn.span_of(space, [v]).members == spn.span_of(space, [w]).members

    def test_intersecting_span_witness_two_classes(self):
        space = get_space(11, 1, (3, 7, 3))
        v, w = spn.intersecting_span_witness(space)
        sv = spn.span_of(space, [v]).members
        sw = spn.span_of(space, [w]).members
        assert v not in sw and w not in sv
        assert sv & sw != {space.zero}

    def test_intersecting_span_witness_three_classes(self):
        space = get_space(11, 1, (1, 3, 7))
        v, w = spn.intersecting_span_witness(space)
        line = {space.scalar_mul(a, (0, 1, 0)) for a in range(11)}
        assert spn.span_of(space, [v]).members & spn.span_of(space, [w]).members == line

    def test_hypotheses_rejected(self):
        with pytest.raises(HypothesisUnmetError):
            spn.distinct_span_witness(get_space(5, 1, (1, 1)))
        with pytest.raises(HypothesisUnmetError):
            spn.intersecting_span_witness(get_space(5, 1, (1, 3)))
        with pytest.raises(HypothesisUnmetError):
            spn.intersecting_span_witness(get_space(7, 1, (1, 1, 1)))


class TestVectorValidation:
    @pytest.mark.parametrize("call", [
        lambda space: spn.span_of(space, [(99, 0, 0)]),
        lambda space: spn.span_of(space, [(1, 2)]),
        lambda space: spn.dim_of_vector(space, (1,)),
        lambda space: spn.coordinates_in_independent_set(
            space, space.standard_basis(), (0, -1, 0)),
        lambda space: spn.span_of(space, [(1, 2.0, 3)]),
        lambda space: spn.subspace_closure_oracle(space, [(99, 0, 0)]),
        lambda space: spn.linear_combinations(space, (99, 0, 0)),
        lambda space: spn.subspace_closure_naive(space, [(99, 0, 0)]),
        lambda space: spn.is_subspace(space, {(0, 0, 0), (99, 0, 0)}),
        lambda space: st.maximality_witness(
            space, st.decompose(space).components[0], (99, 0, 0)),
        lambda space: spn.CoordinateMap(
            space, space.standard_basis()).from_coords((99, 0, 0)),
        lambda space: additive_closure(space, [(99, 0, 0)]),
        lambda space: st.decompose(space).component_of((99, 0, 0)),
        lambda space: st.decompose(space).split((99, 0, 0)),
        lambda space: space.class_of((1, 0, 0, 1)),
        lambda space: space.class_of((1, 0)),
        # a list is no vector: it would not hash into a set or a memo
        lambda space: st.kernel(space, [1, 0, 0]),
        lambda space: st.induced_addition(space, [1, 0, 0]),
        lambda space: st.induced_nearfield(space, [1, 0, 0]),
        lambda space: st.maximality_witness(
            space, st.decompose(space).components[0], [0, 1, 0]),
        lambda space: st.verify_shared_addition(
            space, space.standard_basis(), [1, 0, 0], (0, 0, 1)),
        lambda space: spn.dim_searcher(space)([1, 0, 0]),
        lambda space: spn.is_subspace(space, [[0, 0, 0], [1, 0, 0]]),
        lambda space: spn.subspace_closure_naive(space, [[1, 0, 0]]),
        lambda space: additive_closure(space, [[1, 0, 0]]),
    ], ids=["out_of_range", "short", "dim_short", "coords_negative", "non_int",
            "closure_oracle", "linear_combinations", "closure_naive",
            "is_subspace", "maximality_outsider", "from_coords",
            "additive_closure", "component_of", "split", "class_of_long",
            "class_of_short", "kernel_list", "induced_addition_list",
            "induced_nearfield_list", "maximality_outsider_list",
            "verify_shared_addition_list", "dim_search_list",
            "is_subspace_list", "closure_naive_list", "additive_closure_list"])
    def test_bad_vector_raises_invalid_vector_error(self, call):
        space = get_space(11, 1, (3, 7, 3))
        with pytest.raises(InvalidVectorError) as info:
            call(space)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, NearVecError)


MILLION_VECTOR_SPACES = [(Field(101), (1, 1, 1)), (Field(1031), (1, 1))]


class TestQuasiKernelNotEnumerated:
    """Membership in Q(V)* is ``class_of``, and the counts of Q(V) and
    the regular components come from the classes, so the closed-form
    routes leave Q(V) unbuilt on spaces of about a million vectors."""

    @pytest.fixture(params=MILLION_VECTOR_SPACES, ids=lambda key: repr(key[0]))
    def space(self, request):
        field, exponents = request.param
        return TwistedSpace(field, exponents)

    @pytest.mark.parametrize("call", [
        lambda space: spn.CoordinateMap(space, space.standard_basis()).to_coords(
            (1,) * space.n),
        lambda space: spn.coordinates_in_independent_set(
            space, space.standard_basis(), (2,) * space.n),
        lambda space: st.induced_addition_closed_form(space, space.standard_basis()[0]),
        quasi_kernel_report,
        lambda space: st.decompose(space).to_json(),
        lambda space: st.are_compatible(space, *space.standard_basis()[:2]),
        lambda space: spn.extract_basis(space),
    ], ids=["to_coords", "coordinates_in_independent_set",
            "induced_addition_closed_form", "quasi_kernel_report",
            "decompose", "are_compatible", "extract_basis"])
    def test_quasi_kernel_is_not_built(self, space, call, monkeypatch):
        # every build of Q(V) goes through the closed form, cached or not
        def refuse(space_):
            raise AssertionError("Q(V) was enumerated")

        monkeypatch.setattr(space_mod, "quasi_kernel_closed_form", refuse)
        call(space)


ABOVE_TABLE_LIMIT = [
    (Field(1031), 7),
    (Field(2053), 5),
    (Field(2, 11, (1, 0, 1) + (0,) * 8 + (1,)), 3),
    (Field(4099), 1),  # above CLASS_TABLE_LIMIT too
]


class TestAboveTableLimit:
    """Span, dim and coordinates read field rows, so no dense table of
    |F|^2 entries stands between them and fields above TABLE_LIMIT."""

    @pytest.fixture(params=ABOVE_TABLE_LIMIT, ids=lambda key: repr(key[0]))
    def space(self, request):
        field, q = request.param
        assert field.order > TABLE_LIMIT
        return TwistedSpace(field, (q,))

    @staticmethod
    def seeded_vectors(space):
        rng = random.Random(space.field.order)
        return [(rng.randrange(1, space.field.order),) for _ in range(3)]

    def test_span_matches_closure_oracle(self, space):
        for v in self.seeded_vectors(space):
            sub = spn.span_of(space, [v])
            assert sub.dim == 1 and len(sub.members) == space.field.order
            assert sub.members == spn.subspace_closure_oracle(space, [v])

    def test_dim_is_one(self, space):
        for v in self.seeded_vectors(space):
            assert spn.dim_of_vector(space, v).value == 1

    def test_coordinates_round_trip(self, space):
        cmap = spn.CoordinateMap(space, space.standard_basis())
        for v in self.seeded_vectors(space) + [space.zero]:
            assert cmap.from_coords(cmap.to_coords(v)) == v

    def test_one_class_elimination_builds_no_class_table(self, space):
        # a second generator in one class is eliminated over F, so no
        # class addition table of |F|^2 entries is built or refused
        v = self.seeded_vectors(space)[0]
        sub = spn.span_of(space, [v, space.scalar_mul(2, v)])
        assert sub.dim == 1
        assert sub.members == spn.subspace_closure_oracle(space, [v])
        cmap = spn.CoordinateMap(space, [v])
        for target in self.seeded_vectors(space) + [space.zero]:
            coords = spn.coordinates_in_independent_set(space, [v], target)
            assert cmap.from_coords(coords) == target
        assert space._class_add_tables == {}


def test_field_scale_session_builds_no_dense_table():
    # construct, quasi-kernel, decompose and three spans over GF(1021),
    # below TABLE_LIMIT: before rows were built on first read this built
    # three tables of |F|^2 entries and peaked near 25 MB
    tracemalloc.start()
    try:
        space = TwistedSpace(Field(1021), (7,))
        space.quasi_kernel()
        st.decompose(space)
        for x in (3, 500, 1020):
            spn.span_of(space, [(x,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.field._add_table is None and space.field._mul_table is None
    assert space._class_add_tables == {}
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
