"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from itertools import combinations_with_replacement

import pytest

from conftest import (
    CORPUS,
    check_components_against_bruteforce,
    corpus_spaces,
    get_field,
    get_space,
    sweep_spaces,
)
from nearvec import near_field as nf
from nearvec import span as spn
from nearvec import structure as st
from nearvec import verify
from nearvec.errors import NotCoprimeError
from nearvec.finite_field import Field
from nearvec.space import (
    TwistedSpace,
    additive_closure,
    check_axioms,
    check_axioms_raw,
    quasi_kernel_bruteforce,
)


def _report(number, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} PASS: {label}{suffix}")


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    space = TwistedSpace(Field(11), (3, 7, 3))

    qk = space.quasi_kernel()
    expected_q = {(a, 0, c) for a in range(11) for c in range(11)}
    expected_q |= {(0, b, 0) for b in range(11)}
    assert qk.members == expected_q
    assert len(qk.members) == 131

    span_mixed = spn.span_of(space, [(2, 5, 6)])
    line_a = {space.scalar_mul(t, (2, 0, 6)) for t in range(11)}
    line_b = {space.scalar_mul(t, (0, 5, 0)) for t in range(11)}
    expected_span = {space.add(u, v) for u in line_a for v in line_b}
    assert span_mixed.members == expected_span
    assert len(span_mixed.members) == 121 and span_mixed.dim == 2
    assert set(span_mixed.generators) == {(2, 0, 6), (0, 5, 0)}

    span_single = spn.span_of(space, [(3, 0, 4)])
    assert span_single.members == {space.scalar_mul(t, (3, 0, 4)) for t in range(11)}
    assert len(span_single.members) == 11 and span_single.dim == 1

    deco = st.decompose(space)
    by_size = {len(c.members): c for c in deco.components}
    assert set(by_size) == {121, 11}
    assert by_size[121].members == frozenset(
        (a, 0, c) for a in range(11) for c in range(11)
    )
    assert by_size[11].members == frozenset((0, b, 0) for b in range(11))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "worked example reproduced exactly", f"{elapsed:.3f}s < 1s")


def test_criterion_2_flaw_surfacing():
    field = Field(11)
    field.generator()  # warm the construction caches before timing
    start = time.perf_counter()
    with pytest.raises(NotCoprimeError) as err:
        TwistedSpace(field, (3, 5, 3))
    elapsed = time.perf_counter() - start
    exc = err.value
    assert exc.gcd == 5 and exc.exponent == 5
    assert (exc.alpha, exc.beta) == (2, 8)
    assert exc.vector == (0, 1, 0)
    assert field.pow(2, 5) == field.pow(8, 5)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f}ms"
    _report(2, "non-coprime exponents rejected with witness (2, 8, e_2)",
            f"{elapsed * 1e6:.0f}us < 1ms")


def test_criterion_3_quasi_kernel_oracle_equivalence():
    # the three smallest r = 1 cells carry every exponent combination up
    # to coordinate permutation; verify that claim against the corpus
    for p, reps in ((3, (1,)), (5, (1, 3)), (7, (1, 5))):
        for n in (1, 2, 3):
            for combo in combinations_with_replacement(reps, n):
                assert (p, 1, combo) in CORPUS, f"missing {(p, 1, combo)}"

    spaces = sweep_spaces()
    assert len(spaces) >= 30
    start = time.perf_counter()
    for space in spaces + [s for s in corpus_spaces() if s not in spaces]:
        brute = quasi_kernel_bruteforce(space)
        closed = space.quasi_kernel()
        assert brute.members == closed.members, space
        check_components_against_bruteforce(space, brute)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, "quasi-kernel brute force equals closed form",
            f"{len(corpus_spaces())} spaces, {elapsed:.1f}s < 60s")


def test_criterion_4_equivalence_theorem():
    discrepancies = []
    for space in corpus_spaces():
        report = st.regularity_equivalences(space)
        if not report.consistent:
            discrepancies.append((space.to_config(), report.conditions))
    assert not discrepancies, discrepancies
    _report(4, "all regularity characterisations agree",
            f"{len(corpus_spaces())} spaces, 9 conditions each, 0 discrepancies")


def test_criterion_5_span_triple_agreement():
    start = time.perf_counter()
    swept_spaces = 0
    swept_vectors = 0
    for space in corpus_spaces():
        if space.size > 2000:
            continue
        swept_spaces += 1
        for v in space.vectors():
            swept_vectors += 1
            members = spn.span_of(space, [v]).members
            assert members == spn.linear_combinations(space, v), v
            assert members == spn.subspace_closure_oracle(space, [v]), v
            closed = spn.dim_of_vector(space, v)
            search = spn.dim_search(space, v)
            assert (closed.value, closed.witness) == (search.value, search.witness), v
            assert len(closed.witness) == closed.value
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(5, "span = linear combinations = closure, dim routes agree",
            f"{swept_vectors} vectors over {swept_spaces} spaces, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_6_decomposition_properties():
    for space in corpus_spaces():
        suite = verify.decomposition_suite(space, seed=0)
        assert suite["pass"], (space.to_config(), suite)
        # corpus spaces are all below the sweep bound, so the maximality
        # witnesses were checked for every outside vector
        assert space.size <= verify.MAXIMALITY_SWEEP_LIMIT
    _report(6, "direct sums split, partitions hold, components maximal",
            f"{len(corpus_spaces())} spaces, exhaustive outsiders")


def test_criterion_7_key_lemma():
    exhaustive = sampled = 0
    for space in corpus_spaces():
        suite = verify.keylemma_suite(space, seed=0)
        assert suite["pass"], (space.to_config(), suite)
        summary = suite["checks"][-1]
        if summary["mode"] == "exhaustive":
            exhaustive += 1
        else:
            sampled += 1
            assert summary["pairs"] == verify.KEY_LEMMA_SAMPLE
    _report(7, "hypothesis pairs always share the induced addition",
            f"{exhaustive} spaces exhaustive, {sampled} sampled at 10^4 pairs")


def test_criterion_8_subspace_characterization():
    start = time.perf_counter()
    space = get_space(5, 1, (1, 3))
    vectors = space.vectors()
    zero = space.zero

    # every additive subgroup of (Z/5)^2 is generated by at most two
    # elements; close every singleton and pair and deduplicate
    subgroups = {frozenset({zero})}
    for v in vectors:
        if v != zero:
            subgroups.add(frozenset(additive_closure(space, [v])))
    for v in vectors:
        for w in vectors:
            if v != zero and w != zero:
                subgroups.add(frozenset(additive_closure(space, [v, w])))
    assert len(subgroups) == 8  # 1 + 6 lines + 1

    qk = space.quasi_kernel().members
    subspace_count = 0
    for sub in subgroups:
        scalar_closed = all(
            space.scalar_mul(a, v) in sub for v in sub for a in range(5)
        )
        closed_verdict = spn.is_subspace(space, sub)
        span_verdict = spn.span_of(space, sorted(sub & qk)).members == sub
        assert scalar_closed == closed_verdict == span_verdict, sorted(sub)
        subspace_count += closed_verdict
    assert subspace_count == 4  # {0}, both axes, V
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(8, "subgroup is a subspace iff scalar-closed iff span of its "
               "quasi-kernel part", f"8 subgroups, {elapsed:.2f}s < 10s")


def test_criterion_9_near_field_suite():
    field_keys = sorted({(p, r) for p, r, _ in CORPUS})
    for key in field_keys:
        field = get_field(*key)
        structure = nf.from_field(field)
        report = nf.check_axioms(structure)
        assert report.all_pass, (key, report.failed())
        assert nf.right_distributivity_failure(structure.add, structure.mul) is None

    d9 = nf.dickson9()
    assert nf.check_axioms(d9).all_pass
    cx = nf.right_distributivity_failure(d9.add, d9.mul)
    assert cx is not None
    a, b, c = cx
    assert d9.mul[d9.add[a][b]][c] != d9.add[d9.mul[a][c]][d9.mul[b][c]]
    assert nf.distributive_elements(d9) == frozenset({0, 1, 2})
    assert nf.find_isomorphism(nf.from_field(get_field(3, 2)), d9) is None

    # the additive group of a near-field is a near-vector space over its
    # multiplicative monoid: directly in raw mode for the small fields
    # and the Dickson structure, through the product construction for all
    for key in field_keys:
        field = get_field(*key)
        assert check_axioms(get_space(key[0], key[1], (1,))).all_pass
        if field.order <= 121:
            add, mul = field.op_tables()
            endos = [tuple(mul[s][x] for x in range(field.order))
                     for s in range(field.order)]
            raw = check_axioms_raw(add, endos)
            assert raw.all_pass, (key, raw.failed())
    endos = [tuple(d9.mul[s][x] for x in range(9)) for s in range(9)]
    raw = check_axioms_raw([list(r) for r in d9.add], endos)
    assert raw.all_pass, raw.failed()
    _report(9, "near-field suite: fields pass, Dickson-9 left-only, "
               "scalar self-action satisfies all five axioms",
            f"{len(field_keys)} fields + Dickson")


def test_criterion_10_order_two_remark():
    for p, r, exponents in CORPUS:
        field = get_field(p, r)
        space = get_space(p, r, exponents)
        involutions = [
            x for x in range(2, field.order)
            if field.mul(x, x) == 1
        ]
        if p == 2:
            assert involutions == [], (p, r)
        else:
            assert len(involutions) == 1, (p, r)
            x = involutions[0]
            assert x == field.neg(1)
            for v in space.vectors():
                assert space.scalar_mul(x, v) == space.neg(v)
    # and the same holds inside the proper near-field
    d9 = nf.dickson9()
    invs = [x for x in d9.nonzero() if x != d9.one and d9.mul[x][x] == d9.one]
    assert len(invs) == 1
    assert all(d9.mul[invs[0]][a] == d9.neg(a) for a in d9.elements())
    _report(10, "odd characteristic has exactly one order-2 scalar acting "
                "as negation; characteristic 2 has none",
            f"{len(CORPUS)} spaces + Dickson, exhaustive")


def test_criterion_11_canonical_coordinates():
    checked = 0
    dr_memo = {}
    for space in corpus_spaces():
        if space.size > 2000:
            continue
        checked += 1
        basis = spn.extract_basis(space)
        cmap = spn.CoordinateMap(space, basis)
        coords = {}
        for v in space.vectors():
            c = cmap.to_coords(v)
            assert cmap.from_coords(c) == v, v
            coords[v] = c
        assert len(set(coords.values())) == space.size  # bijection

        tables = [cmap.addition_table(i) for i in range(space.n)]
        vectors = space.vectors()
        add = space.add
        n = space.n
        for v in vectors:
            cv = coords[v]
            for w in vectors:
                cw = coords[w]
                cs = coords[add(v, w)]
                for i in range(n):
                    if cs[i] != tables[i][cv[i]][cw[i]]:
                        raise AssertionError((space.to_config(), v, w, i))

        _, mul = space.field.op_tables()
        for slot in range(space.n):
            induced = st.induced_nearfield(space, basis[slot])
            assert [list(r) for r in induced.add] == [list(r) for r in tables[slot]]
            key = tuple(map(tuple, tables[slot]))
            if key not in dr_memo:
                pushforward = nf.NearField(tables[slot], mul)
                dr_memo[key] = nf.check_axioms(pushforward).all_pass
            assert dr_memo[key]
    _report(11, "coordinates round-trip and push addition onto the "
                "induced additions slot-wise",
            f"{checked} spaces, all vectors and pairs")
