"""Induced scalar additions and the regular structure they carve out.

Every nonzero quasi-kernel vector v turns the scalars into a near-field
via (a +_v b) v = a v + b v.  The addition only depends on the exponent
class of v's support, the vectors sharing one addition form the regular
components, and V is their direct sum.

``decompose`` is the fast route: each component is read off its
exponent class, its addition from the class twist formula
(``induced_addition_closed_form``) and its members both built only when
read, and the direct sum is certified from the classes.  Everything
else here is definitional: ``induced_addition``, ``induced_nearfield``,
``kernel``, ``maximality_witness``, ``regularity_equivalences`` and the
key lemma check ``verify_shared_addition`` build their tables from the
orbit of v through ``space._orbit_sums``, the resolver
``quasi_kernel_bruteforce`` decides membership with, and test the
division-ring laws with the near-field table scans
(``left_distributivity_failure``, ``right_distributivity_failure``), so
they certify the closed form rather than share it.

``_orbit_sums`` memoises each vector's resolve on the space, whichever
of these oracles or the brute-force Q(V) asks first, and interns equal
tables.  Like ``class_addition_table``'s tables, which only
``InducedAddition`` and ``CoordinateMap.addition_table`` read, they are
shared, so callers must not mutate them.
"""

import operator
from functools import cached_property

from .errors import (
    HypothesisUnmetError,
    InvariantError,
    NotInQuasiKernelError,
    ZeroVectorError,
)
from .near_field import (
    NearField,
    first_mismatch,
    homomorphism_failure,
    left_distributivity_failure,
    right_distributivity_failure,
)
from .report import jsonify
from .space import _orbit_sums, vectors_to_json


class InducedAddition:
    """The scalar addition defined by a v + b v = (a +_v b) v.

    ``table=None`` stands for the class table of ``class_id``, which the
    ``table`` property builds on first read.
    """

    def __init__(self, space, base_vector, class_id, table=None):
        self.space = space
        self.base_vector = base_vector
        self.class_id = class_id
        self._table = table

    @property
    def table(self):
        if self._table is None:
            self._table = self.space.class_addition_table(self.class_id)
        return self._table

    def __eq__(self, other):
        return isinstance(other, InducedAddition) and self.table == other.table


def _require_quasi_nonzero(space, v):
    """The exponent class of v, which must be a nonzero member of Q(V)."""
    cid = space.class_of(v)
    if cid is None:
        if v == space.zero:
            raise ZeroVectorError("the zero vector induces no addition")
        raise NotInQuasiKernelError(f"{v} is not in the quasi-kernel")
    return cid


def _addition_table(space, v):
    """The definitional +_v table, ``_orbit_sums``' interned one;
    NotInQuasiKernelError when a scalar pair's sum leaves the orbit."""
    table, escape = _orbit_sums(space, v)
    if escape is not None:
        raise NotInQuasiKernelError(f"{v} is not in the quasi-kernel")
    return table


def induced_addition(space, v):
    """The full +_v table, built definitionally from the orbit of v."""
    cid = _require_quasi_nonzero(space, v)
    return InducedAddition(space, v, cid, _addition_table(space, v))


def induced_addition_closed_form(space, v):
    """The same table through the class twist formula
    a +_v b = (a^q + b^q)^(1/q), built when first read; the
    definitional route must agree.  A field above CLASS_TABLE_LIMIT is
    refused here, before anything reads the table."""
    cid = _require_quasi_nonzero(space, v)
    space.check_class_table_bound()
    return InducedAddition(space, v, cid)


def induced_nearfield(space, v):
    """(A, +_v, .) as an explicit NearField; here always a finite field."""
    ind = induced_addition(space, v)
    _, mul = space.field.op_tables()
    return NearField(
        ind.table,
        mul,
        zero=0,
        one=1,
        provenance=("induced", tuple(space.to_config().items()), v),
    )


def kernel(space, u):
    """R_u: the vectors on which +_u distributes over the action,
    i.e. (a +_u b) v = a v + b v for all scalars; exhaustive scan."""
    _require_quasi_nonzero(space, u)
    table = _addition_table(space, u)
    units = range(1, space.field.order)
    add = space.add
    return frozenset(
        v for v in space.iter_vectors() for m in [space.multiples(v)]
        if all(m[table[a][b]] == add(m[a], m[b]) for a in units for b in units)
    )


def are_compatible(space, u, v):
    """The first unit lambda with u + lambda v in Q(V), or None."""
    _require_quasi_nonzero(space, u)
    _require_quasi_nonzero(space, v)
    return _first_compatible(space, u, space.multiples(v))


def _first_compatible(space, u, multiples):
    """The first unit lambda with u + multiples[lambda] in Q(V), or None;
    membership is ``class_of``, so Q(V) is not enumerated."""
    add = space.add
    zero = space.zero
    for lam in range(1, len(multiples)):
        w = add(u, multiples[lam])
        if w == zero or space._class_of(w) is not None:
            return lam
    return None


class RegularityCertificate:
    def __init__(self, regular, witness, pairs_checked, orbits=None):
        self.regular = regular
        self.witness = witness  # an incompatible pair, when not regular
        self.pairs_checked = pairs_checked
        self.orbits = orbits  # the ``_orbits`` list is_regular scanned

    def __bool__(self):
        return self.regular

    def to_json(self):
        return {
            "regular": self.regular,
            "witness": jsonify(self.witness) if self.witness else None,
            "pairs_checked": self.pairs_checked,
        }


def _orbits(space):
    """The scalar orbits of Q(V)*, each as (least vector, its multiples),
    in sorted order of the least vectors."""
    reps = []
    seen = set()
    for v in space.quasi_kernel().sorted_nonzero():
        if v not in seen:
            multiples = space.multiples(v)
            reps.append((v, multiples))
            seen.update(multiples)
    return reps


def is_regular(space):
    """Pairwise compatibility of the nonzero quasi-kernel vectors, scanned
    over one representative per scalar orbit.

    Compatibility is symmetric (rescale by lambda^-1) and invariant under
    scaling either vector: u + lambda v in Q gives
    alpha u + (alpha lambda beta^-1)(beta v) = alpha (u + lambda v) in Q,
    as Q is closed under the action.  So only the orbit minima (the first
    member of each orbit in sorted order) are paired, and
    ``pairs_checked`` counts those representative pairs.  The verdict and
    witness are those of the scan over all unordered pairs: the first
    failing u of that scan is an orbit minimum, since its orbit minimum
    fails with the same partner, and so is u's first failing partner.
    The certificate keeps the orbits for ``regularity_equivalences``.
    """
    reps = _orbits(space)
    checked = 0
    for i, (u, _) in enumerate(reps):
        for v, multiples in reps[i:]:
            checked += 1
            if _first_compatible(space, u, multiples) is None:
                return RegularityCertificate(False, (u, v), checked, reps)
    return RegularityCertificate(True, None, checked, reps)


def regularity_closed_form(space):
    """``is_regular``'s verdict and witness read off the exponent classes,
    with no pair scanned (``pairs_checked`` is 0).

    Q(V)* is the set of nonzero class-supported vectors, so V is regular
    iff it has one class.  Otherwise the pairwise scan's first
    incompatible pair is (e_(n-1), e_j), j the largest coordinate outside
    the class of n-1: in the sorted order of ``sorted_nonzero`` e_(n-1)
    is the least vector of Q(V)*, it is compatible exactly with the
    vectors of its own class, and the least vector supported on another
    class is e_j.
    """
    if len(space.classes) == 1:
        return RegularityCertificate(True, None, 0)
    last = space.n - 1
    j = max(i for c in space.classes if last not in c.support for i in c.support)
    basis = space.standard_basis()
    return RegularityCertificate(False, (basis[last], basis[j]), 0)


def verify_shared_addition(space, basis, v, v_prime):
    """Confirm that two quasi-kernel vectors whose basis expansions share
    an addition at two different slots share it everywhere.

    Requires: the basis vectors are independent quasi-kernel vectors, v
    and v' expand over them, and slots i0 != j0 exist where the induced
    additions of the scaled basis vectors already agree.  Raises
    HypothesisUnmetError otherwise, returns whether the full tables
    +_v = +_v' = +_(theta_i b_i) all coincide.
    """
    from .span import _solver  # local: avoids cycle

    for u in (v, v_prime, *basis):
        _require_quasi_nonzero(space, u)
    solve = _solver(space, basis)
    theta, theta_p = solve(v), solve(v_prime)
    if theta is None or theta_p is None:
        raise HypothesisUnmetError("vector does not expand over the given basis")

    if not any(
        _addition_table(space, space.scalar_mul(t, basis[i0]))
        is _addition_table(space, space.scalar_mul(tp, basis[j0]))
        for i0, t in enumerate(theta) if t
        for j0, tp in enumerate(theta_p) if tp and i0 != j0
    ):
        raise HypothesisUnmetError(
            "no pair of distinct slots with matching induced additions"
        )
    table = _slot_shared_table(space, basis, v, theta)
    return table is not None and table is _slot_shared_table(space, basis, v_prime, theta_p)


def _slot_shared_table(space, basis, v, theta):
    """The key lemma's conclusion for one vector v = sum theta_i b_i:
    +_v's interned table when +_(theta_i b_i) = +_v at every nonzero
    slot i, else None."""
    table = _addition_table(space, v)
    if all(
        _addition_table(space, space.scalar_mul(t, b)) is table
        for t, b in zip(theta, basis) if t
    ):
        return table
    return None


# -- the equivalence report ---------------------------------------------


class EquivalenceReport:
    """Independently computed verdicts for the regularity conditions.

    Labels: "1", "1'", "2", "2'" are the vector-space-over-(A, +_v, .)
    conditions, "3" quasi-kernel equals V with division-ring scalars,
    "4" one shared addition, "5" full kernels, "6" regular with
    orbit-invariant additions, "7" regular with division-ring scalars.
    """

    def __init__(self, conditions, witnesses):
        self.conditions = dict(conditions)
        self.witnesses = dict(witnesses)

    @property
    def consistent(self):
        return len(set(self.conditions.values())) == 1

    @property
    def verdict(self):
        return all(self.conditions.values())

    def to_json(self):
        return {
            "conditions": dict(self.conditions),
            "consistent": self.consistent,
            "witnesses": {
                k: jsonify(w) for k, w in self.witnesses.items() if w is not None
            },
        }


def _division_ring_verdict(space, table):
    """Both distributive laws of (A, table, .), through the near-field
    scans ``left_distributivity_failure`` and
    ``right_distributivity_failure``: (True, None), or (False, (side,
    a, b, c)) for the first failing triple, the left law scanned first."""
    mul = space.field.op_tables()[1]
    cx = left_distributivity_failure(table, mul)
    if cx is not None:
        return False, ("left", *cx)
    cx = right_distributivity_failure(table, mul)
    if cx is not None:
        return False, ("right", *cx)
    return True, None


def _module_law_failure(space, table):
    """The first coordinate i whose twist does not turn the table into
    plain addition, psi_i(a +_u b) != psi_i(a) + psi_i(b), as (i, (a, b));
    None when every coordinate passes.  A vector lies in R_u exactly when
    all its support coordinates pass (divide the defining identity by the
    nonzero coordinate value), so None means R_u = V.

    Each coordinate is one homomorphism scan of psi_i from the table to
    the field's addition."""
    fadd = space.field.op_tables()[0]
    for i, psi in enumerate(space._psi):
        bad = homomorphism_failure(psi, table, fadd)
        if bad is not None:
            return i, bad
    return None


def regularity_equivalences(space):
    """Evaluate each characterisation of regular spaces on its own terms
    and report the verdicts side by side; they must all agree.

    Q(V)* is read once, from the scalar orbits that ``is_regular``
    scanned, into one entry per distinct induced addition, each paired
    with the least vector that has it (``_orbit_sums`` interns tables, so
    identity is the key), in the order of those vectors, and into the
    least vector whose table is not its orbit's least vector's.  Each law
    is then scanned once per table: conditions 5, 1, 2 and 2' read the
    module law, and 3, 7 and 1' the division-ring laws.  The witnesses
    are those of a scan over Q(V)* in sorted order, as each listed vector
    is the least vector with its table: the least vector whose table
    fails (or passes) a law is the listed vector of the first listed
    table that fails (or passes) it."""
    reg = is_regular(space)
    firsts = {}  # id of each distinct table -> (its least vector, table)
    stray = None  # the least (w, orbit's least vector) of differing tables
    for rep, multiples in reg.orbits:
        base = _addition_table(space, rep)
        for w in multiples[1:]:
            t = _addition_table(space, w)
            if id(t) not in firsts or w < firsts[id(t)][0]:
                firsts[id(t)] = (w, t)
            if t is not base and (stray is None or w < stray[0]):
                stray = (w, rep)
    tables = sorted(firsts.values(), key=lambda entry: entry[0])

    # V is a vector space over (A, +_v, .) exactly when the action
    # distributes over +_v on every coordinate (the other module laws
    # hold ambiently and are certified by the axiom checker), which is
    # also R_v = V.
    module = [(v, _module_law_failure(space, t)) for v, t in tables]
    module_fail = next(((v, bad) for v, bad in module if bad is not None), None)
    module_ok = next((v for v, bad in module if bad is None), None)

    q_is_v = 1 + sum(len(multiples) - 1 for _, multiples in reg.orbits) == space.size
    ring = {v: _division_ring_verdict(space, t) for v, t in tables}
    # the first vector of Q(V)* whose scalars are no division ring
    dr_fail = next(((v, cx) for v, (passed, cx) in ring.items() if not passed), None)

    conditions = {}
    witnesses = {}

    # (3) Q(V) = V and every induced scalar structure is a division ring
    conditions["3"] = q_is_v and dr_fail is None
    members = () if q_is_v else {w for _, multiples in reg.orbits for w in multiples}
    witnesses["3"] = dr_fail if q_is_v else ("missing", next(
        v for v in space.iter_vectors() if v not in members))

    # (4) a single shared addition across Q(V)*; the witness is the
    # least vectors of the first two tables
    conditions["4"] = len(tables) <= 1
    witnesses["4"] = None if conditions["4"] else (tables[0][0], tables[1][0])

    # (5) R_w = V for every w: every coordinate twist must distribute
    conditions["5"], witnesses["5"] = module_fail is None, None
    if module_fail is not None:
        w, (i, bad) = module_fail
        witnesses["5"] = (w, space.standard_basis()[i], bad)

    # (6) regular, and +_v is constant along every scalar orbit of Q(V)*;
    # the witness is the least w whose table is not its orbit's least
    # vector's
    ok, wit = reg.regular, reg.witness
    if ok and stray is not None:
        ok, wit = False, ("orbit", stray[1], stray[0])
    conditions["6"], witnesses["6"] = ok, wit

    # (7) regular with division-ring scalars
    conditions["7"] = reg.regular and dr_fail is None
    witnesses["7"] = dr_fail if reg.regular else reg.witness

    # (1)/(2): V is a vector space over (A, +_v, .) for every v of Q(V)*,
    # or for some v; the primed forms also ask for division-ring scalars
    conditions["1"], witnesses["1"] = module_fail is None, module_fail
    conditions["2"], witnesses["2"] = module_ok is not None, module_ok
    conditions["1'"], witnesses["1'"] = (
        (dr_fail is None, dr_fail) if module_fail is None else (False, None)
    )
    if module_ok is not None:
        passed, cx = ring[module_ok]
        conditions["2'"] = passed
        witnesses["2'"] = module_ok if passed else (module_ok, cx)
    else:
        conditions["2'"], witnesses["2'"] = False, None

    return EquivalenceReport(conditions, witnesses)


# -- decomposition -----------------------------------------------------------


class RegularComponent:
    """The regular component of one exponent class: the |F|^|c| vectors
    supported inside the class, whose nonzero vectors share one induced
    addition.  The basis is the support's slice of the standard basis,
    the addition the class twist formula at its first basis vector, and
    ``members`` the class's vectors, enumerated by
    ``TwistedSpace.class_members``.  Both are built on first read, so a
    field above CLASS_TABLE_LIMIT decomposes and is refused only when
    ``induced`` is read.  ``decompose`` passes each class's own support,
    which ``_certify_decomposition`` checks."""

    def __init__(self, space, class_id, support):
        self.space = space
        self.class_id = class_id
        self.support = support
        self.basis = tuple(space.standard_basis()[i] for i in support)
        self.member_count = space.field.order ** len(support)

    @cached_property
    def induced(self):
        return induced_addition_closed_form(self.space, self.basis[0])

    @cached_property
    def members(self):
        return self.space.class_members(self.class_id)

    def __len__(self):
        return self.member_count

    def to_json(self, member_limit=4096):
        data = {
            "class_id": self.class_id,
            "support": list(self.support),
            "member_count": self.member_count,
            "basis": vectors_to_json(self.space, self.basis),
        }
        if self.member_count <= member_limit:
            data["members"] = vectors_to_json(self.space, sorted(self.members))
        return data


class Decomposition:
    """V as the direct sum of its regular components."""

    def __init__(self, space, components):
        self.space = space
        self.components = components
        # one 0/1 mask per component: times 1 keeps a coordinate index,
        # times 0 gives the zero index
        self._masks = tuple(
            tuple(int(i in sup) for i in range(space.n))
            for sup in (set(comp.support) for comp in components)
        )

    def split(self, v):
        """The unique component parts summing to v."""
        self.space.check_vector(v)
        return self._split(v)

    def _split(self, v):
        return tuple(tuple(map(operator.mul, v, mask)) for mask in self._masks)

    def component_of(self, v):
        """The component containing v, or None for mixed-support vectors."""
        cid = self.space.class_of(v)
        if cid is None:
            return None
        for comp in self.components:
            if comp.class_id == cid:
                return comp
        return None

    def to_json(self, member_limit=4096):
        return {
            "component_count": len(self.components),
            "components": [c.to_json(member_limit) for c in self.components],
        }


def decompose(space):
    """The regular components, one per exponent class in class order,
    each read off its class (``RegularComponent``) with no vector
    enumerated.

    This is the closed-form route: a component's addition comes from the
    class twist formula a +_v b = (a^q + b^q)^(1/q) at the class's first
    standard basis vector, which ``maximality_witness`` and the tests
    check against the definitional orbit table.  The direct sum is
    certified from the classes and one reassembly
    (``_certify_decomposition``); the per-vector reassembly is the
    oracle ``split_oracle_failure``.
    """
    deco = Decomposition(space, tuple(
        RegularComponent(space, c.index, c.support) for c in space.classes
    ))
    _certify_decomposition(space, deco)
    return deco


def _certify_decomposition(space, deco):
    """Certify V as the direct sum of ``deco``'s components in O(n k),
    for n coordinates and k components, raising InvariantError on the
    first check that fails: the supports partition range(n), each
    component's support is its exponent class's, and the all-ones
    vector reassembles.

    A component's members are the vectors supported inside its class, so
    the first two checks give one component per class.  Their sizes then
    multiply to |V|, and their nonzero members partition Q(V)*, the
    nonzero class-supported vectors.

    ``space.add`` and ``Decomposition._split`` both work one coordinate
    at a time: part j keeps the coordinates in support j and zeroes the
    rest, so the parts of v sum, at coordinate i, to v_i taken once per
    support holding i.  Every v therefore reassembles when each
    coordinate lies in exactly one support, and e_i does not when no
    support holds i.  The all-ones vector ties this to the code: each
    of its coordinates is nonzero and x + x = x only for x = 0, so a
    coordinate that ``_split`` drops or gives to two parts shows there.
    ``split_oracle_failure`` is the per-vector oracle, run by
    ``verify.decomposition_suite``.
    """
    supports = [list(comp.support) for comp in deco.components]
    if sorted(i for sup in supports for i in sup) != list(range(space.n)):
        raise InvariantError(
            f"component supports {supports} do not partition range({space.n})"
        )
    for comp in deco.components:
        if comp.support != space.classes[comp.class_id].support:
            raise InvariantError(
                f"component support {comp.support} is not the support of "
                f"class {comp.class_id}"
            )
    probe = (1,) * space.n
    if _reassembled(space, deco, probe) != probe:
        raise InvariantError(f"splitting failed to reassemble {probe}")


def split_oracle_failure(space, deco):
    """The oracle for ``_certify_decomposition``: the first vector, in
    enumeration order, whose split parts do not add back up to it, or
    None when every vector reassembles.  Splits and re-adds all |V|
    vectors, O(|V| k) for k components."""
    for v in space.iter_vectors():
        if _reassembled(space, deco, v) != v:
            return v
    return None


def _reassembled(space, deco, v):
    """The sum of v's split parts."""
    add = space.add
    total = space.zero
    for part in deco._split(v):
        total = add(total, part)
    return total


def maximality_witness(space, component, outsider):
    """Evidence that adjoining ``outsider`` breaks the component's shared
    addition, read off its memoised ``_orbit_sums``: a scalar pair that
    escapes its orbit, or a definitional table differing from the
    component's closed-form one.  HypothesisUnmetError for a vector
    inside the component: zero, or a vector of its class."""
    cid = space.class_of(outsider)
    if outsider == space.zero or cid == component.class_id:
        raise HypothesisUnmetError(
            f"{outsider} lies inside the component of class {component.class_id}"
        )
    table, escape = _orbit_sums(space, outsider)
    if escape is not None:
        return ("not_in_quasi_kernel", escape)
    for a, (row, ref) in enumerate(zip(table, component.induced.table)):
        if row != ref:
            return ("different_addition", component.induced.base_vector,
                    (a, first_mismatch(row, ref)))
    return None
