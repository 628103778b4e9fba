"""Linear combinations, span, dimension and bases over twisted actions.

Inside one exponent class the coordinate maps x -> x^(q/q_i), q the
class exponent, straighten the twist: each is a Frobenius power, so
they keep vector addition and turn the action of alpha into plain
multiplication by alpha^q.  Since alpha -> alpha^q is a bijection of F,
each regular component is so carried onto a vector space over F, and
span, independence and coordinates are computed there by one
elimination over F, once per class of a basis, then certified against
closure oracles that know nothing about it.
"""

from itertools import product

from .errors import (
    HypothesisUnmetError,
    InvalidSlotError,
    InvariantError,
    NotABasisError,
    NotInQuasiKernelError,
    TooLargeError,
)
from .space import _additive_closure, vectors_to_json

INDEPENDENCE_SCAN_LIMIT = 1 << 22


# -- straightened coordinates over F -------------------------------------------


def _straightening(space, cid):
    """The tables [x^(q/q_i)] of class cid's support coordinates i, q the
    class exponent.

    Inside a class q_i = q p^l, so x -> x^(q/q_i) is a Frobenius power:
    it is additive and takes alpha^(q_i) x to alpha^q times the image of
    x.  Class-supported vectors so mapped form a vector space over F on
    which alpha acts as alpha^q.
    """
    m = space.field.mult_order
    q = space.classes[cid].exponent
    return [
        space.power_table(q * pow(space.exponents[i], -1, m))
        for i in space.classes[cid].support
    ]


def _pivot_columns(space, cid, columns):
    """Gauss-Jordan over F on the class-supported vectors, straightened,
    as columns beside the m x m identity, m the size of the class.

    Returns (pivot columns, transform).  Column j is a pivot column
    exactly when its vector is independent of the vectors before it.
    The transform, the product of the row operations, takes a
    straightened target to its coefficients over the pivot columns
    followed by zeros exactly when the target lies in their span.
    """
    field = space.field
    neg, add_row, mul_row, inv = (
        field.neg_table(), field.add_row, field.mul_row, field.inv)
    support = space.classes[cid].support
    rows = [
        [table[v[i]] for v in columns] + [int(i == h) for h in support]
        for table, i in zip(_straightening(space, cid), support)
    ]
    pivots = []
    for j in range(len(columns)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r] = list(map(mul_row(inv(rows[r][j])).__getitem__, rows[r]))
        for i, row in enumerate(rows):
            c = row[j]
            if c and i != r:
                scaled = map(mul_row(neg[c]).__getitem__, top)
                rows[i] = [add_row(a)[b] for a, b in zip(row, scaled)]
        pivots.append(j)
    return pivots, [row[len(columns):] for row in rows]


def _solver(space, vectors):
    """The coordinate solve over independent quasi-kernel vectors, with
    each exponent class eliminated once: a function taking a target to
    its coefficient tuple, or to None when no expansion exists.

    Per class, sum_j a_j v_j = t straightens to sum_j y_j s(v_j) = s(t)
    with y_j = a_j^q, and the class's transform takes s(t) to (y, 0):
    one matrix-vector product per class that the target meets.
    """
    by_class = {}
    for idx, b in enumerate(vectors):
        cid = space.class_of(b)
        if cid is None:
            raise NotInQuasiKernelError(f"{b} is not a nonzero quasi-kernel vector")
        by_class.setdefault(cid, []).append(idx)
    field = space.field
    solves = {}
    for cid, idxs in by_class.items():
        pivots, transform = _pivot_columns(space, cid, [vectors[i] for i in idxs])
        if len(pivots) < len(idxs):
            raise NotABasisError("vectors are dependent inside an exponent class")
        cls = space.classes[cid]
        unstraighten = space.power_table(pow(cls.exponent, -1, field.mult_order))
        columns = zip(_straightening(space, cid), cls.support, zip(*transform))
        solves[cid] = idxs, list(columns), unstraighten

    def solve(target):
        space.check_vector(target)
        coeffs = [0] * len(vectors)
        for cid in {space._class_of_coord[i] for i in space.support(target)}:
            if cid not in solves:
                return None
            idxs, columns, unstraighten = solves[cid]
            y = [0] * len(columns)
            for table, i, column in columns:
                scaled = map(field.mul_row(table[target[i]]).__getitem__, column)
                y = [field.add_row(a)[b] for a, b in zip(y, scaled)]
            if any(y[len(idxs):]):
                return None
            for i, yj in zip(idxs, y):
                coeffs[i] = unstraighten[yj]
        return tuple(coeffs)

    return solve


def coordinates_in_independent_set(space, vectors, target):
    """Coefficients expressing target over independent quasi-kernel
    vectors, or None when no expansion exists."""
    return _solver(space, vectors)(target)


# -- linear combinations and closures ----------------------------------------


def linear_combinations(space, v):
    """L(v): all sums of scalar multiples of v, the additive subgroup
    generated by the multiple set.

    This is the same route as ``subspace_closure_oracle(space, [v])``,
    not an independent oracle: both close the scaled generators under
    addition with ``_additive_closure``.
    """
    return subspace_closure_oracle(space, [v])


def subspace_closure_oracle(space, generators):
    """Smallest add- and scalar-closed superset of the generators.

    The additive subgroup generated by the scaled generators; scalars are
    endomorphisms, so rescaling a sum of scaled generators is again such
    a sum and the result is scalar-closed without closing explicitly.
    """
    generators = list(generators)
    for g in generators:
        space.check_vector(g)
    scaled = sorted({w for g in generators for w in space.multiples(g)})
    return frozenset(
        _additive_closure(space.add, space.sumset, space.zero, scaled, space.size)
    )


def subspace_closure_naive(space, generators, limit=512):
    """Literal fixed-point iteration W <- W + W union A.W; quadratic per
    round, so only for small closures, where it cross-checks the
    closure oracle from first principles."""
    generators = list(generators)
    for g in generators:
        space.check_vector(g)
    closure = set(generators) | {space.zero}
    add = space.add
    scalar_mul = space.scalar_mul
    scalars = range(space.field.order)
    while True:
        if len(closure) > limit:
            raise TooLargeError(f"naive closure exceeded {limit} elements")
        new = set()
        snapshot = list(closure)
        for a in scalars:
            for w in snapshot:
                u = scalar_mul(a, w)
                if u not in closure:
                    new.add(u)
        for i, w in enumerate(snapshot):
            for u in snapshot[i:]:
                s = add(w, u)
                if s not in closure:
                    new.add(s)
        if not new:
            return frozenset(closure)
        closure |= new


# -- span ---------------------------------------------------------------------


class Subspace:
    """A subspace presented by independent quasi-kernel generators,
    grouped by the regular component carrying them."""

    def __init__(self, space, generators, generator_classes, members):
        self.space = space
        self.generators = tuple(generators)
        self.generator_classes = tuple(generator_classes)
        self.members = frozenset(members)
        self.dim = len(self.generators)

    @property
    def component_supports(self):
        cids = dict.fromkeys(self.generator_classes)
        return [list(self.space.classes[cid].support) for cid in cids]

    def to_json(self, member_limit=4096):
        data = {
            "generators": vectors_to_json(self.space, self.generators),
            "dim": self.dim,
            "component_supports": self.component_supports,
            "member_count": len(self.members),
        }
        if len(self.members) <= member_limit:
            data["members"] = vectors_to_json(self.space, sorted(self.members))
        return data


def span_of(space, generators):
    """Constructive span: split the generators over the regular
    components, keep a maximal independent subset of the parts per
    component, and materialise all coefficient combinations."""
    parts_by_class = {}
    for g in generators:
        space.check_vector(g)
        for cid, part in space.class_parts(g).items():
            parts_by_class.setdefault(cid, []).append(part)

    chosen = []
    chosen_classes = []
    for cid in sorted(parts_by_class):
        parts = parts_by_class[cid]
        for j in _pivot_columns(space, cid, parts)[0]:
            chosen.append(parts[j])
            chosen_classes.append(cid)

    members = {space.zero}
    for w in chosen:
        members = space.sumset(members, space.multiples(w))
    expected = space.field.order ** len(chosen)
    if len(members) != expected:
        raise InvariantError("independent generators produced colliding sums")
    return Subspace(space, chosen, chosen_classes, members)


# -- dimension ----------------------------------------------------------------


class DimResult:
    """dim(v) with a minimal quasi-kernel representation as witness."""

    def __init__(self, value, witness):
        self.value = value
        self.witness = tuple(witness)

    def to_json(self, space):
        return {
            "dim": self.value,
            "witness": vectors_to_json(space, self.witness),
        }


def _dim_layers(space):
    """Minimal term counts by breadth-first sumset growth over Q(V)*.

    Layer t holds every vector expressible as a sum of t nonzero
    quasi-kernel vectors and no fewer; back-pointers reconstruct a
    witness.  Scalar coefficients are absorbed into Q(V)* since it is
    closed under the action.  The search stops once every nonzero vector
    has a depth, as a further layer could only find nothing.
    """
    if space._dim_layer_cache is not None:
        return space._dim_layer_cache
    qstar = space.quasi_kernel().sorted_nonzero()
    add = space.add
    level = {q: (None, q) for q in qstar}  # v -> (previous vector, q summand)
    depth = {q: 1 for q in qstar}
    frontier = qstar
    t = 1
    while frontier and len(depth) < space.size - 1:
        t += 1
        new = []
        for w in frontier:
            for q in qstar:
                u = add(w, q)
                if u != space.zero and u not in depth:
                    depth[u] = t
                    level[u] = (w, q)
                    new.append(u)
        frontier = new
    space._dim_layer_cache = (depth, level)
    return depth, level


def dim_search(space, v):
    """dim(v) by minimal-representation search over the sumset layers of
    Q(V)*, with the back-pointer walk as witness: the oracle that
    ``dim_of_vector`` is checked against."""
    space.check_vector(v)
    if v == space.zero:
        return DimResult(0, ())
    depth, level = _dim_layers(space)
    if v not in depth:
        raise InvariantError(f"{v} not reachable from quasi-kernel sums")
    witness = []
    cur = v
    while cur is not None:
        cur, q = level[cur]
        witness.append(q)
    return DimResult(depth[v], reversed(witness))


def dim_of_vector(space, v):
    """dim(v) in closed form: the number of exponent classes that supp(v)
    meets, witnessed by v's class parts in ascending order.

    Each part is class-supported, so it lies in Q(V), and every Q(V)
    vector meets one class, so no fewer terms can sum to v.  The search
    oracle is ``dim_search``.
    """
    space.check_vector(v)
    parts = sorted(space.class_parts(v).values())
    return DimResult(len(parts), parts)


# -- independence and bases ----------------------------------------------------


def is_linearly_independent(space, vectors):
    """Brute-force independence: scan every coefficient tuple for a
    nontrivial combination of the quasi-kernel vectors summing to zero;
    the oracle for the rank that ``_pivot_columns`` computes.

    Returns (True, None) or (False, coefficient_tuple).
    """
    vecs = list(vectors)
    for v in vecs:
        if v != space.zero and space.class_of(v) is None:
            raise NotInQuasiKernelError(f"{v} is not in the quasi-kernel")
    order = space.field.order
    if order ** len(vecs) > INDEPENDENCE_SCAN_LIMIT:
        raise TooLargeError(
            f"{order}^{len(vecs)} coefficient tuples exceed the scan bound"
        )
    add = space.add
    scalar_mul = space.scalar_mul
    zero = space.zero
    for coeffs in product(range(order), repeat=len(vecs)):
        if not any(coeffs):
            continue
        total = zero
        for a, v in zip(coeffs, vecs):
            if a:
                total = add(total, scalar_mul(a, v))
        if total == zero:
            return False, coeffs
    return True, None


def extract_basis(space):
    """The greedy basis, in closed form: e_(n-1), ..., e_0.

    The greedy walk keeps each vector of Q(V)* in sorted order that is
    not in the span of those kept before it.  e_(n-1) is the least vector
    of Q(V)*.  Once e_(n-1), ..., e_j are kept, every vector supported in
    {j, ..., n-1} lies in their span, as x e_i is a multiple of e_i
    (x -> x^(q_i) is onto F).  So the least vector of Q(V)* outside that
    span has a nonzero coordinate below j: it is e_(j-1).
    """
    return space.standard_basis()[::-1]


def is_subspace(space, vectors):
    """Nonempty and closed under addition and the scalar action."""
    vectors = list(vectors)
    for v in vectors:
        space.check_vector(v)
    subset = set(vectors)
    if not subset:
        return False
    add = space.add
    scalar_mul = space.scalar_mul
    for v in subset:
        for a in range(space.field.order):
            if scalar_mul(a, v) not in subset:
                return False
    items = sorted(subset)
    for i, v in enumerate(items):
        for w in items[i:]:
            if add(v, w) not in subset:
                return False
    return True


# -- canonical coordinates ------------------------------------------------------


class CoordinateMap:
    """The bijection V <-> A^n induced by a quasi-kernel basis.

    from_coords applies the definition directly (scale each basis vector
    and add); to_coords solves per component over F, through the
    straightening x -> x^(q/q_i), so round-tripping exercises two
    genuinely different routes.
    """

    def __init__(self, space, basis):
        if len(basis) != space.n:
            raise NotABasisError(
                f"expected {space.n} basis vectors, got {len(basis)}"
            )
        self.space = space
        self.basis = tuple(basis)
        # n vectors, independent inside each class, fill every class
        try:
            self._solve = _solver(space, self.basis)
        except NotInQuasiKernelError as exc:
            raise NotABasisError(str(exc)) from None

    def to_coords(self, v):
        coords = self._solve(v)
        if coords is None:
            raise InvariantError(f"{v} failed to expand over a full basis")
        return coords

    def from_coords(self, coords):
        space = self.space
        space.check_vector(coords)  # coordinates have the shape of a vector
        total = space.zero
        for a, b in zip(coords, self.basis):
            total = space.add(total, space.scalar_mul(a, b))
        return total

    def addition_table(self, slot):
        """The induced addition acting on coordinate ``slot``;
        InvalidSlotError unless slot is in range(n)."""
        if type(slot) is not int or not 0 <= slot < self.space.n:
            raise InvalidSlotError(f"slot {slot!r} is outside range({self.space.n})")
        return self.space.class_addition_table(
            self.space.class_of(self.basis[slot])
        )


# -- exotic span witnesses -----------------------------------------------------


def distinct_span_witness(space):
    """Two different non-quasi-kernel vectors with identical spans,
    built across two components; only exists on non-regular spaces."""
    if len(space.classes) < 2:
        raise HypothesisUnmetError("regular space: spans of distinct "
                                   "mixed vectors never coincide")
    basis = space.standard_basis()
    b1 = basis[space.classes[0].support[0]]
    b2 = basis[space.classes[1].support[0]]
    theta = 2 % space.field.order
    v = space.add(b1, b2)
    w = space.add(space.scalar_mul(theta, b1), b2)
    if v == w or space.class_of(v) is not None or space.class_of(w) is not None:
        raise InvariantError("witness construction produced invalid vectors")
    if span_of(space, [v]).members != span_of(space, [w]).members:
        raise InvariantError("witness spans differ")
    return v, w


def intersecting_span_witness(space):
    """Two non-quasi-kernel vectors, neither inside the other's span,
    whose spans still intersect beyond zero; needs dim > 2 and at least
    two components."""
    if len(space.classes) < 2:
        raise HypothesisUnmetError("regular space: no such pair exists")
    if space.n <= 2:
        raise HypothesisUnmetError("needs dimension greater than 2")
    basis = space.standard_basis()
    # b1 and b3 bracket b2 from different components; prefer three
    # distinct components, fall back to reusing the largest class.
    if len(space.classes) >= 3:
        b1 = basis[space.classes[0].support[0]]
        b2 = basis[space.classes[1].support[0]]
        b3 = basis[space.classes[2].support[0]]
    else:
        big = max(space.classes, key=lambda c: len(c.support))
        other = next(c for c in space.classes if c.index != big.index)
        b1 = basis[big.support[0]]
        b3 = basis[big.support[1]]
        b2 = basis[other.support[0]]
    v = space.add(b1, b2)
    w = space.add(b2, b3)
    if space.class_of(v) is not None or space.class_of(w) is not None:
        raise InvariantError("witness construction landed in the quasi-kernel")
    span_v = span_of(space, [v]).members
    span_w = span_of(space, [w]).members
    if v in span_w or w in span_v:
        raise InvariantError("witness vectors lie in each other's span")
    line_b2 = {space.scalar_mul(a, b2) for a in range(space.field.order)}
    if span_v & span_w != line_b2:
        raise InvariantError("span intersection is not the shared line")
    return v, w
