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

from functools import cached_property
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


def _straightening(space, cid, sign=1):
    """The tables [x^(q/q_i)] of class cid's support coordinates i, q the
    class exponent; with sign -1 the tables [x^(q_i/q)] that undo them.

    Inside a class q_i = q p^l, so x -> x^(q/q_i) is a Frobenius power:
    it is additive and takes alpha^(q_i) x to alpha^q times the image of
    x.  Class-supported vectors so mapped form a vector space over F on
    which alpha acts as alpha^q.
    """
    m = space.field.mult_order
    q = space.classes[cid].exponent
    return [
        space.power_table(pow(q * pow(space.exponents[i], -1, m), sign, m))
        for i in space.classes[cid].support
    ]


def _minus(field, x, terms):
    """x - sum(c row for c, row in terms) over F, entry-wise, the zero
    terms skipped."""
    neg, add_row, mul_row = field.neg_table(), field.add_row, field.mul_row
    for c, row in terms:
        if c:
            scaled = map(mul_row(neg[c]).__getitem__, row)
            x = [add_row(a)[b] for a, b in zip(x, scaled)]
    return x


def _reduce(field, rows, x):
    """x less its pivot entries' multiples of the echelon rows, all zero
    exactly when x lies in their span.  Each row is zero at the other
    pivots, so the multiples can all be read off x first."""
    return _minus(field, x, [(x[p], row) for p, row in rows])


def _echelon(space, cid, vectors):
    """Gauss-Jordan over F on the class-supported vectors, straightened,
    one at a time as rows, each followed by its row of the k x k
    identity, k the number of vectors.

    A row reduced by the rows kept so far keeps a nonzero entry among
    its first m, m the size of the class, exactly when its vector is
    independent of those before it; it is then scaled to 1 at the first
    such entry, its pivot, cleared from the kept rows there, and kept.
    Returns (the independent vectors' indices, the kept (pivot, row)
    pairs in pivot order).  The rows' first m entries are the span's
    reduced row echelon form, the same for every generating set; their
    last k write each row over the straightened vectors.
    """
    field = space.field
    support = space.classes[cid].support
    m, k = len(support), len(vectors)
    tables = _straightening(space, cid)
    chosen, rows = [], []
    for j, v in enumerate(vectors):
        x = [table[v[i]] for table, i in zip(tables, support)]
        x = _reduce(field, rows, x + [int(h == j) for h in range(k)])
        pivot = next((i for i in range(m) if x[i]), None)
        if pivot is None:
            continue
        x = list(map(field.mul_row(field.inv(x[pivot])).__getitem__, x))
        rows = [(p, _minus(field, row, [(row[pivot], x)])) for p, row in rows]
        rows.append((pivot, x))
        rows.sort(key=lambda pr: pr[0])
        chosen.append(j)
    return chosen, rows


def _solver(space, vectors):
    """The coordinate solve over independent quasi-kernel vectors, with
    each exponent class eliminated once: a function taking a target to
    its coefficient tuple, or to None when no expansion exists.

    Per class, sum_j a_j v_j = t straightens to sum_j y_j s(v_j) = s(t)
    with y_j = a_j^q.  Reducing (s(t), 0) by the class's echelon rows,
    their last entries negated, leaves (0, y) exactly when the expansion
    exists.  Its pivot entries reduce to zero by construction, so only
    the others are computed.
    """
    by_class = {}
    for idx, b in enumerate(vectors):
        cid = space.class_of(b)
        if cid is None:
            raise NotInQuasiKernelError(f"{b} is not a nonzero quasi-kernel vector")
        by_class.setdefault(cid, []).append(idx)
    field = space.field
    neg = field.neg_table()
    solves = {}
    for cid, idxs in by_class.items():
        chosen, rows = _echelon(space, cid, [vectors[i] for i in idxs])
        if len(chosen) < len(idxs):
            raise NotABasisError("vectors are dependent inside an exponent class")
        cls = space.classes[cid]
        pivots = [p for p, _ in rows]
        checks = [i for i in range(len(cls.support)) if i not in pivots]
        rows = [[row[i] for i in checks] + [neg[c] for c in row[len(cls.support):]]
                for _, row in rows]
        straighten = list(zip(_straightening(space, cid), cls.support))
        unstraighten = space.power_table(pow(cls.exponent, -1, field.mult_order))
        solves[cid] = idxs, straighten, pivots, checks, rows, unstraighten

    def solve(target):
        space.check_vector(target)
        coeffs = [0] * len(vectors)
        for cid in {space._class_of_coord[i] for i in space.support(target)}:
            if cid not in solves:
                return None
            idxs, straighten, pivots, checks, rows, unstraighten = solves[cid]
            s = [table[target[i]] for table, i in straighten]
            left = _minus(field, [s[i] for i in checks] + [0] * len(idxs),
                          zip(map(s.__getitem__, pivots), rows))
            if any(left[:len(checks)]):
                return None
            for i, y in zip(idxs, left[len(checks):]):
                coeffs[i] = unstraighten[y]
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
        _additive_closure(space.additive_multiples, space.sumset, space.zero, scaled)
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
    """A subspace held as its reduced row echelon form per class:
    ``echelon`` maps a class index to its (pivot, row) pairs, in the
    class's straightened coordinates, so two subspaces are equal exactly
    when their forms are.  ``generators`` are the independent generator
    parts that ``span_of`` chose.  Membership is one reduction per class
    part, and ``members`` is built from ``iter_members`` only when read.
    """

    def __init__(self, space, generators, generator_classes, echelon):
        self.space = space
        self.generators = tuple(generators)
        self.generator_classes = tuple(generator_classes)
        self.echelon = echelon
        self.dim = len(self.generators)
        self.member_count = space.field.order ** self.dim

    @property
    def component_supports(self):
        cids = dict.fromkeys(self.generator_classes)
        return [list(self.space.classes[cid].support) for cid in cids]

    def __contains__(self, v):
        space = self.space
        space.check_vector(v)
        for cid, part in space.class_parts(v).items():
            rows = self.echelon.get(cid, ())
            x = [table[part[i]] for table, i in
                 zip(_straightening(space, cid), space.classes[cid].support)]
            if any(_reduce(space.field, rows, x)):
                return False
        return True

    def iter_members(self):
        """The members in ascending order, with no sort.

        Each echelon row, of pivot coordinate p, gives a line: its
        multiples, unstraightened, the a-th holding a at p.  Each member
        is one sum of one vector per line, as the rows are independent
        and x -> x^(q/q_i) is additive and bijective.  The sums run in
        nested loops, the rows in pivot order, outermost first, each
        loop ascending in a.  That order is ascending:

        - at a pivot p a member holds the a of p's line, as every other
          row is zero at p (by the reduced form, or off its class);
        - at another coordinate i of a class the straightened value
          combines the rows of the class with pivot before i, as a row
          is zero before its pivot; a class with no rows holds zero.

        So two members first differ at a pivot, where they compare as
        their a's: the order of the loops.
        """
        space = self.space
        m = space.field.mult_order
        lines = []
        for cid, rows in self.echelon.items():
            support = space.classes[cid].support
            back = _straightening(space, cid, -1)
            for p, row in rows:
                u = [0] * space.n
                for table, i, y in zip(back, support, row):
                    u[i] = table[y]
                multiples = space.multiples(tuple(u))
                at = space.power_table(pow(space.exponents[support[p]], -1, m))
                lines.append((support[p], list(map(multiples.__getitem__, at))))
        lines = [line for _, line in sorted(lines)] or [[space.zero]]
        members = iter(lines[0])
        for line in lines[1:]:
            members = space.sums(members, line)
        return members

    @cached_property
    def members(self):
        members = frozenset(self.iter_members())
        if len(members) != self.member_count:
            raise InvariantError("independent generators produced colliding sums")
        return members

    def to_json(self, member_limit=4096):
        data = {
            "generators": vectors_to_json(self.space, self.generators),
            "dim": self.dim,
            "component_supports": self.component_supports,
            "member_count": self.member_count,
        }
        if self.member_count <= member_limit:
            data["members"] = vectors_to_json(self.space, list(self.iter_members()))
        return data


def span_of(space, generators):
    """Constructive span: split the generators over the regular
    components, and keep per component the parts independent of those
    before them and the reduced row echelon form of their span."""
    parts_by_class = {}
    for g in generators:
        space.check_vector(g)
        for cid, part in space.class_parts(g).items():
            parts_by_class.setdefault(cid, []).append(part)

    chosen = []
    chosen_classes = []
    echelon = {}
    for cid in sorted(parts_by_class):
        parts = parts_by_class[cid]
        picked, rows = _echelon(space, cid, parts)
        chosen += [parts[j] for j in picked]
        chosen_classes += [cid] * len(picked)
        m = len(space.classes[cid].support)
        echelon[cid] = [(p, row[:m]) for p, row in rows]
    return Subspace(space, chosen, chosen_classes, echelon)


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
    closed under the action.

    Each frontier vector w is added to all of Q(V)* in one column-wise
    ``space.sums((w,), qstar)``, zipped with qstar: the pairs (w, q) in
    the order of their product, so the first pair to reach a vector is
    the one a pair-by-pair search would record.  One call per w keeps
    each column's rows at |Q(V)*| entries.  The search stops with the
    frontier vector whose sums give the last nonzero vector its depth,
    inside a layer too, as any further pair could only find nothing.
    """
    if space._dim_layer_cache is not None:
        return space._dim_layer_cache
    qstar = space.quasi_kernel().sorted_nonzero()
    zero, full = space.zero, space.size - 1
    level = {q: (None, q) for q in qstar}  # v -> (previous vector, q summand)
    depth = {q: 1 for q in qstar}
    frontier = qstar
    t = 1
    while frontier and len(depth) < full:
        t += 1
        new = []
        for w in frontier:
            for q, u in zip(qstar, space.sums((w,), qstar)):
                if u != zero and u not in depth:
                    depth[u] = t
                    level[u] = (w, q)
                    new.append(u)
            if len(depth) == full:
                break
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
    the oracle for the rank that ``_echelon`` computes.

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
    if span_of(space, [v]).echelon != span_of(space, [w]).echelon:
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
    span_v = span_of(space, [v])
    span_w = span_of(space, [w])
    if v in span_w or w in span_v:
        raise InvariantError("witness vectors lie in each other's span")
    # per class, dim(A meet B) = dim A + dim B - dim(A + B); so the
    # intersection is the shared line when it holds b2 and has dim 1
    meet = span_v.dim + span_w.dim - span_of(space, [v, w]).dim
    if meet != 1 or b2 not in span_v or b2 not in span_w:
        raise InvariantError("span intersection is not the shared line")
    return v, w
