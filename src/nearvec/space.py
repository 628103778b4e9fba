"""Finite near-vector spaces V = F^n with twisted scalar action.

A scalar alpha acts coordinate-wise through the power maps
psi_i(alpha) = alpha^(q_i); each exponent must be coprime to |F*| so the
action is fixed point free.  Coordinates whose exponents differ only by
a power of the characteristic (a Frobenius twist) induce the same
addition on the scalars and are grouped into one exponent class; the
quasi-kernel is exactly the set of vectors supported inside a single
class, which this module both derives in closed form and recomputes by
brute force so the two can certify each other.
"""

from dataclasses import dataclass
from itertools import chain, product
from math import gcd

from .errors import (
    InvalidConfigError,
    InvalidVectorError,
    InvariantError,
    NotCoprimeError,
    TooLargeError,
)
from .finite_field import Field, TABLE_LIMIT
from .near_field import (
    associativity_failure,
    closure_failure,
    commutativity_failure,
    encode_rows,
    first_mismatch,
    homomorphism_failure,
    identity_failure,
    inverse_failure,
    row_getter,
)
from .report import CheckReport

MAX_SPACE_SIZE = 1 << 21
MAX_RAW_CARRIER = 1 << 12

# a class addition table holds |F|^2 entries; it is refused above this
# field order (2^24 entries, about 130 MB of list slots)
CLASS_TABLE_LIMIT = 1 << 12


def _is_int(x):
    return type(x) is int  # bool too: JSON true is no integer


def _is_int_list(x):
    return isinstance(x, (list, tuple)) and all(map(_is_int, x))


# key, required, expected type, its test
_CONFIG_SCHEMA = (
    ("p", True, "an integer", _is_int),
    ("r", False, "an integer", _is_int),
    ("modulus_poly", False, "null or a list of integers",
     lambda x: x is None or _is_int_list(x)),
    ("exponents", True, "a list of integers", _is_int_list),
)


def validate_config(config):
    """Raise InvalidConfigError, naming the key and the type it expects,
    unless config is a mapping whose keys have the shape of a space
    config; the values themselves (primality, irreducibility,
    coprimality) are checked by the constructors."""
    if not isinstance(config, dict):
        raise InvalidConfigError(
            f"config must be a JSON object, not {type(config).__name__}"
        )
    for key, required, expected, ok in _CONFIG_SCHEMA:
        if key not in config:
            if required:
                raise InvalidConfigError(f"config has no {key!r} key, expected {expected}")
        elif not ok(config[key]):
            raise InvalidConfigError(
                f"config key {key!r} must be {expected}, got {config[key]!r}"
            )


@dataclass(frozen=True)
class ExponentClass:
    index: int
    support: tuple
    exponent: int  # canonical twist: min of q * p^l mod |F*|


class TwistedSpace:
    """F^n with the action alpha . v = (alpha^(q_1) v_1, ..., alpha^(q_n) v_n).

    Immutable after construction; every query is pure.
    """

    def __init__(self, field, exponents):
        exps = tuple(exponents)
        for i, q in enumerate(exps):
            if not _is_int(q):
                raise InvalidConfigError(f"exponent {i} must be an integer, got {q!r}")
        if not exps:
            raise InvalidConfigError("at least one coordinate is required")
        if any(q < 1 for q in exps):
            raise InvalidConfigError(f"exponents must be >= 1, got {exps}")
        self.field = field
        self.n = len(exps)
        m = field.mult_order
        for i, q in enumerate(exps):
            d = gcd(q, m)
            if d != 1:
                alpha, beta = self._coprimality_witness(field, d)
                e_i = tuple(1 if j == i else 0 for j in range(self.n))
                raise NotCoprimeError(i, q, d, alpha, beta, e_i)
        self.exponents = tuple(self._reduce(q, m) for q in exps)
        self.size = field.order ** self.n
        if self.size > MAX_SPACE_SIZE:
            raise TooLargeError(
                f"|V| = {self.size} exceeds the enumeration bound {MAX_SPACE_SIZE}"
            )
        self.classes = self._compute_classes()
        self._class_of_coord = {}
        for cls in self.classes:
            for i in cls.support:
                self._class_of_coord[i] = cls.index
        self.zero = (0,) * self.n
        self._power_tables = {}
        # per-coordinate twist tables, shared between equal exponents
        self._psi = [self.power_table(q) for q in self.exponents]
        self._class_add_tables = {}
        # per-space memos: _orbit_sums' vector -> (table, escape), its
        # tables interned by their encoded rows, and the field's add rows
        # as its lookup tables.  The orbit memo shares each resolve among
        # the oracles of one verify pass, and reaches |V| entries only
        # after the brute-force Q(V); the tables are bounded by |F|^2.
        # The vector list, Q(V) and the dimension layers are not kept.
        self._resolved_orbits = {}
        self._interned_tables = {}
        self._add_luts = None

    @staticmethod
    def _reduce(q, m):
        if m <= 1:
            return 1
        return q % m

    @staticmethod
    def _coprimality_witness(field, d):
        # alpha = g and beta = g^(1 + m/d) for the smallest generator g
        # satisfy alpha^q = beta^q whenever d divides q, so both act
        # identically on the offending coordinate's basis vector.
        m = field.mult_order
        g = field.generator()
        return g, field.pow(g, 1 + m // d)

    def _compute_classes(self):
        m = self.field.mult_order
        p = self.field.p
        canon = {}
        for q in set(self.exponents):
            if m <= 1:
                canon[q] = 1
                continue
            best = q % m
            t = q % m
            for _ in range(1, self.field.r):
                t = (t * p) % m
                if t < best:
                    best = t
            canon[q] = best
        groups = {}
        order = []
        for i, q in enumerate(self.exponents):
            key = canon[q]
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(i)
        return tuple(
            ExponentClass(index=j, support=tuple(groups[key]), exponent=key)
            for j, key in enumerate(order)
        )

    def power_table(self, k):
        """[x^k for every element x], cached per k mod |F*|.

        k is a unit mod |F*|: an exponent, an inverse of one, or a
        product of these.  Over GF(2), where |F*| = 1, every such power is
        the identity.
        """
        if type(k) is not int:  # bool too, as in Field.pow
            raise InvalidConfigError(f"exponent must be an integer, got {k!r}")
        m = self.field.mult_order
        k = k % m if m > 1 else 1
        table = self._power_tables.get(k)
        if table is None:
            table = self._power_tables[k] = self.field.pow_table(k)
        return table

    # -- vector arithmetic ------------------------------------------------

    def add(self, v, w):
        return tuple(map(self.field.add, v, w))

    def neg(self, v):
        return tuple(map(self.field.neg, v))

    def scalar_mul(self, alpha, v):
        # x psi_i(alpha): the row of x, as in multiples
        return tuple(map(self.field.mul, v, [psi[alpha] for psi in self._psi]))

    def sumset(self, A, B):
        """{a + b for a in A for b in B}."""
        return set(self.sums(A, B))

    def sums(self, A, B):
        """An iterator over a + b for a in A, and for b in B within each a.

        Column-wise, as in ``multiples``: coordinate i of a + B is the
        field's add row of a_i read at column i of B, taken once for each
        distinct a_i, and the coordinates of all the sums are zipped
        together.  Above TABLE_LIMIT, where a row is built afresh on each
        read at O(|F|), each sum is computed as in ``add``.
        """
        B = list(B)
        if self.field.order > TABLE_LIMIT:
            fadd = self.field.add
            return (tuple(map(fadd, a, b)) for a in A for b in B)
        add_row = self.field.add_row
        columns = []
        for read_b, col in zip(map(row_getter, zip(*B)), zip(*A)):
            sums = {x: read_b(add_row(x)) for x in set(col)}
            columns.append(chain.from_iterable(map(sums.__getitem__, col)))
        return zip(*columns)

    def multiples(self, v):
        """[alpha . v for every scalar alpha in index order].

        Column i is the multiplication row of v_i read through psi_i, as
        (alpha v)_i = v_i psi_i(alpha): one field row per coordinate.
        """
        mul_row = self.field.mul_row
        return list(zip(*(
            map(mul_row(x).__getitem__, psi) for psi, x in zip(self._psi, v)
        )))

    def additive_multiples(self, g):
        """[k g for k = 1, ..., p - 1], p the characteristic: for g != 0,
        the nonzero members of g's cyclic subgroup of (V, +), in the
        order of the walk g, g + g, ...

        k g is g's coordinates read through the multiplication row of
        the prime-field element k, which is the index k.  Above
        TABLE_LIMIT, where a row is built afresh on each read at O(|F|),
        each coordinate is multiplied as in ``scalar_mul``.
        """
        field = self.field
        ks = range(2, field.p)
        if field.order > TABLE_LIMIT:
            mul = field.mul
            return [g, *(tuple(mul(k, x) for x in g) for k in ks)]
        return [g, *map(row_getter(g), map(field.mul_row, ks))]

    def check_vector(self, v):
        """Raise InvalidVectorError unless v is a tuple of n integer
        coordinates, each an element index in [0, |F|).  Vectors are
        hashed into sets and memos, so a list is refused here."""
        if not isinstance(v, tuple):
            raise InvalidVectorError(f"{v!r} is not a vector: expected a tuple")
        if len(v) != self.n:
            raise InvalidVectorError(
                f"{v!r} has {len(v)} coordinates, expected {self.n}"
            )
        order = self.field.order
        for i, x in enumerate(v):
            if type(x) is not int:  # bool too: JSON true is no coordinate
                raise InvalidVectorError(
                    f"coordinate {i} of {v!r} is {x!r}, not an integer"
                )
            if not 0 <= x < order:
                raise InvalidVectorError(
                    f"coordinate {i} of {v!r} is {x}, outside [0, {order})"
                )

    def support(self, v):
        return tuple(i for i, x in enumerate(v) if x)

    def class_of(self, v):
        """Index of the exponent class whose support holds supp(v), or None
        for the zero vector and mixed supports; InvalidVectorError unless
        ``check_vector`` passes.  V is the direct sum of its regular
        components, one per class, so v lies in Q(V)* exactly when this is
        not None: the membership test that needs no enumerated Q(V)."""
        self.check_vector(v)
        return self._class_of(v)

    def _class_of(self, v):
        """``class_of`` without ``check_vector``, for vectors the library
        built itself."""
        cids = {self._class_of_coord[i] for i in self.support(v)}
        if len(cids) == 1:
            return next(iter(cids))
        return None

    def class_members(self, cid):
        """The |F|^|c| vectors supported inside exponent class cid, zero
        included: the members of the class's regular component.  Q(V) is
        the union of these sets over the classes."""
        sup = self.classes[cid].support
        return frozenset(product(*(
            range(self.field.order) if i in sup else (0,) for i in range(self.n)
        )))

    def class_parts(self, v):
        """{class index: v restricted to that class's support} for every
        class that supp(v) meets, in class order; the parts sum to v."""
        cids = sorted({self._class_of_coord[i] for i in self.support(v)})
        parts = {}
        for cid in cids:
            sup = self.classes[cid].support
            parts[cid] = tuple(x if i in sup else 0 for i, x in enumerate(v))
        return parts

    def standard_basis(self):
        return tuple(
            tuple(1 if j == i else 0 for j in range(self.n)) for i in range(self.n)
        )

    def iter_vectors(self):
        """All vectors in lexicographic coordinate order (deterministic)."""
        return product(range(self.field.order), repeat=self.n)

    # -- induced-addition plumbing -----------------------------------------

    def check_class_table_bound(self):
        """Raise TooLargeError when a class addition table, |F|^2
        entries, would exceed the CLASS_TABLE_LIMIT field order."""
        order = self.field.order
        if order > CLASS_TABLE_LIMIT:
            raise TooLargeError(
                f"class addition table of {order * order} entries refused "
                f"for field order {order} > {CLASS_TABLE_LIMIT}"
            )

    def class_addition_table(self, cid):
        """Scalar addition induced by any quasi-kernel vector of the class:
        a, b combine through the class twist q as (a^q + b^q)^(1/q).

        Row a is back . (field add row of a^q) . fwd, built and cached on
        the first call; refused above CLASS_TABLE_LIMIT.
        """
        table = self._class_add_tables.get(cid)
        if table is None:
            self.check_class_table_bound()
            q = self.classes[cid].exponent
            fwd = self.power_table(q)
            back = self.power_table(pow(q, -1, self.field.mult_order))
            add_row = self.field.add_row
            back_of = back.__getitem__
            table = [
                list(map(back_of, map(add_row(fa).__getitem__, fwd))) for fa in fwd
            ]
            self._class_add_tables[cid] = table
        return table

    # -- quasi-kernel -------------------------------------------------------

    def quasi_kernel(self):
        """The closed-form quasi-kernel, built on each call (the fast
        route; the brute route quasi_kernel_bruteforce certifies it)."""
        return quasi_kernel_closed_form(self)

    # -- config -------------------------------------------------------------

    def to_config(self):
        return {
            "p": self.field.p,
            "r": self.field.r,
            "modulus_poly": list(self.field.modulus) if self.field.modulus else None,
            "exponents": list(self.exponents),
        }

    @classmethod
    def from_config(cls, config):
        """The space of a ``{"p", "r", "modulus_poly", "exponents"}``
        config, its shape checked first by ``validate_config``."""
        validate_config(config)
        field = Field(config["p"], config.get("r", 1), config.get("modulus_poly"))
        return cls(field, config["exponents"])

    def __repr__(self):
        return f"TwistedSpace({self.field!r}, exponents={self.exponents})"


class QuasiKernel:
    """The vectors v for which every alpha v + beta v is again gamma v,
    enumerated: the oracles iterate it, while membership is
    ``TwistedSpace.class_of`` and the counts ``quasi_kernel_report``."""

    def __init__(self, space, members):
        self.space = space
        self.members = frozenset(members)

    def sorted_members(self):
        return sorted(self.members)

    def sorted_nonzero(self):
        return sorted(self.members - {self.space.zero})


def quasi_kernel_report(space, member_limit=4096):
    """Q(V)'s counts read off the exponent classes: class c holds the
    |F|^|c| vectors supported inside it, and the classes share only zero.
    Q(V) is enumerated only to list its members, when at most
    ``member_limit``."""
    order = space.field.order
    counts = [order ** len(cls.support) for cls in space.classes]
    member_count = 1 + sum(counts) - len(counts)
    data = {
        "member_count": member_count,
        "class_supports": [
            {"support": list(cls.support), "exponent": cls.exponent, "count": count}
            for cls, count in zip(space.classes, counts)
        ],
    }
    if member_count <= member_limit:
        data["members"] = vectors_to_json(space, space.quasi_kernel().sorted_members())
    return data


def quasi_kernel_closed_form(space):
    """Q(V) as the union over exponent classes of the vectors supported
    inside one class (``class_members``); equals the brute-force scan on
    every space."""
    return QuasiKernel(space, frozenset().union(
        *map(space.class_members, range(len(space.classes)))
    ))


def _orbit_sums(space, v):
    """Resolve gamma in alpha v + beta v = gamma v for every scalar pair.

    Vector addition is coordinate-wise, so the orbit lookup is done one
    support coordinate at a time: with col column i of ``multiples(v)``,
    col[a] = (a v)_i = psi_i(a) v_i, which fixed-point-freeness makes
    injective.  Row a of raw sums col[a] + col[b] is the field's add row
    of col[a] read at col.  Only the first support coordinate resolves
    its sums, gamma = pos[col[a] + col[b]] with pos the inverse of col;
    the sum a v + b v lies in the orbit exactly when every further
    coordinate's raw sum is col[gamma], col being injective.  Returns
    (table, None) when every pair's sum does, else (None, (a, b)) for
    the first pair in row-major order whose sum leaves the orbit (a and
    b are then nonzero, since 0 v + b v = b v), the scan stopping there.

    Each of these is a whole-row read of ``near_field.encode_rows``.  On
    a field of at most 256 elements it is one ``bytes.translate`` call,
    through the field's add rows that the space keeps as 256-byte
    translation tables, built once from ``Field.add_row``.  Above that
    it is an ``operator.itemgetter`` read of tuples, through the field's
    own rows.  The columns, pos and the add rows are all rows over the
    field, so they share one encoding.

    Memoised on the space: each orbit is resolved once, whichever oracle
    asks first.  Equal tables are interned, so two vectors share +_v
    exactly when their tables are one object, which must not be mutated.
    """
    resolved = space._resolved_orbits.get(v)
    if resolved is not None:
        return resolved
    field = space.field
    order = field.order
    cols = [col for x, col in zip(v, zip(*space.multiples(v))) if x]
    if not cols or any(len(set(col)) != order for col in cols):
        # the zero vector, whose multiples are all zero, or a twist that
        # is not injective
        raise InvariantError(f"scalar action is not fixed point free on {v}")
    # pos, the inverse of the first column, read at that column's raw sums
    pos = sorted(range(order), key=cols[0].__getitem__)
    read, ((key, *keys), (_, *luts)), (_, (pos,)) = encode_rows(cols, [pos])
    # above 256 elements the field's own add rows serve, cached by the
    # field up to TABLE_LIMIT, so the space keeps no second copy of them
    if read is bytes.translate:
        if space._add_luts is None:
            space._add_luts = encode_rows(map(field.add_row, range(order)))[1][1]
        add_lut = space._add_luts.__getitem__
    else:
        add_lut = field.add_row
    rows, table, escape = [], None, None
    for a, (x, *more) in enumerate(zip(*cols)):
        row = read(read(key, add_lut(x)), pos)
        escapes = [
            first_mismatch(sums, read(row, lut))
            for key_i, y, lut in zip(keys, more, luts)
            if (sums := read(key_i, add_lut(y))) != read(row, lut)
        ]
        if escapes:
            escape = (a, min(escapes))
            break
        rows.append(row)
    else:
        table = space._interned_tables.setdefault(tuple(rows), list(map(list, rows)))
    resolved = space._resolved_orbits[v] = table, escape
    return resolved


def quasi_kernel_bruteforce(space):
    """Q(V) straight from the definition: v is kept iff v = 0 or for all
    scalars alpha, beta some gamma has alpha v + beta v = gamma v.  The
    orbit lookup is ``_orbit_sums``, whose memo the induced additions and
    the maximality witnesses read too.  Exponential-cost oracle."""
    zero = space.zero
    return QuasiKernel(space, (
        v for v in space.iter_vectors()
        if v == zero or _orbit_sums(space, v)[1] is None
    ))


def additive_closure(space, generators):
    """Subgroup of (V, +) generated by the given vectors.

    Grows a known subgroup one cyclic factor at a time; exact and much
    cheaper than pairwise-sum fixed-point iteration on these sizes.
    """
    generators = list(generators)
    for g in generators:
        space.check_vector(g)
    return _additive_closure(
        space.additive_multiples, space.sumset, space.zero, generators
    )


def _additive_closure(cyclic, sumset, zero, generators):
    # ``cyclic`` lists each generator's cyclic factor less zero, which
    # ``sumset`` then adds to the closure
    closure = {zero}
    for g in generators:
        if g not in closure:
            closure |= sumset(closure, cyclic(g))
    return closure


def _row_sumset(add):
    """The sumset of an integer carrier with addition table ``add``:
    row a read at B for each a."""
    def sumset(A, B):
        read_b = row_getter(B)
        return set(chain.from_iterable(map(read_b, map(add.__getitem__, A))))
    return sumset


# -- vector (de)serialisation ---------------------------------------------


def vector_to_json(space, v):
    if space.field.r == 1:
        return list(v)
    return [list(space.field.coeffs(x)) for x in v]


def vectors_to_json(space, vectors):
    """``[vector_to_json(space, v) for v in vectors]`` with each field
    element's coefficients computed once, however many coordinates hold
    it.  For r > 1 equal elements share one coefficient list, so the
    result is for reading (and printing), not for editing in place."""
    if space.field.r == 1:
        return [list(v) for v in vectors]
    coeffs = space.field.coeffs
    table = {x: list(coeffs(x)) for x in set().union(*vectors)}
    return [list(map(table.__getitem__, v)) for v in vectors]


def vector_from_json(space, data):
    """A vector from JSON: one entry per coordinate, either a list of
    coefficients or an int (for r > 1, the constant polynomial)."""
    coords = coords_from_json(space, data)
    space.check_vector(coords)
    return coords


def coords_from_json(space, data):
    """``vector_from_json`` short of ``check_vector``: the coordinate
    tuple, its length and ranges unchecked."""
    if not isinstance(data, (list, tuple)):
        raise InvalidVectorError(f"{data!r} is not a list of coordinates")
    field = space.field
    coords = []
    for i, entry in enumerate(data):
        try:
            if isinstance(entry, (list, tuple)):
                entry = field.element(entry)
            elif field.r != 1 and type(entry) is int:
                entry = field.element((entry,) + (0,) * (field.r - 1))
        except ValueError as exc:
            raise InvalidVectorError(f"coordinate {i} of {data!r}: {exc}") from None
        coords.append(entry)
    return tuple(coords)


# -- axiom verification ------------------------------------------------------


def check_axioms(space):
    """The five defining conditions of a near-vector space, certified for
    the twisted product construction in O(n |F|) from the facts that
    prove them.

    1. (V, +) is F^n under coordinate-wise addition, an abelian group
       because F is a field: its modulus is irreducible, or ``Field``
       raises ReduciblePolynomialError.
    2. Each psi_i fixes 0, 1 and -1, and -1 acts on F as negation.
    3. alpha acts as the automorphism v -> (v_i psi_i(alpha)) of (V, +),
       additive by distributivity in F, exactly when each psi_i is
       bijective and multiplicative.  On an injective psi the row
       psi(g y) = psi(g) psi(y), g the generator, is multiplicativity:
       its cells y = 0 and y = 1 force psi(0) = 0 and psi(1) = 1, and
       then psi(g^k y) = psi(g)^k psi(y) by induction on k, as in
       ``hom.is_multiplicative``.
    4. alpha v = beta v with v != 0 makes psi_i(alpha) = psi_i(beta) at a
       nonzero coordinate, so the action is fixed point free exactly when
       every psi_i is injective; e_i witnesses one that is not.  One
       injectivity loop serves conditions 3 and 4.
    5. Each e_i is supported inside one exponent class, so F e_i lies in
       Q(V), and these n lines sum to V.

    The oracles live in the tests: the field laws of 1 and 3 are
    ``near_field.check_axioms(near_field.from_field(F))``, and all five
    conditions ``check_axioms_raw`` on the space's explicit tables.
    """
    field = space.field
    neg_one = field.neg(1)
    g = field.generator()
    times_g = row_getter(field.mul_row(g))
    fixed = (("zero", 0), ("id", 1), ("neg_id", neg_one))
    fixes = units = injective = None
    for i, psi in enumerate(space._psi):
        if fixes is None:
            fixes = next(((tag, i) for tag, x in fixed if psi[x] != x), None)
        seen = {}
        dup = next((a for a, x in enumerate(psi) if seen.setdefault(x, a) != a), None)
        if dup is not None:
            e_i = tuple(1 if j == i else 0 for j in range(space.n))
            injective = injective or (seen[psi[dup]], dup, e_i)
            units = units or ("not_bijective", i)
        elif units is None:
            left, right = times_g(psi), row_getter(psi)(field.mul_row(psi[g]))
            if left != right:
                units = ("not_multiplicative", i, g, first_mismatch(left, right))
    negation, neg = field.mul_row(neg_one), field.neg_table()
    if fixes is None and negation != neg:
        fixes = ("neg_id_action", first_mismatch(negation, neg))
    classed = len(space._class_of_coord)
    lines = None if classed == space.n else ("generated_count", field.order ** classed)
    return CheckReport({
        "1_additive_group": (True, None),
        "2_zero_id_negid": (fixes is None, fixes),
        "3_units_act_as_automorphisms": (units is None, units),
        "4_fixed_point_free": (injective is None, injective),
        "5_quasi_kernel_generates": (lines is None, lines),
    })


def _check_entries(name, rows, n):
    """Every entry must be an element index; the scans index by them."""
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not isinstance(x, int) or not 0 <= x < n:
                raise InvalidConfigError(
                    f"{name}[{i}][{j}] = {x!r} lies outside range({n})"
                )


def check_axioms_raw(add_table, endos):
    """The same five conditions for an explicit group table and
    endomorphism set; the negative fixtures enter through here.

    Condition 3 asks that the nonzero maps be bijective and additive,
    contain the identity and be closed under composition, found as the
    first entry missing from their composition table.  Inverses need no
    scan of their own: a bijection f of a finite set has finite order m,
    so f^(m-1) = f^-1 is a composite of f's, in any set of bijections
    closed under composition that holds f.
    """
    seq = (list, tuple)
    if not (
        isinstance(add_table, seq)
        and isinstance(endos, seq)
        and all(isinstance(row, seq) for row in (*add_table, *endos))
    ):
        raise InvalidConfigError("add_table and endomorphisms must be lists of lists")
    n = len(add_table)
    if n > MAX_RAW_CARRIER:
        raise TooLargeError(f"raw carrier {n} exceeds {MAX_RAW_CARRIER}")
    add = [list(row) for row in add_table]
    maps = [tuple(e) for e in endos]
    if any(len(row) != n for row in add):
        raise InvalidConfigError(f"group table must be square ({n} rows)")
    if any(len(m) != n for m in maps):
        raise InvalidConfigError(f"every endomorphism must list {n} images")
    _check_entries("add_table", add, n)
    _check_entries("endomorphisms", maps, n)
    els = range(n)
    entries = {}

    identity = next(
        (e for e in els if identity_failure(add, e, two_sided=True) is None), None
    )
    cx = None
    if identity is None:
        cx = ("no_identity",)
    else:
        for tag, scan in (
            ("not_closed", closure_failure),
            ("not_commutative", commutativity_failure),
            ("no_inverse", lambda t: inverse_failure(t, identity)),
            ("not_associative", associativity_failure),
        ):
            bad = scan(add)
            if bad is not None:
                cx = (tag, *bad)
                break
    entries["1_additive_group"] = (cx is None, cx)
    if identity is None:
        # remaining checks are meaningless without a group identity
        for key in (
            "2_zero_id_negid",
            "3_units_act_as_automorphisms",
            "4_fixed_point_free",
            "5_quasi_kernel_generates",
        ):
            entries[key] = (False, ("no_identity",))
        return CheckReport(entries)

    zero_map = tuple(identity for _ in els)
    id_map = tuple(els)
    neg_map = None
    if inverse_failure(add, identity) is None:
        neg_map = tuple(add[x].index(identity) for x in els)
    ok, cx = True, None
    if zero_map not in maps:
        ok, cx = False, ("missing_zero",)
    elif id_map not in maps:
        ok, cx = False, ("missing_id",)
    elif neg_map is None or neg_map not in maps:
        ok, cx = False, ("missing_neg_id",)
    entries["2_zero_id_negid"] = (ok, cx)

    units = list(dict.fromkeys(m for m in maps if m != zero_map))
    ok, cx = True, None
    for m in units:
        if len(set(m)) != n:
            ok, cx = False, ("not_bijective", maps.index(m))
            break
        bad = homomorphism_failure(m, add, add)
        if bad is not None:
            ok, cx = False, ("not_additive", maps.index(m), *bad)
            break
    if ok and id_map not in units:
        ok, cx = False, ("identity_missing_from_units",)
    if ok:
        # row f, column g: the index of f o g among the units, -1 if absent
        index = {f: i for i, f in enumerate(units)}
        bad = closure_failure(
            [[index.get(row_getter(g)(f), -1) for g in units] for f in units]
        )
        if bad is not None:
            ok, cx = False, ("not_closed_under_composition",
                             *(maps.index(units[i]) for i in bad))
    entries["3_units_act_as_automorphisms"] = (ok, cx)

    cx = next(
        ((ia, ib, x) for ia, f in enumerate(maps) for ib in range(ia + 1, len(maps))
         for x in els if x != identity and f[x] == maps[ib][x]),
        None,
    )
    entries["4_fixed_point_free"] = (cx is None, cx)

    quasi = []
    for x in els:
        orbit = {m[x] for m in maps}
        if all(add[f[x]][g[x]] in orbit for f in maps for g in maps):
            quasi.append(x)

    def walk(g):
        # g, g + g, ... by the table, capped, so a broken table whose
        # powers never return to the identity still terminates
        cyclic, x = [], g
        while x != identity and len(cyclic) <= n:
            cyclic.append(x)
            x = add[x][g]
        return cyclic

    closure = _additive_closure(walk, _row_sumset(add), identity, quasi)
    ok = len(closure) == n
    entries["5_quasi_kernel_generates"] = (
        ok,
        None if ok else ("quasi_kernel", tuple(quasi), "generated_count", len(closure)),
    )
    return CheckReport(entries)
