"""Finite near-field structures with exhaustive axiom verification.

A near-field here is a carrier {0, ..., n-1} with dense addition and
multiplication tables satisfying the left near-field laws: (carrier, +)
is an abelian group, the nonzero elements form a multiplicative group,
multiplication distributes over addition from the left, and zero
annihilates on both sides.  Everything is checked by brute force; the
carriers are tiny, so an O(n^3) certifying scan is the honest tool.
"""

from itertools import product
from operator import itemgetter

from .errors import ConstructionFailedError, InvalidConfigError, TooLargeError
from .finite_field import Field
from .report import CheckReport

ISO_SEARCH_LIMIT = 64


class NearField:
    """A finite (left) near-field given by explicit operation tables.

    Immutable after construction.  ``provenance`` records how the
    structure arose, e.g. ``("field", GF(9))``, ``("dickson", 9)`` or
    ``("induced", space_config, vector)``.
    """

    def __init__(self, add, mul, zero=0, one=1, provenance=("raw",)):
        self.add = tuple(tuple(row) for row in add)
        self.mul = tuple(tuple(row) for row in mul)
        n = len(self.add)
        for table in (self.add, self.mul):
            cx = closure_failure(table)
            if len(table) != n or (cx is not None and len(cx) == 1):
                raise InvalidConfigError("operation tables must be square and same-sized")
            if cx is not None:
                raise InvalidConfigError(f"operation table entry {cx} is outside range({n})")
        for name, x in (("zero", zero), ("one", one)):
            if type(x) is not int or not 0 <= x < n:
                raise InvalidConfigError(f"{name} = {x!r} is outside range({n})")
        self.size = n
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self._neg = None

    def elements(self):
        return range(self.size)

    def nonzero(self):
        return [x for x in range(self.size) if x != self.zero]

    def neg(self, a):
        if self._neg is None:
            zero = self.zero
            bad = next((x for x, row in enumerate(self.add) if zero not in row), None)
            if bad is not None:
                raise InvalidConfigError(
                    f"{bad} has no negative: row {bad} of the addition table "
                    f"never reaches {zero}"
                )
            self._neg = [row.index(zero) for row in self.add]
        return self._neg[a]

    def char(self):
        """Additive order of one (prime for every structure built here)."""
        return self.add_order(self.one)

    def add_order(self, a):
        return self._order(self.add, "addition", a, self.zero)

    def mul_order(self, a):
        if a == self.zero:
            return 0
        return self._order(self.mul, "multiplication", a, self.one)

    def _order(self, table, name, a, identity):
        """The least k with a^k = identity, walking x -> x a.  An order in
        a group of at most ``size`` elements is at most ``size``, so a
        longer walk shows the table forms no group."""
        x = a
        for k in range(1, self.size + 1):
            if x == identity:
                return k
            x = table[x][a]
        raise InvalidConfigError(
            f"{a} has no order under the {name} table: "
            f"{self.size} steps from it never reach {identity}"
        )

    def __repr__(self):
        return f"NearField(size={self.size}, provenance={self.provenance!r})"


def from_field(field):
    """The near-field (F, +, *) of a finite field; fully distributive."""
    add, mul = field.op_tables()
    return NearField(add, mul, zero=0, one=1, provenance=("field", field))


# -- table-law scans -----------------------------------------------------------
#
# Each scan walks a dense table over {0, ..., n-1} in row-major order and
# returns the first failing tuple, or None when the law holds.  The cubic
# laws compare whole rows at once, each side a read of one row at the
# entries of another through ``encode_rows``; only the first failing row
# is then walked cell by cell for the witness.  Every table-law check in
# the package runs through these.
#
# A carrier of at most 256 elements fits a row in ``bytes``, and then a
# read is one ``bytes.translate`` call through the other row padded to the
# 256 entries of a translation table.  A larger carrier, or a table with a
# ragged row or an entry out of range, has no such encoding and reads
# through ``row_getter`` and tuples.  The bound is the byte alphabet, so
# it follows from the table and nothing selects it.


def row_getter(row):
    """itemgetter(*row), which reads a sequence at the entries of row,
    returning a tuple also for a row of one entry or none."""
    if len(row) > 1:
        return itemgetter(*row)
    return lambda seq: tuple(seq[x] for x in row)


def _read_tuples(key, lut):
    return row_getter(key)(lut)


def encode_rows(*tables):
    """(read, (keys, luts) for each table), the tables encoded once for
    whole-row reads: read(keys[x], luts[y]) is row y read at the entries
    of row x, [y[e] for e in x], in the form of a key, so reads chain and
    compare with keys.

    When every row of every table has the same length n <= 256 and
    entries in range(n), a key is the row as ``bytes``, a lut the row
    padded to 256 bytes, and read is ``bytes.translate``.  Otherwise keys
    are tuples, luts the rows as given, and read goes through
    ``row_getter``.
    """
    tables = [list(t) for t in tables]
    rows = [row for t in tables for row in t]
    n = len(rows[0]) if rows else 0
    if n <= 256 and all(
        len(row) == n and (not n or 0 <= min(row) and max(row) < n) for row in rows
    ):
        pad = bytes(256 - n)
        return (bytes.translate, *(
            (keys, [key + pad for key in keys])
            for keys in (list(map(bytes, t)) for t in tables)
        ))
    return (_read_tuples, *((list(map(tuple, t)), t) for t in tables))


def first_mismatch(left, right):
    """The first index where two equal-length rows differ."""
    return next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)


def closure_failure(table):
    """(a,) for the first row of the wrong length, (a, b) for the first
    entry outside range(n), else None."""
    n = len(table)
    for a, row in enumerate(table):
        if len(row) != n:
            return (a,)
        if row and (min(row) < 0 or max(row) >= n):
            return (a, next(b for b, x in enumerate(row) if not 0 <= x < n))
    return None


def associativity_failure(t):
    """(a, b, c) for the first (ab)c != a(bc): row ab of t against
    row a read at the entries of row b."""
    read, (keys, luts) = encode_rows(t)
    for a, ta in enumerate(t):
        lut = luts[a]
        for b, ab in enumerate(ta):
            left, right = keys[ab], read(keys[b], lut)
            if left != right:
                return (a, b, first_mismatch(left, right))
    return None


def commutativity_failure(t):
    els = range(len(t))
    for a in els:
        ta = t[a]
        for b in els:
            if ta[b] != t[b][a]:
                return (a, b)
    return None


def identity_failure(t, e, two_sided=False):
    """(b,) for the first b with e*b != b (or b*e != b when two-sided)."""
    te = t[e]
    for b in range(len(t)):
        if te[b] != b or (two_sided and t[b][e] != b):
            return (b,)
    return None


def inverse_failure(t, e, two_sided=False, skip=None):
    """(a,) for the first a with no b such that a*b = e (and b*a = e when
    two-sided); ``skip`` leaves one element out on both sides."""
    els = [x for x in range(len(t)) if x != skip]
    for a in els:
        ta = t[a]
        if two_sided:
            found = any(ta[b] == e and t[b][a] == e for b in els)
        else:
            found = e in ta
        if not found:
            return (a,)
    return None


def left_distributivity_failure(add, mul):
    """(a, b, c) for the first a(b + c) != ab + ac, else None: row a of
    mul read at row b of add, against row ab of add read at row a of
    mul."""
    read, (add_keys, add_luts), (mul_keys, mul_luts) = encode_rows(add, mul)
    for a, ma in enumerate(mul):
        key, lut = mul_keys[a], mul_luts[a]
        for b, ab in enumerate(ma):
            left, right = read(add_keys[b], lut), read(key, add_luts[ab])
            if left != right:
                return (a, b, first_mismatch(left, right))
    return None


def _right_distributes(add, mul):
    """holds(a, c): (a + b)c = ac + bc for every b.  Both sides run over
    b: column c of mul read at row a of add, against row ac of add read
    at column c."""
    read, (add_keys, add_luts), (col_keys, col_luts) = encode_rows(add, zip(*mul))

    def holds(a, c):
        return read(add_keys[a], col_luts[c]) == read(col_keys[c], add_luts[mul[a][c]])

    return holds


def right_distributivity_failure(add, mul):
    """(a, b, c) for the first (a + b)c != ac + bc, else None.  The first
    failing a is that of the row-major scan, whose first failing (b, c)
    is then found cell by cell."""
    holds = _right_distributes(add, mul)
    els = range(len(add))
    for a in els:
        if not all(holds(a, c) for c in els):
            return next(
                (a, b, c) for b in els for c in els
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]
            )
    return None


def homomorphism_failure(f, src, dst):
    """(a, b) for the first f(a src b) != f(a) dst f(b), else None: f
    read at row a of src, against row f(a) of dst read at f."""
    read, ((f_key,), (f_lut,)), (src_keys, _), (_, dst_luts) = encode_rows([f], src, dst)
    for a, key in enumerate(src_keys):
        left, right = read(key, f_lut), read(f_key, dst_luts[f[a]])
        if left != right:
            return (a, first_mismatch(left, right))
    return None


def _entry(cx):
    return cx is None, cx


def check_axioms(nf):
    """Exhaustive left near-field axiom check; O(n^3), certifying."""
    add, mul = nf.add, nf.mul
    zero, one = nf.zero, nf.one
    els = range(nf.size)

    def padded(cx):
        # unary identity witnesses keep the (a, b) shape of the binary laws
        return None if cx is None else (0,) + cx

    entries = {
        "add_closed": _entry(closure_failure(add)),
        "add_associative": _entry(associativity_failure(add)),
        "add_commutative": _entry(commutativity_failure(add)),
        "add_identity": _entry(padded(identity_failure(add, zero))),
        "add_inverses": _entry(inverse_failure(add, zero)),
        "mul_closed": _entry(next(
            ((a, b) for a in els if a != zero
             for b in els if b != zero and mul[a][b] == zero),
            None,
        )),
        "mul_associative": _entry(associativity_failure(mul)),
        "mul_identity": _entry(padded(identity_failure(mul, one, two_sided=True))),
        "mul_inverses": _entry(inverse_failure(mul, one, two_sided=True, skip=zero)),
        "left_distributive": _entry(left_distributivity_failure(add, mul)),
        "zero_annihilates": _entry(next(
            ((0, b) for b in els if mul[zero][b] != zero or mul[b][zero] != zero),
            None,
        )),
    }
    return CheckReport(entries)


def distributive_elements(nf):
    """All c with (a + b)c = ac + bc for every a, b (the law the axioms skip)."""
    holds = _right_distributes(nf.add, nf.mul)
    els = nf.elements()
    return frozenset(c for c in els if all(holds(a, c) for a in els))


def dickson9():
    """The proper near-field of order 9: GF(9) with Frobenius-coupled product.

    The product is x*y with y replaced by y^3 when the coupling element is
    a non-square; which side selects and which side twists is fixed by
    searching the four conventions against the axiom checker, which must
    pass the left near-field laws and break right distributivity.
    """
    field = Field(3, 2, (1, 0, 1))
    add, mul = field.op_tables()
    n = field.order
    squares = {mul[x][x] for x in range(1, n)}
    cube = [field.frobenius(x) for x in range(n)]

    for select_left in (True, False):
        for twist_left in (True, False):
            table = []
            for x in range(n):
                row = []
                for y in range(n):
                    s = x if select_left else y
                    if s in squares or s == 0:
                        row.append(mul[x][y])
                    elif twist_left:
                        row.append(mul[cube[x]][y])
                    else:
                        row.append(mul[x][cube[y]])
                table.append(row)
            candidate = NearField(add, table, provenance=("dickson", 9))
            if check_axioms(candidate).all_pass and (
                right_distributivity_failure(candidate.add, candidate.mul) is not None
            ):
                return candidate
    raise ConstructionFailedError("no Frobenius coupling convention passed")


def _spanning_tree(mul, roots, gens):
    """Walk breadth-first from ``roots`` along x -> x g for g in gens:
    the elements reached, and (z, x, i) for each z first reached as
    x gens[i], in the order reached."""
    reached = set(roots)
    walk, edges = list(reached), []
    for x in walk:
        for i, g in enumerate(gens):
            z = mul[x][g]
            if z not in reached:
                reached.add(z)
                walk.append(z)
                edges.append((z, x, i))
    return reached, edges


def find_isomorphism(n1, n2):
    """A bijection preserving both operations, zero and one, or None if
    there is none.

    Such a map restricts to a group isomorphism N1* -> N2*, so the images
    of a generating set of N1* determine it: f(x g) = f(x) f(g) along
    the tree that reaches every element from 0, 1 and the generators.
    The generators are taken greedily, and each choice of images of equal
    multiplicative order is extended and kept when it is bijective and
    preserves both tables.  Sizes are capped so the search stays a
    certificate rather than a gamble.
    """
    if n1.size != n2.size or (n1.zero == n1.one) != (n2.zero == n2.one):
        return None
    if n1.size > ISO_SEARCH_LIMIT:
        raise TooLargeError(
            f"isomorphism search capped at {ISO_SEARCH_LIMIT} elements"
        )
    gens, reached, edges = [], (n1.zero, n1.one), []
    for x in n1.nonzero():
        if x not in reached:
            gens.append(x)
            reached, edges = _spanning_tree(n1.mul, (n1.zero, n1.one, *gens), gens)
    orders = {y: n2.mul_order(y) for y in n2.nonzero()}
    choices = [[y for y in orders if orders[y] == k] for k in map(n1.mul_order, gens)]
    for images in product(*choices):
        f = [None] * n1.size
        f[n1.zero], f[n1.one] = n2.zero, n2.one
        for g, y in zip(gens, images):
            f[g] = y
        for z, x, i in edges:
            f[z] = n2.mul[f[x]][images[i]]
        if (
            len(set(f)) == n1.size
            and homomorphism_failure(f, n1.add, n2.add) is None
            and homomorphism_failure(f, n1.mul, n2.mul) is None
        ):
            return dict(enumerate(f))
    return None
