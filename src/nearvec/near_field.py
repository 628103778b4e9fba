"""Finite near-field structures with exhaustive axiom verification.

A near-field here is a carrier {0, ..., n-1} with dense addition and
multiplication tables satisfying the left near-field laws: (carrier, +)
is an abelian group, the nonzero elements form a multiplicative group,
multiplication distributes over addition from the left, and zero
annihilates on both sides.  Everything is checked by brute force; the
carriers are tiny, so an O(n^3) certifying scan is the honest tool.
"""

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
            self._neg = [row.index(zero) for row in self.add]
        return self._neg[a]

    def char(self):
        """Additive order of one (prime for every structure built here)."""
        x = self.one
        k = 1
        while x != self.zero:
            x = self.add[x][self.one]
            k += 1
        return k

    def add_order(self, a):
        x = a
        k = 1
        while x != self.zero:
            x = self.add[x][a]
            k += 1
        return k

    def mul_order(self, a):
        if a == self.zero:
            return 0
        x = a
        k = 1
        while x != self.one:
            x = self.mul[x][a]
            k += 1
        return k

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
# laws compare whole rows at once, each side read through
# ``operator.itemgetter``; only the first failing row is then walked cell
# by cell for the witness.  Every table-law check in the package runs
# through these.


def row_getter(row):
    """itemgetter(*row), which reads a sequence at the entries of row,
    returning a tuple also for a row of one entry or none."""
    if len(row) > 1:
        return itemgetter(*row)
    return lambda seq: tuple(seq[x] for x in row)


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
    rows = list(map(tuple, t))
    get = list(map(row_getter, t))
    for a, ta in enumerate(t):
        for b, ab in enumerate(ta):
            left, right = rows[ab], get[b](ta)
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
    add_get = list(map(row_getter, add))
    mul_get = list(map(row_getter, mul))
    for a, ma in enumerate(mul):
        times_a = mul_get[a]
        for b, ab in enumerate(ma):
            left, right = add_get[b](ma), times_a(add[ab])
            if left != right:
                return (a, b, first_mismatch(left, right))
    return None


def right_distributivity_failure(add, mul):
    """(a, b, c) for the first (a + b)c != ac + bc, else None.

    With a and c fixed both sides run over b: column c of mul read at
    row a of add, against row ac of add read at column c.  The first
    failing a is that of the row-major scan, whose first failing (b, c)
    is then found cell by cell.
    """
    cols = list(zip(*mul))
    add_get = list(map(row_getter, add))
    col_get = list(map(row_getter, cols))
    els = range(len(add))
    for a, ma in enumerate(mul):
        plus_a = add_get[a]
        if any(plus_a(cols[c]) != col_get[c](add[ac]) for c, ac in enumerate(ma)):
            return next(
                (a, b, c) for b in els for c in els
                if mul[add[a][b]][c] != add[ma[c]][mul[b][c]]
            )
    return None


def homomorphism_failure(f, src, dst):
    """(a, b) for the first f(a src b) != f(a) dst f(b), else None: f
    read at row a of src, against row f(a) of dst read at f."""
    at_f = row_getter(f)
    for a, row in enumerate(src):
        left, right = row_getter(row)(f), at_f(dst[f[a]])
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


def right_distributive_counterexample(nf):
    """A triple (a, b, c) with (a+b)c != ac + bc, or None."""
    return right_distributivity_failure(nf.add, nf.mul)


def distributive_elements(nf):
    """All k with (a+b)k = ak + bk for every a, b (the law the axioms skip)."""
    add, mul = nf.add, nf.mul
    els = range(nf.size)
    out = set()
    for k in els:
        if all(mul[add[a][b]][k] == add[mul[a][k]][mul[b][k]] for a in els for b in els):
            out.add(k)
    return frozenset(out)


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
                right_distributive_counterexample(candidate) is not None
            ):
                return candidate
    raise ConstructionFailedError("no Frobenius coupling convention passed")


def find_isomorphism(n1, n2):
    """A bijection preserving both operations, or None if provably absent.

    Backtracking over element images, pruned by additive and
    multiplicative element orders; sizes are capped so the search stays
    a certificate rather than a gamble.
    """
    if n1.size != n2.size:
        return None
    if n1.size > ISO_SEARCH_LIMIT:
        raise TooLargeError(
            f"isomorphism search capped at {ISO_SEARCH_LIMIT} elements"
        )

    def profile(nf, x):
        return (nf.add_order(x), nf.mul_order(x), x == nf.zero, x == nf.one)

    prof2 = {}
    for y in n2.elements():
        prof2.setdefault(profile(n2, y), []).append(y)
    candidates = {}
    for x in n1.elements():
        cands = prof2.get(profile(n1, x), [])
        if not cands:
            return None
        candidates[x] = cands
    order = sorted(n1.elements(), key=lambda x: len(candidates[x]))

    mapping = {}
    used = set()

    def consistent(x, y):
        for a, fa in mapping.items():
            for u, v, fu, fv in ((x, a, y, fa), (a, x, fa, y)):
                s = n1.add[u][v]
                if s in mapping and mapping[s] != n2.add[fu][fv]:
                    return False
                t = n1.mul[u][v]
                if t in mapping and mapping[t] != n2.mul[fu][fv]:
                    return False
        s = n1.add[x][x]
        if s in mapping and mapping[s] != n2.add[y][y]:
            return False
        t = n1.mul[x][x]
        if t in mapping and mapping[t] != n2.mul[y][y]:
            return False
        return True

    def extend(i):
        if i == len(order):
            return True
        x = order[i]
        for y in candidates[x]:
            if y in used:
                continue
            if not consistent(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    if not extend(0):
        return None
    # full verification; the partial checks above are only pruning
    for a in n1.elements():
        for b in n1.elements():
            if mapping[n1.add[a][b]] != n2.add[mapping[a]][mapping[b]]:
                return None
            if mapping[n1.mul[a][b]] != n2.mul[mapping[a]][mapping[b]]:
                return None
    return dict(mapping)
