"""Exact arithmetic in GF(p^r) for small prime powers.

Elements are canonical integers in [0, p^r).  The element with
coefficient vector (c0, ..., c_{r-1}) over Z_p, read as coefficients of
1, x, ..., x^{r-1}, is encoded as sum(c_i * p**i).  Index 0 is the zero
element, index 1 is one, and enumeration in index order is deterministic
(lexicographic in the coefficient vector read from the highest power
down), so every enumeration built on top of it is reproducible.
"""

from .errors import (
    DivisionByZeroError,
    InvalidConfigError,
    InvalidElementError,
    InvariantError,
    NonPrimeError,
    ReduciblePolynomialError,
    TooLargeError,
)

MAX_ORDER = 1 << 20

# Table rows are cached, and the dense tables of op_tables built, only up
# to this order, so a field holds at most two tables of TABLE_LIMIT^2
# entries.  Up to it add and mul read the cached rows; above it a row is
# built afresh on each read, and add and mul compute digit-wise or as
# polynomials.  Which of the two a field takes depends on its order
# alone, not on whether op_tables ran before.
TABLE_LIMIT = 1024


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n):
    """Sorted distinct prime factors of n (trial division; n <= 2^20)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over Z_p ----------------------------------------
# Polynomials are tuples of coefficients in ascending degree with no
# trailing zeros; () is the zero polynomial.


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, cm in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * cm) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, in counter order."""
    counter = [0] * degree
    while True:
        yield tuple(counter) + (1,)
        i = 0
        while i < degree:
            counter[i] += 1
            if counter[i] < p:
                break
            counter[i] = 0
            i += 1
        else:
            return


class Field:
    """GF(p^r) with exact, table-backed arithmetic.

    Immutable after construction; all operations are pure, so instances
    are safe to share freely.
    """

    def __init__(self, p, r=1, modulus=None):
        if not isinstance(p, int):
            raise NonPrimeError(f"{p} is not prime")
        if type(r) is not int or r < 1:  # bool too, as in validate_config
            raise InvalidConfigError(f"extension degree must be a positive integer, got {r}")
        # bounded before the power and the primality scan, which would
        # build an r-bit integer and take sqrt(p) steps
        if p > MAX_ORDER or r >= MAX_ORDER.bit_length() or p ** r > MAX_ORDER:
            raise TooLargeError(f"p^r = {p}^{r} exceeds the bound {MAX_ORDER}")
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        order = p ** r
        self.p = p
        self.r = r
        self.order = order
        self.mult_order = order - 1
        if r == 1:
            self.modulus = None  # only consulted for genuine extensions
        else:
            if modulus is None:
                raise InvalidConfigError(f"GF({p}^{r}) needs an explicit modulus polynomial")
            modulus = tuple(modulus)
            for c in modulus:
                if type(c) is not int:  # bool too, as in validate_config
                    raise InvalidConfigError(
                        f"modulus coefficients must be integers, got {c!r} in {modulus}"
                    )
            mod = tuple(c % p for c in modulus)
            if len(mod) != r + 1 or mod[-1] != 1:
                raise InvalidConfigError(f"modulus must be monic of degree {r}, got {modulus}")
            self._check_irreducible(mod)
            self.modulus = mod
        self._powers = [p ** i for i in range(r)]
        # element -> table row, filled on first read up to TABLE_LIMIT
        self._add_rows = {}
        self._mul_rows = {}
        self._add_table = None
        self._mul_table = None
        self._neg_table = None
        self._generator = None
        self._exp_log = None

    def _check_irreducible(self, mod):
        # Exhaustive search for a monic factor of degree <= r/2; feasible
        # because p^r <= 2^20 keeps the candidate count near 2*p^(r/2).
        p = self.p
        for d in range(1, self.r // 2 + 1):
            for g in _monic_polys(p, d):
                if not _poly_mod(mod, g, p):
                    raise ReduciblePolynomialError(
                        f"{mod} is divisible by {g} over Z_{p}", factor=g
                    )

    # -- encoding -------------------------------------------------------

    def coeffs(self, a):
        """Coefficient vector (c0, ..., c_{r-1}) of the element index a."""
        a = self._element(a)
        out = []
        for _ in range(self.r):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def element(self, coeffs):
        cs = tuple(coeffs)
        if len(cs) != self.r:
            raise InvalidConfigError(f"expected {self.r} coefficients, got {len(cs)}")
        if any(type(c) is not int or not 0 <= c < self.p for c in cs):
            raise InvalidConfigError(f"coefficients must be integers in [0, {self.p}): {cs}")
        return sum(c * w for c, w in zip(cs, self._powers))

    def elements(self):
        """All p^r elements exactly once, in canonical index order."""
        return range(self.order)

    def units(self):
        return range(1, self.order)

    # -- arithmetic -------------------------------------------------------
    # Every operand must be an int in range(|F|), tested by its exact
    # type: a bool or a float hashes like the int it equals, so a cached
    # row would answer it.  The per-coordinate paths test inline.

    def _outside(self, a):
        return InvalidElementError(f"{a!r} is outside range({self.order})")

    def _element(self, a):
        if type(a) is not int or not 0 <= a < self.order:
            raise self._outside(a)
        return a

    @staticmethod
    def _exponent(k):
        if type(k) is not int:  # bool too, as for elements
            raise InvalidConfigError(f"exponent must be an integer, got {k!r}")
        return k

    def add(self, a, b):
        if self.order <= TABLE_LIMIT:
            if type(b) is not int or not 0 <= b < self.order:
                raise self._outside(b)
            return self.add_row(a)[b]
        a, b = self._element(a), self._element(b)
        if self.r == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        for w in self._powers:
            out += ((a % p + b % p) % p) * w
            a //= p
            b //= p
        return out

    def neg_table(self):
        """[-x for every element x], built once and cached.

        Negation is digit-wise, -x = (-c0, ..., -c_{r-1}) mod p: the
        prime-field table [0, p-1, ..., 1] for the lowest digit, each
        higher digit folded in as an outer block.
        """
        if self._neg_table is None:
            digit = [0] + list(range(self.p - 1, 0, -1))
            table = digit
            for w in self._powers[1:]:
                table = [d * w + x for d in digit for x in table]
            self._neg_table = table
        return self._neg_table

    def neg(self, a):
        return self.neg_table()[self._element(a)]

    def mul(self, a, b):
        if self.order <= TABLE_LIMIT:
            if type(b) is not int or not 0 <= b < self.order:
                raise self._outside(b)
            return self.mul_row(a)[b]
        return self._raw_mul(self._element(a), self._element(b))

    def _from_poly(self, poly):
        return sum(c * w for c, w in zip(poly, self._powers))

    def inv(self, a):
        if self._element(a) == 0:
            raise DivisionByZeroError("0 has no multiplicative inverse")
        exp, log = self._log_walk()
        m = self.mult_order
        return exp[(m - log[a]) % m]

    def pow(self, a, k):
        """a^k, the exponent reduced mod mult_order for nonzero a, through
        polynomial products: ``generator`` runs before the rows' log walk."""
        k = self._exponent(k)
        if self._element(a) == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise DivisionByZeroError("0 cannot be raised to a negative power")
        k %= self.mult_order if self.mult_order else 1
        if self.r == 1:
            return pow(a, k, self.p)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            k >>= 1
        return result

    def frobenius(self, a):
        return self.pow(a, self.p)

    # -- table rows ---------------------------------------------------------

    def add_row(self, a):
        """[a + b for every element b in index order], cached up to
        TABLE_LIMIT; InvalidElementError unless a is in range(|F|)."""
        if type(a) is not int or not 0 <= a < self.order:
            raise self._outside(a)
        row = self._add_rows.get(a)
        return self._new_row(self._add_rows, self._add_row, a) if row is None else row

    def mul_row(self, a):
        """[a b for every element b in index order], cached up to
        TABLE_LIMIT; InvalidElementError unless a is in range(|F|)."""
        if type(a) is not int or not 0 <= a < self.order:
            raise self._outside(a)
        row = self._mul_rows.get(a)
        return self._new_row(self._mul_rows, self._mul_row, a) if row is None else row

    def _new_row(self, rows, build, a):
        row = build(a)
        if self.order <= TABLE_LIMIT:
            rows[a] = row
        return row

    def op_tables(self):
        """Dense (add, mul) tables, lists of the cached rows, completed on
        the first call; refused above TABLE_LIMIT."""
        if self._add_table is None:
            if self.order > TABLE_LIMIT:
                raise TooLargeError(
                    f"dense tables refused for order {self.order} > {TABLE_LIMIT}"
                )
            self._build_tables()
        return self._add_table, self._mul_table

    def _build_tables(self):
        els = range(self.order)
        self._add_table = list(map(self.add_row, els))
        self._mul_table = list(map(self.mul_row, els))

    def _add_row(self, a):
        """[a + b for every element b in index order], without tables.

        Addition is digit-wise mod p, so the row is a rotation of the
        digit values in each position: one slice for a prime field, XOR
        in characteristic 2, and otherwise the per-digit rotations folded
        from the lowest digit up.
        """
        p = self.p
        if self.r == 1:
            return list(range(a, p)) + list(range(a))
        if p == 2:
            return [a ^ b for b in range(self.order)]
        row = [0]
        for w in self._powers:
            a, c = divmod(a, p)
            folded = []
            for d in range(c, c + p):
                folded.extend(map(((d % p) * w).__add__, row))
            row = folded
        return row

    def _mul_row(self, a):
        """[a b for every element b in index order], without tables.

        Through discrete logs of a fixed generator, a b = exp[log a +
        log b] for units: the unit entries read the exp list rotated left
        by log a, at the logs of b.
        """
        if not a:
            return [0] * self.order
        exp, log = self._log_walk()
        k = log[a]
        window = exp[k:] + exp[:k]
        return [0] + list(map(window.__getitem__, log[1:]))

    def _raw_mul(self, a, b):
        if self.r == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self._from_poly(_poly_mod(prod, self.modulus, self.p))

    def generator(self):
        """Smallest element generating the multiplicative group."""
        if self._generator is None:
            m = self.mult_order
            if m <= 1:
                self._generator = 1
            else:
                factors = prime_factors(m)
                for g in range(2, self.order):
                    if all(self.pow(g, m // q) != 1 for q in factors):
                        self._generator = g
                        break
                else:  # pragma: no cover - every finite field has one
                    raise InvariantError("no multiplicative generator found")
        return self._generator

    def _log_walk(self):
        """(exp, log) of the smallest generator g: exp[i] = g^i for
        i < |F*| and log[exp[i]] = i, with log[0] = None; walked once
        through ``_times`` and cached."""
        if self._exp_log is None:
            m = self.mult_order
            times_g = self._times(self.generator())
            exp = [1] * max(m, 1)
            x = 1
            for i in range(1, m):
                x = exp[i] = times_g(x)
            log = [None] * self.order
            for i, e in enumerate(exp):
                log[e] = i
            self._exp_log = (exp, log)
        return self._exp_log

    def _times(self, g):
        """The map a -> a g, in O(r) digit steps per product.

        It is Z_p-linear: a g = sum_j c_j (g x^j) for a = sum_j c_j x^j,
        read from the r images g x^j taken once as polynomial products.
        In characteristic 2 that sum is the XOR of the images over a's
        set bits.  Otherwise the images are packed k bits per digit,
        2^k > r (p - 1), so that the r scaled images add as integers
        with no digit carrying into the next, and each digit of the sum
        is then reduced mod p.
        """
        p, r = self.p, self.r
        if r == 1:
            return lambda a: a * g % p
        images = [self._raw_mul(g, w) for w in self._powers]
        if p == 2:
            def times_g(a):
                out = 0
                for image in images:
                    if a & 1:
                        out ^= image
                    a >>= 1
                return out
            return times_g
        k = (r * (p - 1)).bit_length()
        mask = (1 << k) - 1
        shifts = range(0, k * r, k)
        # scaled[j][c] = c (g x^j), its digits reduced mod p, packed
        scaled = [
            [
                sum(c * d % p << s for d, s in zip(self.coeffs(image), shifts))
                for c in range(p)
            ]
            for image in images
        ]
        weighted = list(zip(shifts, self._powers))

        def times_g(a):
            total = 0
            for row in scaled:
                a, c = divmod(a, p)
                total += row[c]
            return sum((total >> s & mask) % p * w for s, w in weighted)
        return times_g

    def pow_table(self, k):
        """[x^k for every element x], used for twist actions downstream.

        x^k = exp[(log x * k) mod |F*|] for x != 0, one lookup per element
        in the cached discrete-log walk (F* is cyclic in every field).
        """
        k = self._exponent(k)
        exp, log = self._log_walk()
        m = self.mult_order
        return [self.pow(0, k)] + [exp[log[x] * k % m] for x in range(1, self.order)]

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.r})"
