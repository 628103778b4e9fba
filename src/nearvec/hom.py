"""Near-vector-space homomorphisms: a pair (theta, eta) with theta
additive, eta multiplicative on the units, and theta(a x) = eta(a) theta(x).

The morphism notion is André's ("Lineare Algebra über Fastkörpern",
Math. Z. 136, 1974).  ``hom_check`` decides each condition on
generators: additivity on an F_p-basis of V, multiplicativity and
intertwining on one primitive scalar.  When a generator check fails it
reruns that condition's all-pairs scan, the oracle of this module, to
report the scan's first witness.
"""

from .errors import InvalidMapError, InvalidVectorError
from .near_field import row_getter
from .report import jsonify
from .space import coords_from_json


def parse_map(space1, space2, data):
    """(theta, eta) dicts from ``{"theta": [...], "eta": [...]}``: theta
    lists the image of every source vector in enumeration order, eta the
    image of every nonzero source scalar as an int or coefficient list.
    Each image is decoded here and checked against the target space once,
    by ``hom_check``."""
    if not isinstance(data, dict):
        raise InvalidMapError(
            f"hom map must be a JSON object, not {type(data).__name__}"
        )
    units1 = range(1, space1.field.order)
    for key, size, what in (
        ("theta", space1.size, "source vector"),
        ("eta", len(units1), "nonzero source scalar"),
    ):
        if key not in data:
            raise InvalidMapError(f"hom map has no {key!r} entry")
        table = data[key]
        if not isinstance(table, list):
            raise InvalidMapError(
                f"hom map entry {key!r} must be a list, not {type(table).__name__}"
            )
        if len(table) != size:
            raise InvalidMapError(
                f"hom map entry {key!r} has {len(table)} items, expected "
                f"{size} (one per {what})"
            )
    field2 = space2.field
    theta = {}
    for v, image in zip(space1.iter_vectors(), data["theta"]):
        try:
            theta[v] = coords_from_json(space2, image)
        except ValueError as exc:
            raise InvalidMapError(f"'theta' image of {v}: {exc}") from None
    eta = {}
    for a, image in zip(units1, data["eta"]):
        if isinstance(image, list):
            try:
                image = field2.element(image)
            except ValueError as exc:
                raise InvalidMapError(f"'eta' image of {a}: {exc}") from None
        elif type(image) is not int:
            raise InvalidMapError(
                f"'eta' image of {a} is {image!r}, not an integer or coefficient list"
            )
        eta[a] = image
    return theta, eta


def _check_tables(space1, space2, theta, eta):
    every = all(map(theta.__contains__, space1.iter_vectors()))
    if len(theta) != space1.size or not every:
        raise InvalidMapError("'theta' must be defined on every vector of the source")
    if set(eta) != set(range(1, space1.field.order)):
        raise InvalidMapError("'eta' must be defined on every unit scalar of the source")
    for v, image in theta.items():
        try:
            space2.check_vector(image)
        except InvalidVectorError as exc:
            raise InvalidMapError(f"'theta' image of {v}: {exc}") from None
    for a, image in eta.items():
        # bool too: True would pass as the unit 1
        if type(image) is not int or not 1 <= image < space2.field.order:
            raise InvalidMapError(f"'eta' image of {a} is {image!r}, not a target unit")


# -- all-pairs oracles: the first failing pair in enumeration order ---------


def additivity_witness(space1, space2, theta):
    """First (x, y) with theta(x + y) != theta(x) + theta(y), or None."""
    for x in space1.iter_vectors():
        tx = theta[x]
        for y in space1.iter_vectors():
            if theta[space1.add(x, y)] != space2.add(tx, theta[y]):
                return x, y
    return None


def multiplicativity_witness(space1, space2, eta):
    """First (a, b) with eta(a b) != eta(a) eta(b), or None."""
    units1 = range(1, space1.field.order)
    for a in units1:
        for b in units1:
            if eta[space1.field.mul(a, b)] != space2.field.mul(eta[a], eta[b]):
                return a, b
    return None


def intertwining_witness(space1, space2, theta, eta):
    """First (a, x) with theta(a x) != eta(a) theta(x), or None."""
    for a in range(1, space1.field.order):
        for x in space1.iter_vectors():
            if theta[space1.scalar_mul(a, x)] != space2.scalar_mul(eta[a], theta[x]):
                return a, x
    return None


# -- generator checks ----------------------------------------------------------


def fp_basis(space):
    """The r*n vectors carrying the element p^d at coordinate i: an F_p
    basis of V's additive group, coordinate-major."""
    field = space.field
    return [
        tuple(field.p ** d if j == i else 0 for j in range(space.n))
        for i in range(space.n)
        for d in range(field.r)
    ]


def _commutes(theta, rows1, rows2):
    """theta(R1 x) = R2 theta(x) for every x, where R reads coordinate j
    of a vector through the field row ``rows[j]``.  Column-wise, as in
    ``TwistedSpace.multiples``: one row per coordinate, read at the
    whole column, so a row built afresh above TABLE_LIMIT costs O(|F|)
    once per coordinate, not once per vector."""
    sources = zip(*map(map, [row.__getitem__ for row in rows1], zip(*theta)))
    images = zip(*map(map, [row.__getitem__ for row in rows2], zip(*theta.values())))
    return [*map(theta.__getitem__, sources)] == [*images]


def is_additive(space1, space2, theta):
    """theta(0) = 0 and theta(x + g) = theta(x) + theta(g) for every x and
    every F_p-basis vector g.  Sufficient because every y is a sum of
    basis vectors: induction on the number of summands gives
    theta(x + y) = theta(x) + theta(y).  Coordinate j of x + g is the
    add row of g_j read at x_j."""
    if theta[space1.zero] != space2.zero:
        return False
    add1, add2 = space1.field.add_row, space2.field.add_row
    return all(
        _commutes(theta, map(add1, g), map(add2, theta[g])) for g in fp_basis(space1)
    )


def is_multiplicative(space1, space2, eta):
    """eta(gamma y) = eta(gamma) eta(y) for a primitive gamma and every
    unit y, as two rows: eta read at the mul row of gamma, against the
    mul row of eta(gamma) read at the images of eta.  The cell y = 1
    forces eta(1) = 1, induction on k gives eta(gamma^k) = eta(gamma)^k,
    and at gamma^|F*| = 1 it forces eta(gamma)^|F*| = 1, so the exponents
    of eta(gamma) add modulo |F*| as those of gamma do."""
    f1, f2 = space1.field, space2.field
    gamma = f1.generator()
    units = range(1, f1.order)
    left = row_getter(f1.mul_row(gamma)[1:])(eta)
    right = row_getter(row_getter(units)(eta))(f2.mul_row(eta[gamma]))
    return left == right


def intertwines_primitive(space1, space2, theta, eta):
    """theta(gamma x) = eta(gamma) theta(x) for a primitive gamma and
    every x.  With eta multiplicative this covers every scalar, because
    gamma^k acts as k successive steps of gamma.  Coordinate j of a x is
    the mul row of psi_j(a), coordinate j of a (1, ..., 1), read at x_j."""
    f1, f2 = space1.field, space2.field
    gamma = f1.generator()
    twists1 = space1.scalar_mul(gamma, (1,) * space1.n)
    twists2 = space2.scalar_mul(eta[gamma], (1,) * space2.n)
    return _commutes(theta, map(f1.mul_row, twists1), map(f2.mul_row, twists2))


def _entry(name, witness):
    return {"name": name, "pass": witness is None, "witness": jsonify(witness)}


def hom_check(space1, space2, theta, eta):
    """Verify a homomorphism pair: theta additive, eta multiplicative on
    units, and theta(alpha x) = eta(alpha) theta(x) throughout.

    Each condition passes on its generator check alone; a failure takes
    its witness from the all-pairs scan, so the report is the oracle's.
    """
    _check_tables(space1, space2, theta, eta)
    additive = None
    if not is_additive(space1, space2, theta):
        additive = additivity_witness(space1, space2, theta)
    multiplicative = None
    if not is_multiplicative(space1, space2, eta):
        multiplicative = multiplicativity_witness(space1, space2, eta)
    intertwining = None
    # gamma alone stands for every scalar only when eta is multiplicative
    if multiplicative is not None or not intertwines_primitive(
        space1, space2, theta, eta
    ):
        intertwining = intertwining_witness(space1, space2, theta, eta)
    checks = [
        _entry("theta_additive", additive),
        _entry("eta_multiplicative", multiplicative),
        _entry("intertwining", intertwining),
    ]
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def hom_check_oracle(space1, space2, theta, eta):
    """``hom_check`` through the all-pairs scans alone."""
    _check_tables(space1, space2, theta, eta)
    checks = [
        _entry("theta_additive", additivity_witness(space1, space2, theta)),
        _entry("eta_multiplicative", multiplicativity_witness(space1, space2, eta)),
        _entry("intertwining", intertwining_witness(space1, space2, theta, eta)),
    ]
    return {"pass": all(c["pass"] for c in checks), "checks": checks}
