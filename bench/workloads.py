"""Seeded inputs, expected outputs and op lists for the three workloads.

Every expectation here is derived from a space config alone, with no
call into nearvec, so a wrong answer from the library cannot also
corrupt the reference it is checked against.
"""

import contextlib
import io
import itertools
import json
import os

VERIFY_CONFIGS = (
    {"p": 11, "r": 1, "modulus_poly": None, "exponents": [3, 7, 3]},
    {"p": 11, "r": 1, "modulus_poly": None, "exponents": [1, 1, 1]},
    {"p": 11, "r": 2, "modulus_poly": [1, 0, 1], "exponents": [7]},
    {"p": 2, "r": 3, "modulus_poly": [1, 1, 0, 1], "exponents": [1, 3]},
)

CLI_CONFIGS = (
    {"p": 11, "r": 1, "modulus_poly": None, "exponents": [3, 7, 3]},
    {"p": 7, "r": 1, "modulus_poly": None, "exponents": [1, 1, 1]},
    {"p": 7, "r": 2, "modulus_poly": [1, 0, 1], "exponents": [1, 5]},
    {"p": 5, "r": 2, "modulus_poly": [2, 0, 1], "exponents": [1, 7, 13]},
    {"p": 13, "r": 1, "modulus_poly": None, "exponents": [1, 5, 7]},
    {"p": 3, "r": 2, "modulus_poly": [1, 0, 1], "exponents": [1, 1, 5]},
    {"p": 2, "r": 3, "modulus_poly": [1, 1, 0, 1], "exponents": [1, 3]},
)

# n = 1 spaces on both sides of the library's dense-table limit (1024).
# The exponent is drawn from the seed; these are placeholders.
SCALE_CONFIGS = (
    {"p": 257, "r": 1, "modulus_poly": None, "exponents": [1]},
    {"p": 1021, "r": 1, "modulus_poly": None, "exponents": [1]},
    {"p": 2, "r": 10, "modulus_poly": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1], "exponents": [1]},
    {"p": 1031, "r": 1, "modulus_poly": None, "exponents": [1]},
)

SUITES = (
    ("axioms", "axioms_suite"),
    ("vstheorem", "vstheorem_suite"),
    ("keylemma", "keylemma_suite"),
    ("span-oracle", "span_oracle_suite"),
    ("decomposition", "decomposition_suite"),
    ("quasi-kernel-oracle", "quasi_kernel_oracle_suite"),
)

CLI_COMMANDS = ("info", "qk", "decompose", "span", "dim", "hom")
HOM_MAX_SIZE = 343
SPAN_MAX_ORDER = 1024  # span_of refuses larger fields at the seed commit
SPANS_PER_FIELD = 3
EXPONENT_CANDIDATES = range(1, 8)


class Op:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is right, else a message.
    ``key`` names the same op across passes whose seeded inputs differ;
    it defaults to ``name``.
    """

    __slots__ = ("name", "run", "check", "key")

    def __init__(self, name, run, check, key=None):
        self.name = name
        self.run = run
        self.check = check
        self.key = key or name


# -- expectations from the config alone -----------------------------------


def order(config):
    return config["p"] ** config.get("r", 1)


def field_label(config):
    p, r = config["p"], config.get("r", 1)
    return f"GF({p})" if r == 1 else f"GF({p}^{r})"


def label(config):
    return field_label(config) + "(" + ",".join(map(str, config["exponents"])) + ")"


def exponent_classes(config):
    """Coordinate supports grouped by canonical twist min(q p^l mod |F*|),
    in order of first appearance."""
    p, r = config["p"], config.get("r", 1)
    m = p ** r - 1
    groups = {}
    for i, q in enumerate(config["exponents"]):
        key = 1 if m <= 1 else min(q * p ** l % m for l in range(r))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def quasi_kernel_size(config):
    q = order(config)
    return 1 + sum(q ** len(c) - 1 for c in exponent_classes(config))


def expected_dim(config, v):
    """Number of exponent classes that the support of v meets."""
    return sum(1 for c in exponent_classes(config) if any(v[i] for i in c))


def vector_json(config, v):
    p, r = config["p"], config.get("r", 1)
    if r == 1:
        return list(v)
    return [[x // p ** i % p for i in range(r)] for x in v]


def random_vector(config, rng, support=None):
    """A nonzero vector of element indices, zero off ``support``."""
    n = len(config["exponents"])
    coords = range(n) if support is None else support
    while True:
        v = [0] * n
        for i in coords:
            v[i] = rng.randrange(order(config))
        if any(v):
            return tuple(v)


def with_seeded_exponent(config, rng):
    """An n = 1 config with an exponent coprime to |F*| drawn from the seed."""
    m = order(config) - 1
    choices = [q for q in EXPONENT_CANDIDATES if _gcd(q, m) == 1]
    return dict(config, exponents=[rng.choice(choices)])


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- output checks ------------------------------------------------------------


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _first(*messages):
    return next((m for m in messages if m), None)


def check_suite(config, suite):
    classes = exponent_classes(config)

    def check(result):
        if result.get("pass") is not True:
            bad = [c["name"] for c in result.get("checks", []) if not c.get("pass")]
            return f"suite {suite} did not pass: {bad}"
        if suite == "vstheorem":
            return _mismatch("regularity verdict", result.get("verdict"), len(classes) == 1)
        if suite == "decomposition":
            return _mismatch("components", result["checks"][0].get("components"), len(classes))
        return None

    return check


def check_cli(config, command, vector=None):
    """Check the --json stdout of one CLI command against the config."""
    q = order(config)
    classes = exponent_classes(config)

    def check(outcome):
        rc, out = outcome
        if rc != 0:
            return f"exit code {rc}"
        data = json.loads(out)
        if command == "info":
            return _first(
                _mismatch("size", data["size"], q ** len(config["exponents"])),
                _mismatch("regular", data["regular"], len(classes) == 1),
                _mismatch("classes", [c["support"] for c in data["classes"]], classes),
            )
        if command == "qk":
            return _first(
                _mismatch("member_count", data["member_count"], quasi_kernel_size(config)),
                _mismatch(
                    "class supports",
                    [(c["support"], c["count"]) for c in data["class_supports"]],
                    [(c, q ** len(c)) for c in classes],
                ),
            )
        if command == "decompose":
            return _mismatch(
                "components",
                [(c["support"], c["member_count"]) for c in data["components"]],
                [(c, q ** len(c)) for c in classes],
            )
        if command == "span":
            d = expected_dim(config, vector)
            return _first(
                _mismatch("dim", data["dim"], d),
                _mismatch("member_count", data["member_count"], q ** d),
            )
        if command == "dim":
            d = expected_dim(config, vector)
            return _first(
                _mismatch("dim", data["dim"], d),
                _mismatch("witness length", len(data["witness"]), d),
            )
        if command == "hom":
            return _mismatch("pass", data["pass"], True)
        return f"unknown command {command}"

    return check


# -- workloads --------------------------------------------------------------


def verify_all_pass(nv, rng, configs, files):
    """One op per space, in a fixed order: build it from its config, make
    the calls of ``nearvec verify --suite all``, then check the near-field
    axioms of each component's induced near-field.  The seed picks the
    suites' seed and the base vectors."""
    ops = []
    for config in configs:
        suite_seed = rng.randrange(1 << 16)
        bases = [random_vector(config, rng, cls) for cls in exponent_classes(config)]

        def run(config=config, suite_seed=suite_seed, bases=bases):
            space = nv.space.TwistedSpace.from_config(config)
            suites = [getattr(nv.verify, fn)(space, seed=suite_seed) for _, fn in SUITES]
            fields = [
                nv.near_field.check_axioms(nv.structure.induced_nearfield(space, v))
                for v in bases
            ]
            return suites, fields

        def check(out, config=config):
            suites, fields = out
            return _first(
                *(check_suite(config, name)(r) for (name, _), r in zip(SUITES, suites)),
                *(None if rep.all_pass else f"near-field axioms failed: {rep.failed()}"
                  for rep in fields),
            )

        ops.append(Op(f"verify_all/{label(config)}", run, check))
    return ops


def prepare_cli_files(workdir, configs):
    """Write each config, and the identity hom map of each small space."""
    files = {}
    for k, config in enumerate(configs):
        path = os.path.join(workdir, f"space{k}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        entry = {"config": path, "map": None}
        n = len(config["exponents"])
        if order(config) ** n <= HOM_MAX_SIZE:
            vectors = itertools.product(range(order(config)), repeat=n)
            theta = [vector_json(config, v) for v in vectors]
            entry["map"] = os.path.join(workdir, f"space{k}_identity.json")
            with open(entry["map"], "w") as fh:
                json.dump({"theta": theta, "eta": list(range(1, order(config)))}, fh)
        files[label(config)] = entry
    return files


def run_cli(nv, argv):
    """nearvec's main(argv) in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = nv.cli.main(argv)
    return rc, out.getvalue()


def cli_queries_pass(nv, rng, configs, files):
    """Every (command, config) pair once, in seeded order, with seeded
    vectors; hom runs only where |V| <= HOM_MAX_SIZE."""
    ops = []
    for config in configs:
        entry = files[label(config)]
        path = entry["config"]
        for command in CLI_COMMANDS:
            vector = None
            if command in ("span", "dim"):
                vector = random_vector(config, rng)
                argv = [command, path, json.dumps(vector_json(config, vector)), "--json"]
            elif command == "hom":
                if entry["map"] is None:
                    continue
                argv = [command, path, path, entry["map"], "--json"]
            else:
                argv = [command, path, "--json"]
            ops.append(Op(
                f"cli_queries/{command}/{label(config)}",
                lambda argv=argv: run_cli(nv, argv),
                check_cli(config, command, vector),
            ))
    rng.shuffle(ops)
    return ops


def field_scale_pass(nv, rng, configs, files):
    """One op per field, in a fixed order: build the space, then take its
    closed-form quasi-kernel, its decomposition, and span_of on seeded
    vectors where the field is small enough."""
    ops = []
    for base in configs:
        config = with_seeded_exponent(base, rng)
        q = order(config)
        vectors = [random_vector(config, rng) for _ in range(SPANS_PER_FIELD)]
        if q > SPAN_MAX_ORDER:
            vectors = []

        def run(config=config, vectors=vectors):
            space = nv.space.TwistedSpace.from_config(config)
            qk = space.quasi_kernel()
            deco = nv.structure.decompose(space)
            return space, qk, deco, [nv.span.span_of(space, [v]) for v in vectors]

        def check(out, config=config, vectors=vectors, q=q):
            space, qk, deco, spans = out
            return _first(
                _mismatch("|V|", space.size, q),
                _mismatch("|Q|", len(qk.members), quasi_kernel_size(config)),
                _mismatch(
                    "components",
                    [(list(c.support), len(c.members)) for c in deco.components],
                    [(s, q ** len(s)) for s in exponent_classes(config)],
                ),
                *(_mismatch(f"|span({v})|", (sub.dim, len(sub.members)),
                            (expected_dim(config, v), q ** expected_dim(config, v)))
                  for v, sub in zip(vectors, spans)),
            )

        ops.append(Op(
            f"field_scale/{label(config)}", run, check, key=f"field_scale/{field_label(base)}"
        ))
    return ops


# name -> (op list of one pass, the configs it runs on)
WORKLOADS = {
    "verify_all": (verify_all_pass, VERIFY_CONFIGS),
    "cli_queries": (cli_queries_pass, CLI_CONFIGS),
    "field_scale": (field_scale_pass, SCALE_CONFIGS),
}
