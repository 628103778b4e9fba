"""Named verification suites over a space, shared by the CLI and tests.

Each suite returns a dict with a ``pass`` flag and a list of checks,
every check carrying a witness on failure.  Whenever an exhaustive sweep
would outgrow its bound the suite falls back to a seeded sample and
records the seed, so failures stay reproducible.
"""

import random
import time

from . import span as span_mod
from . import structure
from .errors import InvalidConfigError
from .report import jsonify
from .space import TwistedSpace, check_axioms, quasi_kernel_bruteforce

KEY_LEMMA_EXHAUSTIVE_LIMIT = 500
KEY_LEMMA_SAMPLE = 10_000
SPAN_SWEEP_LIMIT = 2000
SPAN_SAMPLE = 200
MAXIMALITY_SWEEP_LIMIT = 1 << 14

SUITE_NAMES = ("axioms", "vstheorem", "keylemma", "span-oracle", "decomposition")


def _check(name, passed, witness=None, **extra):
    entry = {"name": name, "pass": bool(passed)}
    if witness is not None:
        entry["witness"] = jsonify(witness)
    entry.update(extra)
    return entry


def _vector_at(space, i):
    """The vector at position i of ``space.iter_vectors()``.
    ``Random.sample`` reads its population only through ``len`` and
    indexing, so sampling positions picks what sampling the list would."""
    order = space.field.order
    return tuple(i // order ** k % order for k in reversed(range(space.n)))


def axioms_suite(space, seed=0, max_size=None):
    report = check_axioms(space)
    checks = [
        _check(name, ok, cx)
        for name, (ok, cx) in report.entries.items()
    ]
    return {"name": "axioms", "pass": report.all_pass, "checks": checks}


def vstheorem_suite(space, seed=0, max_size=None):
    report = structure.regularity_equivalences(space)
    checks = [
        _check(f"condition_{label}", True, None, value=value)
        for label, value in sorted(report.conditions.items())
    ]
    checks.append(
        _check(
            "all_conditions_agree",
            report.consistent,
            None if report.consistent else report.to_json(),
        )
    )
    return {
        "name": "vstheorem",
        "pass": report.consistent,
        "verdict": report.verdict,
        "checks": checks,
    }


def _slot_pair_hit(coords_v, coords_w, basis_class):
    for i0, t in enumerate(coords_v):
        if t == 0:
            continue
        for j0, tp in enumerate(coords_w):
            if tp and i0 != j0 and basis_class[i0] == basis_class[j0]:
                return True
    return False


def keylemma_suite(space, seed=0, max_size=None):
    """Whenever two quasi-kernel vectors share an induced addition at two
    different basis slots, all their slot additions and their own
    additions must coincide; exhaustive below the pair bound, seeded
    sample above it.  One ``CoordinateMap`` solves every vector of Q(V)*."""
    qk = space.quasi_kernel()
    qstar = qk.sorted_nonzero()
    basis = span_mod.extract_basis(space)
    basis_class = [space.class_of(b) for b in basis]
    to_coords = span_mod.CoordinateMap(space, basis).to_coords
    coords = {v: to_coords(v) for v in qstar}

    # two distinct slots in one class require a class of dimension >= 2
    can_hit = any(len(c.support) >= 2 for c in space.classes)
    limit = KEY_LEMMA_EXHAUSTIVE_LIMIT if max_size is None else min(
        KEY_LEMMA_EXHAUSTIVE_LIMIT, max_size
    )
    exhaustive = len(qk.members) <= limit
    if not can_hit:
        pairs = []
        mode = {"mode": "exhaustive", "pairs": 0}
    elif exhaustive:
        pairs = [
            (v, qstar[j])
            for i, v in enumerate(qstar)
            for j in range(i, len(qstar))
            if _slot_pair_hit(coords[v], coords[qstar[j]], basis_class)
        ]
        mode = {"mode": "exhaustive", "pairs": len(pairs)}
    else:
        rng = random.Random(seed)
        pairs = []
        attempts = 0
        while len(pairs) < KEY_LEMMA_SAMPLE and attempts < KEY_LEMMA_SAMPLE * 20:
            attempts += 1
            v = rng.choice(qstar)
            w = rng.choice(qstar)
            if _slot_pair_hit(coords[v], coords[w], basis_class):
                pairs.append((v, w))
        mode = {"mode": "sampled", "pairs": len(pairs), "seed": seed}

    # the premise was detected through matching slot classes; the
    # conclusion is each vector's slot additions agreeing with its own
    # interned definitional table, read once per vector, and v and w
    # having one table
    shared = {
        v: structure._slot_shared_table(space, basis, v, coords[v])
        for v in {u for pair in pairs for u in pair}
    }
    checks = []
    ok_all = True
    for v, w in pairs:
        if shared[v] is None or shared[v] is not shared[w]:
            ok_all = False
            checks.append(_check("shared_addition", False, (v, w)))
            break
    checks.append(_check("all_hypothesis_pairs_share_addition", ok_all, None, **mode))
    return {"name": "keylemma", "pass": ok_all, "checks": checks}


def span_oracle_suite(space, seed=0, max_size=None):
    """span = closure oracle for swept vectors, plus the closed-form
    dimension agreeing with the search oracle on value and witness.

    v and each nonzero multiple of v share their multiple set, the
    closure oracle's input, so one closure serves a whole scalar orbit.
    The first vector of each orbit in sweep order has its span's members
    checked against that closure; each later one has its span's echelon
    form checked against the first's.  The form is canonical and fixes
    the members, so a wrong span fails at the same vector either way.
    """
    limit = SPAN_SWEEP_LIMIT if max_size is None else min(SPAN_SWEEP_LIMIT, max_size)
    if space.size <= limit:
        sweep = space.iter_vectors()
        mode = {"mode": "exhaustive", "vectors": space.size}
    else:
        # members and closures are built once per scalar orbit met, each
        # about |span| <= |V| sums.  The formula below is no cost model:
        # it stays because it fixes the sample that verify reports.
        per_vector = 3 * space.size * space.field.order
        sample = max(10, min(SPAN_SAMPLE, 30_000_000 // per_vector))
        rng = random.Random(seed)
        positions = rng.sample(range(space.size), min(sample, space.size))
        sweep = [_vector_at(space, i) for i in positions]
        mode = {"mode": "sampled", "vectors": len(sweep), "seed": seed}

    dim_search = span_mod.dim_searcher(space)
    ok_all = True
    witness = None
    orbit_forms = {}  # multiple set -> the echelon form checked for it
    for v in sweep:
        sub = span_mod.span_of(space, [v])
        orbit = frozenset(space.multiples(v))
        form = orbit_forms.get(orbit)
        if form is None:
            same = sub.members == span_mod.subspace_closure_oracle(space, [v])
            orbit_forms[orbit] = sub.echelon
        else:
            same = sub.echelon == form
        if not same:
            ok_all, witness = False, ("span_vs_closure", v)
            break
        closed = span_mod.dim_of_vector(space, v)
        search = dim_search(v)
        if (closed.value, closed.witness) != (search.value, search.witness):
            ok_all, witness = False, ("dim_closed_form_vs_search", v)
            break
    checks = [_check("span_triple_agreement", ok_all, witness, **mode)]

    pair_ok = True
    pair_witness = None
    rng = random.Random(seed + 1)
    candidates = range(1, space.size)  # the nonzero vectors
    pair_rounds = max(3, min(20, 10_000_000 // max(2 * space.size * space.field.order, 1)))
    for _ in range(min(pair_rounds, len(candidates))):
        gens = [_vector_at(space, i) for i in rng.sample(candidates, min(2, len(candidates)))]
        if span_mod.span_of(space, gens).members != span_mod.subspace_closure_oracle(
            space, gens
        ):
            pair_ok, pair_witness = False, tuple(gens)
            break
    checks.append(
        _check("generator_set_span_vs_closure", pair_ok, pair_witness, seed=seed + 1)
    )
    return {"name": "span-oracle", "pass": ok_all and pair_ok, "checks": checks}


def decomposition_suite(space, seed=0, max_size=None):
    """The closed-form decomposition against its oracles: every vector
    splits and reassembles (the per-vector loop that ``decompose``
    certifies in closed form); the space with its coordinates reversed
    decomposes into the same supports once i -> n-1-i maps them back;
    the nonzero members partition Q(V)*, each in the component of its
    class; and no outsider keeps a component's addition, swept up to the
    bound and sampled above it."""
    checks = []
    deco = structure.decompose(space)
    unsplit = structure.split_oracle_failure(space, deco)
    checks.append(_check("direct_sum_split", unsplit is None, unsplit,
                         components=len(deco.components)))

    forward = {frozenset(c.support) for c in deco.components}
    mirrored = structure.decompose(TwistedSpace(space.field, space.exponents[::-1]))
    last = space.n - 1
    backward = {frozenset(last - i for i in c.support) for c in mirrored.components}
    differing = sorted(sorted(sup) for sup in forward ^ backward)
    checks.append(_check("unique_under_reversed_enumeration", not differing,
                         differing or None))

    breach = _class_placement_breach(space, deco)
    checks.append(_check("quasi_kernel_partition", breach is None, breach))

    limit = MAXIMALITY_SWEEP_LIMIT if max_size is None else min(
        MAXIMALITY_SWEEP_LIMIT, max_size
    )
    max_ok = True
    max_witness = None
    rng = random.Random(seed)
    for comp in deco.components:
        # the vectors ``maximality_witness`` takes as outside: nonzero and
        # not of the component's class, all but its |F|^|c| members
        outsiders = (
            v for v in space.iter_vectors()
            if v != space.zero and space._class_of(v) != comp.class_id
        )
        count = space.size - space.field.order ** len(comp.support)
        if space.size > limit and count > SPAN_SAMPLE:
            # picked up in one pass, checked in the order drawn
            at = dict.fromkeys(rng.sample(range(count), SPAN_SAMPLE))
            for i, v in enumerate(outsiders):
                if i in at:
                    at[i] = v
            outsiders = at.values()
        for m in outsiders:
            if structure.maximality_witness(space, comp, m) is None:
                max_ok, max_witness = False, (comp.class_id, m)
                break
        if not max_ok:
            break
    checks.append(_check("component_maximality", max_ok, max_witness))

    ok = all(c["pass"] for c in checks)
    return {"name": "decomposition", "pass": ok, "checks": checks}


def _class_placement_breach(space, deco):
    """The least vector placed against the exponent classes, or None:
    a nonzero member outside Q(V), or a vector of Q(V)* not held by
    exactly one component, the one of the class ``space.class_of``
    gives it.  This reads the coordinate-to-class map and the members
    as each component holds them, one membership test per component and
    vector, with no map of the members built."""
    breaches = [m for comp in deco.components for m in comp.members
                if m != space.zero and space._class_of(m) is None]
    breaches += [v for v in space.quasi_kernel().members if v != space.zero and
                 [c.class_id for c in deco.components if v in c.members]
                 != [space._class_of(v)]]
    return min(breaches, default=None)


def quasi_kernel_oracle_suite(space, seed=0, max_size=None):
    """Brute-force Q(V) against the closed form; part of `verify all`."""
    brute = quasi_kernel_bruteforce(space)
    closed = space.quasi_kernel()
    same = brute.members == closed.members
    witness = None
    if not same:
        witness = sorted(brute.members ^ closed.members)[:5]
    return {
        "name": "quasi-kernel-oracle",
        "pass": same,
        "checks": [_check("bruteforce_equals_closed_form", same, witness)],
    }


_SUITES = {
    "axioms": axioms_suite,
    "vstheorem": vstheorem_suite,
    "keylemma": keylemma_suite,
    "span-oracle": span_oracle_suite,
    "decomposition": decomposition_suite,
}


def run_suites(space, names, seed=0, max_size=None):
    """Run the selected suites; "all" adds the quasi-kernel oracle."""
    if max_size is not None and (type(max_size) is not int or max_size < 0):
        raise InvalidConfigError(f"max_size must be a non-negative integer, got {max_size!r}")
    if type(seed) is not int:  # bool too: it would be echoed as true
        raise InvalidConfigError(f"seed must be an integer, got {seed!r}")
    # a bare string would be read letter by letter
    if not isinstance(names, (list, tuple)):
        raise InvalidConfigError(f"suite names must be a list or tuple, got {names!r}")
    unknown = [n for n in names if n != "all" and n not in SUITE_NAMES]
    if unknown:
        raise InvalidConfigError(f"unknown suite(s): {', '.join(map(str, unknown))}")
    if not names:
        raise InvalidConfigError("no suite selected")
    # "all" already holds every named suite
    if len(set(names)) != len(names) or ("all" in names and len(names) > 1):
        raise InvalidConfigError(f"suite(s) selected more than once: {list(names)}")
    if "all" in names:
        selected = list(SUITE_NAMES) + ["quasi-kernel-oracle"]
    else:
        selected = list(names)
    suites = []
    for name in selected:
        fn = _SUITES.get(name, quasi_kernel_oracle_suite)
        start = time.perf_counter()
        result = fn(space, seed=seed, max_size=max_size)
        result["elapsed_s"] = round(time.perf_counter() - start, 4)
        suites.append(result)
    return {
        "config": space.to_config(),
        "seed": seed,
        "max_size": max_size,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }
