"""The generator-based hom route against the all-pairs oracle, and map
validation."""

import json
import random
import re

import pytest

from conftest import get_space
from nearvec import hom
from nearvec.cli import main
from nearvec.errors import InvalidMapError, NearVecError
from nearvec.finite_field import TABLE_LIMIT
from nearvec.space import additive_closure

# (p, r, exponents), |V| <= 125 so the all-pairs oracle stays cheap
SPACES = [
    (5, 1, (1, 3)),
    (7, 1, (1, 5)),
    (11, 1, (3,)),
    (2, 2, (1, 2)),
    (2, 3, (1, 3)),
    (3, 2, (1, 5)),
    (5, 2, (7,)),
]
CORRUPTIONS_PER_MAP = 5  # of theta and of eta, for each of 14 maps: 70 each


def identity_map(space):
    return {v: v for v in space.vectors()}, {a: a for a in space.field.units()}


def frobenius_map(space):
    """x -> x^p on every coordinate and on the scalars: an endomorphism,
    because (a^q v)^p = (a^p)^q v^p and Frobenius is additive."""
    frob = space.field.frobenius
    theta = {v: tuple(map(frob, v)) for v in space.vectors()}
    return theta, {a: frob(a) for a in space.field.units()}


MAPS = {"identity": identity_map, "frobenius": frobenius_map}


def _space_id(entry):
    p, r, exps = entry
    return f"GF({p}^{r}){exps}"


@pytest.mark.parametrize("entry", SPACES, ids=_space_id)
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_fast_route_agrees_with_oracle_on_endomorphisms(entry, kind):
    space = get_space(*entry)
    theta, eta = MAPS[kind](space)
    report = hom.hom_check(space, space, theta, eta)
    assert report["pass"] is True
    assert report == hom.hom_check_oracle(space, space, theta, eta)
    # each generator check passes alone, with no rescan behind it
    assert hom.is_additive(space, space, theta)
    assert hom.is_multiplicative(space, space, eta)
    assert hom.intertwines_primitive(space, space, theta, eta)


@pytest.mark.parametrize("entry", SPACES, ids=_space_id)
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_fast_route_agrees_with_oracle_on_corruptions(entry, kind):
    space = get_space(*entry)
    rng = random.Random(f"{entry}/{kind}")
    theta, eta = MAPS[kind](space)
    vectors = space.vectors()
    units = list(space.field.units())
    failures = 0
    for _ in range(CORRUPTIONS_PER_MAP):
        x = rng.choice(vectors)
        bad = dict(theta)
        bad[x] = rng.choice([w for w in vectors if w != theta[x]])
        report = hom.hom_check(space, space, bad, eta)
        assert report == hom.hom_check_oracle(space, space, bad, eta), x
        failures += not report["pass"]
        if len(units) > 1:
            a = rng.choice(units)
            bad_eta = dict(eta)
            bad_eta[a] = rng.choice([b for b in units if b != eta[a]])
            report = hom.hom_check(space, space, theta, bad_eta)
            assert report == hom.hom_check_oracle(space, space, theta, bad_eta), a
            failures += not report["pass"]
    # a single changed entry breaks an endomorphism
    assert failures == CORRUPTIONS_PER_MAP * (2 if len(units) > 1 else 1)


def test_corrupted_zero_image_is_caught():
    space = get_space(7, 1, (1, 5))
    theta, eta = identity_map(space)
    theta[space.zero] = (1, 0)
    report = hom.hom_check(space, space, theta, eta)
    assert report == hom.hom_check_oracle(space, space, theta, eta)
    assert report["checks"][0]["pass"] is False


def test_eta_failing_only_at_the_full_period_is_caught():
    """eta(2^k) = 2^k from GF(5)* to GF(11)* holds for k < 4, but 2 has
    order 10 in GF(11)*, so eta(2^4) = eta(1) = 1 != 2^4 = 5."""
    source = get_space(5, 1, (1,))
    target = get_space(11, 1, (1,))
    theta = {v: target.zero for v in source.vectors()}
    eta = {1: 1, 2: 2, 4: 4, 3: 8}
    assert source.field.generator() == 2
    assert not hom.is_multiplicative(source, target, eta)
    report = hom.hom_check(source, target, theta, eta)
    assert report == hom.hom_check_oracle(source, target, theta, eta)
    assert [c["pass"] for c in report["checks"]] == [True, False, True]


def test_every_fp_basis_generator_is_checked():
    """theta(a, b) = (a, b^2) is additive along (1, 0), the first F_p
    basis vector, and along no other."""
    space = get_space(5, 1, (1, 3))
    _, eta = identity_map(space)
    theta = {(a, b): (a, b * b % 5) for a, b in space.vectors()}
    assert not hom.is_additive(space, space, theta)
    report = hom.hom_check(space, space, theta, eta)
    assert report == hom.hom_check_oracle(space, space, theta, eta)
    assert report["checks"][0]["pass"] is False


def test_generator_checks_above_the_table_limit():
    """GF(1031) has no cached rows, so each column reads a row built
    afresh; the identity passes, and one corrupted image fails the two
    conditions theta takes part in."""
    space = get_space(1031, 1, (1,))
    assert space.field.order > TABLE_LIMIT
    theta, eta = identity_map(space)
    assert hom.hom_check(space, space, theta, eta)["pass"] is True
    theta[(5,)] = (6,)
    report = hom.hom_check(space, space, theta, eta)
    assert [c["pass"] for c in report["checks"]] == [False, True, False]
    assert report["checks"][0]["witness"] == [[1], [4]]


def test_fp_basis_spans_the_additive_group():
    space = get_space(3, 2, (1, 5))
    basis = hom.fp_basis(space)
    assert len(basis) == space.field.r * space.n
    assert set(additive_closure(space, basis)) == set(space.vectors())


# -- map validation -------------------------------------------------------------


@pytest.mark.parametrize("corrupt, message", [
    # a list image never equals a tuple, so the identity used to fail
    (lambda theta, eta: theta.update({(1,): [1]}), "'theta' image of (1,): [1] is not"),
    (lambda theta, eta: theta.update({(1,): 1}), "'theta' image of (1,): 1 is not"),
    (lambda theta, eta: theta.update({(1,): (1.0,)}), "coordinate 0 of (1.0,)"),
    (lambda theta, eta: theta.update({(1,): (3,)}), "coordinate 0 of (3,)"),
    (lambda theta, eta: eta.update({1: True}), "'eta' image of 1 is True"),
    (lambda theta, eta: eta.update({2: 2.0}), "'eta' image of 2 is 2.0"),
], ids=["theta_list", "theta_int", "theta_float", "theta_range", "eta_bool",
        "eta_float"])
def test_tables_passed_directly_are_validated(corrupt, message):
    space = get_space(3, 1, (1,))
    theta, eta = identity_map(space)
    corrupt(theta, eta)
    with pytest.raises(InvalidMapError, match=re.escape(message)):
        hom.hom_check(space, space, theta, eta)


CONFIG = {"p": 5, "r": 1, "modulus_poly": None, "exponents": [1, 3]}
IDENTITY = {
    "theta": [[a, b] for a in range(5) for b in range(5)],
    "eta": [1, 2, 3, 4],
}


@pytest.mark.parametrize("data, message", [
    ([], "must be a JSON object"),
    ({"eta": IDENTITY["eta"]}, "no 'theta' entry"),
    ({"theta": IDENTITY["theta"]}, "no 'eta' entry"),
    ({"theta": 7, "eta": IDENTITY["eta"]}, "'theta' must be a list"),
    ({"theta": IDENTITY["theta"][:-1], "eta": IDENTITY["eta"]}, "'theta' has 24 items"),
    ({"theta": IDENTITY["theta"], "eta": [1, 2, 3]}, "'eta' has 3 items"),
    ({"theta": IDENTITY["theta"], "eta": [1, 2, 3, 4.0]}, "not an integer"),
    ({"theta": IDENTITY["theta"], "eta": [1, 2, 3, "4"]}, "not an integer"),
    ({"theta": IDENTITY["theta"], "eta": [1, 2, 3, 5]}, "not a target unit"),
    ({"theta": IDENTITY["theta"], "eta": [0, 2, 3, 4]}, "not a target unit"),
    ({"theta": IDENTITY["theta"], "eta": [1, 2, 3, [4, 0]]}, "'eta' image of 4"),
    ({"theta": [[9, 9]] + IDENTITY["theta"][1:], "eta": IDENTITY["eta"]},
     "'theta' image of (0, 0)"),
    ({"theta": [7] + IDENTITY["theta"][1:], "eta": IDENTITY["eta"]},
     "'theta' image of (0, 0)"),
], ids=["list", "no_theta", "no_eta", "theta_not_list", "theta_short",
        "eta_short", "eta_float", "eta_string", "eta_too_big", "eta_zero",
        "eta_bad_coeffs", "theta_out_of_range", "theta_not_vector"])
def test_malformed_map_is_rejected(tmp_path, capsys, data, message):
    space = get_space(5, 1, (1, 3))
    with pytest.raises(InvalidMapError, match=re.escape(message)) as info:
        theta, eta = hom.parse_map(space, space, data)
        hom.hom_check(space, space, theta, eta)
    assert isinstance(info.value, NearVecError)
    assert isinstance(info.value, ValueError)

    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps(CONFIG))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    assert main(["hom", str(cfg), str(cfg), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_cli_checks_each_image_once(tmp_path, capsys, monkeypatch):
    """``nearvec hom`` decodes the images in ``parse_map`` and checks
    each against the target space once, in ``hom_check``."""
    space = get_space(5, 1, (1, 3))
    checked = []
    check_vector = type(space).check_vector

    def counted(self, v):
        checked.append(v)
        return check_vector(self, v)

    monkeypatch.setattr(type(space), "check_vector", counted)
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps(CONFIG))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(IDENTITY))
    assert main(["hom", str(cfg), str(cfg), str(path)]) == 0
    assert sorted(checked) == space.vectors()
    capsys.readouterr()
