"""End-to-end CLI tests: commands, exit codes and JSON output."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as hst

from conftest import CORPUS, get_space
from nearvec import cli, verify
from nearvec import structure as st
from nearvec.cli import main
from nearvec.errors import InvalidConfigError
from nearvec.report import dumps, jsonify
from nearvec.space import TwistedSpace, vector_to_json, vectors_to_json

WORKED_CONFIG = {"p": 11, "r": 1, "modulus_poly": None, "exponents": [3, 7, 3]}
FLAWED_CONFIG = {"p": 11, "r": 1, "modulus_poly": None, "exponents": [3, 5, 3]}
SMALL_CONFIG = {"p": 5, "r": 1, "modulus_poly": None, "exponents": [1, 3]}
GF49_CONFIG = {"p": 7, "r": 2, "modulus_poly": [1, 0, 1], "exponents": [1, 5]}


@pytest.fixture
def write_config(tmp_path):
    def _write(config, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(config))
        return str(path)

    return _write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info_reports_structure(write_config, capsys):
    code, report = run_json(capsys, ["info", write_config(WORKED_CONFIG), "--json"])
    assert code == 0
    assert report["regular"] is False
    assert report["component_count"] == 2
    assert report["size"] == 1331


def test_info_regular_space(write_config, capsys):
    cfg = {"p": 5, "r": 1, "modulus_poly": None, "exponents": [1, 1]}
    code, report = run_json(capsys, ["info", write_config(cfg), "--json"])
    assert code == 0
    assert report["regular"] is True and report["component_count"] == 1


@pytest.mark.parametrize("key", CORPUS, ids=str)
def test_info_regularity_matches_pairwise_oracle(write_config, capsys, key):
    space = get_space(*key)
    code, report = run_json(capsys, ["info", write_config(space.to_config()), "--json"])
    assert code == 0
    cert = st.is_regular(space)
    assert report["regular"] is cert.regular
    expected = None if cert.regular else [vector_to_json(space, v) for v in cert.witness]
    assert report.get("incompatible_pair") == expected


def test_flawed_config_exits_2_with_witness(write_config, capsys):
    code = main(["info", write_config(FLAWED_CONFIG)])
    assert code == 2
    err = capsys.readouterr().err
    detail = json.loads(err)
    assert detail["error"] == "NotCoprime"
    assert detail["gcd"] == 5
    assert detail["witness"] == {"alpha": 2, "beta": 8, "vector": [0, 1, 0]}


def test_qk_command(write_config, capsys):
    code, report = run_json(capsys, ["qk", write_config(WORKED_CONFIG), "--json"])
    assert code == 0
    assert report["member_count"] == 131
    assert [c["count"] for c in report["class_supports"]] == [121, 11]


def test_qk_counts_a_million_vectors_from_the_classes(write_config, capsys, monkeypatch):
    # past the member limit the report only counts, so Q(V) is never built
    def refuse(space):
        raise AssertionError("qk enumerated the quasi-kernel")

    monkeypatch.setattr(TwistedSpace, "quasi_kernel", refuse)
    cfg = {"p": 101, "r": 1, "modulus_poly": None, "exponents": [1, 1, 1]}
    code, report = run_json(capsys, ["qk", write_config(cfg), "--json"])
    assert code == 0
    assert report["member_count"] == 1030301
    assert [c["count"] for c in report["class_supports"]] == [1030301]
    assert "members" not in report


def test_decompose_command(write_config, capsys):
    code, report = run_json(capsys, ["decompose", write_config(WORKED_CONFIG), "--json"])
    assert code == 0
    counts = sorted(c["member_count"] for c in report["components"])
    assert counts == [11, 121]


def test_decompose_reads_a_million_vectors_off_the_class(write_config, capsys, monkeypatch):
    # the direct sum is certified from the classes, and one component of
    # 1030301 members is too large to list, so no vector is enumerated
    def refuse(space):
        raise AssertionError("decompose enumerated the quasi-kernel")

    monkeypatch.setattr(TwistedSpace, "quasi_kernel", refuse)
    cfg = {"p": 101, "r": 1, "modulus_poly": None, "exponents": [1, 1, 1]}
    code, report = run_json(capsys, ["decompose", write_config(cfg), "--json"])
    assert code == 0
    assert report["component_count"] == 1
    [component] = report["components"]
    assert component["member_count"] == 1030301
    assert "members" not in component


def test_span_command(write_config, capsys):
    code, report = run_json(
        capsys, ["span", write_config(WORKED_CONFIG), "[2,5,6]", "--json"]
    )
    assert code == 0
    assert report["dim"] == 2
    assert report["member_count"] == 121
    assert sorted(report["generators"]) == [[0, 5, 0], [2, 0, 6]]


def test_span_command_above_the_dense_table_limit(write_config, capsys):
    # GF(1031) is above TABLE_LIMIT; span reads field rows, no dense table
    config = {"p": 1031, "r": 1, "modulus_poly": None, "exponents": [7]}
    code, report = run_json(
        capsys, ["span", write_config(config), "[5]", "--json"]
    )
    assert code == 0
    assert report["dim"] == 1 and report["member_count"] == 1031


def test_dim_command(write_config, capsys):
    code, report = run_json(
        capsys, ["dim", write_config(WORKED_CONFIG), "[0,0,0]", "--json"]
    )
    assert code == 0 and report["dim"] == 0
    code, report = run_json(
        capsys, ["dim", write_config(WORKED_CONFIG), "[2,5,6]", "--json"]
    )
    assert code == 0 and report["dim"] == 2


def test_dim_is_closed_form_on_a_million_vectors(write_config, capsys):
    # GF(101)^3 holds 1,030,301 vectors; the sumset search over them took
    # over 10 s, the class count takes milliseconds
    config = {"p": 101, "r": 1, "modulus_poly": None, "exponents": [1, 3, 7]}
    start = time.perf_counter()
    code, report = run_json(
        capsys, ["dim", write_config(config), "[5,7,9]", "--json"]
    )
    elapsed = time.perf_counter() - start
    assert code == 0 and report["dim"] == 3
    assert report["witness"] == [[0, 0, 9], [0, 7, 0], [5, 0, 0]]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_decompose_is_closed_form_on_a_million_vectors(write_config, capsys):
    # splitting and re-adding all 1,030,301 vectors took 9.9 s; the
    # certificate reads the supports and the 301 quasi-kernel vectors
    config = {"p": 101, "r": 1, "modulus_poly": None, "exponents": [1, 3, 7]}
    start = time.perf_counter()
    code, report = run_json(capsys, ["decompose", write_config(config), "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0 and report["component_count"] == 3
    assert [(c["support"], c["member_count"]) for c in report["components"]] == [
        ([0], 101), ([1], 101), ([2], 101)]
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_verify_all_passes_on_small_space(write_config, capsys):
    code, report = run_json(
        capsys, ["verify", write_config(SMALL_CONFIG), "--json"]
    )
    assert code == 0
    assert report["pass"] is True
    names = {s["name"] for s in report["suites"]}
    assert names == {
        "axioms", "vstheorem", "keylemma", "span-oracle",
        "decomposition", "quasi-kernel-oracle",
    }


GOLDEN_VERIFY = Path(__file__).with_name("verify_worked_example_seed7.json")


def _without_elapsed(report):
    if isinstance(report, dict):
        return {k: _without_elapsed(v) for k, v in report.items() if k != "elapsed_s"}
    if isinstance(report, list):
        return [_without_elapsed(v) for v in report]
    return report


def test_verify_all_matches_golden_snapshot(write_config, capsys):
    # every witness, sample size and seed of the full suite on the worked
    # example, byte for byte; only the timings are left out
    code, report = run_json(
        capsys,
        ["verify", write_config(WORKED_CONFIG), "--suite", "all", "--json", "--seed", "7"],
    )
    assert code == 0
    text = json.dumps(_without_elapsed(report), indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN_VERIFY.read_text()


def test_verify_single_suite(write_config, capsys):
    code, report = run_json(
        capsys,
        ["verify", write_config(SMALL_CONFIG), "--suite", "vstheorem", "--json"],
    )
    assert code == 0
    assert [s["name"] for s in report["suites"]] == ["vstheorem"]


def test_verify_raw_fixture_pass(tmp_path, capsys):
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    endos = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"add_table": add, "endomorphisms": endos}))
    assert main(["verify", "--raw", str(path), "--json"]) == 0
    capsys.readouterr()


def test_verify_raw_fixture_corrupted(tmp_path, capsys):
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    add[1][2] = add[2][1] = 1
    endos = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"add_table": add, "endomorphisms": endos}))
    assert main(["verify", "--raw", str(path)]) == 1
    err = capsys.readouterr().err
    assert "1_additive_group" in err


def test_verify_raw_ragged_fixture_exits_2(tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"add_table": [[0, 1], [1]],
                                "endomorphisms": [[0, 0], [0, 1]]}))
    assert main(["verify", "--raw", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("add, endos, message", [
    ([[0, 1, 2], [1, 2, 0], [2, 0, 5]], [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
     "outside range(3)"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[0, 0, 0], [0, 1, 2], [0, 2, 7]],
     "outside range(3)"),
    ([1, 2], [], "lists of lists"),
    ([[0, 1], [1, 0]], 5, "lists of lists"),
], ids=["table_entry", "image", "flat_table", "scalar_endomorphisms"])
def test_verify_raw_malformed_fixture_exits_2(tmp_path, capsys, add, endos, message):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"add_table": add, "endomorphisms": endos}))
    assert main(["verify", "--raw", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fixture, message", [
    ([], "JSON object, not list"),
    ({"add_table": [[0]]}, "'endomorphisms'"),
    ({"endomorphisms": []}, "'add_table'"),
], ids=["list", "no_endomorphisms", "no_add_table"])
def test_verify_raw_fixture_shape_exits_2(tmp_path, capsys, fixture, message):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(fixture))
    assert main(["verify", "--raw", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_verify_without_config_or_raw_exits_2(capsys):
    assert main(["verify"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["info", "qk", "decompose"])
@pytest.mark.parametrize("flag", [["--seed", "3"], ["--max-size", "10"]], ids=str)
def test_seed_and_max_size_are_verify_flags(write_config, capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([command, write_config(WORKED_CONFIG), *flag])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_negative_max_size_exits_2_naming_the_flag(write_config, capsys):
    # -5 used to be reported as max_size -5 and sample every suite, as 0 does
    with pytest.raises(SystemExit) as info:
        main(["verify", write_config(SMALL_CONFIG), "--max-size", "-5"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-size" in captured.err and "-5" in captured.err


def test_run_suites_refuses_a_negative_max_size():
    with pytest.raises(InvalidConfigError, match="max_size"):
        verify.run_suites(get_space(5, 1, (1, 3)), ["all"], max_size=-1)


@pytest.mark.parametrize("seed", [None, "a", 1.5, True], ids=repr)
def test_run_suites_refuses_a_seed_that_is_no_integer(seed):
    # True and 1.5 would be echoed into the report, None and "a" would
    # fail at seed + 1
    with pytest.raises(InvalidConfigError, match="seed"):
        verify.run_suites(get_space(5, 1, (1, 3)), ["all"], seed=seed)


def test_run_suites_takes_a_negative_seed():
    assert verify.run_suites(get_space(5, 1, (1, 3)), ["all"], seed=-3)["seed"] == -3


def test_missing_file_exits_2(capsys):
    assert main(["info", "/nonexistent/config.json"]) == 2
    capsys.readouterr()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="F_SETPIPE_SZ is Linux-only")
@pytest.mark.parametrize("command, read", [("qk", 10), ("decompose", 10), ("info", 0)])
def test_closed_stdout_exits_141_quietly(write_config, command, read):
    """A reader that closes the pipe early is no input error.  qk and
    decompose on GF(11)^3 (1,1,1) write about 52 kB and 79 kB of JSON,
    which a one-page pipe holds back until the reader has read 10 bytes
    and gone; info's few
    hundred bytes wait in the output buffer until main flushes it."""
    import fcntl

    config = write_config({"p": 11, "r": 1, "modulus_poly": None, "exponents": [1, 1, 1]})
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "nearvec.cli", command, config, "--json"],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    assert len(os.read(read_end, read)) == read
    os.close(read_end)
    _, stderr = proc.communicate(timeout=60)
    assert stderr == b""
    assert proc.returncode == 141


@pytest.mark.parametrize("config, message", [
    ({"p": 11, "exponents": "13"}, "'exponents' must be a list of integers"),
    ({"p": "11", "exponents": [1]}, "'p' must be an integer"),
    ({"exponents": [1]}, "no 'p' key"),
], ids=["exponents_string", "p_string", "no_p"])
def test_malformed_config_exits_2_naming_the_key(write_config, capsys, config, message):
    assert main(["info", write_config(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config") and message in captured.err


def test_bad_vector_exits_2(write_config, capsys):
    assert main(["dim", write_config(WORKED_CONFIG), "[1,2]"]) == 2
    capsys.readouterr()
    gf9 = {"p": 3, "r": 2, "modulus_poly": [1, 0, 1], "exponents": [1, 5]}
    assert main(["dim", write_config(gf9, "gf9.json"), '[[1,"a"],[0,0]]']) == 2
    assert "coordinate 0" in capsys.readouterr().err


def test_hom_cube_map(tmp_path, capsys):
    cfg1 = tmp_path / "cube.json"
    cfg1.write_text(json.dumps({"p": 11, "r": 1, "modulus_poly": None,
                                "exponents": [3]}))
    cfg2 = tmp_path / "flat.json"
    cfg2.write_text(json.dumps({"p": 11, "r": 1, "modulus_poly": None,
                                "exponents": [1]}))
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "theta": [[v] for v in range(11)],
        "eta": [pow(a, 3, 11) for a in range(1, 11)],
    }))
    code, report = run_json(
        capsys, ["hom", str(cfg1), str(cfg2), str(hom), "--json"]
    )
    assert code == 0 and report["pass"] is True


def test_hom_square_map_fails_intertwining(tmp_path, capsys):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"p": 11, "r": 1, "modulus_poly": None,
                               "exponents": [1]}))
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "theta": [[v] for v in range(11)],
        "eta": [pow(a, 2, 11) for a in range(1, 11)],
    }))
    code, report = run_json(
        capsys, ["hom", str(cfg), str(cfg), str(hom), "--json"]
    )
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["eta_multiplicative"]["pass"] is True
    assert by_name["intertwining"]["pass"] is False


def test_identity_hom_on_any_space(tmp_path, capsys):
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps(WORKED_CONFIG))
    vectors = [
        [a, b, c] for a in range(11) for b in range(11) for c in range(11)
    ]
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "theta": vectors,
        "eta": list(range(1, 11)),
    }))
    code, report = run_json(
        capsys, ["hom", str(cfg), str(cfg), str(hom), "--json"]
    )
    assert code == 0 and report["pass"] is True


def test_json_reports_round_trip(write_config, capsys):
    for argv in (
        ["info", write_config(WORKED_CONFIG), "--json"],
        ["qk", write_config(WORKED_CONFIG, "b.json"), "--json"],
        ["span", write_config(WORKED_CONFIG, "c.json"), "[2,5,6]", "--json"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert code == 0
        assert json.loads(json.dumps(parsed)) == parsed


def test_plain_output_mode(write_config, capsys):
    assert main(["info", write_config(WORKED_CONFIG)]) == 0
    out = capsys.readouterr().out
    assert "regular: False" in out


def test_verify_output_is_deterministic(write_config, capsys):
    path = write_config(SMALL_CONFIG)
    runs = []
    for _ in range(2):
        code = main(["verify", path, "--json", "--seed", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        for suite in out["suites"]:
            suite.pop("elapsed_s")
        runs.append(out)
    assert runs[0] == runs[1]


# -- JSON output ------------------------------------------------------------

_json_scalars = hst.one_of(
    hst.integers(),
    hst.booleans(),
    hst.none(),
    hst.floats(allow_nan=True, allow_infinity=True),
    hst.text(),
    hst.text(hst.characters(min_codepoint=0x80)),
    hst.frozensets(hst.lists(hst.integers(-3, 3), max_size=3).map(tuple)),
)
# equal-length rows, which report.dumps writes one template per row
_int_rows = hst.integers(1, 3).flatmap(lambda k: hst.lists(
    hst.one_of(hst.lists(hst.integers(), min_size=k, max_size=k),
               hst.lists(hst.integers(), min_size=k, max_size=k).map(tuple)),
    min_size=1, max_size=5,
))


@hst.composite
def _aliased_rows(draw):
    """Rows of coefficient lists shared between cells, as
    ``vectors_to_json`` writes them for r > 1."""
    elements = draw(hst.lists(
        hst.one_of(hst.lists(hst.integers(0, 6), min_size=2, max_size=2),
                   hst.lists(hst.integers(0, 6), max_size=2).map(tuple)),
        min_size=1, max_size=3,
    ))
    k = draw(hst.integers(1, 3))
    picks = hst.lists(hst.sampled_from(elements), min_size=k, max_size=k)
    return draw(hst.lists(picks, min_size=1, max_size=5))


@hst.composite
def _near_miss_rows(draw):
    """Int rows with one flaw that must send them down the general walk
    or render as the stdlib does: a bool or a float in a row, one row of
    another length, an empty row, or a row mixing ints and lists."""
    rows = [list(row) for row in draw(_int_rows)]
    i = draw(hst.integers(0, len(rows) - 1))
    j = draw(hst.integers(0, len(rows[i]) - 1))
    flaw = draw(hst.sampled_from(["bool", "float", "length", "empty", "list"]))
    if flaw == "bool":
        rows[i][j] = draw(hst.booleans())
    elif flaw == "float":
        rows[i][j] = draw(hst.floats())
    elif flaw == "length":
        rows[i] = rows[i][1:] if draw(hst.booleans()) else rows[i] + [0]
    elif flaw == "empty":
        rows[i] = []
    else:
        rows[i][j] = draw(hst.lists(hst.integers(), max_size=2))
    return rows


_json_values = hst.recursive(
    hst.one_of(_json_scalars, _int_rows, _aliased_rows(), _near_miss_rows()),
    lambda children: hst.one_of(
        hst.lists(children, max_size=4),
        hst.lists(children, max_size=4).map(tuple),
        hst.dictionaries(
            hst.one_of(hst.text(max_size=3), hst.integers(-3, 3)), children, max_size=4
        ),
    ),
    max_leaves=25,
)


@seed(2718)
@settings(max_examples=400, deadline=None)
@given(_json_values)
@example({1: "a", "1": "b"})
@example([True, 1])
@example([[1, 2], (3, 4)])
@example([[1, True], [2, 3]])
@example([[[], []], [[], []]])
@example([[], []])
@example({"members": [[[1, 0], [2, 3]], [[1, 0], [1, 0]]]})
@example({"a": [[], {}, (), frozenset()], "b": [[[]]]})
def test_dumps_matches_the_stdlib_encoder(value):
    assert dumps(value) == json.dumps(jsonify(value), indent=2, sort_keys=True)


def test_dumps_keeps_the_later_of_two_equal_keys_and_bools_apart():
    # jsonify keeps one "1" key, the later value; True is no int
    assert dumps({1: "a", "1": "b"}) == '{\n  "1": "b"\n}'
    assert dumps([True, 1]) == "[\n  true,\n  1\n]"


@pytest.mark.parametrize("config", [GF49_CONFIG, WORKED_CONFIG], ids=["gf49", "worked"])
@pytest.mark.parametrize("command", ["qk", "decompose", "span"])
def test_json_stdout_is_the_stdlib_encoding(write_config, capsys, config, command):
    vector = [[3, 1], [2, 5]] if config["r"] == 2 else [2, 5, 6]
    extra = [json.dumps(vector)] if command == "span" else []
    assert main([command, write_config(config), *extra, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# sha256 of the whole stdout, so a listing that re-encodes to itself
# but differs in content or order still fails
@pytest.mark.parametrize("config, argv, digest, listed", [
    ({"p": 13, "r": 1, "modulus_poly": None, "exponents": [1, 5, 7]},
     ["span", "[3,4,5]"],
     "147c2c6a8623c879b9605b5ac25728a18bb1523e9dd9fbc9a5fe16933515d4db", 2197),
    (GF49_CONFIG, ["decompose"],
     "60183e42c9972e5c71e5a2cfb1470676ca7481c8532cc085953112047fb1106f", None),
    # the member limit at its edge: 4096 members listed, 4913 not
    ({"p": 2, "r": 6, "modulus_poly": [1, 1, 0, 0, 0, 0, 1], "exponents": [1, 1]},
     ["qk"], "2255dc11557dc8c29ec7b70b09fbdd2724880619c11c7c4e915cb676a693ff46", 4096),
    ({"p": 17, "r": 1, "modulus_poly": None, "exponents": [1, 1, 1]},
     ["qk"], "96a66d151adf03b0505103f44052f10c212ab8af7df72aebd5843e034111dc9e", 0),
], ids=["span-gf13", "decompose-gf49", "qk-gf64-listed", "qk-gf17-unlisted"])
def test_json_stdout_is_pinned(write_config, capsys, config, argv, digest, listed):
    command, *extra = argv
    assert main([command, write_config(config), *extra, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    if listed is not None:
        assert len(json.loads(out).get("members", [])) == listed
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once_and_reused(write_config, capsys):
    config = write_config(GF49_CONFIG)
    outputs = []
    for argv in (["span", config, "[[3,1],[2,5]]", "--json"], ["info", config, "--json"],
                 ["span", config, "[[3,1],[2,5]]", "--json"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    assert json.loads(outputs[0])["member_count"] == 2401
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("key", [k for k in CORPUS if k[1] > 1], ids=str)
def test_vectors_to_json_matches_vector_to_json(key):
    space = get_space(*key)
    members = space.quasi_kernel().sorted_members()
    assert vectors_to_json(space, members) == [vector_to_json(space, v) for v in members]
