import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largequot.cli import main
from largequot.quotients import FiniteQuotient
from largequot.series import unit_image_quotient, unit_image_spec
from largequot.verbal import build_series


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_doc(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_certify_large_small_exponent(capsys):
    code, doc = run_doc(capsys, ["certify-large", "-r", "2", "-g", "a", "-q", "2"])
    assert code == 0
    assert doc["command"] == "certify-large"
    assert doc["verdict"] == "certified-large"
    assert doc["counts"] == {"j": 4, "gens": 5, "rels": 2, "deficiency": 3}
    assert doc["config"]["caps"]["coset"] == 10**4


def test_certify_large_is_byte_identical(capsys):
    argv = ["certify-large", "-g", "a", "-q", "4"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_certify_large_honest_negative(capsys):
    code, doc = run_doc(capsys, ["certify-large", "-g", "a,b", "-q", "2"])
    assert code == 2
    assert doc["verdict"] == "not-certified"
    assert "below the avoidance bound" in doc["error"]


def test_certify_large_with_witness_file(capsys, tmp_path):
    spec = tmp_path / "witness.json"
    spec.write_text(json.dumps(unit_image_quotient(3, 2, 2).serialize()))
    code, doc = run_doc(
        capsys,
        ["certify-large", "-g", "a", "-q", "3", "--witness", str(spec)],
    )
    assert code == 0
    assert doc["counts"]["j"] == 9


def test_certify_large_witness_file_keeps_its_serialization(capsys, tmp_path):
    # counted from its spec, the witness still reads back as the quotient
    # the spec builds: canonical images, and the params as given
    spec = unit_image_spec(3, 2, 2)
    spec["params"]["note"] = "kept"
    spec["gen_images"] = ["x1 + 1", "x2+1"]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(spec))
    code, doc = run_doc(
        capsys, ["certify-large", "-g", "a", "-q", "3", "--witness", str(path)])
    assert code == 0
    assert doc["witness"] == FiniteQuotient.from_spec(spec).serialize()
    assert doc["witness"]["params"]["note"] == "kept"


def test_certify_large_witness_past_the_cap_is_an_error(capsys, tmp_path):
    # j = 2^e for (2, 2, 20) passes 10^6: the error of the witness's own
    # enumeration, with no verdict, as when the witness was built first
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(unit_image_spec(2, 2, 20)))
    code, doc = run_doc(
        capsys, ["certify-large", "-g", "a,b", "-q", "4", "--witness", str(path)])
    assert code == 2
    assert "verdict" not in doc
    assert doc["error"] == "quotient enumeration: reached 1000001 with cap 1000000"


def test_certify_large_refuses_a_huge_witness_file_at_once(tmp_path, package_env):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(unit_image_spec(2, 2, 10**6)))
    result = subprocess.run(
        [sys.executable, "-m", "largequot", "certify-large", "-g", "a,b",
         "-q", "4", "--witness", str(path)],
        env=package_env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    doc = json.loads(result.stdout)
    assert "verdict" not in doc
    assert doc["error"] == "quotient enumeration: reached 1000001 with cap 1000000"


# runs one command line in process and reports its exit code and whether
# sympy was imported on the way
NO_SYMPY = """
import contextlib, io, json, sys
from largequot.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, "sympy" in sys.modules]))
"""


@pytest.mark.parametrize("argv", [
    ["certify-large", "-r", "2", "-g", "a", "-q", "2"],
    ["lemma-fi", "-g", "a,bab", "-m", "2"],
    ["magnus", "-w", "ABab", "-p", "2", "-l", "3"],
    ["gamma", "--primes", "2,3", "--rank", "2", "--depth", "2", "--order", "a"],
    ["levi", "--set", "aa,ab", "--primes", "2,3"],
    ["construct-periodic", "--primes", "2,3,5,7", "--steps", "1"],
    ["verify", "cert.json"],
], ids=lambda argv: argv[0])
def test_the_readme_command_lines_never_import_sympy(capsys, tmp_path,
                                                     package_env, argv):
    run(capsys, ["certify-large", "-g", "a", "-q", "4",
                 "-o", str(tmp_path / "cert.json")])
    result = subprocess.run(
        [sys.executable, "-c", NO_SYMPY, *argv], cwd=tmp_path,
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    assert json.loads(result.stdout) == [0, False], result.stderr


@pytest.fixture
def verbal_certificate(capsys, tmp_path):
    """A certificate over the verbal witness F/gamma_2 over (2,3,5)."""
    level = build_series((2, 3, 5), 2, 3)[2]
    spec = tmp_path / "witness.json"
    spec.write_text(json.dumps(level.parent_quotient.serialize()))
    cert = tmp_path / "cert.json"
    code, _ = run(capsys, ["certify-large", "-g", "a", "-q", "6",
                           "--witness", str(spec), "-o", str(cert)])
    assert code == 0
    return spec, cert


def test_verbal_witness_round_trip(capsys, verbal_certificate):
    _, cert = verbal_certificate
    doc = json.loads(cert.read_text())
    assert doc["verdict"] == "certified-large"
    assert (doc["counts"]["j"], doc["counts"]["gens"], doc["counts"]["rels"]) == (
        972, 973, 162)
    code, report = run_doc(capsys, ["verify", str(cert)])
    assert code == 0
    assert report["ok"] is True


def _set_witness_params(path, **params):
    doc = json.loads(path.read_text())
    witness = doc.get("witness", doc)
    witness["params"].update(params)
    path.write_text(json.dumps(doc))


def test_verify_reports_a_verbal_witness_of_depth_zero(capsys, verbal_certificate):
    _, cert = verbal_certificate
    _set_witness_params(cert, depth=0)
    code, doc = run_doc(capsys, ["verify", str(cert)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("malformed certificate: ValueError(")


def test_certify_large_rejects_a_verbal_witness_of_depth_zero(
        capsys, verbal_certificate):
    spec, _ = verbal_certificate
    _set_witness_params(spec, depth=0)
    with pytest.raises(SystemExit) as err:
        main(["certify-large", "-g", "a", "-q", "6", "--witness", str(spec)])
    assert err.value.code == 1
    assert "verbal depth must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("content, error", [
    (None, "cannot read witness: [Errno 2] No such file or directory"),
    ("{not json", "witness is not valid JSON: Expecting property name"),
    ("{}", "witness must be a JSON object with kind, params and gen_images"),
    ("[1]", "witness must be a JSON object with kind, params and gen_images"),
    ('{"kind": "modvec", "params": {}, "gen_images": [[1]]}',
     "malformed witness: KeyError('modulus')"),
], ids=["missing", "not-json", "empty-object", "list", "no-modulus"])
def test_certify_large_bad_witness_file_is_a_usage_error(
        capsys, tmp_path, content, error):
    path = tmp_path / "witness.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as err:
        main(["certify-large", "-g", "a", "-q", "3", "--witness", str(path)])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"largequot: error: {error}" in captured.err


def test_verify_reports_a_verbal_witness_without_tables(capsys, verbal_certificate):
    _, cert = verbal_certificate
    _set_witness_params(cert, primes=[2, 3, 5, 7], depth=4)
    code, doc = run_doc(capsys, ["verify", str(cert)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith(
        "malformed certificate: NotMaterializedError('level 4 has no coset data")



_DEPTH = "verbal depth must be a positive integer, got "
_RANK = "verbal rank must be a positive integer, got "
_PRIMES = "verbal primes must be a list of integers, got "


@pytest.mark.parametrize("params, error", [
    ({"depth": True}, _DEPTH + "True"),
    ({"rank": "2"}, _RANK + "'2'"),
    ({"rank": 2.0}, _RANK + "2.0"),
    ({"rank": None}, _RANK + "None"),
    ({"rank": True}, _RANK + "True"),
    ({"rank": 0}, _RANK + "0"),
    ({"primes": "235"}, _PRIMES + "'235'"),
    ({"primes": [2.0, 3, 5]}, _PRIMES + "[2.0, 3, 5]"),
    ({"primes": ["2", "3", "5"]}, _PRIMES + "['2', '3', '5']"),
    ({"primes": [True, 3]}, _PRIMES + "[True, 3]"),
    ({"rank": 3}, "a verbal quotient over rank 3 needs 3 generator images, got 2"),
    ({"depth": 0}, _DEPTH + "0"),
    ({"depth": 2.0}, _DEPTH + "2.0"),
    ({"depth": "3"}, _DEPTH + "'3'"),
])
def test_verify_refuses_malformed_verbal_params(capsys, verbal_certificate,
                                               params, error):
    _, cert = verbal_certificate
    _set_witness_params(cert, **params)
    code, doc = run_doc(capsys, ["verify", str(cert)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"] == f"malformed certificate: ValueError({error!r})"


TOWER = "depth-1 quotient order: reached an exponent tower with cap 1000000"


def test_verify_reports_a_verbal_witness_past_the_exponent_cap(
        capsys, verbal_certificate):
    _, cert = verbal_certificate
    _set_witness_params(cert, primes=[2], depth=1, rank=10**18)
    code, doc = run_doc(capsys, ["verify", str(cert)])
    assert code == 2
    assert doc["error"] == f"malformed certificate: CapExceeded({TOWER!r})"


@pytest.mark.parametrize("argv", [
    ["gamma", "--primes", "2", "--rank", str(10**18), "--depth", "1",
     "--member", "a"],
    ["levi", "--primes", "2,3", "--rank", str(10**18), "--set", "a"],
], ids=["gamma", "levi"])
def test_a_verbal_rank_past_the_exponent_cap_is_a_document(capsys, argv):
    code, doc = run_doc(capsys, argv)
    assert code == 2
    assert doc["error"] == TOWER

def test_verify_roundtrip_and_tamper(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _ = run(
        capsys,
        ["certify-large", "-g", "a", "-q", "4", "--output", str(cert_path)],
    )
    assert code == 0
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert code == 0
    assert doc["ok"]

    cert = json.loads(cert_path.read_text())
    cert["counts"]["rels"] = 1
    cert_path.write_text(json.dumps(cert))
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert code == 2
    assert not doc["ok"]
    assert doc["mismatches"] == ["rels"]


def _verify_mutated(capsys, tmp_path, mutate):
    """Verify a fresh ``-g a,b -q 4`` certificate after ``mutate(cert)``;
    it must fail as a JSON report with exit 2."""
    cert_path = tmp_path / "cert.json"
    code, _ = run(
        capsys, ["certify-large", "-g", "a,b", "-q", "4", "-o", str(cert_path)]
    )
    assert code == 0
    cert = json.loads(cert_path.read_text())
    mutate(cert)
    cert_path.write_text(json.dumps(cert))
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert code == 2
    assert doc["ok"] is False
    return doc


def _verify_probe(capsys, tmp_path, field, value):
    def mutate(cert):
        if field == "exponent":
            cert["target"]["exponent"] = value
        else:
            cert[field] = value
    return _verify_mutated(capsys, tmp_path, mutate)["problems"]


def test_verify_rejects_a_foreign_schema(capsys, tmp_path):
    problems = _verify_probe(capsys, tmp_path, "schema", "bogus/9")
    assert problems == [
        "schema is 'bogus/9', expected 'largeness-certificate/1'"
    ]


def test_verify_rejects_exponent_zero(capsys, tmp_path):
    problems = _verify_probe(capsys, tmp_path, "exponent", 0)
    assert problems == ["exponent must be an integer >= 1, got 0"]


def test_verify_rejects_a_negative_exponent(capsys, tmp_path):
    problems = _verify_probe(capsys, tmp_path, "exponent", -4)
    assert problems == ["exponent must be an integer >= 1, got -4"]


def test_verify_reports_null_counts(capsys, tmp_path):
    problems = _verify_probe(capsys, tmp_path, "counts", None)
    assert problems == ["counts must be an object, got None"]


@pytest.mark.parametrize("key,value", [("j", "32"), ("rels", True)])
def test_verify_reports_a_count_that_is_not_an_integer(
        capsys, tmp_path, key, value):
    doc = _verify_mutated(
        capsys, tmp_path, lambda cert: cert["counts"].__setitem__(key, value))
    assert doc["problems"] == [
        f"counts.{key} must be an integer, got {value!r}"]
    assert doc["mismatches"] == [key]


@pytest.mark.parametrize("argv", [
    ["certify-large", "-g", "a,b", "-q", "4"],
    ["certify-large", "-r", "1", "-g", "a", "-q", "4"],
], ids=["rank2", "rank1"])
def test_verify_refuses_a_huge_degree_bound_at_once(
        capsys, tmp_path, package_env, argv):
    # the witness's order passes the cap, which its closed form tells
    # before any series is multiplied or any coset enumerated
    cert_path = tmp_path / "cert.json"
    run(capsys, argv + ["-o", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["witness"]["params"]["degree_bound"] = 10**6
    cert_path.write_text(json.dumps(cert))
    result = subprocess.run(
        [sys.executable, "-m", "largequot", "verify", str(cert_path)],
        env=package_env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert doc["error"] == ("malformed certificate: CapExceeded('quotient "
                            "enumeration: reached 1000001 with cap 1000000')")


@pytest.mark.parametrize("degree_bound", [8, 10**6])
def test_verify_refuses_an_invertible_non_standard_witness_at_once(
        capsys, tmp_path, package_env, degree_bound):
    # 1 + x1 + x2 and 1 + x2 have invertible linear parts mod 2, so the
    # witness has the standard witness's kernel and its closed-form order
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify-large", "-g", "a,b", "-q", "4", "-o", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["witness"]["gen_images"][0] = "1 + x1 + x2"
    cert["witness"]["params"]["degree_bound"] = degree_bound
    cert_path.write_text(json.dumps(cert))
    result = subprocess.run(
        [sys.executable, "-m", "largequot", "verify", str(cert_path)],
        env=package_env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["error"] == (
        "malformed certificate: CapExceeded('quotient enumeration: reached "
        "1000001 with cap 1000000')")


_PAST_THE_CAP = ("malformed certificate: CapExceeded('quotient enumeration: "
                 "reached 1000001 with cap 1000000')")


@pytest.mark.parametrize("modulus, degree_bound, first, error", [
    (4, 2, "1 + x1", None),
    (4, 3000, "1 + x1", _PAST_THE_CAP),
    (4, 10**6, "1 + x1", _PAST_THE_CAP),
    (6, 10**6, "1 + x1", _PAST_THE_CAP),
    (6, 10**6, "4 + x1", "malformed certificate: ValueError('series inverse "
                         "requires constant term 1, got 4')"),
])
def test_verify_refuses_a_composite_modulus_witness_at_once(
        capsys, tmp_path, package_env, modulus, degree_bound, first, error):
    # mod 2 the images 1 + x_i are the standard witness, of 2^e elements,
    # and the witness mod 4 or 6 maps onto it: past the cap it is refused
    # unbuilt; at degree bound 2 (2^2 elements mod 2) the BFS counts it,
    # j = 16, and an image that is no unit still fails the BFS's inverse
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify-large", "-g", "a,b", "-q", "4", "-o", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["witness"]["params"].update(modulus=modulus, degree_bound=degree_bound)
    cert["witness"]["gen_images"][0] = first
    cert_path.write_text(json.dumps(cert))
    result = subprocess.run(
        [sys.executable, "-m", "largequot", "verify", str(cert_path)],
        env=package_env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    doc = json.loads(result.stdout)
    if error is None:
        assert doc["computed"]["j"] == 16
    else:
        assert doc["error"] == error


def _target_problems(capsys, tmp_path, field, value):
    return _verify_mutated(
        capsys, tmp_path, lambda cert: cert["target"].__setitem__(field, value)
    )["problems"]


def test_verify_reports_a_rank_mismatch(capsys, tmp_path):
    problems = _target_problems(capsys, tmp_path, "rank", 3)
    assert problems == ["rank mismatch: target has rank 3, witness has 2"]


def test_verify_reports_a_bool_target_rank(capsys, tmp_path):
    # True == 1: only the type tells them apart, and a word refuses rank True
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, ["certify-large", "-r", "1", "-g", "a", "-q", "4",
                           "-o", str(cert_path)])
    assert code == 2  # rank 1 is never large, and the certificate says so
    assert run_doc(capsys, ["verify", str(cert_path)])[1]["ok"] is True
    cert = json.loads(cert_path.read_text())
    cert["target"]["rank"] = True
    cert_path.write_text(json.dumps(cert))
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["problems"] == [
        "base word 'a' does not parse: rank must be a positive integer, got True",
        "rank mismatch: target has rank True, witness has 1"]


def test_verify_reports_an_unparsable_base_word(capsys, tmp_path):
    problems = _target_problems(capsys, tmp_path, "base_words", ["a%", "b"])
    assert problems == [
        "base word 'a%' does not parse: cannot parse word at '%'"
    ]


def test_verify_reports_base_words_that_are_not_a_list(capsys, tmp_path):
    # a string would otherwise be read one character, one word, at a time
    problems = _target_problems(capsys, tmp_path, "base_words", "ab")
    assert problems == ["base_words must be a list of strings, got 'ab'"]


def _malformed_witness(capsys, tmp_path, mutate):
    doc = _verify_mutated(capsys, tmp_path, lambda cert: mutate(cert["witness"]))
    assert doc["error"].startswith("malformed certificate: ")
    return doc["error"]


def test_verify_reports_an_unknown_witness_kind(capsys, tmp_path):
    error = _malformed_witness(
        capsys, tmp_path, lambda w: w.__setitem__("kind", "nope"))
    assert "unregistered element kind 'nope'" in error


def test_verify_reports_a_non_integer_modulus(capsys, tmp_path):
    error = _malformed_witness(
        capsys, tmp_path, lambda w: w["params"].__setitem__("modulus", "x"))
    assert "modulus must be None or an integer >= 2, got 'x'" in error


def test_verify_reports_a_non_unit_image(capsys, tmp_path):
    error = _malformed_witness(
        capsys, tmp_path, lambda w: w["gen_images"].__setitem__(0, "0"))
    assert "series inverse requires constant term 1" in error


def test_verify_reports_integer_images(capsys, tmp_path):
    error = _malformed_witness(
        capsys, tmp_path, lambda w: w.__setitem__("gen_images", [1, 2]))
    assert "a series is given as a string, got 1" in error


def test_verify_refuses_an_integer_unit_witness_at_once(capsys, tmp_path):
    # over Z every 1 + u != 1 has infinite order: the cap's text at once,
    # not after enumerating 10^6 integer series
    error = _malformed_witness(
        capsys, tmp_path, lambda w: w["params"].__setitem__("modulus", None))
    assert error == ("malformed certificate: CapExceeded('quotient "
                     "enumeration: reached 1000001 with cap 1000000')")


@pytest.mark.parametrize("rank,error", [
    (1, "variable index 2 out of range for rank 1"),
    (3, "a magnus_unit quotient over rank 3 needs 3 generator images, got 2"),
])
def test_verify_refuses_a_unit_witness_of_another_rank(capsys, tmp_path,
                                                       rank, error):
    # the two images would otherwise be counted on the coset graph of the
    # rank-3 units they generate
    assert _malformed_witness(
        capsys, tmp_path, lambda w: w["params"].__setitem__("rank", rank)
    ) == f"malformed certificate: ValueError({error!r})"


@pytest.mark.parametrize("key,value,error", [
    # a bool is an int to isinstance: rank true verified ok, and degree_bound
    # true was read as 1, an image-order problem
    ("rank", True, "rank must be a positive integer, got True"),
    ("degree_bound", True, "degree bound must be a positive integer, got True"),
    ("modulus", True, "modulus must be None or an integer >= 2, got True"),
    ("rank", False, "rank must be a positive integer, got False"),
    ("degree_bound", 2.0, "degree bound must be a positive integer, got 2.0"),
    ("modulus", 2.0, "modulus must be None or an integer >= 2, got 2.0"),
])
def test_verify_refuses_unit_witness_params_that_are_not_ints(
        capsys, tmp_path, key, value, error):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify-large", "-r", "1", "-g", "a", "-q", "4",
                 "-o", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["witness"]["params"][key] = value
    cert_path.write_text(json.dumps(cert))
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert code == 2
    assert doc["error"] == f"malformed certificate: ValueError({error!r})"


_VECTOR = "ValueError('a residue vector is given as a list of {} integers, got {}')"


@pytest.mark.parametrize("mutate, error", [
    # each of these verified: dim was never read, and a bool or a float was
    # taken as the number it compares equal to
    (lambda w: w["params"].__setitem__("dim", 7), _VECTOR.format(7, [1, 0])),
    (lambda w: w["params"].pop("dim"), "KeyError('dim')"),
    (lambda w: w["params"].__setitem__("modulus", True),
     "ValueError('modulus must be a positive integer, got True')"),
    (lambda w: w["gen_images"][0].__setitem__(0, True),
     _VECTOR.format(2, [True, 0])),
    (lambda w: w["gen_images"][0].__setitem__(0, 1.5),
     _VECTOR.format(2, [1.5, 0])),
], ids=["dim-7", "no-dim", "modulus-true", "bool-entry", "float-entry"])
def test_verify_reads_modvec_witnesses_strictly(capsys, tmp_path, mutate, error):
    spec = tmp_path / "witness.json"
    spec.write_text(json.dumps({"kind": "modvec", "params": {"modulus": 4, "dim": 2},
                                "gen_images": [[1, 0], [0, 1]]}))
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, ["certify-large", "-g", "a", "-q", "4", "--witness",
                           str(spec), "-o", str(cert_path)])
    assert code == 0
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert (code, doc["ok"]) == (0, True)
    cert = json.loads(cert_path.read_text())
    mutate(cert["witness"])
    cert_path.write_text(json.dumps(cert))
    code, doc = run_doc(capsys, ["verify", str(cert_path)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"] == f"malformed certificate: {error}"


def test_verify_refuses_a_witness_of_huge_series_rank(capsys, tmp_path):
    # refused before a packed vertex of 10^18 fields or any BFS
    big = 10**18
    assert _malformed_witness(
        capsys, tmp_path, lambda w: w["params"].__setitem__("rank", big)
    ) == ("malformed certificate: ValueError('a magnus_unit quotient over rank "
          f"{big} needs {big} generator images, got 2')")


def test_python_m_largequot_verifies_a_fresh_certificate(
        capsys, tmp_path, package_env):
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, ["certify-large", "-g", "a", "-q", "4", "-o", str(cert_path)])
    assert code == 0
    result = subprocess.run(
        [sys.executable, "-m", "largequot", "verify", str(cert_path)],
        env=package_env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["command"] == "verify"
    assert doc["ok"] is True


def test_verify_unreadable_and_malformed(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SystemExit) as err:
        main(["verify", str(missing)])
    assert err.value.code == 1

    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    with pytest.raises(SystemExit) as err:
        main(["verify", str(not_json)])
    assert err.value.code == 1

    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, doc = run_doc(capsys, ["verify", str(empty)])
    assert code == 2
    assert "malformed certificate" in doc["error"]


def test_lemma_fi_document(capsys):
    code, doc = run_doc(capsys, ["lemma-fi", "-g", "a", "-m", "1"])
    assert code == 0
    assert doc["l"] == 2
    assert doc["M0"] == 2
    assert doc["M"] == {"factored": "2^2", "decimal": 4}


def test_lemma_fi_over_the_cap_is_an_honest_negative(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("enumeration_cap = 10\n")
    code, doc = run_doc(
        capsys, ["lemma-fi", "-g", "a,ab", "-m", "2", "--config", str(cfg)]
    )
    assert code == 2
    assert doc == {
        "command": "lemma-fi",
        "config": {"seed": 0, "caps": {
            "enumeration": 10, "term": 10**6, "coset": 10**4, "depth": 16,
            "truncation": 64}},
        "error": "quotient enumeration: reached 11 with cap 10",
    }


def test_magnus_integer_and_mod_p(capsys):
    code, doc = run_doc(capsys, ["magnus", "-w", "ABab", "-l", "3", "-p", "2"])
    assert code == 0
    assert doc["image"] == "1 + x1x2 + x2x1"
    assert not doc["is_one"]
    assert "unit_order" in doc

    code, doc = run_doc(capsys, ["magnus", "-w", "a", "-l", "3"])
    assert code == 0
    assert doc["modulus"] is None
    assert doc["image"] == "1 + x1"
    assert "unit_order" not in doc


@pytest.mark.parametrize("modulus", ["4", "6"])
def test_magnus_composite_modulus_is_a_usage_error(capsys, modulus):
    # 1 + x1 has order 8 over Z/4 and 12 over Z/6 at l = 3, which no
    # p-power formula gives; the option takes a prime
    with pytest.raises(SystemExit) as err:
        main(["magnus", "-w", "a", "-p", modulus, "-l", "3"])
    assert err.value.code == 1
    assert "unit_order requires a prime modulus" in capsys.readouterr().err


def test_gamma_order_document(capsys):
    code, doc = run_doc(
        capsys, ["gamma", "--primes", "2,3", "--rank", "2", "--depth", "2"]
    )
    assert code == 0
    assert doc["quotient_order"] == {"factored": "2^2 * 3^5", "decimal": 972}

    code, doc = run_doc(
        capsys,
        ["gamma", "--primes", "2,3", "--rank", "2", "--depth", "2",
         "--order", "a"],
    )
    assert code == 0
    assert doc["element_order"] == {"word": "a", "order": 6}


def test_gamma_tower_order_stays_factored(capsys):
    code, doc = run_doc(
        capsys, ["gamma", "--primes", "2,3,5,7", "--rank", "2", "--depth", "4"]
    )
    assert code == 0
    assert "decimal" not in doc["quotient_order"]
    assert doc["quotient_order"]["factored"].startswith("2^2 * 3^5 * 5^973 * 7^")


GAMMA_332_CONFIG = {"caps": {"coset": 10000, "depth": 16, "enumeration": 1000000,
                              "term": 1000000, "truncation": 64}, "seed": 0}


@pytest.mark.parametrize("query, extra, code", [
    ([], {}, 0),
    (["--order", "ab"], {"error": "level 3 has no coset data: |F/gamma_2| = "
                                  "531441 exceeded the materialization cap"}, 2),
    (["--member", "a"], {"member": {"result": False, "word": "a"}}, 0),
])
def test_gamma_document_over_a_deep_level_is_frozen(capsys, query, extra, code):
    # the depth-3 order 3^12 * 2^531442 is printed factored and never computed
    got = run(capsys, ["gamma", "--primes", "3,3,2", "--rank", "2", "--depth",
                       "3", *query])
    doc = {"command": "gamma", "config": GAMMA_332_CONFIG, "depth": 3,
           "primes": [3, 3, 2], "quotient_order": {"factored": "2^531442 * 3^12"},
           "rank": 2, **extra}
    assert got == (code, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_gamma_membership_past_cap_is_honest(capsys):
    code, doc = run_doc(
        capsys,
        ["gamma", "--primes", "2,3,5,7", "--rank", "2", "--depth", "4",
         "--order", "a"],
    )
    assert code == 2
    assert "error" in doc


def test_levi_document(capsys):
    code, doc = run_doc(capsys, ["levi", "--set", "aa", "--primes", "2,3"])
    assert code == 0
    assert doc["bound"] == 2


def test_construct_periodic_and_jsonl(capsys):
    code, doc = run_doc(
        capsys, ["construct-periodic", "--primes", "2,3,5,7", "--steps", "1"]
    )
    assert code == 0
    assert doc["steps_completed"] == 1
    assert doc["steps"][0]["relator"] == {"base": "a", "exponent": 6}

    code, out = run(
        capsys,
        ["construct-periodic", "--primes", "2,3,5,7", "--steps", "1", "--jsonl"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(isinstance(json.loads(line), dict) for line in lines)


def test_construct_periodic_rank_one_deep_tree(capsys):
    # the rank-1 levels are cyclic of order up to 30030, so their Schreier
    # trees are far deeper than the interpreter's recursion limit
    code, doc = run_doc(
        capsys,
        ["construct-periodic", "--primes", "2,3,5,7,11,13", "--steps", "3",
         "--rank", "1"],
    )
    assert code == 0
    assert doc["command"] == "construct-periodic"
    assert doc["steps_completed"] == 3
    assert doc["steps"][2]["relator"] == {"base": "aa", "exponent": 30030}


def test_construct_periodic_halt_is_exit_two(capsys):
    code, doc = run_doc(
        capsys, ["construct-periodic", "--primes", "2,3,5,7", "--steps", "2"]
    )
    assert code == 2
    assert doc["halted"]
    assert doc["steps_completed"] == 1


def test_output_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    out_path = tmp_path / "doc.json"
    code, out = run(
        capsys, ["lemma-fi", "-g", "a", "-m", "1", "-o", str(out_path)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["M0"] == 2


def test_config_file_controls_caps(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# tiny cap for testing\ncoset_cap = 2\n")
    code, doc = run_doc(
        capsys,
        ["gamma", "--primes", "2,3", "--rank", "2", "--depth", "2",
         "--order", "a", "--config", str(cfg)],
    )
    assert code == 2
    assert doc["config"]["caps"]["coset"] == 2
    assert "error" in doc


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("depth_cap = 1\n")
    monkeypatch.setenv("LARGEQUOT_CONFIG", str(cfg))
    code, doc = run_doc(capsys, ["levi", "--set", "aa", "--primes", "2,3"])
    assert code == 2
    assert doc["config"]["caps"]["depth"] == 1
    assert "error" in doc


def test_config_file_rejects_removed_settings(capsys, tmp_path):
    for line in ("verbosity = 1\n", "output = out.json\n", "term_cap = 3\n"):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line)
        with pytest.raises(SystemExit) as err:
            main(["magnus", "-w", "a", "-l", "2", "--config", str(cfg)])
        assert err.value.code == 1
        assert "unknown setting" in capsys.readouterr().err


def test_documents_record_seed_zero(capsys):
    code, doc = run_doc(capsys, ["magnus", "-w", "a", "-l", "2"])
    assert code == 0
    assert doc["config"]["seed"] == 0
    assert list(doc["config"]) == ["caps", "seed"]


def test_seed_is_no_setting(capsys, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    with pytest.raises(SystemExit) as err:
        main(["magnus", "-w", "a", "-l", "2", "--config", str(cfg)])
    assert err.value.code == 1
    assert "unknown setting 'seed'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["magnus", "-w", "a", "-l", "2", "--seed", "7"])
    assert err.value.code == 1


def test_usage_errors_exit_one():
    bad_invocations = [
        ["no-such-command"],
        ["magnus", "-w", "5x", "-l", "3"],
        ["magnus", "-w", "a"],  # missing -l
        ["gamma", "--primes", "2,3", "--rank", "0", "--depth", "1"],
        ["gamma", "--primes", "2,3", "--rank", "2", "--depth", "9"],
        ["gamma", "--primes", "2,4", "--rank", "2", "--depth", "1"],
        ["certify-large", "-g", "a", "-q", "0"],
        ["levi", "--set", "", "--primes", "2,3"],
    ]
    for argv in bad_invocations:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv


# -- fuzzing the verifier's front door ----------------------------------------


@functools.lru_cache(maxsize=None)
def _fresh_certificate_text():
    """A ``certify-large -g a,b -q 4`` certificate, as the CLI writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["certify-large", "-g", "a,b", "-q", "4", "-o", path]) == 0
        with open(path, encoding="utf-8") as handle:
            return handle.read()


_PATHS = [(), ("schema",), ("target",), ("target", "rank"),
          ("target", "base_words"), ("target", "base_words", 0),
          ("target", "exponent"), ("witness",), ("witness", "kind"),
          ("witness", "params"), ("witness", "params", "modulus"),
          ("witness", "params", "rank"), ("witness", "params", "degree_bound"),
          ("witness", "gen_images"), ("witness", "gen_images", 0), ("counts",),
          ("counts", "j"), ("counts", "rels"), ("verdict",)]
# no ints here: an int modulus could be composite, whose degree_bound work
# is still unbounded (a known open case); ints come from _INTS
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_HUGE = st.sampled_from([0, -1, -2, -10**20, 10**6, 10**18, 2**200, 10**1000])
# zero, negative, or prime: never a composite modulus
_MODULI = st.sampled_from([0, 1, -1, -7, 1000003, 2**61 - 1, 2**127 - 1])
_INTS = st.one_of(
    st.tuples(st.sampled_from([("witness", "params", "degree_bound"),
                               ("witness", "params", "rank"),
                               ("target", "rank"), ("target", "exponent")]),
              _HUGE),
    st.tuples(st.just(("witness", "params", "modulus")), _MODULI))


@st.composite
def _invertible_witnesses(draw):
    """Rank-2 magnus witnesses over a prime whose images are not the
    1 + x_i but have invertible linear parts: 1 + x1 + c x2 and 1 + x2, in
    either order, plus a random square, at any degree bound."""
    p = draw(st.sampled_from([2, 3, 5, 1000003]))
    c = draw(st.integers(1, p - 1))
    first = f"1 + x1 + {c}*x2 + " + draw(st.sampled_from(["x1x1", "x2x1", "x1x2"]))
    images = draw(st.permutations([first, "1 + x2"]))
    bound = draw(st.integers(1, 6) | _HUGE)
    return ("witness",), {"kind": "magnus_unit", "gen_images": images,
                          "params": {"modulus": p, "rank": 2,
                                     "degree_bound": bound}}


@st.composite
def _verbal_witnesses(draw):
    """Depth-1 verbal witnesses over [2] of the images a and b, at a rank from
    _HUGE, with the depth or the primes mutated further or neither.  The
    depth is not set to 2: a level-2 witness of order 3^12 is counted on its
    coset graph, a BFS bounded by the cap that takes longer than 5 s."""
    params = {"primes": [2], "rank": draw(_HUGE), "depth": 1}
    field = draw(st.sampled_from([None, "depth", "primes"]))
    if field == "primes":
        params["primes"] = draw(_JUNK | st.lists(
            st.sampled_from([-2, 0, 1, 2, 3, 4, 2**61 - 1]), max_size=3))
    elif field == "depth":
        params["depth"] = draw(_HUGE | _JUNK)
    return ("witness",), {"kind": "verbal", "params": params,
                          "gen_images": ["a", "b"]}


_WORD_TEXTS = st.lists(st.text("aAbBcC1g^-*() %0123", max_size=8), max_size=3)


def _put(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(st.one_of(st.tuples(st.sampled_from(_PATHS), _JUNK), _INTS,
                 _invertible_witnesses(), _verbal_witnesses()),
       st.none() | _WORD_TEXTS)
def test_verify_front_door_is_total(mutation, word_texts):
    doc = _put(json.loads(_fresh_certificate_text()), *mutation)
    if word_texts is not None and isinstance(doc, dict) \
            and isinstance(doc.get("target"), dict):
        doc["target"]["base_words"] = word_texts
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["verify", path])
        except SystemExit as exc:
            pytest.fail(f"verify exited {exc.code}: {err.getvalue()}")
    assert code in (0, 2)
    report = json.loads(out.getvalue())
    assert report["command"] == "verify"
    assert isinstance(report["ok"], bool)
