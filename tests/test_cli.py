"""Front-end behavior: parsing, output stability, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import macres
from macres import cli
from macres.cli import (
    CliError,
    label_text,
    main,
    parse_input,
)
from macres.corering import ParamRing, parse_scalar_text


GENERIC_112 = b'{"degrees": [1, 1, 2], "mode": "generic"}'

INT_12 = json.dumps({
    "degrees": [1, 2],
    "mode": "integer",
    "polys": [
        [{"c": "2", "e": [1, 0]}, {"c": "3", "e": [0, 1]}],
        [{"c": "1", "e": [2, 0]}, {"c": "-1", "e": [0, 2]}],
    ],
}).encode()


# the (1,1,2,3) system of the permutation-fallback test in
# test_macaulay.py: f_1 has no X1 term, so its canonical extraneous
# minors vanish and the numeric path has to fall back
FALLBACK_1123 = json.dumps({
    "degrees": [1, 1, 2, 3],
    "mode": "integer",
    "polys": [
        [{"c": "3", "e": [0, 1, 0, 0]}, {"c": "1", "e": [0, 0, 1, 0]}],
        [{"c": "1", "e": [1, 0, 0, 0]}, {"c": "2", "e": [0, 0, 0, 1]}],
        [{"c": "1", "e": [2, 0, 0, 0]}, {"c": "1", "e": [0, 2, 0, 0]},
         {"c": "5", "e": [0, 0, 1, 1]}],
        [{"c": "2", "e": [3, 0, 0, 0]}, {"c": "1", "e": [0, 0, 3, 0]},
         {"c": "1", "e": [1, 1, 1, 0]}],
    ],
}).encode()


# the odd-degree (1,3,3) fallback system of test_macaulay.py: its
# degree product is odd, so the reordering that rescues it flips the
# sign of the resultant
ODD_133 = json.dumps({
    "degrees": [1, 3, 3],
    "mode": "integer",
    "polys": [
        [{"c": "2", "e": [0, 1, 0]}, {"c": "-3", "e": [0, 0, 1]}],
        [{"c": "1", "e": [3, 0, 0]}, {"c": "4", "e": [0, 0, 3]},
         {"c": "1", "e": [1, 2, 0]}],
        [{"c": "2", "e": [3, 0, 0]}, {"c": "1", "e": [0, 3, 0]},
         {"c": "-1", "e": [0, 0, 3]}, {"c": "3", "e": [1, 1, 1]}],
    ],
}).encode()


def run_cli(args, data, tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    return main(list(args) + [str(path)])


def test_parse_input_generic_counts():
    doc = parse_input(GENERIC_112)
    assert doc.mode == "generic"
    assert doc.degrees == [1, 1, 2]
    assert len(doc.system.polys) == 3
    assert doc.system.domain.names[:3] == ["a_1_1", "a_1_2", "a_1_3"]


def test_parse_input_integer_system():
    doc = parse_input(INT_12)
    assert doc.mode == "integer"
    assert doc.system.polys[0].terms == {(1, 0): 2, (0, 1): 3}


def test_parse_input_error_paths():
    with pytest.raises(CliError):
        parse_input(b"not json")
    with pytest.raises(CliError):
        parse_input(b'{"degrees": []}')
    with pytest.raises(CliError):
        parse_input(b'{"degrees": [1, 2], "mode": "float"}')
    bad_degree = json.loads(INT_12.decode())
    bad_degree["polys"][1][0]["e"] = [1, 0]
    try:
        parse_input(json.dumps(bad_degree).encode())
    except CliError as ex:
        assert "polys[1][0]" in str(ex)
    else:
        raise AssertionError("expected a degree mismatch error")
    dup = json.loads(INT_12.decode())
    dup["polys"][0].append({"c": "7", "e": [1, 0]})
    with pytest.raises(CliError):
        parse_input(json.dumps(dup).encode())


def test_sparse_generic_names_follow_canonical_rank():
    doc = parse_input(json.dumps({
        "degrees": [2, 1],
        "mode": "generic",
        "polys": [
            [{"e": [0, 2]}, {"e": [2, 0]}],
            [{"e": [0, 1]}],
        ],
    }).encode())
    # (2,0) is rank 1 and (0,2) rank 3 among degree-2 monomials
    assert doc.system.domain.names == ["a_1_1", "a_1_3", "a_2_2"]


def test_scalar_text_round_trip_symbolic():
    ring = ParamRing(["a_1_1", "a_1_2", "a_2_1"])
    a, b, c = (ring.gen(i) for i in range(3))
    p = a * a * c - ring.const(2) * b + ring.const(5)
    assert parse_scalar_text(str(p), ring) == p
    assert parse_scalar_text("0", ring) == ring.zero()
    assert parse_scalar_text("-a_1_1", ring) == -a
    # exponents up to 255 round-trip; past that the text is refused
    # instead of carrying into the next parameter
    big = a ** 255 * b ** 200
    assert parse_scalar_text(str(big), ring) == big
    with pytest.raises(OverflowError):
        parse_scalar_text("a_1_1^300", ring)


def test_scalar_text_round_trip_numeric():
    assert parse_scalar_text("-22/7") == Fraction(-22, 7)
    assert parse_scalar_text("13") == 13


def test_label_text_forms():
    assert label_text(("mono", (2, 0, 1))) == "X1^2*X3"
    assert label_text(("mono", (0, 0, 0))) == "1"
    assert label_text(("slice", (1, 0, 2))) == "T[1,0,2]"
    assert label_text(("mult", 2, (1, 0, 0))) == "f2*X1"
    assert label_text(("dual", 1, (0, 0, 0))) == "dual(f1*1)"


def test_resultant_json_payload(tmp_path, capsys):
    code = run_cli(["resultant"], INT_12, tmp_path)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "resultant"
    assert payload["result"]["value"] == "5"
    assert payload["sigma"] == -1
    assert payload["normalized"] is True
    assert "timing_seconds" not in payload


def test_resultant_symbolic_payload_round_trips(tmp_path, capsys):
    code = run_cli(["resultant"], GENERIC_112, tmp_path)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    names = payload["result"]["parameters"]
    ring = ParamRing(names)
    parsed = parse_scalar_text(payload["result"]["text"], ring)
    rebuilt = ring.zero()
    for term in payload["result"]["terms"]:
        part = ring.const(int(term["c"]))
        for i, k in enumerate(term["e"]):
            part = part * ring.gen(i) ** k
        rebuilt = rebuilt + part
    assert parsed == rebuilt
    assert not parsed.is_zero()


def test_matrix_payload_round_trips(tmp_path, capsys):
    code = run_cli(["matrix", "--t", "2"], GENERIC_112, tmp_path)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == [6, 6]
    ring = ParamRing(["a_1_%d" % k for k in (1, 2, 3)]
                     + ["a_2_%d" % k for k in (1, 2, 3)]
                     + ["a_3_%d" % k for k in range(1, 7)])
    for row in payload["entries"]:
        for cell in row:
            parse_scalar_text(cell, ring)
    assert payload["rows"][0] == "X1^2"


def test_normalize_sign_flag(tmp_path, capsys):
    run_cli(["resultant"], INT_12, tmp_path)
    on = json.loads(capsys.readouterr().out)
    run_cli(["resultant", "--normalize-sign", "off"], INT_12, tmp_path)
    off = json.loads(capsys.readouterr().out)
    assert on["result"]["value"] == "5"
    assert off["result"]["value"] == "-5"


def test_gcp_command(tmp_path, capsys):
    data = json.dumps({
        "degrees": [2, 2],
        "mode": "integer",
        "polys": [
            [{"c": "1", "e": [1, 1]}],
            [{"c": "1", "e": [2, 0]}],
        ],
        "t": 3,
    }).encode()
    code = run_cli(["gcp"], data, tmp_path)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == ["0", "-1", "0", "0", "1"]
    # below the critical degree 2 the same polynomial comes out
    for t in ("0", "1"):
        assert run_cli(["gcp", "--t", t], data, tmp_path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficients"] == ["0", "-1", "0", "0", "1"]


def test_sizes_command(capsys):
    assert main(["sizes", "2", "3", "4", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["rows"][0]
    assert row["minimal_size"] == 90
    assert row["classical_size"] == 364
    assert main(["sizes", "10", "70"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert (row["minimal_size"], row["classical_size"]) == (70, 80)


def test_exit_codes(tmp_path, capsys):
    assert run_cli(["resultant"], b"{", tmp_path) == 1
    capsys.readouterr()
    degenerate = json.dumps({
        "degrees": [1, 1, 2],
        "mode": "integer",
        "polys": [[], [], [{"c": "1", "e": [2, 0, 0]}]],
        "t": 2,
    }).encode()
    assert run_cli(["resultant"], degenerate, tmp_path) == 2
    capsys.readouterr()
    assert run_cli(["gcp"], GENERIC_112, tmp_path) == 1
    capsys.readouterr()
    # a sparse generic system whose extraneous sides vanish identically
    # at t = 2 is degenerate, not a usage error
    sparse = json.dumps({
        "degrees": [1, 1, 2],
        "mode": "generic",
        "polys": [[{"e": [0, 1, 0]}, {"e": [0, 0, 1]}],
                  [{"e": [1, 0, 0]}, {"e": [0, 0, 1]}],
                  [{"e": [2, 0, 0]}, {"e": [0, 1, 1]}]],
    }).encode()
    assert run_cli(["resultant", "--t", "2"], sparse, tmp_path) == 2
    assert capsys.readouterr().err.startswith("degenerate: ")
    # the size gate is a refusal, so it stays a usage error
    assert run_cli(["resultant", "--max-symbolic-size", "2"],
                   GENERIC_112, tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: symbolic matrix size")
    # a negative --t is rejected like a negative "t" in the document
    for command in ("resultant", "matrix", "gcp"):
        assert run_cli([command, "--t", "-1"], INT_12, tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: t: expected a nonnegative integer\n")


# the integer document of the README, and a rational (1,2,2) system
README_112 = json.dumps({
    "degrees": [1, 1, 2],
    "mode": "integer",
    "polys": [[{"c": "1", "e": [1, 0, 0]}, {"c": "2", "e": [0, 0, 1]}],
              [{"c": "1", "e": [0, 1, 0]}, {"c": "-1", "e": [0, 0, 1]}],
              [{"c": "1", "e": [2, 0, 0]}, {"c": "3", "e": [0, 1, 1]}]],
    "t": 1,
}).encode()

RATIONAL_122 = json.dumps({
    "degrees": [1, 2, 2],
    "mode": "rational",
    "polys": [[{"c": "1/2", "e": [1, 0, 0]}, {"c": "-3", "e": [0, 1, 0]},
               {"c": "2/3", "e": [0, 0, 1]}],
              [{"c": "1", "e": [2, 0, 0]}, {"c": "-5/4", "e": [1, 1, 0]},
               {"c": "2", "e": [0, 1, 1]}, {"c": "1/3", "e": [0, 0, 2]}],
              [{"c": "-1/2", "e": [2, 0, 0]}, {"c": "7", "e": [0, 2, 0]},
               {"c": "3/5", "e": [1, 0, 1]}, {"c": "-1", "e": [0, 0, 2]}]],
}).encode()

# sha256 of the `macres matrix` stdout at t = 0 .. tcrit + 1, in json
# and in text: any change to a label, an entry, a block range or their
# order shows here
MATRIX_SHA256 = {
    (README_112, "json"): [
        "f1cd0b7223f30c70090b35184b6c044299b07dde2404e82f32b9206997e2236f",
        "9c787dcc841260aead100b2fbdad1479980164e750a15827d81bdc26f1becbf8",
        "e4d8c6969088692a8336928ad23f2121369ed033c474cb87c29cc349bd92d2bb"],
    (README_112, "text"): [
        "e0f3ef29e6b39a664fa2e01d0ba764f187ad2d2f144c77ceea8eed97ca34b532",
        "d6fbbf815da4c59bb1eb12dd6c0a1a487922aa0cdf3c446eae8c52c3852a939c",
        "750cf9797f05ce39efe28042949dd4ca50bb8979052b7ac1d121cc155a0e8673"],
    (RATIONAL_122, "json"): [
        "450cf030a7a6b52965e73e75681834ce94a3f3241dad368abad80b53575f1e1a",
        "efc4ab92140ac5c95c4d24a3f0adbd2b37a085bb682a824eb3ccdd8aeb41baa2",
        "a781e257eff148938ad453879ce2ace9ed65c4a0ea8b1e384655ee232c04db5d",
        "11c70b856ebbf5a336327c48b44fc02a0be6ca7daedd33e79dcd902a898d192b"],
    (RATIONAL_122, "text"): [
        "ff4ed133361c27cbde9af9dcf001f10fc3688411296d1f94b92e835d30dd5494",
        "300fd3060526209dce22c0ab356e15c26c15eb237b13ad26bba21e30487ae420",
        "4e443b1c60c9922fd3c9dd40dafb301b964d3d9370d2cc36b7c69546cebc6437",
        "9ca689e75bd3c90f346762d78710bc35278683e1b56371bcce005d89cc95c56e"],
}


def test_matrix_output_is_frozen(tmp_path, capsys):
    for (data, fmt), digests in MATRIX_SHA256.items():
        for t, digest in enumerate(digests):
            assert run_cli(["matrix", "--format", fmt, "--t", str(t)],
                           data, tmp_path) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digest, (fmt, t)


# the README document without its "t", and a dense (2,2,2) system
README_112_DEFAULT_T = json.dumps(
    {k: v for k, v in json.loads(README_112).items() if k != "t"}).encode()

DENSE_222 = json.dumps({
    "degrees": [2, 2, 2],
    "mode": "integer",
    "polys": [[{"c": "-4", "e": [2, 0, 0]}, {"c": "-2", "e": [1, 1, 0]},
               {"c": "-1", "e": [1, 0, 1]}, {"c": "-1", "e": [0, 2, 0]},
               {"c": "-5", "e": [0, 1, 1]}, {"c": "-5", "e": [0, 0, 2]}],
              [{"c": "2", "e": [2, 0, 0]}, {"c": "-2", "e": [1, 1, 0]},
               {"c": "2", "e": [1, 0, 1]}, {"c": "2", "e": [0, 2, 0]},
               {"c": "2", "e": [0, 1, 1]}, {"c": "-4", "e": [0, 0, 2]}],
              [{"c": "-5", "e": [2, 0, 0]}, {"c": "-4", "e": [1, 1, 0]},
               {"c": "1", "e": [1, 0, 1]}, {"c": "-4", "e": [0, 2, 0]},
               {"c": "2", "e": [0, 1, 1]}, {"c": "5", "e": [0, 0, 2]}]],
}).encode()

# sha256 of the `macres gcp` stdout, in json and in text, and the
# classical degree tcrit + 1 of each document; the default t and an
# explicit --t tcrit + 1 give the same bytes
GCP_SHA256 = {
    (README_112_DEFAULT_T, "json", 2):
        "00f9ee5003ce37c4fe0508f92e98d5036231f6ebafbc0136c64e543b0e0720c8",
    (README_112_DEFAULT_T, "text", 2):
        "07ab9c0cb2b51add4b2b94b1095797b2148cacae583913bc4b39b0f511c675e2",
    (DENSE_222, "json", 4):
        "74bbe9e95cc513af2bee81ae97e13dc63199c5b52ee4e6f3696c5a305c8049d8",
    (DENSE_222, "text", 4):
        "bf1bda24da7343a6d6f7ebf442358193206cc2374faaebf7e043066ff658f548",
}


def test_gcp_output_is_frozen(tmp_path, capsys):
    for (data, fmt, classical), digest in GCP_SHA256.items():
        for extra in ([], ["--t", str(classical)]):
            assert run_cli(["gcp", "--format", fmt] + extra,
                           data, tmp_path) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digest, (fmt, extra)


def test_byte_determinism_over_subprocess():
    # the child runs the same macres as this process, however it was
    # put on the path (pytest's pythonpath setting, PYTHONPATH, install)
    where = os.path.dirname(os.path.dirname(os.path.abspath(macres.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [where] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "macres.cli", "resultant"]
    for data, args in [(GENERIC_112, []), (FALLBACK_1123, []),
                       (ODD_133, ["--t", "0"]), (ODD_133, ["--t", "5"])]:
        runs = [subprocess.run(cmd + args, input=data, stdout=subprocess.PIPE,
                               env=env, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].endswith(b"\n")
        if data is ODD_133:
            # the value frozen in test_fallback_provenance_is_frozen
            assert json.loads(runs[0])["result"]["value"] == "91125"


def test_verify_subcommand(capsys):
    assert main(["verify", "combinat"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


# sha256 of the `macres verify all` stdout, in json and in text
VERIFY_ALL_SHA256 = {
    "json": "7469156a78c6b1cc667859b974ff1c59acd7f526dc89c2ee78349c3c6c81b6d2",
    "text": "37a43dd144b44f9af78d2556f142b5c4225d803c9136db860ffa0a4120398b96",
}


def test_verify_all_output_is_frozen(capsys):
    for fmt, digest in VERIFY_ALL_SHA256.items():
        assert main(["verify", "all", "--format", fmt]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, fmt


def test_failing_verify_suite_prints_its_report_and_exits_3(
        monkeypatch, capsys):
    monkeypatch.setattr(cli, "SUITES", {
        "broken": lambda: [("holds", True), ("does not hold", False)]})
    assert main(["verify", "broken"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    assert [(c["name"], c["ok"]) for c in payload["checks"]] == [
        ("holds", True), ("does not hold", False)]
    assert main(["verify", "all", "--format", "text"]) == 3
    assert capsys.readouterr().out == (
        "ok    [broken] holds\n"
        "FAIL  [broken] does not hold\n"
        "some checks FAILED\n")


def test_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "bogus"]) == 1
    capsys.readouterr()


def test_timing_flag_adds_field(tmp_path, capsys):
    run_cli(["resultant", "--timing"], INT_12, tmp_path)
    payload = json.loads(capsys.readouterr().out)
    assert "timing_seconds" in payload
    run_cli(["resultant", "--timing", "--format", "text"], INT_12, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "resultant: 5"
    assert lines[-1].startswith("timing_seconds: ")
    float(lines[-1].split(": ")[1])
