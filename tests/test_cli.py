"""End-to-end command tests: exact emitted strings, exit codes, and the
JSON mode round trip.

Commands run in-process through main() with captured streams; nothing here
shells out, so failures point directly at the dispatch layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

from wittcalc import (
    GWClass,
    Q,
    format_gw_grouped,
    gw_equal,
    parse_form,
    parse_gw,
    quadratic_lines_class,
)
from wittcalc import cli, fields
from wittcalc.cli import main


def run(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue().rstrip("\n"), err.getvalue().rstrip("\n")


def run_json(*args: str) -> tuple[int, dict]:
    code, stdout, _ = run("--json", *args)
    return code, json.loads(stdout)


# -------------------------------------------------------- pinned strings


def test_lines_count_string() -> None:
    assert run("lines", "--d", "2") == (0, "27", "")


def test_lines_quadratic_string() -> None:
    code, stdout, _ = run("lines", "--d", "2", "--quadratic")
    assert code == 0
    assert stdout == "15<1> + 12<-1>  (rank 27, signature 3)"


def test_degree_map_string() -> None:
    code, stdout, _ = run("degree", "--map", "G3+")
    assert code == 0
    assert stdout == "<1,1,1> (Witt class 3<1>)"


def test_degree_negative_map() -> None:
    assert run("degree", "--map", "G2-")[1] == "<-1,-1> (Witt class -2<1>)"


def test_degree_explicit_coefficients() -> None:
    # same map as G3+, entered lowest-degree-first; leading-dash values
    # need the --den=... spelling
    code, stdout, _ = run("degree", "--num", "0,-3,0,1", "--den=-1,0,3")
    assert code == 0
    assert stdout == "<1,1,1> (Witt class 3<1>)"


def test_gw_isometric_string() -> None:
    assert run("gw", "isometric", "<3,2,6>", "<1,1,1>") == (0, "true", "")
    assert run("gw", "isometric", "<1,1>", "<1,2>") == (0, "false", "")


def test_gw_classify_string() -> None:
    code, stdout, _ = run("gw", "classify", "<3,2,6>")
    assert code == 0
    assert stdout == "rank 3, signature 3, disc 1, hasse all +1"
    assert run("gw", "classify", "<-1,-1>")[1] == "rank 2, signature -2, disc 1, hasse -1 at inf,2"


def test_gw_residue_strings() -> None:
    assert run("gw", "residue", "<3,2,6>", "-p", "3")[1] == "0"
    assert run("gw", "residue", "<3>", "-p", "3")[1] == "<1>"
    assert run("gw", "residue", "<2,6>", "-p", "2")[1] == "0 (mod 2)"


def test_gw_invert_round_trip() -> None:
    code, stdout, _ = run("gw", "invert", "<2,3> - <6>")
    assert code == 0
    u = parse_gw("<2,3> - <6>")
    v = parse_gw(stdout)
    from wittcalc import gw_mul, gw_one

    assert gw_equal(gw_mul(u, v), gw_one(Q))


def test_traceform_strings() -> None:
    assert run("traceform", "--p", "5")[1] == "<1,5,10,10>"
    assert run("traceform", "--p", "5", "--verify-tp")[1] == "true"
    assert run("traceform", "--p", "5", "--bayer-suarez")[1] == "true"
    assert run("traceform", "--p", "13", "--serre-w2")[1] == "true"


def test_charclass_strings() -> None:
    assert run("charclass", "euler", "Sym(3,E1)")[1] == "3*e1^2"
    assert run("charclass", "euler", "Sym(2,E1)")[1] == "0"
    assert run("charclass", "euler", "Sym(40,E1)") == (0, "0", "")
    assert (
        run("charclass", "pontryagin", "E1 (x) E2")[1]
        == "1 + 2*e1^2 + 2*e2^2 + e1^4 - 2*e1^2*e2^2 + e2^4"
    )


def test_euler_cellular_strings() -> None:
    assert run("euler-cellular", "--space", "P2")[1] == "2<1> + <-1>  (rank 3, signature 1)"
    assert run("euler-cellular", "--space", "Gr2,4")[1] == "4<1> + 2<-1>  (rank 6, signature 2)"
    assert run("euler-cellular", "--space", "Fl3")[1] == "chi_top = 6"


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_one() -> None:
    for argv in (
        [],
        ["lines"],
        ["gw"],
        ["degree", "--map"],
        ["degree"],
        ["nonsense"],
    ):
        code, _, err = run(*argv)
        assert code == 1, argv
        assert err  # the grammar complaint lands on stderr


def test_domain_errors_exit_two_with_error_name() -> None:
    cases = [
        (["gw", "invert", "<1,1>"], "NotAUnit"),
        (["gw", "classify", "<1,0>"], "InvalidEntry"),
        (["gw", "classify", "<1,"], "FormSyntaxError"),
        (["degree", "--num", "1,1", "--den=1,2"], "NotPointed"),
        (["degree", "--num=-1,0,1", "--den=-1,1"], "NotCoprime"),
        (["gw", "residue", "<1>", "-p", "4"], "InvalidEntry"),
        (["traceform", "--p", "9"], "InvalidEntry"),
        (["charclass", "euler", "Sym(3,E1) (x) E2"], "UnsupportedTensor"),
        (["lines", "--d", "1"], "InvalidEntry"),
        # malformed flag values are domain errors, not usage errors
        (["euler-cellular", "--space", "X9"], "FormSyntaxError"),
    ]
    for argv, name in cases:
        code, _, err = run(*argv)
        assert code == 2, argv
        assert name in err, (argv, err)


def test_deeply_nested_bundle_exits_two_without_traceback() -> None:
    deep = "(" * 3000 + "E1" + ")" * 3000
    start = time.perf_counter()
    code, out, err = run("charclass", "euler", deep)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "FormSyntaxError" in err and "Traceback" not in err
    assert run("charclass", "euler", "(" * 100 + "E1" + ")" * 100) == (0, "e1", "")


def test_rho_failure_exits_two(monkeypatch) -> None:
    monkeypatch.setattr(fields, "_gcd", lambda a, n: n)
    code, _, err = run("gw", "classify", f"<{1000003 * 1000037}>")
    assert code == 2
    assert "FactorizationLimit" in err


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("d", ["687", "1000"])
def test_lines_beyond_printable_count_refused_before_computing(d, json_mode) -> None:
    # N_687 has 4307 digits, past the 4300 Python prints from an int
    argv = ["--json"] * json_mode + ["lines", "--d", d]
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "Traceback" not in out + err
    if json_mode:
        payload = json.loads(out)
        assert (payload["status"], payload["error"]) == ("error", "InvalidEntry")
        assert "686" in payload["message"] and "4300" in payload["message"]
    else:
        assert out == ""
        assert err.startswith("error: InvalidEntry: ") and "686" in err


@pytest.mark.parametrize("json_mode", [False, True])
def test_memory_error_exits_two_as_resource_limit(monkeypatch, json_mode) -> None:
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_run_lines", exhausted)
    argv = ["--json"] * json_mode + ["lines", "--d", "5", "--quadratic"]
    code, out, err = run(*argv)
    assert code == 2
    assert "Traceback" not in out + err
    if json_mode:
        payload = json.loads(out)
        assert (payload["status"], payload["error"]) == ("error", "ResourceLimit")
        assert err == ""
    else:
        assert (out, err) == ("", "error: ResourceLimit: the computation ran out of memory")


# -------------------------------------------------------------- json mode


def test_json_success_payload_round_trips() -> None:
    code, payload = run_json("lines", "--d", "2", "--quadratic")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["operation"] == "lines.quadratic"
    cls = parse_gw(payload["result"]["class"])
    assert cls == quadratic_lines_class(2)
    assert payload["result"]["grouped"] == format_gw_grouped(cls)
    assert payload["result"]["rank"] == cls.rank
    assert payload["result"]["signature"] == cls.signature


def test_json_degree_payload() -> None:
    code, payload = run_json("degree", "--map", "G3+")
    assert code == 0
    got = parse_gw(payload["result"]["class"])
    assert gw_equal(got, GWClass.make(Q, [1, 1, 1]))
    assert parse_form(payload["result"]["diagonalization"]).entries == (2, 3, 6)


def test_json_classify_payload() -> None:
    code, payload = run_json("gw", "classify", "<3,2,6>")
    assert code == 0
    assert payload["result"] == {"rank": 3, "signature": 3, "disc": 1, "hasse": {}}
    # the echoed input is the canonical spelling, which parses back
    assert parse_form(payload["inputs"]["form"]).entries == (2, 3, 6)


def test_json_boolean_payload() -> None:
    code, payload = run_json("gw", "isometric", "<3,2,6>", "<1,1,1>")
    assert code == 0
    assert payload["result"] is True


def test_json_error_payload_exits_two() -> None:
    code, payload = run_json("gw", "invert", "<1,1>")
    assert code == 2
    assert payload["status"] == "error"
    assert payload["error"] == "NotAUnit"
    assert "rank" in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "classify", "<3,2,6>"],
        ["gw", "residue", "<2,6>", "-p", "2"],
        ["degree", "--map", "G5-"],
        ["traceform", "--p", "7", "--verify-tp"],
        ["charclass", "euler", "Sym(3,E1)"],
        ["lines", "--d", "3"],
        ["euler-cellular", "--space", "Gr2,5"],
    ],
)
def test_json_mode_always_well_formed(argv: list) -> None:
    code, payload = run_json(*argv)
    assert code == 0
    assert payload["status"] == "ok"
    assert set(payload) == {"status", "operation", "inputs", "result", "provenance"}
