"""Command-line interface: commands, exit codes, JSON determinism."""

import contextlib
import io
import json

import pytest

from charmod import kernel
from charmod.cli import _EXIT, main
from charmod.resolution import ResolutionLimitError
from charmod.ring import PolyRing

from conftest import FIXTURES

VERONESE = str(FIXTURES / "veronese.cmr")
E2 = str(FIXTURES / "e2.cmr")
HYPERSURFACE = str(FIXTURES / "hypersurface.cmr")


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_json(*args):
    code, out, err = run(*args, "--json")
    return code, json.loads(out), err


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing_ms"}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


def test_exit_code_table():
    assert _EXIT == {"verified": 0, "ok": 0, "refuted": 1, "inconclusive": 3}


def test_invariants_veronese():
    code, rep, _ = run_json("invariants", VERONESE)
    assert code == 0
    assert rep["command"] == "invariants" and rep["id"] == "veronese"
    assert rep["dim"] == 2 and rep["depth"] == 2 and rep["type"] == 2
    assert rep["is_cm"] is True and rep["is_gorenstein"] is False
    assert rep["betti"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
    assert rep["hilbert_numerator"] == [[0, 1], [2, -3], [3, 2]]


def test_invariants_with_module():
    code, rep, _ = run_json("invariants", E2, "--module", "k")
    assert code == 0
    assert rep["module"] == "k"
    assert rep["dim"] == 0 and rep["nu"] == 1


def test_gb_command():
    code, rep, _ = run_json("gb", VERONESE)
    assert code == 0
    assert rep["gb"] == ["x^2-w*y", "x*y-w*z", "y^2-x*z"]
    assert rep["count"] == 3


def test_res_command_over_cover_and_quotient():
    code, rep, _ = run_json("res", E2)
    assert code == 0
    assert rep["over"] == "Q" and rep["complete"] is True
    assert rep["betti"] == [[0, 0, 1], [1, 2, 2], [2, 3, 1]]
    code, rep, _ = run_json("res", E2, "--module", "k", "--max-steps", "4")
    assert code == 0
    assert rep["over"] == "R" and rep["complete"] is False
    assert [row[2] for row in rep["betti"]] == [1, 2, 3, 5, 8]


def test_tmod_residue_field_of_e2():
    code, rep, _ = run_json("tmod", E2, "--module", "k")
    assert code == 0
    assert rep["nu"] == 1
    assert rep["hf_from"] == 3
    assert rep["hilbert_function"][0] == 1
    assert all(v == 0 for v in rep["hilbert_function"][1:])


def test_tmod_vanishes_after_killing_socle():
    code, rep, _ = run_json("tmod", E2, "--module", "Rmodx")
    assert code == 0
    assert rep["nu"] == 0 and rep["dim"] == -1


def test_emod_command():
    code, rep, _ = run_json("emod", E2, "--module", "k")
    assert code == 0
    assert rep["nu"] == 1  # nu(E (x) k) = type(R) * nu(k) = 1


def test_canonical_command():
    code, rep, _ = run_json("canonical", E2)
    assert code == 0
    assert rep["s"] == 2 and rep["routes_agree"] is True
    assert rep["is_free"] is False
    assert rep["betti"][0] == [0, -3, 1]
    code, rep, _ = run_json("canonical", HYPERSURFACE)
    assert rep["s"] == 1 and rep["is_free"] is True


def test_check_suites_and_exit_codes():
    code, rep, _ = run_json("check", "thm8", E2)
    assert code == 0 and rep["verdict"] == "verified"
    code, rep, _ = run_json("check", "gorenstein", HYPERSURFACE)
    assert code == 0 and rep["verdict"] == "verified"
    # no finite injective dimension certificate over e2: inconclusive, exit 3
    code, rep, _ = run_json("check", "cor_id", E2, "--module", "k")
    assert code == 3 and rep["verdict"] == "inconclusive"
    # cor_artinian pools over modules; veronese is not artinian at all
    code, rep, _ = run_json("check", "cor_artinian", VERONESE)
    assert code == 3
    assert all(r["verdict"] == "not_applicable" for r in rep["reports"])


def test_check_faithful_on_gorenstein_ring():
    code, rep, _ = run_json("check", "faithful", HYPERSURFACE, "--module", "R")
    assert code == 0 and rep["verdict"] == "verified"


def test_missing_module_flag_is_an_input_error():
    code, out, err = run("tmod", E2)
    assert code == 2
    assert "--module" in err


def test_missing_file_is_an_input_error(tmp_path):
    code, out, err = run("invariants", str(tmp_path / "absent.cmr"))
    assert code == 2
    assert "absent.cmr" in err


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.cmr"
    bad.write_text("field 6\nring x y\n")
    code, out, err = run("invariants", str(bad))
    assert code == 2
    assert "line 1, col 7" in err


def test_unknown_module_name(tmp_path):
    code, out, err = run("tmod", E2, "--module", "nope")
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("args", [("tmod", E2, "--module", "M"),
                                  ("res", E2, "--module", "M"),
                                  ("check", "type_formula", E2, "--module", "M")])
def test_unknown_module_message_has_no_added_quotes(args):
    # the KeyError's message itself, not its repr with added quotes
    code, rep, _ = run_json(*args)
    assert code == 2
    assert rep["error"] == {"kind": "input", "message": "no module named 'M' in document"}


INPUT_ERRORS = {
    # case: (arguments, report id, part of the message)
    "missing_file": (("invariants", "{tmp}/absent.cmr"), None, "absent.cmr"),
    "parse_error": (("invariants", "{tmp}/bad.cmr"), None, "line 1, col 7"),
    "missing_module_flag": (("tmod", E2), "e2", "--module"),
    "unknown_module": (("tmod", E2, "--module", "nope"), "e2", "'nope'"),
    "unknown_suite": (("check", "nope", E2), "e2", "unknown check suite 'nope'"),
    "unknown_profile": (("corpus", "nope"), "nope-0", "unknown profile 'nope'"),
    "checker_rejects_module": (("check", "cor_artinian", VERONESE, "--module", "R"),
                               "veronese", "R is not artinian"),
    # numeric options are checked before any input is read
    "max_steps_zero": (("res", E2, "--module", "k", "--max-steps", "0"), None,
                       "--max-steps must be at least 1, got 0"),
    "max_steps_negative": (("res", E2, "--module", "k", "--max-steps", "-2"), None,
                           "--max-steps must be at least 1, got -2"),
    "count_negative": (("corpus", "mixed", "--count", "-3"), None,
                       "--count must be at least 1, got -3"),
    "count_zero": (("hunt-counterexample", "--count", "0"), None,
                   "--count must be at least 1, got 0"),
    "degree_bound_negative": (("tmod", E2, "--module", "k", "--degree-bound", "-3"), None,
                              "--degree-bound must be at least 0, got -3"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_as_json(case, tmp_path):
    (tmp_path / "bad.cmr").write_text("field 6\nring x y\n")
    args, doc_id, needle = INPUT_ERRORS[case]
    args = [a.format(tmp=tmp_path) for a in args]
    code, rep, err = run_json(*args)
    assert code == 2 and err == ""
    assert rep == {"command": args[0], "id": doc_id,
                   "error": {"kind": "input", "message": rep["error"]["message"]}}
    assert needle in rep["error"]["message"]
    # the same failure without --json is one line on stderr
    code, out, err = run(*args)
    assert code == 2 and out == ""
    assert err == f"error: {rep['error']['message']}\n"


def test_numeric_options_at_their_least_values():
    # one resolution step is one step, not the default n + 1, and a degree
    # window of width 0 is one Hilbert-function value
    code, rep, _ = run_json("res", E2, "--module", "k", "--max-steps", "1")
    assert code == 0 and rep["length"] == 1 and rep["complete"] is False
    code, rep, _ = run_json("tmod", E2, "--module", "k", "--degree-bound", "0")
    assert code == 0 and len(rep["hilbert_function"]) == 1


def test_degree_past_packing_cap_is_a_resource_limit(tmp_path):
    doc = tmp_path / "steep.cmr"
    doc.write_text("field 32003\nring x y\nideal\nx^130*y\nx*y^130\nend\n")
    code, rep, err = run_json("res", str(doc))
    assert code == 4
    assert rep == {"command": "res", "id": "steep",
                   "error": {"kind": "resource_limit",
                             "message": "total degree 260 exceeds packing cap 255"}}
    assert "Traceback" not in err
    code, out, err = run("res", str(doc))
    assert code == 4 and out == ""
    assert "resource limit" in err


def _assert_gb_is_the_input(tmp_path, text, gens):
    """``charmod gb`` on a document whose ideal is already its reduced
    basis of single terms returns those terms and exits 0: no pair of two
    single terms is formed, however far its lcm passes the degree cap."""
    doc = tmp_path / "terms.cmr"
    doc.write_text(text)
    code, rep, _ = run_json("gb", str(doc))
    assert code == 0
    assert sorted(rep["gb"]) == sorted(gens)


def test_six_variable_degree_cap_is_a_resource_limit(tmp_path):
    # six variables pack 7-bit fields, so the cap is 63: the S-pair of
    # a^40*b + c^41 and a*b^40 has degree 80; the single terms a^40*b and
    # a*b^40 form no pair (this exited 4 while such pairs were formed)
    _assert_gb_is_the_input(tmp_path, "field 32003\nring a b c d e f\nideal\n"
                            "a^40*b\na*b^40\nend\n", ["a^40*b", "a*b^40"])
    doc = tmp_path / "six.cmr"
    doc.write_text("field 32003\nring a b c d e f\nideal\na^40*b + c^41\na*b^40\nend\n")
    code, rep, err = run_json("gb", str(doc))
    assert code == 4
    assert rep["error"] == {"kind": "resource_limit",
                            "message": "total degree 80 exceeds packing cap 63"}
    assert "Traceback" not in err


def test_six_variable_degree_cap_under_the_compiled_pair_loop(compiled_kernel, tmp_path):
    # the same README example where the compiled pair loop, not
    # scaled_merge, forms the S-polynomial past the cap
    ctx = PolyRing(32003, tuple("abcdef")).pack.ctx
    assert kernel.compiled_engine(32003, ctx) == (compiled_kernel.buchberger,
                                                  compiled_kernel.autoreduce)
    _assert_gb_is_the_input(tmp_path, "field 32003\nring a b c d e f\nideal\n"
                            "a^40*b\na*b^40\nend\n", ["a^40*b", "a*b^40"])
    doc = tmp_path / "six.cmr"
    doc.write_text("field 32003\nring a b c d e f\nideal\na^40*b + c^41\na*b^40\nend\n")
    code, rep, err = run_json("gb", str(doc))
    assert code == 4
    assert rep["error"] == {"kind": "resource_limit",
                            "message": "total degree 80 exceeds packing cap 63"}
    assert "Traceback" not in err


def test_lex_s_pair_degree_cap_is_a_resource_limit(tmp_path, request):
    # lex fields are exponents: the lcm x^130*y^130 of this S-pair keeps
    # every field below its guard bit while its degree passes the cap; the
    # single terms x^130*y and x*y^130 form no pair (this exited 4 while
    # such pairs were formed); under the kernel the run starts with, then
    # under the compiled pair loop
    doc = tmp_path / "steep_lex.cmr"
    doc.write_text("field 32003\nring x y\norder lex\nideal\nx^130*y + y^131\n"
                   "x*y^130\nend\n")
    for fixture in (None, "compiled_kernel"):
        if fixture:
            request.getfixturevalue(fixture)
        _assert_gb_is_the_input(tmp_path, "field 32003\nring x y\norder lex\nideal\n"
                                "x^130*y\nx*y^130\nend\n", ["x^130*y", "x*y^130"])
        code, rep, err = run_json("gb", str(doc))
        assert code == 4
        assert rep["error"] == {"kind": "resource_limit",
                                "message": "total degree 260 exceeds packing cap 255"}
        assert "Traceback" not in err


def test_internal_error_has_its_own_exit_code(monkeypatch):
    def broken(doc, args):
        raise RuntimeError("engine invariant violated")
    monkeypatch.setattr("charmod.cli._cmd_gb", broken)
    code, rep, err = run_json("gb", VERONESE)
    assert code == 5
    assert rep == {"command": "gb", "id": "veronese",
                   "error": {"kind": "internal",
                             "message": "RuntimeError: engine invariant violated"}}
    assert "Traceback" in err
    code, out, err = run("gb", VERONESE)
    assert code == 5 and out == ""
    assert "error: internal: RuntimeError: engine invariant violated" in err


def test_unterminated_resolution_is_a_resource_limit(monkeypatch):
    def stuck(M, max_steps=None):
        raise ResolutionLimitError("resolution over the polynomial ring did not terminate")
    monkeypatch.setattr("charmod.cli.resolve", stuck)
    code, rep, _ = run_json("res", E2, "--module", "k")
    assert code == 4
    assert rep["id"] == "e2" and rep["error"]["kind"] == "resource_limit"


def test_stdin_document(monkeypatch):
    text = "field 101\nring x y\nideal\nx^2+y^2\nend\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, rep, _ = run_json("invariants", "-")
    assert code == 0
    assert rep["id"] == "stdin"
    assert rep["is_gorenstein"] is True


def test_polynomial_ring_document(tmp_path):
    doc = tmp_path / "poly.cmr"
    doc.write_text("field 101\nring x y\n")
    code, rep, _ = run_json("check", "thm8", str(doc))
    assert code == 0 and rep["verdict"] == "verified"
    conds = rep["reports"][0]["witness"]["conditions"]
    assert conds["cohen_macaulay"] is True


def test_corpus_command_and_summary():
    code, rep, _ = run_json("corpus", "mixed", "--seed", "7", "--count", "3")
    assert code == 0
    assert rep["verdict"] == "verified"
    assert len(rep["reports"]) == 3
    assert rep["reports"][0]["id"] == "mixed-7-000"
    assert rep["summary"]["verified"] == 3 and rep["summary"]["refuted"] == 0


def test_corpus_json_is_deterministic_across_workers(monkeypatch):
    monkeypatch.setenv("CHARMOD_THREADS", "1")
    _, rep1, _ = run_json("corpus", "mixed", "--seed", "4", "--count", "3")
    monkeypatch.setenv("CHARMOD_THREADS", "2")
    _, rep2, _ = run_json("corpus", "mixed", "--seed", "4", "--count", "3")
    assert strip_timing(rep1) == strip_timing(rep2)


def test_check_battery_suite_on_document():
    code, rep, _ = run_json("check", "battery", E2, "--seed", "5")
    assert code == 0
    assert rep["verdict"] == "verified"
    bat = rep["reports"][0]
    assert bat["id"] == "e2"
    assert bat["failures"] == []


def test_hunt_counterexample_command():
    code, rep, _ = run_json("hunt-counterexample", "--seed", "3", "--count", "2")
    assert code == 0
    assert rep["scanned"] == 2
    assert isinstance(rep["candidates"], list)


def test_text_output_mode():
    code, out, err = run("invariants", VERONESE)
    assert code == 0
    assert "dim: 2" in out
    assert "{" not in out.splitlines()[0]


def test_json_output_is_stable_between_runs():
    _, a, _ = run_json("check", "thm8", VERONESE)
    _, b, _ = run_json("check", "thm8", VERONESE)
    assert strip_timing(a) == strip_timing(b)
