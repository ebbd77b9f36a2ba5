import argparse
import errno
import io
import json
import os
import pathlib
import re

import pytest

from cedga import analysis, catalog, cli, dsl
from cedga.algebra import Presentation
from cedga.cli import main


_TWO_LETTERS = ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
                "gen b deg 0 from e1 to e1\ndiff a = 0\ndiff b = 0\n")
# a link map on which `obstruct` is inconclusive
_INCONCLUSIVE = (
    "ring GF2\npresentation dom {\n  idempotents e1\n"
    "  gen x deg 0 from e1 to e1 short l\n  gen g deg -1 from e1 to e1 long\n"
    "  diff x = 0\n  diff g = e1 + x\n}\n"
    "presentation cod {\n  idempotents e1\n"
    "  gen s deg 0 from e1 to e1 short l\n  gen u deg -1 from e1 to e1 long\n"
    "  diff s = 0\n  diff u = e1\n}\n"
    "map lm : dom -> cod {\n  x -> s;\n}\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_names(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "unknot_one_handle" in out.split()


def test_catalog_name_lists_the_bundle_tables_and_notes(capsys):
    code, out, _ = run(capsys, "catalog", "singular_torus")
    assert code == 0
    lines = out.splitlines()
    # an empty table (here the maps) gets no line
    assert lines[:2] == ["presentations: main",
                         "augmentations: eps eps_prime"]
    notes = catalog.example("singular_torus").notes
    assert notes and lines[2:] == [f"note: {note}" for note in notes]
    code, out, _ = run(capsys, "catalog", "saddle_cobordism")
    assert out.splitlines()[:2] == ["presentations: main codomain",
                                    "maps: Phi"]


def test_catalog_takes_no_json_flag(capsys):
    # catalog prints names or .cedga text, never an envelope
    code, out, err = run(capsys, "catalog", "--json")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --json\n")


def test_catalog_output_flags_exclude_each_other(capsys):
    code, out, err = run(capsys, "catalog", "unknot_edge", "--pres", "main",
                         "--map", "y_filling_links")
    assert (code, out) == (2, "")
    assert "argument --map: not allowed with argument --pres" in err


@pytest.mark.parametrize("flag", [["--emit"], ["--pres", "main"],
                                  ["--map", "y_filling_links"]])
def test_catalog_output_flags_need_a_name(capsys, flag):
    code, out, err = run(capsys, "catalog", *flag)
    assert (code, out) == (2, "")
    assert err == f"cedga: error: catalog {flag[0]} needs a NAME\n"


def _synopsis_flags():
    """Command -> the sorted flags that README's "Command line" block gives
    it; an indented line continues the command above it."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    flags = {}
    for line in block.splitlines():
        if line.startswith("cedga "):
            names = re.match(r"[\w-]+(?: \| [\w-]+)*", line[6:]).group()
            names = names.split(" | ")
        for name in names:
            flags.setdefault(name, set()).update(
                re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    return {name: sorted(f) for name, f in flags.items()}


def test_the_readme_synopsis_gives_each_command_its_flags():
    # an option is named by its shortest spelling (-o for -o/--output)
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert _synopsis_flags() == {
        name: sorted(min(a.option_strings, key=len) for a in p._actions
                     if a.option_strings and a.dest != "help")
        for name, p in sub.choices.items()}


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_grade_validates_each_presentation_once(tmp_path, capsys,
                                                monkeypatch, name):
    f = tmp_path / "x.cedga"
    f.write_text(dsl.serialize(catalog.example(name)))
    names = list(dsl.parse(f.read_text()).presentations)
    seen = []
    validate = Presentation.validate

    def counted(P):
        seen.append(P)
        return validate(P)

    monkeypatch.setattr(Presentation, "validate", counted)
    code, out, _ = run(capsys, "grade", str(f), "--json")
    assert code == 0
    assert sorted(json.loads(out)["certificates"]) == sorted(names)
    assert len(seen) == len(set(map(id, seen))) == len(names)


def test_catalog_emit_h0_pipeline(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "unknot_one_handle", "--emit")
    assert code == 0
    f = tmp_path / "unknot.cedga"
    f.write_text(text)
    code, out, _ = run(capsys, "h0", str(f), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "ground-ring"
    assert obj["certificates"]["h0"]["is_ground_ring"] is True
    assert obj["certificates"]["h0"]["dimension"] == 1


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check-d2", "nonexistent.cedga")
    assert code == 2
    assert "error" in err


def test_parse_error_is_exit_2_without_traceback(tmp_path, capsys):
    f = tmp_path / "bad.cedga"
    f.write_text("ring Q\ndiff a = 1\n")
    code, _, err = run(capsys, "check-d2", str(f))
    assert code == 2
    assert "error" in err


def test_check_d2_pass_and_fail(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "theta", "--emit")
    f = tmp_path / "theta.cedga"
    f.write_text(text)
    code, out, _ = run(capsys, "check-d2", str(f), "--json")
    assert code == 0 and json.loads(out)["verdict"] == "pass"

    bad = tmp_path / "bad.cedga"
    bad.write_text(
        "ring Q\nidempotents e1\n"
        "gen b deg 1 from e1 to e1 short l\n"
        "gen a deg 0 from e1 to e1 long\n"
        "diff b = b*b\ndiff a = b\n")
    code, out, _ = run(capsys, "check-d2", str(bad), "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "counterexample"


def test_parity_grade_trivial_exact(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "unknot_one_handle", "--emit")
    f = tmp_path / "u.cedga"
    f.write_text(text)
    code, _, _ = run(capsys, "grade", str(f))
    assert code == 0
    # the unknot itself does not flip parity (d a = 1 - t0_12)...
    code, _, _ = run(capsys, "parity", str(f))
    assert code == 1
    # ...but the three-point link algebra does
    code, text, _ = run(capsys, "catalog", "unknot_edge", "--pres",
                        "codomain")
    g = tmp_path / "i3.cedga"
    g.write_text(text)
    code, _, _ = run(capsys, "parity", str(g))
    assert code == 0
    code, out, _ = run(capsys, "trivial", str(f), "--max-len", "5", "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "not_within_bounds"
    code, out, _ = run(capsys, "exact", str(f),
                       "--target", "e1 - t1_21*t0_12", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "witness"
    assert obj["certificates"]["search"]["witness"] == "t1_11"


def test_verify_map_and_aug(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "saddle_cobordism", "--emit")
    f = tmp_path / "saddle.cedga"
    f.write_text(text)
    code, out, _ = run(capsys, "verify-map", str(f), "--json")
    assert code == 0 and json.loads(out)["verdict"] == "pass"

    code, text, _ = run(capsys, "catalog", "singular_torus", "--emit")
    g = tmp_path / "torus.cedga"
    g.write_text(text)
    code, out, _ = run(capsys, "verify-aug", str(g), "--json")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_verify_map_reports_a_map_error_as_a_failure(tmp_path, capsys):
    f = tmp_path / "partial.cedga"
    f.write_text(_TWO_LETTERS + "map m : main -> main {\n  a -> a;\n"
                 "  idem e1 -> e1;\n}\n")
    code, out, _ = run(capsys, "verify-map", str(f), "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "failure"
    assert obj["certificates"] == {"m": {"ok": False,
                                         "error": "m: not a total map"}}


def test_linearize_reads_the_augmentation_from_its_own_file(tmp_path,
                                                           capsys):
    _, text, _ = run(capsys, "catalog", "unknot_one_handle", "--emit")
    f = tmp_path / "u.cedga"
    f.write_text(text)
    aug = tmp_path / "eps.cedga"
    aug.write_text("aug eps on main scope link0 {\n"
                   "  t0_12 -> 1;\n  t1_21 -> 1;\n}\n")
    code, out, _ = run(capsys, "linearize", str(f), str(aug), "-o", "-")
    assert code == 0
    assert "  gen a deg -1 from e1 to e1 long\n  diff a = 0\n" in out
    assert "\nlinearize: ok\n" in out


def test_linearize_writes_a_parseable_file(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "unknot_one_handle", "--emit")
    f = tmp_path / "u.cedga"
    aug = ("aug eps on main scope link0 {\n"
           "  t0_12 -> 1;\n  t1_21 -> 1;\n}\n")
    f.write_text(text + aug)
    out_file = tmp_path / "lin.cedga"
    code, _, _ = run(capsys, "linearize", str(f), str(f), "-o", str(out_file))
    assert code == 0
    from cedga.dsl import parse
    L = parse(out_file.read_text()).presentations["main"]
    assert [g.name for g in L.generators] == ["a"]
    assert L.d_gen("a") == {}


def test_linearize_to_stdout_under_json_is_one_object(tmp_path, capsys):
    _, text, _ = run(capsys, "catalog", "unknot_one_handle", "--emit")
    f = tmp_path / "u.cedga"
    f.write_text(text + "aug eps on main scope link0 {\n"
                 "  t0_12 -> 1;\n  t1_21 -> 1;\n}\n")
    out_file = tmp_path / "lin.cedga"
    code, _, _ = run(capsys, "linearize", str(f), str(f), "-o", str(out_file))
    assert code == 0
    code, out, err = run(capsys, "linearize", str(f), str(f), "-o", "-",
                         "--json")
    assert (code, err) == (0, "")
    obj, end = json.JSONDecoder().raw_decode(out)
    assert out[end:] == "\n"
    assert obj["certificates"]["text"].encode() == out_file.read_bytes()


def test_obstruct_three_file_workflow(tmp_path, capsys):
    _, dom, _ = run(capsys, "catalog", "unknot_edge", "--pres", "main")
    _, cod, _ = run(capsys, "catalog", "unknot_edge", "--pres", "codomain")
    _, lm, _ = run(capsys, "catalog", "unknot_edge", "--map",
                   "y_filling_links")
    files = {}
    for name, text in (("edge", dom), ("i3", cod), ("pairing", lm)):
        p = tmp_path / f"{name}.cedga"
        p.write_text(text)
        files[name] = str(p)
    code, out, _ = run(capsys, "obstruct", files["edge"],
                       "--codomain", files["i3"],
                       "--link-map", files["pairing"], "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "obstructed"
    assert obj["certificates"]["report"]["certificate"]["status"] == \
        "none_within_bounds"


def test_obstruct_inconclusive_exit_code(tmp_path, capsys):
    f = tmp_path / "both.cedga"
    f.write_text(_INCONCLUSIVE)
    code, out, _ = run(capsys, "obstruct", str(f), "--map", "lm", "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "inconclusive"


def test_json_determinism_excluding_timings(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "a3_link", "--emit")
    f = tmp_path / "a3.cedga"
    f.write_text(text)
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "obstruct", str(f), "--map",
                           "pairing_xw_yv", "--json")
        assert code == 0
        obj = json.loads(out)
        del obj["timings"]
        outs.append(json.dumps(obj, sort_keys=True))
    assert outs[0] == outs[1]


def test_max_len_flag_sets_the_bound(tmp_path, capsys):
    code, text, _ = run(capsys, "catalog", "unknot_one_handle", "--emit")
    f = tmp_path / "u.cedga"
    f.write_text(text)
    code, out, _ = run(capsys, "trivial", str(f), "--max-len", "4", "--json")
    assert json.loads(out)["bounds"]["max_word_length"] == 4


def test_undefined_coefficient_is_exit_2(tmp_path, capsys):
    for ring, coeff in (("GF2", "1/2"), ("Q", "1/0")):
        f = tmp_path / "bad.cedga"
        f.write_text(f"ring {ring}\nidempotents e1\n"
                     f"gen a deg 0 from e1 to e1\ndiff a = {coeff}\n")
        code, _, err = run(capsys, "check-d2", str(f))
        assert code == 2
        assert "4:10:" in err


@pytest.mark.parametrize("argv", [
    ["h0", "--max-len", "1"],
    ["h0", "--max-level", "1"],
    ["exact", "--target", "e1", "--degree-bound", "4"],
    ["trivial", "--degree-bound", "4"],
    ["obstruct", "--degree-bound", "4"],
])
def test_bound_flags_a_command_does_not_read_are_usage_errors(
        tmp_path, capsys, argv):
    f = tmp_path / "u.cedga"
    f.write_text(run(capsys, "catalog", "unknot_one_handle", "--emit")[1])
    code, _, err = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert "unrecognized arguments" in err


def test_truncated_h0_is_inconclusive_with_all_bounds(tmp_path, capsys):
    f = tmp_path / "u2.cedga"
    f.write_text(run(capsys, "catalog", "unknot_two_handles", "--emit")[1])
    code, out, _ = run(capsys, "h0", str(f), "--degree-bound", "0", "--json")
    obj = json.loads(out)
    assert code == 1 and obj["verdict"] == "inconclusive"
    assert obj["certificates"]["h0"]["truncated"] is True
    assert obj["bounds"] == {"degree_bound": 0, "max_level": 2,
                             "max_word_length": 6}


@pytest.mark.parametrize("text,argv,verdict,code", [
    # complete and collapse-free: a basis up to the bound
    (_TWO_LETTERS, [], "basis", 0),
    # d r = a*b - 1, d s = a: the collapse -1 = 0 is found, so no verdict
    (_TWO_LETTERS + "gen r deg -1 from e1 to e1\n"
     "gen s deg -1 from e1 to e1\ndiff r = a*b - e1\ndiff s = a\n",
     [], "inconclusive", 1),
    # d r = a, d s = b: every letter is rewritten away
    (_TWO_LETTERS + "gen r deg -1 from e1 to e1\n"
     "gen s deg -1 from e1 to e1\ndiff r = a\ndiff s = b\n",
     [], "ground-ring", 0),
    # k<a, b> at bound 0: complete, but the letters were never tested
    (_TWO_LETTERS, ["--degree-bound", "0"], "basis", 0),
], ids=["basis", "collapse", "ground_ring", "free_at_bound_0"])
def test_h0_verdicts(tmp_path, capsys, text, argv, verdict, code):
    f = tmp_path / "h.cedga"
    f.write_text(text)
    got, out, _ = run(capsys, "h0", str(f), "--json", *argv)
    assert (json.loads(out)["verdict"], got) == (verdict, code)


def test_h0_basis_cut_at_the_cap_is_inconclusive(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(analysis, "BASIS_CAP", 3)
    f = tmp_path / "h.cedga"
    f.write_text(_TWO_LETTERS)
    code, out, _ = run(capsys, "h0", str(f), "--json")
    obj = json.loads(out)
    assert (obj["verdict"], code) == ("inconclusive", 1)
    assert obj["certificates"]["h0"]["basis"] == ["e1", "a", "a*a"]


@pytest.mark.parametrize("argv,message", [
    (["obstruct", "{f}", "--map", "nosuch"], "no link map named 'nosuch'"),
    (["obstruct", "{f}"], "choose one link map with --map"),
    (["linearize", "{f}", "{f}", "-o", "-", "--aug", "nosuch"],
     "no augmentation named 'nosuch'"),
    (["linearize", "{f}", "{f}", "-o", "-"],
     "choose one augmentation with --aug"),
    (["verify-map", "{f}", "--map", "nosuch"], "no map named 'nosuch'"),
    (["verify-map", "{e}"], "the file has no map"),
    (["verify-aug", "{f}", "--aug", "nosuch"],
     "no augmentation named 'nosuch'"),
    (["verify-aug", "{e}"], "the file has no augmentation"),
    (["h0", "{f}", "--pres", "nosuch"], "no presentation named 'nosuch'"),
    (["h0", "{e}"], "no presentation named 'main'"),
    (["check-d2", "{f}", "--pres", "nosuch"],
     "no presentation named 'nosuch'"),
    (["catalog", "nosuch"], "no catalog example named 'nosuch'"),
    (["check-d2", "{r}"], "the file has no presentation"),
    (["grade", "{r}"], "the file has no presentation"),
    (["parity", "{r}"], "the file has no presentation"),
    (["obstruct", "{f}", "--codomain", "{f}"],
     "--codomain and --link-map must be given together"),
    (["obstruct", "{f}", "--link-map", "{f}"],
     "--codomain and --link-map must be given together"),
], ids=["obstruct_map", "obstruct_none", "linearize_aug", "linearize_none",
        "verify_map_map", "verify_map_empty", "verify_aug_aug",
        "verify_aug_empty", "h0_pres", "h0_default", "check_pres",
        "catalog_name", "check_d2_ring_only", "grade_ring_only",
        "parity_ring_only", "obstruct_codomain_alone",
        "obstruct_link_map_alone"])
def test_unknown_or_missing_names_are_one_line_usage_errors(
        tmp_path, capsys, argv, message):
    # two maps and two augmentations, so nothing is chosen by default
    f = tmp_path / "two.cedga"
    letters = _TWO_LETTERS.replace("e1\ngen b", "e1 short l\ngen b")
    f.write_text(letters + "map m1 : main -> main { a -> a; }\n"
                 "map m2 : main -> main { a -> b; }\n"
                 "aug eps1 on main scope l { a -> 1; }\n"
                 "aug eps2 on main scope l { a -> 0; }\n")
    e = tmp_path / "empty.cedga"
    e.write_text("ring Q\npresentation other {\n  idempotents e1\n}\n")
    r = tmp_path / "ring_only.cedga"
    r.write_text("ring Q\n")
    code, out, err = run(capsys, *[a.format(f=f, e=e, r=r) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"cedga: error: {message}\n"


@pytest.mark.parametrize("text,where", [
    ("ring Q\nidempotents e1\ngen a deg ² from e1 to e1\n", "3:11:"),
    ("ring laurent(t,t)\nidempotents e1\n", "1:6:"),
    ("ring laurent(é)\nidempotents e1\n", "1:14:"),
    ("ring Q\nidempotents e1\nring GF2\npresentation p { idempotents e1 }\n",
     "3:1:"),
    (b"ring Q\n\xff\n", "2:1:"),
    (b"ring Q\r\nidempotents e1 \xc3\xa9\xff\n", "2:17:"),
], ids=["superscript_digit", "repeated_parameter", "non_ascii_parameter",
        "second_ring", "not_utf8", "not_utf8_after_a_wide_character"])
def test_bad_text_is_one_positioned_line_and_exit_2(tmp_path, capsys, text,
                                                    where):
    f = tmp_path / "bad.cedga"
    f.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, out, err = run(capsys, "check-d2", str(f))
    assert (code, out) == (2, "")
    assert err.startswith(f"cedga: error: {where} ")
    assert err.count("\n") == 1


def test_standard_input_is_read_like_a_file(tmp_path, capsys, monkeypatch):
    data = b"ring Q\nidempotents e1\n\xff\n"
    f = tmp_path / "bad.cedga"
    f.write_bytes(data)
    from_file = run(capsys, "check-d2", str(f))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    from_stdin = run(capsys, "check-d2", "-")
    assert from_stdin == from_file == (
        2, "", "cedga: error: 3:1: byte 0xff is not UTF-8\n")
    # line ends are read the same way too
    crlf = (b"ring Q\r\nidempotents e1\rgen a deg 0 from e1 to e1\r\n"
            b"diff a = 0\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(crlf)))
    assert run(capsys, "check-d2", "-")[0] == 0


def test_a_text_stream_without_bytes_is_read_as_text(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_TWO_LETTERS))
    code, out, _ = run(capsys, "check-d2", "-")
    assert code == 0 and out.startswith("check-d2: pass")


@pytest.mark.parametrize("argv", [["h0"], ["exact", "--target", "e1"],
                                  ["trivial"]])
def test_invalid_presentation_is_refused_by_every_search(tmp_path, capsys,
                                                         argv):
    # d a puts the loop e2 and the letter x: e2 -> e1 into an equation at e1
    f = tmp_path / "mixed_ends.cedga"
    f.write_text("ring Q\nidempotents e1 e2\ngen a deg -1 from e1 to e1\n"
                 "gen x deg 0 from e2 to e1\ndiff a = e1 + e2 + x\n"
                 "diff x = 0\n")
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out) == (2, "")
    assert "fails validation" in err


@pytest.mark.parametrize("argv", [
    ["verify-aug", "FILE"], ["linearize", "FILE", "FILE", "-o", "-"],
    ["check-d2", "FILE"]])
def test_an_augmentation_on_an_invalid_presentation_is_refused(
        tmp_path, capsys, argv):
    # the scoped generator t has no diff line, so d t would read as 0
    f = tmp_path / "no_diff.cedga"
    f.write_text("ring Q\nidempotents e1\n"
                 "gen t deg 0 from e1 to e1 short l\n"
                 "gen a deg -1 from e1 to e1 long\ndiff a = 1 - t\n"
                 "aug eps on main scope l { t -> 1; }\n")
    code, out, err = run(capsys, *(str(f) if a == "FILE" else a
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err == ("cedga: error: presentation fails validation: "
                   "missing-differential at t: no diff statement\n")


# x has no differential and x*x has degree 0, not deg(a) + 1 = 6
_UNGRADED = ("ring Q\nidempotents e\ngen x deg 0 from e to e\n"
             "gen a deg 5 from e to e\ndiff a = x*x\n")
# eps verifies, but d(d c) = a + a*x, which eps sends to 2*a
_D2_FAILS = ("ring Q\nidempotents e\ngen x deg 0 from e to e short L\n"
             "gen a deg 2 from e to e\ngen b deg 1 from e to e\n"
             "gen c deg 0 from e to e\ndiff x = 0\ndiff a = 0\n"
             "diff b = a + a*x\ndiff c = b\n"
             "aug eps on main scope L {\n  x -> 1;\n}\n")


@pytest.mark.parametrize("argv,text,code,out,err", [
    (["parity", "FILE"], _UNGRADED, 2, "",
     "cedga: error: presentation fails validation: missing-differential at "
     "x: no diff statement; degree at a: word x*x has degree 0, expected "
     "6\n"),
    (["check-d2", "FILE"], _UNGRADED, 2, "",
     "cedga: error: presentation fails validation: missing-differential at "
     "x: no diff statement; degree at a: word x*x has degree 0, expected "
     "6\n"),
    (["verify-aug", "FILE"], _D2_FAILS, 0,
     'verify-aug: pass\n  eps: {"failures": [], "ok": true}\n', ""),
    (["check-d2", "FILE"], _D2_FAILS, 1,
     'check-d2: counterexample\n  main: {"counterexamples": [{"generator": '
     '"c", "residual": "a + a*x"}], "ok": false}\n', ""),
    (["linearize", "FILE", "FILE", "-o", "-"], _D2_FAILS, 2, "",
     "cedga: error: linearized differential fails d^2 = 0 at c "
     "(residual 2*a)\n"),
], ids=["parity_invalid", "check_d2_invalid", "verify_aug_d2_fails",
        "check_d2_d2_fails", "linearize_d2_fails"])
def test_parity_and_linearize_refuse_what_check_d2_finds(tmp_path, capsys,
                                                         argv, text, code,
                                                         out, err):
    f = tmp_path / "in.cedga"
    f.write_text(text)
    assert run(capsys, *(str(f) if a == "FILE" else a for a in argv)) == (
        code, out, err)


def test_an_unsound_witness_is_one_named_line_and_exit_2(tmp_path, capsys,
                                                        monkeypatch):
    f = tmp_path / "r.cedga"
    f.write_text(_TWO_LETTERS + "gen r deg -1 from e1 to e1\ndiff r = a\n")
    assert run(capsys, "exact", str(f), "--target", "a", "--json")[0] == 0
    monkeypatch.setattr(analysis.LinearSolver, "solve",
                        lambda self, raw_rhs: {(2,): 2})
    assert run(capsys, "exact", str(f), "--target", "a", "--json") == (
        2, "", "cedga: error: AssertionError: solver returned an unsound "
               "witness\n")


@pytest.mark.parametrize("argv", [["exact", "--target", "a"], ["trivial"]])
def test_a_search_over_a_laurent_ring_is_one_line_and_exit_2(tmp_path, capsys,
                                                             argv):
    f = tmp_path / "laurent.cedga"
    f.write_text("ring laurent(t)\nidempotents e1\n"
                 "gen a deg 0 from e1 to e1\ngen r deg -1 from e1 to e1\n"
                 "diff a = 0\ndiff r = t*a\n")
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "cedga: error: linear search needs a field (Q or GF2)\n"


def test_a_directory_as_file_is_one_line_and_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "check-d2", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == (f"cedga: error: [Errno {errno.EISDIR}] "
                   f"{os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n")


def test_an_unexpected_exception_is_one_named_line_and_exit_2(
        tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("no rewriting today")

    monkeypatch.setattr(analysis, "h0", fail)
    f = tmp_path / "h.cedga"
    f.write_text(_TWO_LETTERS)
    assert run(capsys, "h0", str(f), "--json") == (
        2, "", "cedga: error: RuntimeError: no rewriting today\n")


def test_one_parser_serves_every_call_and_looks_commands_up_late(
        tmp_path, capsys, monkeypatch):
    f = tmp_path / "two.cedga"
    f.write_text(_TWO_LETTERS)
    # a usage error between two calls leaves the parser as it was
    for argv, code, verdict in (
            (("check-d2", str(f), "--json"), 0, "pass"),
            (("grade", str(f), "--json", "--no-such-flag"), 2, None),
            (("grade", str(f), "--json"), 0, "pass"),
            (("h0", str(f), "--json"), 0, "basis")):
        got, out, err = run(capsys, *argv)
        assert got == code
        if verdict:
            obj = json.loads(out)
            assert (obj["command"], obj["verdict"], err) == (
                argv[0], verdict, "")
    assert cli._parser() is cli._parser()
    seen = []
    real_h0, real_cmd_h0 = analysis.h0, cli.cmd_h0
    monkeypatch.setattr(analysis, "h0",
                        lambda P, **kw: seen.append("h0") or real_h0(P, **kw))
    monkeypatch.setattr(cli, "cmd_h0",
                        lambda args: seen.append("cmd") or real_cmd_h0(args))
    code, out, _ = run(capsys, "h0", str(f), "--degree-bound", "1", "--json")
    obj = json.loads(out)
    assert (code, obj["command"], obj["verdict"]) == (0, "h0", "basis")
    assert obj["certificates"]["h0"]["dimension"] == 3
    assert seen == ["cmd", "h0"]


def test_h0_walks_a_basis_deeper_than_the_recursion_limit(tmp_path, capsys):
    f = tmp_path / "loop.cedga"
    f.write_text("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
                 "diff a = 0\n")
    code, out, _ = run(capsys, "h0", str(f), "--degree-bound", "1000",
                       "--json")
    obj = json.loads(out)
    assert (code, obj["verdict"]) == (0, "basis")
    assert obj["certificates"]["h0"]["dimension"] == 1001


_R = _TWO_LETTERS + "gen r deg -1 from e1 to e1\n"
_AUG = ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1 short l\n"
        "gen r deg -1 from e1 to e1 short l\ndiff a = 0\ndiff r = a - e1\n"
        "aug eps on main scope l { a -> %s; }\n")
_MAP = _R + ("diff r = a\nmap m : main -> main {\n"
             "  idem e1 -> e1; a -> %s; b -> b; r -> r;\n}\n")


@pytest.mark.parametrize("argv,text,verdict,code", [
    (["check-d2"], _TWO_LETTERS, "pass", 0),
    (["check-d2"], "ring Q\nidempotents e1\ngen b deg 1 from e1 to e1\n"
     "gen a deg 0 from e1 to e1\ndiff b = b*b\ndiff a = b\n",
     "counterexample", 1),
    (["grade"], _TWO_LETTERS, "pass", 0),
    (["grade"], _R + "diff r = a*r\n", "violation", 1),
    (["grade"], _TWO_LETTERS.replace("diff b = 0\n", ""), "violation", 1),
    (["parity"], _R + "diff r = a*b - b*a\n", "pass", 0),
    (["parity"], _R + "diff r = a\n", "counterexample", 1),
    (["h0"], _TWO_LETTERS, "basis", 0),
    (["h0"], _R + "gen s deg -1 from e1 to e1\ndiff r = a*b - e1\n"
     "diff s = a\n", "inconclusive", 1),
    (["exact", "--target", "a"], _R + "diff r = a\n", "witness", 0),
    (["exact", "--target", "b"], _R + "diff r = a\n", "none_within_bounds",
     1),
    (["trivial"], _R + "diff r = e1\n", "certified_trivial", 0),
    (["trivial", "--max-len", "2"], _R + "diff r = a\n", "not_within_bounds",
     1),
    (["verify-map"], _MAP % "a", "pass", 0),
    (["verify-map"], _MAP % "b", "failure", 1),
    (["verify-aug"], _AUG % "1", "pass", 0),
    (["verify-aug"], _AUG % "0", "failure", 1),
    (["linearize", "{f}", "-o", "{out}"], _AUG % "1", "ok", 0),
    (["obstruct", "--map", "y_filling_links"],
     dsl.serialize(catalog.example("unknot_edge")), "obstructed", 0),
    (["obstruct", "--map", "lm"], _INCONCLUSIVE, "inconclusive", 1),
], ids=["check_d2_pass", "check_d2_fail", "grade_pass", "grade_fail",
        "grade_fail_missing_diff", "parity_pass", "parity_fail", "h0_pass", "h0_fail", "exact_pass",
        "exact_fail", "trivial_pass", "trivial_fail", "verify_map_pass",
        "verify_map_fail", "verify_aug_pass", "verify_aug_fail",
        "linearize_pass", "obstruct_pass", "obstruct_fail"])
def test_every_verdict_has_one_envelope_and_exit_code(tmp_path, capsys, argv,
                                                      text, verdict, code):
    f = tmp_path / "in.cedga"
    f.write_text(text)
    command, *rest = [a.format(f=f, out=tmp_path / "out.cedga")
                      for a in argv]
    got, out, err = run(capsys, command, str(f), *rest, "--json")
    obj = json.loads(out)
    assert (got, err, obj["verdict"]) == (code, "", verdict)
    assert set(obj) == {"bounds", "certificates", "command", "timings",
                        "verdict"}
    assert obj["command"] == command
    got, out, _ = run(capsys, command, str(f), *rest)
    assert got == code
    assert out.splitlines()[0] == f"{command}: {obj['verdict']}"
