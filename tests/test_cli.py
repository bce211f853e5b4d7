import argparse
import gc
import json
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

import stautcheck
from stautcheck import cli
from stautcheck import profunctors as pf
from stautcheck.cli import main, run
from stautcheck.files import (FileFormatError, load_quantale_file,
                              load_vcat_file, resolve_quantale)

CHAIN3 = """\
# three-element chain, truncated addition
elements bot mid top
le bot mid
le mid top
tensor bot bot bot
tensor bot mid bot
tensor bot top bot
tensor mid bot bot
tensor mid mid bot
tensor mid top mid
tensor top bot bot
tensor top mid mid
tensor top top top
unit top
dualizer bot
"""


@pytest.fixture
def chain3_path(tmp_path):
    path = tmp_path / "chain3.quantale"
    path.write_text(CHAIN3)
    return str(path)


def test_load_quantale_file(chain3_path):
    q = load_quantale_file(chain3_path)
    assert len(q) == 3
    bot, mid, top = map(q.index, ("bot", "mid", "top"))
    assert q.le(bot, top)
    assert not q.le(top, mid)
    assert q.values[q.perp(mid)] == "mid"
    assert q.is_cyclic().ok
    assert all(r.ok for r in q.validate())


def test_quantale_file_errors(tmp_path):
    bad = tmp_path / "bad.quantale"
    bad.write_text("elements a b\nle a\n")
    with pytest.raises(FileFormatError, match="bad.quantale:2"):
        load_quantale_file(str(bad))
    bad.write_text("elements a b\nunit a\ndualizer b\n")
    with pytest.raises(FileFormatError, match="incomplete"):
        load_quantale_file(str(bad))
    bad.write_text("elements a b\nle a b\nle b a\n" +
                   "".join(f"tensor {x} {y} {y}\n" for x in "ab" for y in "ab") +
                   "unit a\ndualizer b\n")
    with pytest.raises(FileFormatError, match="antisymmetric"):
        load_quantale_file(str(bad))
    for line in ("unit", "dualizer a b"):
        bad.write_text(f"elements a b\n{line}\n")
        with pytest.raises(FileFormatError, match="bad.quantale:2: .* exactly one name"):
            load_quantale_file(str(bad))
    assert main(["quantale", "check", str(bad)]) == 2
    # a repeated line would silently override the earlier one
    for line in ("tensor a a a", "unit a", "dualizer b"):
        bad.write_text(f"elements a b\n{line}\n{line}\n")
        with pytest.raises(FileFormatError, match="bad.quantale:3: repeated"):
            load_quantale_file(str(bad))
        assert main(["quantale", "check", str(bad)]) == 2


def test_load_vcat_file(tmp_path, chain3_path):
    path = tmp_path / "pair.vcat"
    path.write_text(f"quantale {chain3_path}\n"
                    "objects x y\n"
                    "hom x x top\nhom x y mid\nhom y x bot\nhom y y top\n")
    c = load_vcat_file(str(path))
    assert c.objects == ["x", "y"]
    assert c.base.values[c.hom[("x", "y")]] == "mid"


def test_vcat_file_errors(tmp_path):
    path = tmp_path / "bad.vcat"
    path.write_text("quantale bool2\nobjects x\nhom x x 7\n")
    with pytest.raises(FileFormatError, match="unknown base element"):
        load_vcat_file(str(path))
    path.write_text("quantale bool2\nobjects x y\nhom x x 1\n")
    with pytest.raises(FileFormatError, match="missing hom"):
        load_vcat_file(str(path))
    cases = [
        ("objects\n", "bad.vcat:2: objects line needs names"),
        ("objects x x\nhom x x 1\n", "bad.vcat:2: duplicate object names"),
        ("quantale luk3\nobjects x\nhom x x 1\n", "bad.vcat:2: duplicate quantale line"),
        ("objects x\nhom x x 1\nhom x z 1\n", "bad.vcat:4: hom x z names an undeclared"),
        ("objects x\nhom x x 1\nhom x x 1\n", "bad.vcat:4: repeated hom x x"),
        ("objects x\nhom x x 0\n", "identity inequality fails at x"),
        ("objects x y z\nhom x y 1\nhom y z 1\nhom x z 0\nhom y x 0\nhom z x 0\n"
         "hom z y 0\n" + "".join(f"hom {a} {a} 1\n" for a in "xyz"),
         "composition inequality fails at \\(x,y,z\\)"),
    ]
    for body, message in cases:
        path.write_text("quantale bool2\n" + body)
        with pytest.raises(FileFormatError, match=message):
            load_vcat_file(str(path))
        assert main(["prof", "check", str(path)]) == 2


def test_resolve_quantale_builtin_and_file(chain3_path):
    assert resolve_quantale("bool2").label == "bool2"
    assert resolve_quantale(chain3_path).label.endswith("chain3.quantale")
    with pytest.raises(Exception):
        resolve_quantale("not-a-builtin-or-file")


def test_cli_quantale_check(capsys):
    assert main(["quantale", "check", "rel:2"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out


def test_cli_noncyclic_quantale_still_passes(capsys):
    assert main(["quantale", "check", "s3:(01)"]) == 0
    out = capsys.readouterr().out
    assert "not cyclic" in out


def test_cli_braided_suite_with_its_counter_model(capsys):
    assert main(["--format", "structured", "braided", "d2-suite", "--counter-model"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in doc["reports"]] == ["braided-d2-suite", "braided-counter-model"]
    assert doc["ok"] is True


def test_cli_scalar_table(capsys):
    assert main(["vec", "scalar-table", "--values", "1,-1"]) == 0
    out = capsys.readouterr().out
    assert "scalar(1)-matches-oracle" in out
    assert "scalar(-1)-separation" in out


def test_cli_input_errors(tmp_path, capsys):
    assert main(["quantale", "check", "nosuch:1"]) == 2
    assert main(["vec", "scalar-table", "--values", "0"]) == 2
    assert main(["vec", "scalar-table", "--values", "x"]) == 2
    assert main(["vec", "scalar-table", "--max-dim", "9"]) == 2
    assert main(["prof", "check", "/does/not/exist.vcat"]) == 2
    assert main(["zang", "suite", "thin:s3:(01)"]) == 2
    noncyclic = tmp_path / "noncyclic.vcat"
    noncyclic.write_text("quantale s3:(01)\nobjects x\nhom x x e\n")
    assert main(["prof", "check", str(noncyclic)]) == 2
    assert "not cyclic (witness (02))" in capsys.readouterr().err
    assert main(["--window", "-2", "zang", "suite", "vec"]) == 2
    assert main(["--window", "0", "zang", "suite", "vec"]) == 2
    assert main(["vec", "scalar-table", "--values", "1,1"]) == 2
    # unreadable input: a directory, a file that is not UTF-8, a report
    # path in a missing directory or naming a directory (refused before
    # any check runs)
    assert main(["quantale", "check", str(tmp_path)]) == 2
    latin1 = tmp_path / "latin1.quantale"
    latin1.write_bytes("elements b\xe9 top\n".encode("latin-1"))
    assert main(["quantale", "check", str(latin1)]) == 2
    latin1.write_bytes("quantale bool2\nobjects \xe9\n".encode("latin-1"))
    assert main(["prof", "check", str(latin1)]) == 2
    capsys.readouterr()
    assert main(["--report", str(tmp_path / "nodir" / "r.txt"), "quantale", "check", "bool2"]) == 2
    assert main(["--report", str(tmp_path), "quantale", "check", "bool2"]) == 2
    assert capsys.readouterr().out == ""


MALFORMED_SPECS = ["rel:x", "2prof:chainx", "2prof:disc-2", "zmod:", "zmod:3@x", "zmod:0",
                   "zmod:0@0", "zmod:-1"]


@pytest.mark.parametrize("argv", [["quantale", "check", spec] for spec in MALFORMED_SPECS]
                         + [["zang", "suite", "thin:zmod:0"], ["prof", "check", "zmod0.vcat"]],
                         ids=MALFORMED_SPECS + ["zang", "vcat"])
def test_cli_malformed_builtin_spec_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    # each used to end in a traceback and exit 1, the code of a failed verdict
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zmod0.vcat").write_text("quantale zmod:0\nobjects x\nhom x x 0\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    # a file of that name is still read as one
    if argv[0] == "quantale":
        (tmp_path / argv[2]).write_text(CHAIN3)
        assert len(resolve_quantale(argv[2])) == 3


# a three-element chain 0 < h < 1 with unit 1 whose tensor table differs
# from a quantale's in the marked cells
BAD_BASE = """\
elements 0 h 1
le 0 h
le h 1
tensor 0 0 0
tensor 0 h {zero_h}
tensor 0 1 0
tensor h 0 h
tensor h h 0
tensor h 1 h
tensor 1 0 0
tensor 1 h h
tensor 1 1 1
unit 1
dualizer 0
"""


@pytest.mark.parametrize("zero_h, refusal", [
    # (h * 0) * h = h * h = 0, but h * (0 * h) = h * 0 = h
    ("0", "fails associativity (witness ('h', '0', 'h'))"),
    # 0 <= h, yet 0 * h = h is not below h * h = 0
    ("h", "fails monotonicity (witness ('0', 'h', 'h'))"),
], ids=["not-associative", "not-monotone"])
def test_cli_prof_refuses_a_base_that_is_not_a_quantale(tmp_path, capsys, zero_h, refusal):
    # a one-object category over either base used to reach the checks and
    # exit 1 on the Prof quantale's own associativity or monotonicity
    base = tmp_path / "bad.quantale"
    base.write_text(BAD_BASE.format(zero_h=zero_h))
    vcat = tmp_path / "bad.vcat"
    vcat.write_text(f"quantale {base}\nobjects x\nhom x x 1\n")
    assert main(["--seed", "5", "prof", "check", str(vcat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: base quantale bad.quantale {refusal}" in captured.err
    c = load_vcat_file(str(vcat))
    with pytest.raises(pf.ProfError, match=re.escape(refusal)):
        pf.build_prof_quantale(c, pf.enumerate_profs(c))


def test_paper_all_passes_at_other_seeds(capsys):
    # seed 3 is criterion 9, which also pins its report
    codes = {}
    for seed in (0, 1, 2, 4):
        codes[seed] = main(["--format", "structured", "--seed", str(seed), "paper", "all"])
        capsys.readouterr()
    assert codes == {0: 0, 1: 0, 2: 0, 4: 0}


def test_there_is_no_depth_flag(capsys):
    # the object universe has no depth: argparse refuses the flag before any
    # check runs
    with pytest.raises(SystemExit) as stop:
        main(["--depth", "8", "paper", "all"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stautcheck: error:" in captured.err and "--depth" not in captured.err


def test_cli_structured_report_deterministic(tmp_path, capsys):
    args = ["--format", "structured", "--seed", "5",
            "--report", str(tmp_path / "a.json"), "quantale", "check", "bool2"]
    assert main(args) == 0
    capsys.readouterr()
    args[5] = str(tmp_path / "b.json")
    assert main(args) == 0
    capsys.readouterr()
    a = (tmp_path / "a.json").read_text()
    b = (tmp_path / "b.json").read_text()
    assert a == b
    doc = json.loads(a)
    assert doc["schema_version"] == 1
    assert doc["ok"] is True
    assert all("witness" in c for r in doc["reports"] for c in r["checks"])


@pytest.fixture
def broken_quantale_path(tmp_path):
    # an intentionally broken quantale: non-associative tensor
    path = tmp_path / "broken.quantale"
    rows = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "a"}
    path.write_text("elements a b\nle a b\n" +
                    "".join(f"tensor {x} {y} {z}\n" for (x, y), z in rows.items()) +
                    "unit a\ndualizer b\n")
    return path


def test_cli_failure_exit_code(broken_quantale_path, capsys):
    code = main(["quantale", "check", str(broken_quantale_path)])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_leaves_the_cyclic_collector_as_it_found_it(
        enabled, broken_quantale_path, monkeypatch, capsys):
    # the run itself goes without the collector, and on a pass, a failed
    # verdict and an input error alike main returns with it as it was
    during = []
    run_checks = cli._run

    def recording(args):
        during.append(gc.isenabled())
        return run_checks(args)

    monkeypatch.setattr(cli, "_run", recording)
    (gc.enable if enabled else gc.disable)()
    try:
        after = [(main(["quantale", "check", spec]), gc.isenabled())
                 for spec in ("bool2", str(broken_quantale_path), "rel:0")]
    finally:
        gc.enable()
    capsys.readouterr()
    assert after == [(0, enabled), (1, enabled), (2, enabled)]
    assert during == [False] * 3


def test_the_process_entry_freezes_the_heap_after_main(monkeypatch, capsys):
    # the interpreter's collection at exit then skips what the run left
    monkeypatch.setattr(sys, "argv", ["stautcheck", "quantale", "check", "bool2"])
    try:
        assert run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    capsys.readouterr()
    assert 'stautcheck = "stautcheck.cli:run"' in (
        Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()


def test_cli_zang_suite(capsys):
    assert main(["zang", "suite", "thin:rel:2"]) == 0
    out = capsys.readouterr().out
    assert "strict-negations" in out and "result: pass" in out


@pytest.mark.parametrize("backend", ["vec", "thin:rel:2"])
def test_cli_zang_suite_at_window_one(backend):
    assert main(["--window", "1", "zang", "suite", backend]) == 0


def test_cli_prof_builtin(capsys):
    assert main(["prof", "check", "builtin:disc2"]) == 0
    out = capsys.readouterr().out
    assert "prof-cyclic-duals-agree" in out


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a cold start pays for every module the import pulls in: dataclasses
    # alone brings inspect, ast, dis and tokenize.  Compared with the bare
    # interpreter's own modules, so one that a site hook loads does not count
    src = str(Path(stautcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys; bare = set(sys.modules); import stautcheck.cli; "
             "print(*sorted(set(sys.modules) - bare))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "stautcheck.cli" in out
    assert not {"dataclasses", "inspect"} & set(out), out


# each command, its one action, and what each one's help names
HELP = {
    "quantale": ("quantale model checks", "check",
                 "validate a quantale and its thin model", ["spec", "rel:N"]),
    "vec": ("linear model checks", "scalar-table", "axiom profile per scalar cycle",
            ["--values", "--max-dim", "comma-separated nonzero rationals"]),
    "prof": ("enriched profunctor checks", "check", "verify Prof(c,c) for an enriched c",
             ["vcat", "builtin:disc2 or builtin:luk3"]),
    "braided": ("braided model checks", "d2-suite", "the double-of-Z2 module suite",
                ["--counter-model", "negative-branch suite"]),
    "zang": ("strictification checks", "suite", "string-category suite over a backend",
             ["backend", "thin:SPEC"]),
    "paper": ("acceptance runs", "all", "run every acceptance criterion", []),
}


def _help(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_the_help_names_every_command(capsys):
    out = _help(["-h"], capsys)
    assert "{quantale,vec,prof,braided,zang,paper}" in out
    for flag in ("--seed", "--window", "--report", "--format"):
        assert flag in out
    for command, (help_text, *_) in HELP.items():
        assert f"{command} {help_text}" in out


@pytest.mark.parametrize("command", HELP)
def test_each_command_and_action_has_its_help(command, capsys):
    _, action, help_text, names = HELP[command]
    out = _help([command, "-h"], capsys)
    assert out.startswith(f"usage: stautcheck {command} [-h] {{{action}}} ...")
    assert f"{action} {help_text}" in out
    out = _help(["--seed", "3", command, action, "-h"], capsys)
    assert out.startswith(f"usage: stautcheck {command} {action} [-h]")
    assert all(name in out for name in names)


@pytest.mark.parametrize("command", HELP)
def test_only_the_command_that_runs_gets_its_parser_tree(command, monkeypatch, capsys):
    # every command is named at the top, but the parsers of the others'
    # actions are never built
    progs = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    action = HELP[command][1]
    _help([command, action, "-h"], capsys)
    assert sorted(set(progs)) == sorted(
        ["stautcheck", f"stautcheck {command} {action}"]
        + [f"stautcheck {c}" for c in HELP])
