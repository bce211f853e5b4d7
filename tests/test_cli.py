import json

import pytest

from stautcheck.cli import main
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
    assert q.le("bot", "top")
    assert not q.le("top", "mid")
    assert q.perp("mid") == "mid"
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


def test_load_vcat_file(tmp_path, chain3_path):
    path = tmp_path / "pair.vcat"
    path.write_text(f"quantale {chain3_path}\n"
                    "objects x y\n"
                    "hom x x top\nhom x y mid\nhom y x bot\nhom y y top\n")
    c = load_vcat_file(str(path))
    assert c.objects == ["x", "y"]
    assert c.hom[("x", "y")] == "mid"


def test_vcat_file_errors(tmp_path):
    path = tmp_path / "bad.vcat"
    path.write_text("quantale bool2\nobjects x\nhom x x 7\n")
    with pytest.raises(FileFormatError, match="unknown base element"):
        load_vcat_file(str(path))
    path.write_text("quantale bool2\nobjects x y\nhom x x 1\n")
    with pytest.raises(FileFormatError, match="missing hom"):
        load_vcat_file(str(path))


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


def test_cli_scalar_table(capsys):
    assert main(["vec", "scalar-table", "--values", "1,-1"]) == 0
    out = capsys.readouterr().out
    assert "scalar(1)-matches-oracle" in out
    assert "scalar(-1)-separation" in out


def test_cli_input_errors(capsys):
    assert main(["quantale", "check", "nosuch:1"]) == 2
    assert main(["vec", "scalar-table", "--values", "0"]) == 2
    assert main(["vec", "scalar-table", "--values", "x"]) == 2
    assert main(["vec", "scalar-table", "--max-dim", "9"]) == 2
    assert main(["prof", "check", "/does/not/exist.vcat"]) == 2
    assert main(["zang", "suite", "thin:s3:(01)"]) not in (0, None)


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


def test_cli_failure_exit_code(tmp_path, capsys):
    # an intentionally broken quantale: non-associative tensor
    path = tmp_path / "broken.quantale"
    rows = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "a"}
    path.write_text("elements a b\nle a b\n" +
                    "".join(f"tensor {x} {y} {z}\n" for (x, y), z in rows.items()) +
                    "unit a\ndualizer b\n")
    code = main(["quantale", "check", str(path)])
    capsys.readouterr()
    assert code == 1


def test_cli_zang_suite(capsys):
    assert main(["zang", "suite", "thin:rel:2"]) == 0
    out = capsys.readouterr().out
    assert "strict-negations" in out and "result: pass" in out


def test_cli_prof_builtin(capsys):
    assert main(["prof", "check", "builtin:disc2"]) == 0
    out = capsys.readouterr().out
    assert "prof-cyclic-duals-agree" in out
