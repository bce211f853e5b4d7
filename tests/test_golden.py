"""Golden reports: the structured output of a few commands, pinned by its
SHA-256, so that a report which should stay byte-identical is checked on
every run.  Each command runs in process through ``cli.main``.  A change that
alters one of these reports on purpose re-pins its digest here and lists the
changed checks in CHANGES.md.
"""

import hashlib
import json

import pytest

from stautcheck.cli import main

# the SHA-256 of each command's structured report
GOLDEN = {
    "zang suite vec":
        "643efaa99aa248493ca9a861294e3026be6eb7517ea113bcf608b247be7ae991",
    "zang suite thin:rel:2":
        "8d353260110bd1dc6cdd23cfc2c5b85197e9abc2dd8988d3b4ff9ed51b548821",
    "--window 1 zang suite thin:rel:2":
        "70b433784afb128bd3fe0667d7e0f6bd856ba7ab872cb3302311470d79be507e",
    "--seed 3 quantale check rel:3":
        "3da3ff7c0aca6ddd0406ef136258a29b033f6feb18b155817f4827e63851abfc",
    "vec scalar-table --max-dim 2":
        "48fe74738e0915d96dbb7bf2ed2c29c6003d0920dac812055e6d1cd5ab6c5d67",
    "braided d2-suite --counter-model":
        "6921d5438c1a4ba4a72326b4e4e1dc561a7071d8e3e38fdb529a84d6718a4364",
}


def _checks(out):
    """One line per check of the report ``out``: suite, name, ok, count and
    exhaustive."""
    return "\n".join(f"{rep['suite']} {c['name']} ok={c['ok']} count={c['count']} "
                     f"exhaustive={c['exhaustive']}"
                     for rep in json.loads(out)["reports"] for c in rep["checks"])


@pytest.mark.parametrize("command", GOLDEN)
def test_the_structured_report_is_pinned(command, capsys):
    code = main(["--format", "structured", *command.split()])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert code == 0
    assert digest == GOLDEN[command], (
        f"{command}: sha256 {digest}, pinned {GOLDEN[command]}; its checks:\n{_checks(out)}")
