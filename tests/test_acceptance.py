"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (rational arithmetic or witness identity); the stated
wall-clock bounds are asserted too.  Criterion 9 runs the complete battery
through the CLI entry point and checks determinism of the structured report.
"""

import hashlib
import json
import time

import pytest

from stautcheck import suites
from stautcheck.cli import main
from stautcheck.quantale import build_rel_quantale

# SHA-256 of the structured report of ``paper all --seed 3``
PAPER_ALL_SEED_3_SHA256 = "1d97ef7ac0fdf20d629954a39a592ef6328afd54c08ad029972f34368eb13dff"


def _report_line(name, rep, budget):
    ok = rep.ok and rep.duration < budget
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {sum(1 for c in rep.checks if c.ok)}"
          f"/{len(rep.checks)} checks in {rep.duration:.2f}s (budget {budget}s)")
    if not rep.ok:
        for c in rep.checks:
            if not c.ok:
                print(f"    failed: {c.name} -- {c.witness}")
    return ok


@pytest.fixture(scope="module")
def profiled():
    """The reports whose axiom profiles criterion 4 cross-checks, each
    computed once: criteria 3, 5 and 7 and the counter-model suite."""
    return {"3": suites.criterion_3(seed=0), "5": suites.criterion_5(seed=0),
            "7": suites.criterion_7(seed=0), "c": suites.counter_model_suite(seed=0)}


def test_every_check_counts_its_items_and_names_are_unique(profiled):
    reports = list(profiled.values()) + [
        suites.quantale_suite(build_rel_quantale(2)), suites.zang_suite("thin:rel:2")]
    for rep in reports:
        names = [c.name for c in rep.checks]
        assert len(set(names)) == len(names), rep.suite
        for c in rep.checks:
            assert c.count >= 1, (rep.suite, c.name)
            assert not c.ok or c.witness == "", (rep.suite, c.name, c.witness)


def test_2prof_duality_fails_on_a_broken_poset_quantale(monkeypatch):
    build = suites.build_two_profunctor_quantale
    broken = []

    def build_one_broken(mask, n):
        q = build(mask, n)
        if n == 2 and not broken:
            q.perp = lambda a: a   # the empty relation's dual is then not full
            broken.append(q.label)
        return q

    monkeypatch.setattr(suites, "build_two_profunctor_quantale", build_one_broken)
    rep = suites.criterion_1(seed=0)
    agg = next(c for c in rep.checks if c.name == "2prof-duality-all-posets")
    assert not agg.ok and broken[0] in agg.witness


def test_criterion_1_duality_identity_exhaustive():
    rep = suites.criterion_1(seed=0)
    assert _report_line("criterion 1 (relation/profunctor dualities)", rep, 5.0)
    assert rep.stats["posets"] == {1: 1, 2: 3, 3: 19}
    rel3 = next(c for c in rep.checks if c.name == "rel:3-duality")
    assert rel3.count == 512 and rel3.exhaustive


def test_criterion_2_pointed_group_criterion():
    rep = suites.criterion_2(seed=0)
    assert _report_line("criterion 2 (pointed-group cyclicity)", rep, 1.0)
    assert len(rep.checks) == 6


def test_criterion_3_scalar_table(profiled):
    rep = profiled["3"]
    assert _report_line("criterion 3 (scalar axiom table)", rep, 5.0)
    table = rep.stats["table"]
    assert table["1"]["k"] and table["-1"]["k"]
    assert not table["2"]["k"] and not table["1/2"]["k"]
    assert table["1"]["t0"] and not table["-1"]["t0"]
    for lam in ("1", "-1", "2", "1/2"):
        for ax in ("pnul", "tbin", "pbin"):
            assert table[lam][ax] == (lam == "1")


def test_criterion_4_profile_consistency(profiled):
    profiles = (profiled["3"].profiles + profiled["5"].profiles
                + profiled["7"].profiles + profiled["c"].profiles)
    rep = suites.criterion_4(profiles, seed=0)
    assert _report_line("criterion 4 (dependency/equivalence consistency)", rep, 5.0)
    assert len(profiles) >= 8


def test_criterion_5_profunctor_models(profiled):
    rep = profiled["5"]
    assert _report_line("criterion 5 (enriched profunctor models)", rep, 30.0)
    assert any(c.name == "prof-disc2-matches-rel2" and c.ok for c in rep.checks)
    assert rep.stats["luk3_prof_elements"] >= 3


def test_criterion_6_appendix_identities():
    rep = suites.criterion_6(seed=0)
    assert _report_line("criterion 6 (appendix identities)", rep, 20.0)
    base = next(c for c in rep.checks if c.name == "base-identity-vec")
    assert base.count >= 100
    contra = next(c for c in rep.checks if c.name == "contraposition-vec")
    assert contra.count >= 50


def test_criterion_7_braided_suite(profiled):
    rep = profiled["7"]
    assert _report_line("criterion 7 (braided module suite)", rep, 20.0)
    names = {c.name for c in rep.checks}
    assert "mixed-simple-double-braiding-is-minus-one" in names
    assert "stitch-is-identity" in names
    assert "identity-family-quasicycle-not-cycle" in names
    assert "roundtrip" in names
    assert "balance-double" in names


def test_criterion_8_strictification():
    rep = suites.criterion_8(seed=0)
    assert _report_line("criterion 8 (strictification)", rep, 10.0)
    names = {c.name for c in rep.checks}
    for backend in ("thin:rel:2", "vec"):
        assert f"{backend}-strict-negations" in names
        assert f"{backend}-zang-equivalence" in names
        assert f"{backend}-fang-closure" in names
        assert f"{backend}-zangcycle-identity-on-fang" in names


def test_criterion_9_full_run_deterministic(tmp_path, capsys):
    t0 = time.monotonic()
    code1 = main(["--format", "structured", "--seed", "3",
                  "--report", str(tmp_path / "one.json"), "paper", "all"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    code2 = main(["--format", "structured", "--seed", "3",
                  "--report", str(tmp_path / "two.json"), "paper", "all"])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and elapsed < 90.0
    one = (tmp_path / "one.json").read_text()
    two = (tmp_path / "two.json").read_text()
    identical = one == two
    # the digest pins the report across processes and hash seeds, not only
    # between the two runs above; a change that alters the report on
    # purpose updates it
    digest = hashlib.sha256((tmp_path / "one.json").read_bytes()).hexdigest()
    pinned = digest == PAPER_ALL_SEED_3_SHA256
    status = "PASS" if (ok and identical and pinned) else "FAIL"
    print(f"[{status}] criterion 9 (paper all): exit={code1}, "
          f"{elapsed:.1f}s (budget 90s), byte-identical={identical}, "
          f"digest-pinned={pinned}")
    assert code1 == 0 and code2 == 0
    assert elapsed < 90.0
    assert identical
    assert digest == PAPER_ALL_SEED_3_SHA256
    doc = json.loads(one)
    assert doc["ok"] is True
    assert len(doc["reports"]) == 9
