"""The acceptance gate: one test per criterion, each printing its line.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines,
or ``comtes paper-suite`` for the same checks from the command line.
"""

import hashlib
import importlib

import pytest

from comtes import acceptance


def _check(result, detail):
    print()
    print(result.line())
    assert result.passed, result.detail
    assert result.detail == detail  # the text of ``comtes paper-suite``


def test_criterion_1_census_counts():
    result = acceptance.criterion_1_census_counts()
    _check(result, "r-graphs(3) = 6663, q-graphs(3) = 70 (complete enumeration incl. the arrowless class: 6664)")
    assert result.seconds < 60  # stated runtime target


def test_criterion_2_example_homology():
    result = acceptance.criterion_2_example_homology()
    _check(result, "H1..H5 = Z, Z^2, Z^4, Z^7, Z^11")
    assert result.seconds < 30  # stated runtime target


def test_criterion_3_noninvariance_pair():
    _check(
        acceptance.criterion_3_noninvariance_pair(),
        "H3 = Z^4 vs Z^5; move trace = R1split R3a_add R3b_shift R3a_remove R0 (length 5)",
    )


def test_criterion_4_state_sums():
    _check(acceptance.criterion_4_state_sums(), "4 + 12*s; 4; 4; coloring counts [16, 4, 4]")


def test_criterion_5_alexander():
    _check(
        acceptance.criterion_5_alexander(),
        "Delta_1(example) = t - 2; Delta_1(trefoil) = t^2 - t + 1; Fox oracle agrees",
    )


def test_criterion_6_linking():
    _check(acceptance.criterion_6_linking(), "lk[2][1] = 2, all other entries zero")


def test_criterion_7_signature_census():
    _check(
        acceptance.criterion_7_signature_census(),
        "r distinct counts {'plain/torsion': 280, 'plain/betti': 279} (280 under: ['plain/torsion']); "
        "q distinct counts {'plain/torsion': 28, 'plain/betti': 27, 'quotient/torsion': 26, 'quotient/betti': 25} "
        "(28 under: ['plain/torsion'])",
    )


def test_census_signature_tables_are_pinned():
    # read from the cache that criterion 7 fills
    rcensus, qcensus = acceptance._census_signatures()
    digest = hashlib.sha256((rcensus.table() + qcensus.table()).encode()).hexdigest()
    assert digest == "e756ad3260290bae4861bd25ba49f338ea4f150776327648b6143a0d9182c089"


def test_criterion_8a_move_invariance():
    ok, msg = acceptance.suite_8a_move_invariance(acceptance.DEFAULT_SEED)
    print("\n[%s] 8a %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg
    assert msg == "500 randomized move applications preserved all invariants"


def test_criterion_8b_boundary_squares():
    ok, msg = acceptance.suite_8b_boundary_squares()
    print("\n[%s] 8b %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg


def test_criterion_8c_q_quotient():
    ok, msg = acceptance.suite_8c_q_quotient()
    print("\n[%s] 8c %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg


def test_criteria_8b_and_8c_details_are_pinned():
    assert acceptance.suite_8b_boundary_squares() == (True, "dd = 0 on 104612 generators across the census through degree 5")
    assert acceptance.suite_8c_q_quotient() == (
        True,
        "degenerate subcomplex closed and quotient dd = 0 on all 70 q-graphs (4262 degenerate generators)",
    )


def test_criterion_8b_fails_on_a_negated_boundary_coefficient(monkeypatch):
    # 8b reads the rows that homology eliminates, so a wrong sign there fails it
    homology = importlib.import_module("comtes.homology")
    boundary = homology._boundary

    def negated(nv, codes, acted, n, cleared=frozenset()):
        rows = boundary(nv, codes, acted, n, cleared)
        for row in rows:
            if row:
                col = next(iter(row))
                row[col] = -row[col]
                break
        return rows

    monkeypatch.setattr(homology, "_boundary", negated)
    monkeypatch.setattr(acceptance, "_boundary", negated, raising=False)
    ok, msg = acceptance.suite_8b_boundary_squares()
    assert not ok, msg


def test_criterion_8c_fails_without_the_quotient_filter(monkeypatch):
    # 8c reads degeneracy off the digits, so a quotient basis that keeps
    # the degenerate tuples fails it
    homology = importlib.import_module("comtes.homology")
    extend = homology._extend
    monkeypatch.setattr(homology, "_extend", lambda *args: extend(*args[:-1], False))
    ok, msg = acceptance.suite_8c_q_quotient()
    assert not ok, msg


def test_criterion_8d_rack_agreement():
    ok, msg = acceptance.suite_8d_rack_agreement()
    print("\n[%s] 8d %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg
    assert msg == "chain bases and boundaries match the direct rack complex through degree 4"


def test_criterion_8e_coboundary_invariance():
    ok, msg = acceptance.suite_8e_coboundary_invariance(acceptance.DEFAULT_SEED)
    print("\n[%s] 8e %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg
    assert msg == "500 randomized coboundary perturbations left state sums unchanged"


def test_criterion_8f_routes_and_swaps():
    ok, msg = acceptance.suite_8f_routes_and_swaps(acceptance.DEFAULT_SEED)
    print("\n[%s] 8f %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg
    assert msg == "corpus routes agree on 5 links; 500 random diagrams valid, 659 arrowtail swaps preserved the comte"


def test_criterion_8g_reidemeister():
    ok, msg = acceptance.suite_8g_reidemeister()
    print("\n[%s] 8g %s" % ("PASS" if ok else "FAIL", msg))
    assert ok, msg
    assert msg == "traces found for all bundled pairs (r1:1, r2:2, r3:2)"


@pytest.mark.parametrize("failing", [None, *"abcdefg"])
def test_criterion_8_joins_its_seven_suites(monkeypatch, failing):
    seeds = []
    for tag in "abcdefg":
        name = next(n for n in dir(acceptance) if n.startswith(f"suite_8{tag}_"))

        def suite(*seed, tag=tag):
            seeds.extend(seed)
            return tag != failing, f"msg {tag}"

        monkeypatch.setattr(acceptance, name, suite)
    result = acceptance.criterion_8_property_suites(seed=11)
    assert seeds == [11, 11, 11]  # 8a, 8e and 8f take the seed
    assert (result.ident, result.name, result.passed) == ("8", "property suites", failing is None)
    assert result.detail == "; ".join(f"8{t} {'FAIL' if t == failing else 'ok'} (msg {t})" for t in "abcdefg")


def test_run_all_passes_the_seed_to_criterion_8_alone(monkeypatch):
    calls = []

    def criterion_1_spy(*args):
        calls.append((1, args))

    def criterion_8_spy(*args):
        calls.append((8, args))

    monkeypatch.setattr(acceptance, "CRITERIA", [criterion_1_spy, criterion_8_spy])
    monkeypatch.setattr(acceptance, "criterion_8_property_suites", criterion_8_spy)
    acceptance.run_all(seed=5)
    acceptance.run_all(seed=6, only={"8"})
    assert calls == [(1, ()), (8, (5,)), (8, (6,))]


@pytest.mark.parametrize("only", [{"9"}, {"6", "x"}])
def test_unknown_criterion_id_rejected_before_any_run(monkeypatch, only):
    ran = []

    def criterion_6_spy():
        ran.append(6)

    monkeypatch.setattr(acceptance, "CRITERIA", [criterion_6_spy])
    with pytest.raises(ValueError, match="unknown criterion id"):
        acceptance.run_all(only=only)
    assert not ran
