import gc
import json
import weakref
from dataclasses import replace
from importlib import resources

import pytest

from qslab import characters, verify
from qslab.builtin import G32_27_SPEC
from qslab.groups import GroupSpec
from qslab.verify import render_report, verify_paper


@pytest.fixture(scope="module")
def report():
    return verify_paper()


def transposed_spec():
    (m,) = G32_27_SPEC.action
    return replace(G32_27_SPEC, action=(tuple(zip(*m)),))


def test_clean_run_passes(report):
    assert report.passed
    assert len(report.checks) == 41
    assert all(c.passed for c in report.checks)
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names)


def test_check_order_starts_with_presentation(report):
    assert [c.name for c in report.checks[:3]] == [
        "relation-g2-conjugate",
        "relation-g3-conjugate",
        "group-order",
    ]


def test_report_dict_schema(report):
    data = report.to_dict()
    assert data["schema"] == "qslab-report/1"
    assert data["passed"] is True
    assert len(data["checks"]) == 41
    for check in data["checks"]:
        assert set(check) == {"name", "anchor", "expected", "computed", "passed"}

    def no_floats(value):
        assert not isinstance(value, float)
        if isinstance(value, list):
            for v in value:
                no_floats(v)
        elif isinstance(value, dict):
            for v in value.values():
                no_floats(v)

    no_floats(data)


def test_render_formats(report):
    text = render_report(report, "text")
    assert text.startswith("verification PASS: 41/41")
    assert text.count("[PASS]") == 41
    parsed = json.loads(render_report(report, "json"))
    assert parsed["schema"] == "qslab-report/1"
    md = render_report(report, "markdown")
    assert md.splitlines()[0] == "# Verification report: PASS"
    assert "| check | anchor |" in md
    assert render_report(report, "md") == md
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(report, "xml")


def test_perturbed_reference_localizes(tmp_path):
    raw = json.loads(
        resources.files("qslab.data").joinpath("g32_27_chartable.json").read_text()
    )
    raw["rows"][5][3] = 7
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(raw))
    report = verify_paper(reference_path=bad)
    assert not report.passed
    failing = [c.name for c in report.checks if not c.passed]
    # only the checks that consume the reference numbering fail
    assert failing == [
        "character-table-reference",
        "canonical-decomposition-first",
        "canonical-decomposition-second",
    ]
    by_name = {c.name: c for c in report.checks}
    assert by_name["class-membership"].passed
    assert by_name["fixed-points-t1"].passed
    assert by_name["character-orthogonality"].passed


def test_transposed_action_fails_relations_first():
    report = verify_paper(spec=transposed_spec())
    assert not report.passed
    assert len(report.checks) == 41
    failing = [c.name for c in report.checks if not c.passed]
    assert failing[0] == "relation-g2-conjugate"
    by_name = {c.name: c for c in report.checks}
    assert by_name["group-order"].passed
    # the generating systems no longer multiply to the identity, so the
    # dependent checks report the construction error instead of crashing
    assert str(by_name["structure-type-t1"].computed).startswith("error:")


def test_missing_reference_reported_not_raised(tmp_path):
    report = verify_paper(reference_path=tmp_path / "nowhere.json")
    assert not report.passed
    assert len(report.checks) == 41
    by_name = {c.name: c for c in report.checks}
    assert str(by_name["character-table-reference"].computed).startswith("error:")
    assert by_name["group-order"].passed
    assert by_name["genus-first-curve"].passed


def test_group_without_published_names_reports_every_check():
    # the battery evaluates every published word inside a check, so a group
    # that lacks g1..g5 fails the words it cannot read instead of aborting
    spec = GroupSpec(2, 0, (), (("a", ((1, 0), ())), ("b", ((0, 1), ()))))
    report = verify_paper(spec=spec)
    assert not report.passed
    assert len(report.checks) == 41
    by_name = {c.name: c for c in report.checks}
    assert by_name["relation-g2-conjugate"].computed == "error: \"unknown generator 'g1'\""
    assert by_name["class-membership"].expected.startswith("error:")
    assert by_name["group-order"].computed == 4


@pytest.mark.parametrize(
    "spec",
    [
        None,
        transposed_spec(),
        GroupSpec(2, 0, (), (("a", ((1, 0), ())), ("b", ((0, 1), ())))),
    ],
)
def test_verify_paper_leaves_no_group_alive(monkeypatch, spec):
    # the group holds nothing that points back at it, so reference counting
    # frees it, also after checks that failed with an exception
    built = []
    build = verify.build_group

    def recorded(spec):
        group = build(spec)
        built.append(weakref.ref(group))
        return group

    monkeypatch.setattr(verify, "build_group", recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = verify_paper(spec=spec)
        assert len(report.checks) == 41 and len(built) == 1
        assert built[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_verify_paper_resolves_reference_columns_once(monkeypatch):
    # the rows are matched against the one column map the battery resolves
    calls = []
    column_map = characters.reference_column_map

    def counted(group, ref):
        calls.append(None)
        return column_map(group, ref)

    monkeypatch.setattr(characters, "reference_column_map", counted)
    monkeypatch.setattr(verify, "reference_column_map", counted)
    assert verify_paper().passed
    assert len(calls) == 1


# -- mutation gate: a wrong published value fails exactly its checks ------

COLUMN_MAP_CHECKS = [
    "character-table-reference",
    "fixed-points-t1",
    "fixed-points-t2",
    "canonical-character-first",
    "canonical-character-second",
    "canonical-decomposition-first",
    "canonical-decomposition-second",
]

# checks whose expected value is a literal in the battery, not published data
LITERAL_CHECKS = {
    "relation-g2-conjugate",
    "relation-g3-conjugate",
    "group-order",
    "character-orthogonality",
    "stabilizer-sets-disjoint",
    "fixed-point-products-vanish",
    "fixed-point-routes-agree",
    "quotient-genus-bridge",
    "twist-pair-count",
    "twist-search-nonempty",
    "twist-trivial-never-admissible",
    "twist-euler-additivity",
}


def last_plus_one(value):
    return value + 1 if isinstance(value, int) else value[:-1] + (value[-1] + 1,)


CONSTANT_EDITS = [
    (
        "EXPECTED_NORMAL_SUBGROUPS",
        lambda rows: rows[:-1],
        ["normal-subgroup-count", "normal-subgroup-list"],
    ),
    ("EXPECTED_T1_TYPE", last_plus_one, ["structure-type-t1"]),
    ("EXPECTED_T2_TYPE", last_plus_one, ["structure-type-t2"]),
    ("EXPECTED_T1_FIXED", last_plus_one, ["fixed-points-t1"]),
    ("EXPECTED_T2_FIXED", last_plus_one, ["fixed-points-t2"]),
    ("EXPECTED_GENUS_FIRST", last_plus_one, ["genus-first-curve"]),
    ("EXPECTED_GENUS_SECOND", last_plus_one, ["genus-second-curve"]),
    ("EXPECTED_CANONICAL_FIRST", last_plus_one, ["canonical-character-first"]),
    ("EXPECTED_CANONICAL_SECOND", last_plus_one, ["canonical-character-second"]),
    ("EXPECTED_DECOMPOSITION_FIRST", last_plus_one, ["canonical-decomposition-first"]),
    ("EXPECTED_DECOMPOSITION_SECOND", last_plus_one, ["canonical-decomposition-second"]),
    ("EXPECTED_ELLIPTIC_DEGREE", last_plus_one, ["elliptic-quotient-degree"]),
    (
        "EXPECTED_QUOTIENT_GENERA",
        lambda rows: tuple(row[:3] + (row[3] + 1,) for row in rows),
        [
            "quotient-genus-t1-g5",
            "quotient-genus-t1-H",
            "quotient-genus-t2-H1",
            "quotient-genus-t2-H2",
            "quotient-genus-t2-H4",
        ],
    ),
    (
        "EXPECTED_FIBER_ORBITS",
        lambda rows: tuple(row[:3] + (row[3][1:],) for row in rows),
        [
            "fiber-orbits-t1-branch4-h",
            "fiber-orbits-t2-branch1-h1",
            "fiber-orbits-t2-branch2-h1",
            "fiber-orbits-t2-branch3-h1",
            "fiber-orbits-t2-branch4-h1",
        ],
    ),
]


def move_member(raw):
    raw["classes"][5]["members"][1] = "g3"


def resize_central_class(raw):
    raw["classes"][3]["size"] = 2


def bump_degree(raw):
    raw["rows"][8][0] = 3


def drop_last_class(raw):
    del raw["classes"][-1]
    for row in raw["rows"]:
        del row[-1]


FIXTURE_EDITS = [
    (move_member, ["class-membership"] + COLUMN_MAP_CHECKS),
    (resize_central_class, ["class-sizes", "center"] + COLUMN_MAP_CHECKS),
    (
        bump_degree,
        [
            "character-degrees",
            "character-table-reference",
            "canonical-decomposition-first",
            "canonical-decomposition-second",
        ],
    ),
    (drop_last_class, ["class-count", "class-sizes", "class-membership"] + COLUMN_MAP_CHECKS),
]


def failing(report):
    return [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize(
    "name, edit, fails", CONSTANT_EDITS, ids=[case[0] for case in CONSTANT_EDITS]
)
def test_wrong_constant_fails_its_checks(monkeypatch, name, edit, fails):
    monkeypatch.setattr(verify, name, edit(getattr(verify, name)))
    assert failing(verify_paper()) == fails


@pytest.mark.parametrize(
    "edit, fails", FIXTURE_EDITS, ids=[case[0].__name__ for case in FIXTURE_EDITS]
)
def test_wrong_fixture_value_fails_its_checks(tmp_path, edit, fails):
    raw = json.loads(
        resources.files("qslab.data").joinpath("g32_27_chartable.json").read_text()
    )
    edit(raw)
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(raw))
    assert failing(verify_paper(reference_path=bad)) == fails


def test_mutation_gate_covers_every_published_value(report):
    covered = {name for *_, fails in CONSTANT_EDITS + FIXTURE_EDITS for name in fails}
    assert covered == {c.name for c in report.checks} - LITERAL_CHECKS
