import gc
import json
import weakref

import pytest

from qslab import characters, verify
from qslab.builtin import G32_27_SPEC
from qslab.groups import GroupSpec
from qslab.verify import render_report, verify_paper


@pytest.fixture(scope="module")
def report():
    return verify_paper()


def write_record(tmp_path, raw):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(raw))
    return path


def transposed_spec():
    spec = G32_27_SPEC
    (m,) = spec.action
    return GroupSpec(spec.n_rank, spec.q_rank, (tuple(zip(*m)),), spec.generator_names)


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


def test_perturbed_reference_localizes(tmp_path, published_record):
    published_record["rows"][5][3] = 7
    report = verify_paper(reference_path=write_record(tmp_path, published_record))
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


def test_missing_reference_reported_not_raised(tmp_path, monkeypatch):
    # every expected value lives in the record, so every check fails with
    # the read error, and the computed side still runs; the record is read
    # once, also when the read fails
    reads = []
    load = verify.load_reference_table

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(verify, "load_reference_table", counted)
    path = tmp_path / "nowhere.json"
    report = verify_paper(reference_path=path)
    assert reads == [path]
    assert not report.passed
    assert len(report.checks) == 41
    error = f"error: [Errno 2] No such file or directory: '{path}'"
    assert all(c.expected == error and not c.passed for c in report.checks)
    by_name = {c.name: c for c in report.checks}
    assert by_name["character-table-reference"].computed == error
    assert by_name["group-order"].computed == 32
    assert by_name["genus-first-curve"].computed == 5


def test_group_without_published_names_reports_every_check():
    # a group that lacks g1..g5 cannot read the record's words, so every
    # check fails with that error instead of the battery aborting
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


def test_checks_that_read_no_table_pass_when_the_table_fails(monkeypatch):
    # the canonical characters and the quotient-genus bridge come from the
    # fixed points alone, so a failed table build fails only the checks
    # that read the table
    def broken(group):
        raise characters.CharacterTableError("no table")

    monkeypatch.setattr(verify, "compute_character_table", broken)
    report = verify_paper()
    by_name = {c.name: c for c in report.checks}
    for name in (
        "canonical-character-first",
        "canonical-character-second",
        "quotient-genus-bridge",
    ):
        assert by_name[name].passed, name
    for name in (
        "character-degrees",
        "character-orthogonality",
        "character-table-reference",
        "canonical-decomposition-first",
        "twist-pair-count",
    ):
        assert by_name[name].computed == "error: no table" and not by_name[name].passed


# -- the published record: read strictly, compared by JSON type ------------


def string_members(raw):
    raw["classes"][1]["members"] = "g4"


def misspelled_class_key(raw):
    raw["classes"][2]["member"] = raw["classes"][2].pop("members")


def extra_top_level_key(raw):
    raw["notes"] = "none"


def missing_published_key(raw):
    del raw["published"]["group-order"]


def extra_published_key(raw):
    raw["published"]["class-count"] = 14


def old_format(raw):
    raw["format"] = "qslab-chartable-ref/1"


def classes_not_a_list(raw):
    raw["classes"] = {"0": raw["classes"][0]}


def rows_not_a_list(raw):
    raw["rows"] = "grid"


def row_not_a_list(raw):
    raw["rows"][4] = 1


def short_row(raw):
    raw["rows"][3].pop()


def long_row(raw):
    raw["rows"][13].append(0)


def gaussian_value(raw):
    raw["rows"][2][5] = "1+i"


def drop_last_class(raw):
    del raw["classes"][-1]
    for row in raw["rows"]:
        del row[-1]


MALFORMED_RECORDS = [
    (string_members, "reference class 1: 'members' 'g4' is not a non-empty list of strings"),
    (
        misspelled_class_key,
        "reference class 2: missing keys ['members'], unexpected keys ['member']",
    ),
    (extra_top_level_key, "reference record: unexpected keys ['notes']"),
    (missing_published_key, "reference record 'published': missing keys ['group-order']"),
    (extra_published_key, "reference record 'published': unexpected keys ['class-count']"),
    (old_format, "unsupported reference fixture format 'qslab-chartable-ref/1'"),
    (classes_not_a_list, "reference record: 'classes' is not a list"),
    (rows_not_a_list, "reference record: 'rows' is not a list of lists"),
    (row_not_a_list, "reference record: 'rows' is not a list of lists"),
    (short_row, "reference row 3: 13 values for 14 classes"),
    (long_row, "reference row 13: 15 values for 14 classes"),
    (gaussian_value, "reference row 2, column 5: '1+i' is not a rational integer"),
    (drop_last_class, "reference record: 14 rows for 13 classes"),
]


@pytest.mark.parametrize(
    "edit, message", MALFORMED_RECORDS, ids=[case[0].__name__ for case in MALFORMED_RECORDS]
)
def test_malformed_record_fails_every_check(tmp_path, published_record, edit, message):
    edit(published_record)
    report = verify_paper(reference_path=write_record(tmp_path, published_record))
    assert len(report.checks) == 41
    assert all(c.expected == f"error: {message}" and not c.passed for c in report.checks)


@pytest.mark.parametrize(
    "name, value", [("genus-first-curve", 5.0), ("character-orthogonality", 1)]
)
def test_published_value_must_match_its_json_type(tmp_path, published_record, name, value):
    # 5.0 == 5 and 1 == True in Python; the battery compares JSON values
    published_record["published"][name] = value
    assert failing(verify_paper(reference_path=write_record(tmp_path, published_record))) == [name]


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


def wrong(value):
    """A different value in place of a published one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "*g5"
    if isinstance(value[-1], int):
        return value[:-1] + [value[-1] + 1]
    return value[:-1]


QUOTIENT_GENERA = [
    "quotient-genus-t1-g5",
    "quotient-genus-t1-H",
    "quotient-genus-t2-H1",
    "quotient-genus-t2-H2",
    "quotient-genus-t2-H4",
]
FIBER_ORBITS = [
    "fiber-orbits-t1-branch4-h",
    "fiber-orbits-t2-branch1-h1",
    "fiber-orbits-t2-branch2-h1",
    "fiber-orbits-t2-branch3-h1",
    "fiber-orbits-t2-branch4-h1",
]

# (case id, the published keys edited, the checks that must then fail).  The
# first fourteen ids name the module constants that held these values
# before the record did, so those test IDs stay; the others are record keys.
PUBLISHED_EDITS = [
    (
        "EXPECTED_NORMAL_SUBGROUPS",
        ["normal-subgroup-list"],
        ["normal-subgroup-count", "normal-subgroup-list"],
    ),
    ("EXPECTED_T1_TYPE", ["structure-type-t1"], None),
    ("EXPECTED_T2_TYPE", ["structure-type-t2"], None),
    ("EXPECTED_T1_FIXED", ["fixed-points-t1"], None),
    ("EXPECTED_T2_FIXED", ["fixed-points-t2"], None),
    ("EXPECTED_GENUS_FIRST", ["genus-first-curve"], None),
    ("EXPECTED_GENUS_SECOND", ["genus-second-curve"], None),
    ("EXPECTED_CANONICAL_FIRST", ["canonical-character-first"], None),
    ("EXPECTED_CANONICAL_SECOND", ["canonical-character-second"], None),
    ("EXPECTED_DECOMPOSITION_FIRST", ["canonical-decomposition-first"], None),
    ("EXPECTED_DECOMPOSITION_SECOND", ["canonical-decomposition-second"], None),
    ("EXPECTED_ELLIPTIC_DEGREE", ["elliptic-quotient-degree"], None),
    ("EXPECTED_QUOTIENT_GENERA", QUOTIENT_GENERA, None),
    ("EXPECTED_FIBER_ORBITS", FIBER_ORBITS, None),
] + [
    (key, [key], None)
    for key in [
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
    ]
]


def move_member(raw):
    raw["classes"][5]["members"][1] = "g3"


def resize_central_class(raw):
    raw["classes"][3]["size"] = 2


def bump_degree(raw):
    raw["rows"][8][0] = 3


def drop_last_class_and_row(raw):
    drop_last_class(raw)
    del raw["rows"][-1]


TABLE_EDITS = [
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
    (
        drop_last_class_and_row,
        ["class-count", "class-sizes", "class-membership", "character-degrees"]
        + COLUMN_MAP_CHECKS,
    ),
]


def failing(report):
    return [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize(
    "keys, fails", [case[1:] for case in PUBLISHED_EDITS], ids=[case[0] for case in PUBLISHED_EDITS]
)
def test_wrong_constant_fails_its_checks(tmp_path, published_record, keys, fails):
    published = published_record["published"]
    for key in keys:
        published[key] = wrong(published[key])
    report = verify_paper(reference_path=write_record(tmp_path, published_record))
    assert failing(report) == (fails or keys)


@pytest.mark.parametrize(
    "edit, fails", TABLE_EDITS, ids=[case[0].__name__ for case in TABLE_EDITS]
)
def test_wrong_fixture_value_fails_its_checks(tmp_path, published_record, edit, fails):
    edit(published_record)
    assert failing(verify_paper(reference_path=write_record(tmp_path, published_record))) == fails


def test_mutation_gate_covers_every_published_value(report, published_record):
    assert {key for _, keys, _ in PUBLISHED_EDITS for key in keys} == set(
        published_record["published"]
    )
    fails = [fails or keys for _, keys, fails in PUBLISHED_EDITS]
    fails += [fails for _, fails in TABLE_EDITS]
    assert {name for names in fails for name in names} == {c.name for c in report.checks}
