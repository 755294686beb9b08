import json
from dataclasses import replace

import pytest

from qslab.builtin import G32_27_SPEC
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
    from importlib import resources

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
