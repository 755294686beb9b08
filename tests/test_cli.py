import json
from importlib import resources
from pathlib import Path

import pytest

from qslab._render import render
from qslab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def packaged_model_text():
    return resources.files("qslab.data").joinpath("g32_27.alg").read_text()


def assert_no_floats(value):
    assert not isinstance(value, float)
    if isinstance(value, list):
        for v in value:
            assert_no_floats(v)
    elif isinstance(value, dict):
        for v in value.values():
            assert_no_floats(v)


# -- basic commands -----------------------------------------------------


def test_info_text(capsys):
    code, out, err = run(capsys, "info")
    assert code == 0 and err == ""
    assert out.startswith("group g32_27: order 32, exponent 4, 14 conjugacy classes")
    assert "structure T1: type (2, 2, 2, 4)" in out
    assert "structure T2: type (2, 2, 4, 4)" in out
    assert "subgroup H1: order 8, normal" in out


def test_info_accepts_group_name(capsys):
    code, out, _ = run(capsys, "info", "g32_27")
    assert code == 0


def test_classes_published_order(capsys):
    code, out, _ = run(capsys, "classes")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "14 conjugacy classes of g32_27 (published order)"
    assert lines[1].startswith("  1: rep 1, size 1")
    assert lines[2].startswith("  2: rep g5, size 1")
    assert len(lines) == 15


def test_chartable_grid(capsys):
    code, out, _ = run(capsys, "chartable")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "character table of g32_27 (published order)"
    assert lines[2].split() == ["chi1"] + ["1"] * 14
    assert lines[10].split()[0] == "chi9"
    assert len(lines) == 16


def test_chartable_json(capsys, published_record):
    code, out, _ = run(capsys, "chartable", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert_no_floats(data)
    assert [r["degree"] for r in data["rows"]] == [1] * 8 + [2] * 6
    grid = [r["values"] for r in data["rows"]]
    assert grid == published_record["rows"]


def test_sigma(capsys):
    code, out, _ = run(capsys, "sigma", "--structure", "T1")
    assert code == 0
    assert out.startswith("stabilizer set of T1: 14 elements")
    code, out, _ = run(capsys, "sigma", "--structure", "T2", "--format", "json")
    data = json.loads(out)
    assert data["size"] == 15 and len(data["elements"]) == 15


def test_disjoint(capsys):
    code, out, _ = run(capsys, "disjoint", "--structure", "T1", "--structure", "T2")
    assert code == 0
    assert "share only: 1" in out
    assert "disjoint away from the identity: yes" in out


def test_fixed_points_row(capsys):
    code, out, _ = run(capsys, "fixed-points", "--structure", "T1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fixed points on the genus 5 curve of T1 (published order)"
    assert lines[1].split() == ["1", "whole", "curve"]
    counts = [line.split()[-1] for line in lines[2:]]
    assert counts == ["8", "0", "0", "0", "0", "8", "0", "8", "0", "4", "0", "0", "4"]


def test_canonical(capsys):
    code, out, _ = run(capsys, "canonical", "--structure", "T2")
    assert code == 0
    assert "genus 9" in out
    assert out.splitlines()[1].split() == [
        "9", "1", "-3", "-3", "-3", "-3", "1", "1", "1", "1", "1", "-1", "-1", "1",
    ]
    assert "decomposition: chi4 + chi10 + chi12 + chi13 + chi14" in out


def test_quotient_genus_named_and_inline(capsys):
    code, out, _ = run(capsys, "quotient-genus", "--structure", "T1", "--subgroup", "H")
    assert code == 0 and "genus 0" in out
    code, out, _ = run(
        capsys, "quotient-genus", "--structure", "T1", "--subgroup", "g2*g5, g4"
    )
    assert code == 0 and "genus 0" in out
    code, out, _ = run(
        capsys, "quotient-genus", "--structure", "T1", "--subgroup", "g5"
    )
    assert code == 0 and "genus 1" in out


def test_fiber_orbits(capsys):
    code, out, _ = run(
        capsys,
        "fiber-orbits", "--structure", "T2", "--branch", "3", "--subgroup", "H1",
    )
    assert code == 0
    assert "4 points" not in out  # fiber has 8 points over an order-4 entry
    assert "8 points" in out
    assert "2 x (size 4, stabilizer order 2)" in out
    assert "acts freely: no" in out
    code, out, _ = run(
        capsys,
        "fiber-orbits", "--structure", "T1", "--branch", "4", "--subgroup", "H",
    )
    assert "2 x (size 4, stabilizer order 1)" in out
    assert "acts freely: yes" in out


def test_search_defaults_to_declared_structures(capsys):
    code, out, _ = run(capsys, "search")
    assert code == 0
    assert "every pair admits an admissible twist: yes" in out
    assert "trivial twist admissible somewhere: no" in out
    assert "euler-flat pairs: (chi9, chi14), (chi11, chi13)" in out
    assert "A=chi9 B=chi9: admissible chi3, chi4, chi7, chi8" in out


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--format", "json")
    data = json.loads(out)
    assert_no_floats(data)
    assert data["pair_count"] == 36
    assert data["all_pairs_admit_twist"] is True
    assert data["trivial_twist_admissible_somewhere"] is False
    by_b = {}
    for pair in data["pairs"]:
        by_b.setdefault(pair["b"], set()).add(tuple(pair["admissible"]))
    assert by_b["chi13"] == {("chi2", "chi5")}


def test_markdown_format(capsys):
    code, out, _ = run(capsys, "chartable", "--format", "md")
    assert code == 0
    assert out.splitlines()[0].startswith("# Character table")
    assert "| chi1 |" in out


# -- verify-paper -------------------------------------------------------


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.startswith("verification PASS: 41/41")


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "qslab-report/1"
    assert_no_floats(data)


def test_verify_paper_detects_bad_reference(capsys, tmp_path, published_record):
    published_record["rows"][5][3] = 7
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(published_record))
    code, out, _ = run(capsys, "verify-paper", "--reference", str(bad))
    assert code == 1
    assert "[FAIL] character-table-reference" in out
    assert "[PASS] class-membership" in out


@pytest.mark.parametrize("size", [2.9, "2", True], ids=["float", "str", "bool"])
def test_verify_paper_refuses_non_int_class_sizes(capsys, tmp_path, size, published_record):
    published_record["classes"][4]["size"] = size
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(published_record))
    code, out, _ = run(capsys, "verify-paper", "--reference", str(bad))
    assert code == 1
    assert "[FAIL] character-table-reference" in out
    assert "is not a JSON integer" in out


def test_verify_paper_detects_bad_spec(capsys, tmp_path):
    text = packaged_model_text().replace(
        "[1000; 0100; 1010; 0101]", "[1010; 0101; 0010; 0001]"
    )
    model = tmp_path / "transposed.alg"
    model.write_text(text)
    code, out, _ = run(capsys, "verify-paper", "--input", str(model))
    assert code == 1
    assert out.splitlines()[1].startswith("[FAIL] relation-g2-conjugate")


def test_verify_paper_on_other_group_reports_failures(capsys):
    # n5q1 names no g1..g5: the battery fails, it does not crash
    code, out, err = run(capsys, "verify-paper", *N5Q1)
    assert code == 1 and err == ""
    assert out.startswith("verification FAIL: ")
    assert out.count("[FAIL]") + out.count("[PASS]") == 41
    assert "unknown generator 'g1'" in out


# -- golden output -----------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# An order-64 model outside the bundled data, printed in canonical order.
N5Q1 = ("n5q1", "--input", str(GOLDEN / "n5q1.alg"))

# (golden file stem, argv) of each command line of golden/commands.txt.
GOLDEN_COMMANDS = [
    (name, tuple(arg.format(golden=GOLDEN) for arg in argv))
    for name, *argv in map(str.split, (GOLDEN / "commands.txt").read_text().splitlines())
    if not name.startswith("#")
]


# (--format value, golden file suffix)
FORMATS = (("text", "txt"), ("json", "json"), ("md", "md"))


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(argv + ("--format", fmt), f"{name}.{suffix}", id=f"{name}.{suffix}")
        for name, argv in GOLDEN_COMMANDS
        for fmt, suffix in FORMATS
    ],
)
def test_command_matches_golden(capsys, argv, golden):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("fmt, suffix", FORMATS)
def test_failing_report_matches_golden(capsys, tmp_path, published_record, fmt, suffix):
    # One wrong table value fails three checks, each shown with both values.
    # The edited record is written here, so tests/golden holds no second copy
    # of the published values.
    published_record["rows"][5][3] = 7
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(published_record))
    code, out, err = run(capsys, "verify-paper", "--reference", str(bad), "--format", fmt)
    assert (code, err) == (1, "")
    assert out.encode() == (GOLDEN / f"verify-paper.fail.{suffix}").read_bytes()
    report = json.loads((GOLDEN / "verify-paper.fail.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "character-table-reference",
        "canonical-decomposition-first",
        "canonical-decomposition-second",
    ]


@pytest.mark.parametrize(
    "name, command",
    [pytest.param(name, argv[0], id=name) for name, argv in GOLDEN_COMMANDS]
    + [pytest.param("verify-paper.fail", "verify-paper", id="verify-paper.fail")],
)
def test_every_format_renders_from_the_json_payload(name, command):
    # The text and Markdown come from the payload alone, so the payload read
    # back from its JSON golden gives the other two goldens byte for byte.
    payload = json.loads((GOLDEN / f"{name}.json").read_text())
    for fmt, suffix in FORMATS:
        rendered = render(command, payload, fmt) + "\n"
        assert rendered.encode() == (GOLDEN / f"{name}.{suffix}").read_bytes(), fmt


# -- error handling -----------------------------------------------------

# Usage and input errors: exit 2, nothing on stdout, one line on stderr.
# "{golden}" and "{tmp}" in an argument stand for the golden directory and
# a per-test temporary directory holding broken.alg (a parse error),
# binary.alg (bytes that are not UTF-8) and rank<r>.alg (a group of order 2^r).
ERROR_CASES = [
    ("unknown-group", ("info", "nosuch"),
     "unknown group 'nosuch'; input declares: g32_27"),
    ("several-groups", ("info", "--input", "{golden}/n5q1.alg"),
     "input declares several groups; name one of: n5q1, c2"),
    ("unknown-structure", ("sigma", "--structure", "T9"),
     "unknown structure 'T9'; declared: T1, T2"),
    ("structure-on-other-group",
     ("sigma", "n5q1", "--input", "{golden}/n5q1.alg", "--structure", "C"),
     "structure C is declared on group c2"),
    ("non-generating-structure",
     ("sigma", "n5q1", "--input", "{golden}/n5q1.alg", "--structure", "S"),
     "structure S: non-generating: entries span a proper subgroup"),
    ("sigma-two-structures", ("sigma", "--structure", "T1", "--structure", "T2"),
     "sigma needs exactly 1 --structure structure, got 2"),
    ("disjoint-one-structure", ("disjoint", "--structure", "T1"),
     "disjoint needs exactly 2 --structure structures, got 1"),
    ("search-one-structure", ("search", "--structure", "T1"),
     "search needs exactly 2 structures (via --structure twice, or a model "
     "declaring exactly two); got 1"),
    ("subgroup-unknown-generator",
     ("quotient-genus", "--structure", "T1", "--subgroup", "g2, zz"),
     "--subgroup 'g2, zz': line 1, col 5: unknown generator 'zz'"),
    ("subgroup-unknown-first", ("quotient-genus", "--structure", "T1", "--subgroup", "zz"),
     "--subgroup 'zz': line 1, col 1: unknown generator 'zz'"),
    ("subgroup-empty", ("quotient-genus", "--structure", "T1", "--subgroup", ""),
     "--subgroup '': line 1, col 1: expected generator name, found end of input"),
    ("subgroup-on-other-group",
     ("quotient-genus", "c2", "--input", "{golden}/n5q1.alg", "--structure", "C",
      "--subgroup", "K"),
     "subgroup K is declared on group n5q1"),
    ("branch-0",
     ("fiber-orbits", "--structure", "T1", "--subgroup", "H", "--branch", "0"),
     "--branch 0: branch index 0 out of range 1..4"),
    ("branch-9",
     ("fiber-orbits", "--structure", "T1", "--subgroup", "H", "--branch", "9"),
     "--branch 9: branch index 9 out of range 1..4"),
    ("missing-input", ("info", "--input", "{tmp}/nope.alg"),
     "cannot read {tmp}/nope.alg: No such file or directory"),
    ("parse-error", ("info", "--input", "{tmp}/broken.alg"),
     "{tmp}/broken.alg: line 1, col 14: expected '{{', found 'on'"),
    ("input-not-utf8", ("info", "--input", "{tmp}/binary.alg"),
     "cannot read {tmp}/binary.alg: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    ("rank-20000", ("info", "--input", "{tmp}/rank20000.alg"),
     "group big: group order 2^20000 exceeds the build bound 1024"),
    ("rank-10^18", ("info", "--input", "{tmp}/rank1000000000000000000.alg"),
     "group big: group order 2^1000000000000000000 exceeds the build bound 1024"),
]


@pytest.mark.parametrize(
    "argv, message", [pytest.param(a, m, id=i) for i, a, m in ERROR_CASES]
)
def test_error_exits_2(capsys, tmp_path, argv, message):
    assert_exits_2(capsys, tmp_path, argv, message)


def assert_exits_2(capsys, tmp_path, argv, message):
    (tmp_path / "broken.alg").write_text("group broken on")
    (tmp_path / "binary.alg").write_bytes(b"\xff\xfe")
    for rank in (20000, 10**18):
        model = f"group big {{ normal rank {rank}; quotient rank 0; }}"
        (tmp_path / f"rank{rank}.alg").write_text(model)
    paths = {"golden": str(GOLDEN), "tmp": str(tmp_path)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"qslab: error: {message.format(**paths)}\n"


# The single-case error tests that came before ERROR_CASES keep their names;
# each now runs its ERROR_CASES row.
def error_case(case_id):
    argv, message = next((a, m) for i, a, m in ERROR_CASES if i == case_id)
    return lambda capsys, tmp_path: assert_exits_2(capsys, tmp_path, argv, message)


test_unknown_group_exits_2 = error_case("unknown-group")
test_unknown_structure_exits_2 = error_case("unknown-structure")
test_bad_subgroup_fragment_exits_2 = error_case("subgroup-unknown-generator")
test_parse_error_exits_2 = error_case("parse-error")
test_missing_input_exits_2 = error_case("missing-input")
test_branch_out_of_range_exits_2 = error_case("branch-9")
test_single_structure_search_exits_2 = error_case("search-one-structure")


# -- no table cache -----------------------------------------------------


def test_cache_flag_is_rejected(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["chartable", "--cache", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var_is_ignored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QSLAB_CACHE", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    for _, argv in GOLDEN_COMMANDS:
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
    assert list(tmp_path.iterdir()) == []
