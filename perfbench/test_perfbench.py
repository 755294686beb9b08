"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

from __future__ import annotations

from collections import Counter

import pytest

import layers
import run
import workloads as wl  # puts the checkout's src on sys.path
from qslab import build_group
from qslab.builtin import G32_27_SPEC
from qslab.characters import CharacterTable


def test_family_specs_repeat_for_a_seed_and_vary_across_seeds():
    assert wl.family_specs(7) == wl.family_specs(7)
    assert len({tuple(spec for _, spec in wl.family_specs(s)) for s in range(6)}) > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_specs_validate_and_have_their_shape_class_count(seed):
    specs = wl.family_specs(seed)
    assert sorted(shape.name for shape, _ in specs) == sorted(s.name for s in wl.SHAPES)
    for shape, spec in specs:
        spec.validate()
        group = build_group(spec)
        assert group.order == shape.order
        assert len(group.conjugacy_classes()) == shape.classes


def test_family_certificate_rejects_a_wrong_table():
    shape, spec = next((s, p) for s, p in wl.family_specs(3) if s.name == "n4q1")
    output = wl.run_family_member(spec)
    assert wl.check_family_member(shape, output) is None
    group, table, normal, subgroups = output
    bad = CharacterTable(group=group, rows=(table.rows[0] * 2,) + table.rows[1:])
    assert "degree squares" in wl.check_family_member(shape, (group, bad, normal, subgroups))


def test_wrong_expected_digest_counts_the_op_as_failed(tmp_path):
    argv = ("info", "--format", "text")
    good = wl.load_digests()
    bad = dict(good, **{wl.cli_key(argv): "0" * 64})
    for in_process in (False, True):
        ops = wl.cli_ops([argv], good, tmp_path / "a", in_process, Counter())
        assert run.run_pass(ops, None)[1] == []
        ops = wl.cli_ops([argv], bad, tmp_path / "b", in_process, Counter())
        times, problems = run.run_pass(ops, None)
        assert len(times) == 1
        assert len(problems) == 1 and "digest" in problems[0]


def test_self_time_subtracts_the_children_covered_interval():
    spans = [
        layers.Span(1, None, "op", 0.0, 10.0),
        layers.Span(2, 1, "a", 1.0, 6.0),
        layers.Span(3, 2, "b", 2.0, 3.0),
        layers.Span(4, 2, "c", 4.0, 5.5),
        layers.Span(5, 1, "d", 7.0, 9.0),
    ]
    assert layers.self_times(spans) == {1: 3.0, 2: 2.5, 3: 1.0, 4: 1.5, 5: 2.0}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90, 90.0, 10)
    value, pct, beyond = run.tail(range(21))
    assert (value, beyond) == (10, 10) and pct == pytest.approx(100 * 11 / 21)
    assert run.tail(range(20)) == (19, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_tracer_counts_layers_and_restores_every_name():
    import qslab
    import qslab.cli
    import qslab.verify

    originals = (qslab.compute_character_table, qslab.cli.compute_character_table,
                 qslab.verify.build_group)
    tracer = layers.Tracer()
    with tracer.installed():
        assert qslab.cli.compute_character_table is not originals[1]
        with tracer.op():
            group = qslab.build_group(G32_27_SPEC)
            qslab.compute_character_table(group)
            qslab.compute_character_table(group)
    summary = tracer.end_pass()
    assert (qslab.compute_character_table, qslab.cli.compute_character_table,
            qslab.verify.build_group) == originals
    assert summary["characters.table_calls"] == 2
    assert summary["characters.orthogonality_calls"] == 1
    assert summary["characters.table_memo_ratio"] == 0.5
    assert summary["groups.build_s"] > 0 and summary["characters.table_s"] > 0
    assert 0.9 < summary["trace.coverage"] <= 1.0
