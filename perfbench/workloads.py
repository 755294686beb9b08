"""Seeded inputs, operations and output checks of the three workloads."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


CACHE_ENV = "QSLAB_CACHE"


class Op(NamedTuple):
    """One operation: ``run()`` is timed, ``check(output)`` is not.

    ``check`` returns None when the output is right, else a one-line reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


# -- paper ------------------------------------------------------------------

PAPER_FORMATS = ("text", "json", "markdown")
PAPER_CHECKS = 41


def run_paper():
    """verify_paper() on the bundled group plus its three renderings."""
    from qslab import render_report, verify_paper

    report = verify_paper()
    return report, {fmt: render_report(report, fmt) for fmt in PAPER_FORMATS}


def check_paper(expected: dict[str, str], output) -> str | None:
    report, rendered = output
    passed = sum(1 for c in report.checks if c.passed)
    if passed != PAPER_CHECKS or len(report.checks) != PAPER_CHECKS:
        return f"{passed}/{len(report.checks)} checks passed"
    for fmt, text in rendered.items():
        if digest(text.encode()) != expected[f"paper:{fmt}"]:
            return f"{fmt} report differs from the recorded digest"
    return None


def paper_ops(expected: dict[str, str]) -> list[Op]:
    return [Op("paper", run_paper, functools.partial(check_paper, expected))]


# -- family -----------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One family shape and the invariants every conjugate of it shares.

    ``twisted`` selects action_j = I + E_{(j+m) mod k, j} (the scaling
    formula of the roadmap); otherwise the action is trivial.
    """

    name: str
    n_rank: int
    q_rank: int
    twisted: bool
    classes: int
    normal_subgroups: int
    subgroups: int

    @property
    def order(self) -> int:
        return 1 << (self.n_rank + self.q_rank)


SHAPES = (
    Shape("n4q1", 4, 1, True, classes=20, normal_subgroups=78, subgroups=158),
    Shape("n4q1-trivial", 4, 1, False, classes=32, normal_subgroups=374, subgroups=374),
    Shape("n4q2", 4, 2, True, classes=25, normal_subgroups=91, subgroups=389),
    Shape("n5q1", 5, 1, True, classes=40, normal_subgroups=425, subgroups=937),
)


def _identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _mat_mul(a, b) -> list[list[int]]:
    k = len(b)
    return [
        [sum(a[i][t] & b[t][j] for t in range(k)) & 1 for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _mat_inverse(mat) -> list[list[int]] | None:
    """Inverse over F2 by Gauss-Jordan elimination, or None if singular."""
    k = len(mat)
    rows = [list(row) + unit for row, unit in zip(mat, _identity(k))]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def _random_basis_change(rng: random.Random, k: int):
    while True:
        p = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
        p_inv = _mat_inverse(p)
        if p_inv is not None:
            return p, p_inv


def family_specs(seed: int):
    """The ``family`` pass for one seed: (shape, GroupSpec) in op order.

    Each shape's action is conjugated by a random element of GL(k, F2);
    conjugate actions give isomorphic groups, so the work per shape does
    not depend on the seed.
    """
    from qslab import GroupSpec

    rng = random.Random(f"family:{seed}")
    out = []
    for shape in SHAPES:
        k, m = shape.n_rank, shape.q_rank
        p, p_inv = _random_basis_change(rng, k)
        action = []
        for j in range(m):
            a = _identity(k)
            if shape.twisted:
                a[(j + m) % k][j] ^= 1
            action.append(tuple(tuple(row) for row in _mat_mul(_mat_mul(p, a), p_inv)))
        names = tuple(
            (f"n{i + 1}", (tuple(int(t == i) for t in range(k)), (0,) * m))
            for i in range(k)
        ) + tuple(
            (f"q{j + 1}", ((0,) * k, tuple(int(t == j) for t in range(m))))
            for j in range(m)
        )
        out.append((shape, GroupSpec(k, m, tuple(action), names)))
    rng.shuffle(out)
    return out


def _gaussian_int(value) -> tuple[int, int]:
    re, im = Fraction(value.re), Fraction(value.im)
    if re.denominator != 1 or im.denominator != 1:
        raise ValueError(f"character value {value} is not an algebraic integer")
    return re.numerator, im.numerator


def _derived_subgroup_order(group) -> int:
    """|G'| with G' closed from all commutators a^-1 b^-1 a b."""
    elems = group.elements
    gens = {a.inverse() * b.inverse() * a * b for a in elems for b in elems}
    closed = set(gens) | {group.identity()}
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return len(closed)


def check_family_member(shape: Shape, output) -> str | None:
    """The benchmark's own certificate for one family member's results."""
    group, table, normal, subgroups = output
    classes = group.conjugacy_classes()
    sizes = [c.size for c in classes]
    order = group.order
    if order != shape.order:
        return f"{shape.name}: order {order}, expected {shape.order}"
    if len(classes) != shape.classes:
        return f"{shape.name}: {len(classes)} classes, expected {shape.classes}"
    if len(table.rows) != len(classes):
        return f"{shape.name}: {len(table.rows)} rows for {len(classes)} classes"
    try:
        rows = [[_gaussian_int(v) for v in row.values] for row in table.rows]
    except ValueError as exc:
        return f"{shape.name}: {exc}"
    degrees = [row[0] for row in rows]
    if any(im != 0 or re < 1 for re, im in degrees):
        return f"{shape.name}: a row has no positive integer degree"
    if sum(re * re for re, _ in degrees) != order:
        return f"{shape.name}: degree squares do not sum to |G|"
    k = len(classes)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            re = sum(s * (x * u + y * v) for s, (x, y), (u, v) in zip(sizes, a, b))
            im = sum(s * (y * u - x * v) for s, (x, y), (u, v) in zip(sizes, a, b))
            if (re, im) != ((order if i == j else 0), 0):
                return f"{shape.name}: rows {i} and {j} break row orthogonality"
    for c in range(k):
        for d in range(k):
            re = sum(r[c][0] * r[d][0] + r[c][1] * r[d][1] for r in rows)
            im = sum(r[c][1] * r[d][0] - r[c][0] * r[d][1] for r in rows)
            expected = order // sizes[c] if c == d else 0
            if (re, im) != (expected, 0):
                return f"{shape.name}: classes {c} and {d} break column orthogonality"
    linear = sum(1 for re, _ in degrees if re == 1)
    abelianization = order // _derived_subgroup_order(group)
    if linear != abelianization:
        return f"{shape.name}: {linear} linear rows, |G:G'| = {abelianization}"
    if len(normal) != shape.normal_subgroups:
        return f"{shape.name}: {len(normal)} normal subgroups, expected {shape.normal_subgroups}"
    if len(subgroups) != shape.subgroups:
        return f"{shape.name}: {len(subgroups)} subgroups, expected {shape.subgroups}"
    return None


def run_family_member(spec):
    """Build one member from its spec: classes, table, both lattices."""
    from qslab import build_group, compute_character_table

    group = build_group(spec)
    group.conjugacy_classes()
    table = compute_character_table(group)
    return group, table, group.enumerate_normal_subgroups(), group.enumerate_subgroups()


def family_ops(specs) -> list[Op]:
    return [
        Op(
            shape.name,
            functools.partial(run_family_member, spec),
            functools.partial(check_family_member, shape),
        )
        for shape, spec in specs
    ]


# -- cli --------------------------------------------------------------------

CLI_COMMANDS = (
    ("info",),
    ("classes",),
    ("chartable",),
    ("sigma", "--structure", "T1"),
    ("disjoint", "--structure", "T1", "--structure", "T2"),
    ("fixed-points", "--structure", "T2"),
    ("canonical", "--structure", "T1"),
    ("canonical", "--structure", "T2"),
    ("quotient-genus", "--structure", "T1", "--subgroup", "H"),
    ("fiber-orbits", "--structure", "T2", "--subgroup", "H1", "--branch", "4"),
)
CLI_FORMATS = ("text", "json", "md")
CLI_TIMEOUT_S = 60
# Subcommands that need the character table, and so the cache.
TABLE_COMMANDS = frozenset({"chartable", "canonical"})


def cli_key(argv) -> str:
    return "cli:" + " ".join(argv)


def cli_argvs(seed: int) -> list[tuple[str, ...]]:
    """The ``cli`` pass for one seed: 30 argument lists in shuffled order."""
    ops = [cmd + ("--format", fmt) for cmd in CLI_COMMANDS for fmt in CLI_FORMATS]
    random.Random(f"cli:{seed}").shuffle(ops)
    return ops


def cli_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env[CACHE_ENV] = str(cache_dir)
    return env


def run_cli_subprocess(argv, env):
    """One ``python -m qslab.cli`` run; returns (exit code, stdout, None)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qslab.cli", *argv],
        env=env,
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, None


def _cache_state(cache_dir: Path) -> dict[str, tuple[int, int, int]]:
    state = {}
    if cache_dir.is_dir():
        for entry in os.scandir(cache_dir):
            st = entry.stat()
            state[entry.name] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return state


def run_cli_inprocess(argv, cache_dir: Path):
    """``cli.main`` in this process with stdout captured.

    Returns (exit code, stdout, cache event); the event is "write" when the
    cache directory changed, "hit" when a table command left it untouched.
    """
    from qslab import cli

    before = _cache_state(cache_dir)
    buf = io.StringIO()
    saved = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = str(cache_dir)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    finally:
        if saved is None:
            del os.environ[CACHE_ENV]
        else:
            os.environ[CACHE_ENV] = saved
    if _cache_state(cache_dir) != before:
        event = "write"
    else:
        event = "hit" if argv[0] in TABLE_COMMANDS else None
    return code, buf.getvalue().encode(), event


def check_cli(argv, expected: dict[str, str], events: Counter, output) -> str | None:
    """Exit code 0 and the recorded stdout; also tallies the cache event."""
    code, stdout, event = output
    if event:
        events[event] += 1
    if code != 0:
        return f"{' '.join(argv)}: exit code {code}"
    if digest(stdout) != expected[cli_key(argv)]:
        return f"{' '.join(argv)}: stdout differs from the recorded digest"
    return None


def cli_ops(argvs, expected, cache_dir: Path, in_process: bool, events: Counter) -> list[Op]:
    """One ``cli`` pass against a fresh cache directory."""
    if in_process:
        run = functools.partial(run_cli_inprocess, cache_dir=cache_dir)
    else:
        run = functools.partial(run_cli_subprocess, env=cli_env(cache_dir))
    return [
        Op(
            cli_key(argv),
            functools.partial(run, argv),
            functools.partial(check_cli, argv, expected, events),
        )
        for argv in argvs
    ]
