"""The lazy ``qslab`` namespace and what each entry point imports.

Import footprints are checked in a fresh interpreter, since this test
process has already loaded every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qslab

# ``qslab.__all__`` as it stood when the namespace imported every module.
PUBLIC_NAMES = (
    "CharacterTable",
    "CharacterTableError",
    "ClassFunction",
    "ConjugacyClass",
    "ExactScalar",
    "FiniteGroup",
    "GroupElement",
    "GroupSpec",
    "GroupSpecError",
    "GroupTooLargeError",
    "SphericalSystem",
    "SphericalSystemError",
    "Subgroup",
    "align_to_reference",
    "build_g32_27",
    "build_group",
    "canonical_character",
    "compute_character_table",
    "curve_genus",
    "decompose",
    "fiber_orbit_structure",
    "fixed_point_count",
    "inner_product",
    "is_disjoint",
    "load_reference_table",
    "quotient_genus",
    "render_report",
    "search_all_pairs",
    "stabilizer_set",
    "validate_spherical",
    "verify_paper",
)
SUBMODULES = ("alg", "builtin", "characters", "groups", "ramification", "search", "verify")

# Every subcommand but ``search`` and ``verify-paper``, on the bundled model.
OTHER_COMMANDS = (
    ["info"],
    ["classes"],
    ["chartable"],
    ["sigma", "--structure", "T1"],
    ["disjoint", "--structure", "T1", "--structure", "T2"],
    ["fixed-points", "--structure", "T2"],
    ["canonical", "--structure", "T1"],
    ["quotient-genus", "--structure", "T1", "--subgroup", "H"],
    ["fiber-orbits", "--structure", "T2", "--subgroup", "H1", "--branch", "4"],
)


def run_fresh(code: str, *flags: str):
    """Run ``code`` in a new interpreter (with ``flags``) that finds this
    qslab; returns its last stdout line parsed as JSON."""
    env = dict(os.environ)
    src = str(Path(qslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m == 'qslab' or m.startswith('qslab.'))"


def test_bare_import_loads_no_submodule_and_resolves_them_on_access():
    out = run_fresh(
        "import json, sys\n"
        "import qslab\n"
        f"bare = {LOADED}\n"
        f"resolved = [getattr(qslab, n) is sys.modules['qslab.' + n] for n in {SUBMODULES!r}]\n"
        "print(json.dumps([bare, resolved]))\n"
    )
    assert out == [["qslab"], [True] * len(SUBMODULES)]


def test_cli_loads_verify_and_search_only_for_their_commands():
    out = run_fresh(
        "import contextlib, io, json, sys\n"
        "from qslab import cli\n"
        "def run(*argvs):\n"
        "    for argv in argvs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert cli.main(argv) == 0, argv\n"
        f"    return {LOADED}\n"
        f"others = run(*{OTHER_COMMANDS!r})\n"
        "search = run(['search'])\n"
        "verify = run(['verify-paper'])\n"
        "print(json.dumps([others, search, verify]))\n"
    )
    others, search, verify = (set(names) for names in out)
    assert {"qslab.cli", "qslab.ramification"} <= others
    assert not {"qslab.verify", "qslab.search"} & others
    assert "qslab.search" in search and "qslab.verify" not in search
    assert "qslab.verify" in verify


# The commands that read no character table and, in text format, write no JSON.
TABLELESS_COMMANDS = [
    argv for argv in OTHER_COMMANDS
    if argv[0] in ("info", "sigma", "disjoint", "quotient-genus", "fiber-orbits")
]


def test_cli_commands_load_no_fractions_decimal_or_importlib_resources():
    # -S skips site, whose .pth files may load any of these at start-up.
    # The table-less commands run first, before anything loads json.
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from qslab import cli\n"
        "def run(argvs, watched):\n"
        "    for argv in argvs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert cli.main(argv) == 0, argv\n"
        "    return [m for m in watched if m in sys.modules]\n"
        f"tableless = run({TABLELESS_COMMANDS!r}, ('json', 'qslab.characters'))\n"
        f"every = run({[*OTHER_COMMANDS, ['search'], ['verify-paper']]!r}, "
        "('fractions', 'decimal', 'importlib.resources', 'dataclasses', 'inspect', "
        "'typing', 'pathlib'))\n"
        "import json\n"
        "print(json.dumps([tableless, every]))\n",
        "-S",
    )
    assert out == [[], []]


def test_groups_import_does_not_load_hashlib():
    out = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qslab.groups\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert "qslab.groups" in out
    assert "hashlib" not in out


def test_all_lists_the_public_names():
    assert qslab.__all__ == list(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(qslab))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_the_object_its_module_defines(name):
    value = getattr(qslab, name)
    assert value.__module__.startswith("qslab.")
    assert vars(sys.modules[value.__module__])[name] is value


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from qslab import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(qslab, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qslab.no_such_name
    assert not hasattr(qslab, "cli_main")


def test_resolving_names_leaves_the_namespace_unchanged():
    for module in SUBMODULES:
        importlib.import_module(f"qslab.{module}")
    before = dict(vars(qslab))
    for name in PUBLIC_NAMES:
        getattr(qslab, name)
    assert dict(vars(qslab)) == before
    assert not set(PUBLIC_NAMES) & set(vars(qslab))


def test_a_rebinding_in_the_defining_module_shows_through(monkeypatch):
    # perfbench's tracer swaps functions in their modules and puts them
    # back; the namespace must follow both, holding no copy of its own.
    original = qslab.compute_character_table
    monkeypatch.setattr(qslab.characters, "compute_character_table", len)
    assert qslab.compute_character_table is len
    monkeypatch.undo()
    assert qslab.compute_character_table is original
