import json
from importlib import resources

import pytest

from qslab.builtin import T1_WORDS, T2_WORDS, build_g32_27
from qslab.characters import (
    align_to_reference,
    compute_character_table,
    load_reference_table,
    reference_column_map,
)
from qslab.ramification import validate_spherical


@pytest.fixture(scope="session")
def g32():
    return build_g32_27()


@pytest.fixture(scope="session")
def table(g32):
    return compute_character_table(g32)


@pytest.fixture(scope="session")
def ref():
    return load_reference_table()


@pytest.fixture
def published_record():
    """A fresh dict of the packaged published record, for a test to edit."""
    text = resources.files("qslab.data").joinpath("g32_27_published.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="session")
def perms(table, ref):
    """(row_perm, col_perm) aligning the computed table with the reference."""
    return align_to_reference(table, ref)


@pytest.fixture(scope="session")
def col_map(g32, ref):
    return reference_column_map(g32, ref)


@pytest.fixture(scope="session")
def t1(g32):
    return validate_spherical(g32, [g32.evaluate_word(w) for w in T1_WORDS])


@pytest.fixture(scope="session")
def t2(g32):
    return validate_spherical(g32, [g32.evaluate_word(w) for w in T2_WORDS])
