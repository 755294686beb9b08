"""The bundled model: the order-32 group G(32,27) and its named structures.

The group is N x| Q with N = Z2^4, Q = Z2; generator labels follow the
presentation g1..g5 with g1 the Q generator and g2..g5 the N basis.
Everything here is read from the packaged model file ``data/g32_27.alg``,
parsed once at import; that file is the only copy of the model.
"""

from __future__ import annotations

import os

from .alg import parse_model
from .groups import FiniteGroup, Subgroup, build_group

with open(os.path.join(os.path.dirname(__file__), "data", "g32_27.alg"), encoding="utf-8") as _fh:
    MODEL = parse_model(_fh.read())
(GROUP_NAME,) = MODEL.group_names()
G32_27_SPEC = MODEL.group_spec(GROUP_NAME)

# Generating words of the ramification structures, and of the named
# subgroups used by the quotient and fiber computations.
STRUCTURE_WORDS: dict[str, tuple[tuple[str, ...], ...]] = {
    d.name: d.words for d in MODEL.structures_on(GROUP_NAME)
}
T1_WORDS = STRUCTURE_WORDS["T1"]
T2_WORDS = STRUCTURE_WORDS["T2"]
SUBGROUP_WORDS: dict[str, tuple[tuple[str, ...], ...]] = {
    d.name: d.words for d in MODEL.subgroups if d.group_name == GROUP_NAME
}


def build_g32_27() -> FiniteGroup:
    return build_group(G32_27_SPEC)


def named_subgroup(group: FiniteGroup, name: str) -> Subgroup:
    words = SUBGROUP_WORDS[name]
    return group.subgroup_closure(group.evaluate_word(w) for w in words)
