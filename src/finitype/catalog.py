"""Shipped example inputs: every analyzed configuration as an input document.

The JSON files under ``finitype/data`` are the catalog. They ship as package
data so the CLI can be pointed straight at them, and an example's name is
its file name without the ``.json`` suffix.
"""

from __future__ import annotations

import json
from importlib import resources


# documents the default suite does not analyze: this one's graph is expected
# to exceed the vertex cap
SLOW_EXAMPLES = frozenset({"bc_x4_plus_x_minus_1"})

# expected vertex counts and reduced essential sizes where published
CENSUS = {
    "golden": (6, 3),
    "bc_x3_plus_x_minus_1": (152, 46),
    "bc_x3_plus_x2_minus_1": (1809, 1207),
    "bc_x3_minus_x2_plus_2x_minus_1": (30, 27),
    "bc_x3_plus_x2_plus_x_minus_1": (11, 8),
    "bc_x4_minus_2x2_minus_x_plus_1": (538, 535),
    "bc_x4_minus_x3_plus_2x_minus_1": (190, 187),
    "bc_x4_plus_x3_plus_x2_plus_x_minus_1": (14, 11),
    "golden_square": (40, 11),
    "cantor_r3_m5_uniform": (7, 2),
}


def example_names() -> list[str]:
    """Names of the shipped documents, sorted."""
    return sorted(ref.name.removesuffix(".json")
                  for ref in resources.files("finitype.data").iterdir()
                  if ref.name.endswith(".json"))


def load_document(name: str) -> dict:
    """Read a shipped example document from package data."""
    ref = resources.files("finitype.data").joinpath(f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)

