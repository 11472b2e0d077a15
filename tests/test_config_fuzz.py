"""Fuzzed configs: `validate` and `spots` end in exit 0 or 2, never a traceback.

Each example starts from the full config of configs/tiny_custom.yaml and
replaces one to three sections, fields or list entries with a wrong type,
a negative number, zero, a tiny positive number (1e-9, which as a grid
step would cut the facades into ~1e10 cells), a number at the edge of the
float range (1e-320, +-1e308), an integer past it (10**400), a number far
below any noise floor (-4000 dBm), nan, +-inf, or (for a list) a list one
entry too short or too long.  An exit 2 must come with a `config error: `
line naming the field.
"""

import contextlib
import copy
import io
import math
import os
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from irsplan.cli import main
from irsplan.config import config_to_dict, load_config

TINY = Path(__file__).resolve().parents[1] / "configs" / "tiny_custom.yaml"
BASE = config_to_dict(load_config(str(TINY)))

WRONG = [
    "x", True, None, {}, -1, -2.5, 0, 0.0, 1e-9, 1e-320, 1e308, -1e308, -4000.0,
    math.nan, math.inf, -math.inf, 10**400, [],
]


def _paths(node, path=()):
    """Key paths of every section, field and list entry under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*path, key))


PATHS = list(_paths(BASE))


@st.composite
def broken_configs(draw):
    cfg = copy.deepcopy(BASE)
    done = []
    for path in draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=3)):
        if any(path[: len(p)] == p for p in done):
            continue  # inside a part an earlier replacement already replaced
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        lengths = [old[:-1], old + old[-1:]] if isinstance(old, list) and old else []
        parent[path[-1]] = draw(st.sampled_from(WRONG + lengths))
        done.append(path)
    return cfg


@settings(max_examples=200, deadline=None)
@given(cfg=broken_configs())
def test_broken_configs_exit_0_or_2(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    for command in ("validate", "spots"):
        err = io.StringIO()  # Hypothesis refuses the function-scoped capsys
        with contextlib.redirect_stderr(err):
            code = main([command, "-c", str(path), "-o", os.devnull])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("config error: "), err.getvalue()
