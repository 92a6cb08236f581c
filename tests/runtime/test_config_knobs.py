"""RuntimeConfig audit: every knob must have a reader.

A field that nothing outside ``config.py`` reads is a dead knob — its
comment promises a behaviour the runtime does not have.  Reads are found
syntactically: an attribute access ``<expr>.<field>`` or the field name
as a string constant (``getattr(config, "<field>")``) anywhere under
``src/repro/`` except ``config.py`` itself.  A field read by a resolver
method of ``RuntimeConfig`` (``detector_active`` reads ``ft_detector``)
counts as read when that method is called outside ``config.py``.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.config import RuntimeConfig

PACKAGE = Path(repro.__file__).resolve().parent
CONFIG_PY = PACKAGE / "config.py"


def _names_read_outside_config() -> set[str]:
    names: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        if path == CONFIG_PY:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


#: RuntimeConfig methods whose field reads are bookkeeping, not behaviour
_NON_RESOLVERS = {"updated", "to_dict", "from_dict", "validate"}


def _fields_read_by_resolvers(called: set[str]) -> set[str]:
    tree = ast.parse(CONFIG_PY.read_text(), filename=str(CONFIG_PY))
    cls = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RuntimeConfig"
    )
    names: set[str] = set()
    for method in cls.body:
        if (
            isinstance(method, ast.FunctionDef)
            and method.name not in _NON_RESOLVERS
            and method.name in called
        ):
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    names.add(node.attr)
    return names


def test_every_field_is_read_outside_config():
    read = _names_read_outside_config()
    read |= _fields_read_by_resolvers(read)
    dead = [f.name for f in dataclasses.fields(RuntimeConfig) if f.name not in read]
    assert dead == [], f"RuntimeConfig fields nothing reads: {dead}"


def test_no_lockfree_knob():
    names = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert "lockfree" not in names
    assert RuntimeConfig().lockfree_active() is True
