"""The public surface: ``permslab.__all__`` is derived from the package's imports."""

import re
import types
from pathlib import Path

import permslab
import permslab.em

README = Path(__file__).resolve().parent.parent / "README.md"


def star_namespace() -> dict:
    namespace = {"io": "sentinel"}
    exec("from permslab import *", namespace)
    return namespace


def test_star_import_binds_no_module():
    namespace = star_namespace()
    assert namespace["io"] == "sentinel"
    assert not [name for name, value in namespace.items()
                if not name.startswith("__") and isinstance(value, types.ModuleType)]


def test_readme_library_example_names_resolve():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    imports = re.search(r"from permslab import \(([^)]*)\)", block)
    names = [name.strip() for name in imports.group(1).split(",") if name.strip()]
    assert names
    namespace = star_namespace()
    assert all(name in namespace for name in names)


def test_truncated_series_oracle_is_not_public():
    assert not hasattr(permslab, "effective_reflection_truncated")
    assert not hasattr(permslab.em, "effective_reflection_truncated")
