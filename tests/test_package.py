"""The package's public surface: ``__all__`` names exactly what the
package binds, and the README's library tour runs against it."""

import inspect
from pathlib import Path

import germcalc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_exactly_the_public_bindings_of_the_package():
    public = {name for name, value in vars(germcalc).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(germcalc.__all__) == sorted(public)


def test_a_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from germcalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(germcalc.__all__)


def library_tour() -> str:
    """The first ``python`` block under README's ``## Library tour``."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_readme_library_tour_runs():
    exec(compile(library_tour(), str(README), "exec"), {})
