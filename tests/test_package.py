import pathlib
import pkgutil
import re
import sys

import numpy as np

import rails

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _exporting_modules():
    return {sys.modules[getattr(rails, name).__module__] for name in rails.__all__}


class TestExports:
    def test_every_library_module_is_reexported(self):
        library = {
            f"rails.{info.name}" for info in pkgutil.iter_modules(rails.__path__)
        } - {"rails.cli"}
        assert {module.__name__ for module in _exporting_modules()} == library

    def test_all_is_the_concatenation_of_module_lists(self):
        modules = _exporting_modules()
        for module in modules:
            assert hasattr(module, "__all__"), module.__name__
        concatenated = [name for module in modules for name in module.__all__]
        assert sorted(rails.__all__) == sorted(concatenated)
        assert len(set(rails.__all__)) == len(rails.__all__)
        assert not [name for name in rails.__all__ if name.startswith("_")]

    def test_names_are_the_module_objects(self):
        for module in _exporting_modules():
            for name in module.__all__:
                assert getattr(rails, name) is getattr(module, name), name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from rails import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(rails.__all__)


def test_readme_quickstart_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README quickstart", "exec"), namespace)
    assert namespace["report"].converged
    sol, c_ref = namespace["sol"], namespace["c_ref"]
    err = np.linalg.norm(sol.to_dense() - c_ref) / np.linalg.norm(c_ref)
    assert err < 1e-6
