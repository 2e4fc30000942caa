import importlib
import inspect
import pkgutil

import pytest

import lvmesh

# cli is the command-line entry point, not a library module
_MODULES = sorted(m.name for m in pkgutil.iter_modules(lvmesh.__path__) if m.name != "cli")


def _is_api(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"lvmesh.{name}")
    defined = {attr for attr, obj in vars(mod).items()
               if not attr.startswith("_") and _is_api(obj) and obj.__module__ == mod.__name__}
    stale = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not stale, f"__all__ names what {name} does not define: {stale}"
    # module constants such as phantom.LABEL_MYOCARDIUM may be listed as well
    assert {attr for attr in mod.__all__ if _is_api(getattr(mod, attr))} == defined
