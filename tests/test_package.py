import importlib
import inspect

import pytest

import qprogopt


@pytest.mark.parametrize("module", ["hermlin", "channels", "processors", "optim", "sdp", "rand"])
def test_all_names_resolve(module):
    # the benchmark tracer walks __all__ and skips a stale entry silently
    mod = importlib.import_module(f"qprogopt.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    # and it traces only __all__, so a public function or class left out of it
    # would drop out of the per-layer figures unnoticed
    public = [name for name, obj in vars(mod).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__]
    assert [name for name in public if name not in mod.__all__] == []


def test_weyl_frame_has_one_home():
    assert qprogopt.weyl_unitaries is qprogopt.channels.weyl_unitaries
    assert qprogopt.processors.weyl_unitaries is qprogopt.channels.weyl_unitaries
