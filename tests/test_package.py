import importlib

import pytest

import qprogopt


@pytest.mark.parametrize("module", ["hermlin", "channels", "processors", "optim", "sdp", "rand"])
def test_all_names_resolve(module):
    # the benchmark tracer walks __all__ and skips a stale entry silently
    mod = importlib.import_module(f"qprogopt.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_weyl_frame_has_one_home():
    assert qprogopt.weyl_unitaries is qprogopt.channels.weyl_unitaries
    assert qprogopt.processors.weyl_unitaries is qprogopt.channels.weyl_unitaries
