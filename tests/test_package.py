import sdsvm


def test_every_export_is_a_package_attribute():
    # A stale name in __all__ would break `from sdsvm import *`.
    assert [name for name in sdsvm.__all__ if not hasattr(sdsvm, name)] == []
