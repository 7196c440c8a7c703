import gc
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def _troplog_object(x) -> bool:
    """An instance of a class that a troplog module defines, or a function
    defined in one."""
    if isinstance(x, types.FunctionType):
        return (x.__module__ or "").startswith("troplog")
    return type(x).__module__.startswith("troplog")


@pytest.fixture
def cyclic_garbage():
    """Run the test with the collector off, so that only reference counting
    frees what it drops.  Yields a function that collects once with
    ``DEBUG_SAVEALL`` and names the troplog objects that only the collector
    could free.  The collector's state is restored after the test."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()

    def troplog_garbage() -> list[str]:
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = [x for x in gc.garbage if _troplog_object(x)]
            return sorted(f"{type(x).__qualname__} {getattr(x, '__qualname__', '')}".strip() for x in found)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()

    try:
        yield troplog_garbage
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
