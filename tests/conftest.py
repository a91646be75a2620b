import gc
import weakref

import pytest


@pytest.fixture
def refcount_ref():
    """``refcount_ref(obj)`` returns a weak reference to obj and switches the
    cyclic collector off until the test ends, so the reference dies only when
    reference counting alone frees obj: no reference cycle may hold it."""
    def ref(obj):
        gc.collect()
        gc.disable()
        return weakref.ref(obj)

    yield ref
    gc.enable()
