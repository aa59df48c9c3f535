"""Counting what only the cyclic garbage collector can free."""

import gc


def cyclic_garbage(make) -> int:
    """How many objects the collector frees after a second ``make()``.

    The first call does any first-use work (imports, process caches)
    outside the count.  The second runs with the collector off, so ``0``
    means that reference counting alone freed everything it dropped.  A
    fleet barrier freezes the heap (``gc.freeze``) and only a run's close
    unfreezes it, so every frozen object is handed back before each
    count: a frozen cycle would otherwise hide from it.
    """
    make()
    gc.unfreeze()
    gc.collect()
    gc.disable()
    try:
        make()
        gc.unfreeze()
        return gc.collect()
    finally:
        gc.enable()
