"""Counting what only the cyclic garbage collector can free, and what a
``gc.freeze()`` left frozen."""

import gc

gc.unfreeze()
gc.collect()
#: The collector's permanent generation with nothing frozen, after a full
#: collection.  CPython 3.12 moves its immortal objects there at every
#: full collection (375 on 3.12.1); 3.11 and 3.13 keep none there.
IMMORTAL_OBJECTS = gc.get_freeze_count()


def frozen_objects() -> int:
    """How many objects a ``gc.freeze()`` left frozen.

    ``gc.get_freeze_count()`` less CPython 3.12's immortal objects, which
    sit in the same permanent generation after any full collection.
    """
    return max(0, gc.get_freeze_count() - IMMORTAL_OBJECTS)


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
