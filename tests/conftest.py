import gc
import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from heatchern.clifford import CliffordElement
from heatchern.multivector import Multivector
from heatchern.suites import random_curvature  # noqa: F401


def basis_e(n, *indices):
    """e^{i_1} ^ ... ^ e^{i_k}, indices distinct and increasing, 1-based."""
    return Multivector(n, {(sum(1 << (i - 1) for i in indices), 0): 1})


def gen_c(n, i):
    """The Clifford generator c(e_i), 1-based."""
    return CliffordElement(n, {(1 << (i - 1), 0): 1})


def gen_chat(n, i):
    """The Clifford generator chat(e_i), 1-based."""
    return CliffordElement(n, {(0, 1 << (i - 1)): 1})


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def nprng():
    return np.random.default_rng(424242)


def _clear_caches():
    """Empty every module-level functools cache in heatchern: a cache hit
    enters no Python code, so it would hide the function from a profile."""
    for name, module in list(sys.modules.items()):
        if name == "heatchern" or name.startswith("heatchern."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@contextmanager
def profiled():
    """The code objects of the Python functions entered inside the block,
    which starts with every module-level functools cache in heatchern empty."""
    _clear_caches()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        yield reached
    finally:
        sys.setprofile(None)


def cyclic_garbage(call):
    """The objects that only the cyclic garbage collector frees once
    ``call`` has returned or raised ``RuntimeError``."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            call()
        except RuntimeError:
            pass
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def cached_after(call):
    """Entry counts of the caches among ``cyclic_garbage(call)``, and a 1
    for each object there that holds an ndarray: data of the call that
    only the cyclic collector would free.  The collector does not track
    an ndarray itself, so the array is found through its holder."""
    return [obj.cache_info().currsize if hasattr(obj, "cache_info") else 1
            for obj in cyclic_garbage(call)
            if hasattr(obj, "cache_info") or any(
                isinstance(ref, np.ndarray) for ref in gc.get_referents(obj))]
