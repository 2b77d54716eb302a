import importlib
import pkgutil

import pytest

import upkit
from upkit.components import CLASS_CACHE_SIZE


def _class_keyed_caches():
    """Every module-level lru_cache in upkit with the class bound, which
    ``test_cache_bounds`` pins to its ``CLASS_KEYED`` set."""
    for info in pkgutil.iter_modules(upkit.__path__, "upkit."):
        for value in vars(importlib.import_module(info.name)).values():
            if (
                hasattr(value, "cache_parameters")
                and value.__module__ == info.name
                and value.cache_parameters()["maxsize"] == CLASS_CACHE_SIZE
            ):
                yield value


@pytest.fixture
def cold_class_caches():
    """Clear every class-keyed cache before and after the test: a function
    patched under one of them then runs, and what it builds does not
    outlive the patch."""
    caches = list(_class_keyed_caches())
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
