"""The package's public names: ``asymqkd.__all__`` is what a star import binds."""

import pytest

import asymqkd
from asymqkd import distill, sim

# Deleted API, with the module that defined it: no command or benchmark ran it.
DELETED = [
    (sim, "compare_analytic"),
    (sim, "ComparisonVerdict"),
    (sim, "VerdictRow"),
    (distill, "PStepParams"),
]


def test_star_import_binds_exactly_the_exported_names():
    # The import raises on a name of __all__ that does not resolve, and the
    # sorted lists differ on a name listed twice.
    namespace = {}
    exec("from asymqkd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(asymqkd.__all__)


@pytest.mark.parametrize("module, name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_name_is_gone(module, name):
    assert name not in asymqkd.__all__
    assert not hasattr(asymqkd, name)
    assert not hasattr(module, name)
