"""The package's public surface: `densigraph.__all__` is an explicit list of
names that resolve to no submodule, and the oracle layers that live in the
tests' references are not part of it."""

import types

import pytest

import densigraph
from densigraph import estimators, model, perfect

REMOVED = ["spatio_temporal_mean", "spatial_variance", "w_delta",
           "temporal_variance", "transition_probability", "site_draw", "SiteDraw",
           "backward_walk", "BackwardWalk"]


def test_all_is_an_explicit_list_of_public_objects():
    names = densigraph.__all__
    assert isinstance(names, list)
    assert len(names) == len(set(names)) == 45
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(densigraph, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from densigraph import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(densigraph.__all__)
    assert all(namespace[name] is getattr(densigraph, name) for name in namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_absent(name):
    assert name not in densigraph.__all__
    for owner in (densigraph, estimators, model, perfect):
        assert not hasattr(owner, name)


def test_site_field_has_no_scalar_draw():
    assert not hasattr(perfect.SiteField, "draw")
    assert "mu" not in perfect.SiteField.__slots__
