"""The package's public surface: `densigraph.__all__` is an explicit list of
names that resolve to no submodule, and the oracle layers that live in the
tests' references are not part of it."""

import importlib
import types

import numpy as np
import pytest

import densigraph
from densigraph import estimators, inversion, model, oracles, perfect, rng
from densigraph.rng import absorb

# The package's `limits` is the function, which shadows its module.
limits_module = importlib.import_module("densigraph.limits")

REMOVED = ["spatio_temporal_mean", "spatial_variance", "w_delta",
           "temporal_variance", "transition_probability", "site_draw", "SiteDraw",
           "backward_walk", "BackwardWalk", "forward_map", "LimitTriple",
           "admissible", "require_admissible", "draw_batch", "kappa", "root_d",
           "phi1", "inverse_map", "select_branch", "NonInvertibleError",
           "coalescence_probability_mc", "mix64_array", "uniform01_array", "word",
           "uniform01", "sign_vector", "size_minus", "config_index",
           "ExactDistribution", "tv_distance", "covariance_mc", "column_indices",
           "empirical_distribution", "solve_m", "solve_c"]


def test_all_is_an_explicit_list_of_public_objects():
    names = densigraph.__all__
    assert isinstance(names, list)
    assert len(names) == len(set(names)) == 33
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
    for owner in (densigraph, estimators, inversion, limits_module, model, oracles,
                  perfect, rng, model.ModelParams, model.Partition,
                  perfect.SiteField):
        assert not hasattr(owner, name)


def test_trajectory_has_no_counts_matrix():
    # an int64 (n, T) cumsum: 8 n T bytes, which the estimators never need
    assert not hasattr(model.Trajectory, "counts")


def test_site_field_has_no_scalar_draw():
    assert not hasattr(perfect.SiteField, "draw")
    assert "mu" not in perfect.SiteField.__slots__


def test_oracles_reach_no_sampler():
    # `oracles` serves the `oracle` command from the model alone.
    assert not hasattr(oracles, "perfect_sample")
    assert not hasattr(oracles, "derive_key")


def test_site_field_hashes_its_row_keys():
    params = model.ModelParams(mu=0.1, lam=0.4, p=0.5, r_plus=0.5, n=7)
    field = perfect.SiteField(3, params)
    assert field.row_keys.dtype == np.uint64
    assert field.row_keys.tolist() == [absorb(field.key, i) for i in range(7)]
