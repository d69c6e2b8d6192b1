"""Golden digests: SHA-256 of the CSV bytes of three small pinned batches.

A refactor that keeps these digests keeps the output bit for bit, which is
stronger than rerun identity (acceptance criterion 11).  A change that moves
them on purpose must re-pin them and say why.

Both samplers read one site field, and the default forward burn-in is the
exact sampler's own depth bound, so it covers every first-column backward
walk of any batch that ``sampler=perfect`` completes: the pinned forward batch
run with ``sampler=perfect`` gives the same bytes (grand coupling).
"""

import hashlib

import pytest

from densigraph.experiment import parse_config_text, rows_to_csv, run_experiment

GOLDEN = {
    "forward": (
        ["n=60", "r_plus=0.5", "t_grid=100,400", "n_simu=4", "seed=11",
         "limits=true"],
        "3fd26606205310a2e5457daf53f57a58e4b0859110f0ac8bf07303c070acce50",
    ),
    "perfect": (
        ["n=40", "sampler=perfect", "t_grid=20,50", "n_simu=3", "seed=12",
         "limits=true"],
        "5d0c06f95e68f428bded2cb2fa5ea253470ab2d40615f2d33a149b0499e36df6",
    ),
    "sweep": (
        ["n=50", "vary=r_plus", "vary_values=0.3,0.7", "delta=log",
         "t_grid=100,300", "n_simu=3", "seed=13", "limits=true"],
        "801f98ecb68b26c58fc061c26b3d59a579c94db57a0fdd09f293c80684ef1d6b",
    ),
}


def _digest(overrides, jobs=1):
    rows = run_experiment(parse_config_text("", overrides), jobs=jobs)
    return hashlib.sha256(rows_to_csv(rows).encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_csv_digest(name):
    overrides, digest = GOLDEN[name]
    assert _digest(overrides) == digest


def test_pinned_csv_digest_two_workers():
    moved = [name for name, (overrides, digest) in sorted(GOLDEN.items())
             if _digest(overrides, jobs=2) != digest]
    assert moved == []


def test_forward_digest_equals_perfect_sampler_digest():
    overrides, digest = GOLDEN["forward"]
    assert _digest(overrides + ["sampler=perfect"]) == digest
