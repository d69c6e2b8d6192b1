"""Golden digests: SHA-256 of the CSV bytes of three small pinned batches.

A refactor that keeps these digests keeps the output bit for bit, which is
stronger than rerun identity (acceptance criterion 11).  A change that moves
them on purpose must re-pin them and say why.
"""

import hashlib

import pytest

from densigraph.experiment import parse_config_text, rows_to_csv, run_experiment

GOLDEN = {
    "forward": (
        ["n=60", "r_plus=0.5", "t_grid=100,400", "n_simu=4", "seed=11",
         "limits=true"],
        "f964dbc97c8cb1a5335cfb4d379cbeeb810ca3a68bdd6d791202054f3dc0cf9e",
    ),
    "perfect": (
        ["n=40", "sampler=perfect", "t_grid=20,50", "n_simu=3", "seed=12",
         "limits=true"],
        "fc348cc0df3b92ac13588bf7a69b9068db0314736e2a227c3edee11dd06bab80",
    ),
    "sweep": (
        ["n=50", "vary=r_plus", "vary_values=0.3,0.7", "delta=log",
         "t_grid=100,300", "n_simu=3", "seed=13", "limits=true"],
        "2019829994d9bd90eabadc4c445309cf693b40adab5c2d5e855ef650129ce6b6",
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
