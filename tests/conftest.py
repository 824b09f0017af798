import hashlib

import numpy as np
import pytest

from rieszvox import SetTriple, generate

H64 = 1.0 / 64


@pytest.fixture(scope="session")
def blob_corpus():
    """200 connected random blobs, d=2, h=1/64."""
    return [
        generate(
            "blob",
            {"dim": 2, "spacing": H64, "radius": 0.4, "steps": 5},
            seed=s,
        )
        for s in range(200)
    ]


@pytest.fixture(scope="session")
def blob_triples(blob_corpus):
    """Cyclic consecutive triples so every blob participates."""
    n = len(blob_corpus)
    return [
        SetTriple(
            [blob_corpus[i], blob_corpus[(i + 1) % n], blob_corpus[(i + 2) % n]]
        )
        for i in range(n)
    ]


def set_digest(e):
    """sha256 of a set's origin, shape and packed occupancy, 16 hex digits."""
    h = hashlib.sha256()
    for part in (e.origin_index, e.shape):
        h.update(np.asarray(part, dtype=np.int64).tobytes())
    h.update(np.packbits(e.occupancy).tobytes())
    return h.hexdigest()[:16]


def random_voxel_set(dim, rng, cells=16, spacing=None, density=None):
    """Uniform random occupancy on a cells^dim window at a random origin."""
    if spacing is None:
        spacing = 1.0 / cells
    if density is None:
        density = 0.15 + 0.35 * rng.random()
    occ = rng.random((cells,) * dim) < density
    if not occ.any():
        occ.flat[rng.integers(occ.size)] = True
    origin = rng.integers(-cells // 2, cells // 2, size=dim)
    from rieszvox import VoxelSet

    return VoxelSet.from_index(occ, origin, spacing)
