import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from lvmesh import isosurface, phantom, tetmesh  # noqa: E402

# property tests run numpy kernels of uneven cost and keep no example database
settings.register_profile("lvmesh", deadline=None, database=None)
settings.load_profile("lvmesh")


SMALL_SPEC = phantom.PhantomSpec(
    dims=(48, 48, 48),
    endo_axes=(11.0, 11.0, 16.0),
    epi_axes=(17.0, 17.0, 22.0),
    basal_cut_mm=13.0,
    contraction=0.22,
    shortening=0.10,
    seed=7,
)


@pytest.fixture(scope="session")
def small_phantom():
    """48-cube beating-LV dataset shared across module tests."""
    frames, labels, fields = phantom.generate(SMALL_SPEC)
    return SMALL_SPEC, frames, labels, fields


@pytest.fixture(scope="session")
def ed_surface_full(small_phantom):
    """Undecimated ED myocardium surface of the shared phantom."""
    _, _, labels, _ = small_phantom
    return isosurface.marching_cubes(
        labels[0], phantom.LABEL_MYOCARDIUM, iso_policy="smooth"
    )


@pytest.fixture(scope="session")
def ed_surface(ed_surface_full):
    return isosurface.decimate(ed_surface_full, 2000)


@pytest.fixture(scope="session")
def ed_tetmesh(ed_surface):
    mesh = tetmesh.tetrahedralize(ed_surface, 9.0)
    mesh.quality = tetmesh.assess(mesh)
    return mesh


def random_blob(rng, shape=(12, 12, 12)):
    """Connected random binary blob grown from a seed voxel."""
    from scipy import ndimage

    field = ndimage.gaussian_filter(rng.standard_normal(shape), 2.0)
    mask = field > np.quantile(field, 0.7)
    lbl, n = ndimage.label(mask)
    if n == 0:
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(s // 2 for s in shape)] = True
        return mask
    sizes = ndimage.sum(mask, lbl, range(1, n + 1))
    return lbl == (1 + int(np.argmax(sizes)))
