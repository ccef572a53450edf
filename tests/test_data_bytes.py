"""The synthetic datasets render in blocks, byte for byte.

:mod:`repro.data.synthetic` draws every image's random numbers one
image at a time, in the order the per-image renderers drew them, and
runs the rest of the arithmetic on blocks of images.  The per-image
renderers live in ``tests/oracles.py``; images and labels must equal
theirs byte for byte, across block boundaries (the largest count spans
several blocks at every size), odd canvas sizes and every class family.
"""

import numpy as np
import pytest

from repro.data import make_cifar_like, make_mnist_like, make_svhn_like
from repro.data.synthetic import _BLOCK_PIXELS
from tests.oracles import (
    make_cifar_like_reference,
    make_mnist_like_reference,
    make_svhn_like_reference,
)

GENERATORS = {
    "mnist_like": (make_mnist_like, make_mnist_like_reference),
    "svhn_like": (make_svhn_like, make_svhn_like_reference),
    "cifar_like": (make_cifar_like, make_cifar_like_reference),
}

SIZES = (8, 16, 28, 32, 33)
COUNTS = (1, 2, 37, 513)


def test_counts_cross_block_boundaries():
    assert max(COUNTS) > _BLOCK_PIXELS // min(SIZES) ** 2


@pytest.mark.parametrize("seed", [0, 5, 2024])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_equals_per_image_oracle(name, size, seed):
    generate, reference = GENERATORS[name]
    for count in COUNTS:
        got = generate(count, image_size=size, rng=seed)
        want = reference(count, image_size=size, rng=seed)
        assert got.images.dtype == want.images.dtype
        assert got.images.shape == want.images.shape
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.name == want.name


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_leaves_the_stream_where_the_oracle_does(name):
    # A shared generator continues from the same state, so whatever
    # draws next (the OOD split, a second dataset) is unchanged too.
    generate, reference = GENERATORS[name]
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    generate(40, image_size=12, rng=ours)
    reference(40, image_size=12, rng=theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state
