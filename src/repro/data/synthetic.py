"""Procedural stand-ins for MNIST, SVHN and CIFAR-10.

The offline environment cannot download the paper's datasets, so this
module synthesizes *learnable* image-classification tasks with the same
interface (DESIGN.md, substitution table):

* :func:`make_mnist_like` — grayscale digit rendering with jitter and
  noise (10 classes, default 28x28x1);
* :func:`make_svhn_like` — colored digits over textured backgrounds
  (10 classes, default 32x32x3);
* :func:`make_cifar_like` — class-conditional structured textures
  (10 classes, default 32x32x3).

The tasks are non-trivial (position/scale/color jitter, distractors,
additive noise) so accuracy, calibration and uncertainty genuinely
respond to model and dropout choices, which is all the paper's search
experiments require.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.fonts import digit_glyph, upsample_glyph
from repro.nn.module import DTYPE
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive_int


#: Pixels rendered per block.  Each image's random draws run one at a
#: time, in the stream order of a one-image-at-a-time renderer; the
#: arithmetic runs on the whole block, whose size bounds the float64
#: temporaries (a block's pixel noise is 256 KiB).
_BLOCK_PIXELS = 32768


def _blocks(num_samples: int, pixels: int):
    """``(start, stop)`` row ranges of images of ``pixels`` values each,
    at most :data:`_BLOCK_PIXELS` values per range."""
    rows = max(1, _BLOCK_PIXELS // pixels)
    for start in range(0, num_samples, rows):
        yield start, min(start + rows, num_samples)


def _grid(size: int) -> np.ndarray:
    """The float32 ``(yy, xx)`` coordinate grid, scaled to ``[0, 1]``."""
    return np.mgrid[0:size, 0:size].astype(np.float32) / max(size - 1, 1)


def _blur3(img: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box blur over the last two axes, to soften glyph edges."""
    out = img.copy()
    out[..., 1:-1, 1:-1] = (
        img[..., :-2, :-2] + img[..., :-2, 1:-1] + img[..., :-2, 2:]
        + img[..., 1:-1, :-2] + img[..., 1:-1, 1:-1] + img[..., 1:-1, 2:]
        + img[..., 2:, :-2] + img[..., 2:, 1:-1] + img[..., 2:, 2:]
    ) / 9.0
    return out


class _Digits:
    """Jittered digit glyphs on ``size x size`` canvases.

    The glyph fills most of the canvas and is jittered by a bounded
    offset around the centre (roughly +/- size/8), mimicking the loose
    centring of MNIST digits while keeping the task learnable from a
    few hundred examples.
    """

    def __init__(self, size: int) -> None:
        factor = max(1, int(round(size * 0.8 / 7)))
        self.glyphs = np.stack([
            upsample_glyph(digit_glyph(digit), factor)
            for digit in range(10)])[:, :size, :size]
        self.size = size
        height, width = self.glyphs.shape[1:]
        self.centre = ((size - height) // 2, (size - width) // 2)
        self.limit = (size - height, size - width)
        self.jitter = max(1, size // 8)

    def draw(self, rng: np.random.Generator) -> tuple:
        """One image's draws: glyph offset, intensity and blur."""
        (cy, cx), (hy, hx), jitter = self.centre, self.limit, self.jitter
        dy = min(max(cy + int(rng.integers(-jitter, jitter + 1)), 0), hy)
        dx = min(max(cx + int(rng.integers(-jitter, jitter + 1)), 0), hx)
        intensity = rng.uniform(0.7, 1.0)
        return dy, dx, intensity, rng.random() < 0.5

    def render(self, labels: np.ndarray, draws: list) -> np.ndarray:
        """The float32 canvases of ``labels`` under their ``draws``."""
        dy, dx, intensity, blur = (np.array(column) for column in zip(*draws))
        count, (height, width) = len(labels), self.glyphs.shape[1:]
        canvas = np.zeros((count, self.size, self.size), dtype=np.float32)
        canvas[np.arange(count)[:, None, None],
               (dy[:, None] + np.arange(height))[:, :, None],
               (dx[:, None] + np.arange(width))[:, None, :]] = (
            self.glyphs[labels]
            * intensity.astype(np.float32)[:, None, None])
        canvas[blur] = _blur3(canvas[blur])
        return canvas


def make_mnist_like(num_samples: int = 512, *, image_size: int = 28,
                    noise_std: float = 0.15,
                    rng: SeedLike = None) -> Dataset:
    """Grayscale digit dataset in the role of MNIST.

    Args:
        num_samples: total images (balanced across the 10 digits).
        image_size: square side length.
        noise_std: additive Gaussian pixel-noise level.
        rng: seed or generator.
    """
    check_positive_int(num_samples, "num_samples")
    check_positive_int(image_size, "image_size")
    rng = new_rng(rng)
    images = np.zeros((num_samples, 1, image_size, image_size), dtype=DTYPE)
    labels = rng.integers(0, 10, size=num_samples)
    digits = _Digits(image_size)
    plane = (image_size, image_size)
    for start, stop in _blocks(num_samples, image_size * image_size):
        draws, noise = [], np.empty((stop - start,) + plane)
        for k in range(stop - start):
            draws.append(digits.draw(rng))
            noise[k] = rng.normal(0.0, noise_std, size=plane)
        noise += digits.render(labels[start:stop], draws)
        images[start:stop, 0] = np.clip(noise, 0.0, 1.0, out=noise)
    return Dataset(images, labels, name="mnist_like", num_classes=10)


def make_svhn_like(num_samples: int = 512, *, image_size: int = 32,
                   noise_std: float = 0.08,
                   rng: SeedLike = None) -> Dataset:
    """Colored digits over textured backgrounds, in the role of SVHN.

    Each background is a random smooth color gradient with faint noise.
    """
    check_positive_int(num_samples, "num_samples")
    check_positive_int(image_size, "image_size")
    rng = new_rng(rng)
    images = np.zeros((num_samples, 3, image_size, image_size), dtype=DTYPE)
    labels = rng.integers(0, 10, size=num_samples)
    digits = _Digits(image_size)
    yy, xx = _grid(image_size)
    planes = (3, image_size, image_size)
    for start, stop in _blocks(num_samples, 3 * image_size * image_size):
        count = stop - start
        base, slope, color = (np.empty((count, 3)), np.empty((count, 3, 2)),
                              np.empty((count, 3)))
        grain, noise, draws = (np.empty((count,) + planes),
                               np.empty((count,) + planes), [])
        for k in range(count):
            base[k] = rng.uniform(0.1, 0.6, size=3)
            slope[k] = rng.uniform(-1.0, 1.0, size=(3, 2))
            grain[k] = rng.normal(0.0, 0.03, size=planes)
            draws.append(digits.draw(rng))
            color[k] = rng.uniform(0.5, 1.0, size=3)
            noise[k] = rng.normal(0.0, noise_std, size=planes)
        base = base.astype(np.float32)[:, :, None, None]
        slope = slope.astype(np.float32) * 0.3
        bg = (base + slope[:, :, 0, None, None] * yy
              + slope[:, :, 1, None, None] * xx)
        bg += grain
        np.clip(bg, 0.0, 1.0, out=bg)
        digit = digits.render(labels[start:stop], draws)[:, None]
        color = color.astype(np.float32)[:, :, None, None]
        img = images[start:stop]
        np.multiply(bg, 1.0 - digit, out=img)
        img += color * digit
        img += noise
        np.clip(img, 0.0, 1.0, out=img)
    return Dataset(images, labels, name="svhn_like", num_classes=10)


class _TextureDraws(NamedTuple):
    """One block's CIFAR-like draws, one row per image."""

    phase: np.ndarray
    angle: np.ndarray     # stripes: (cos, sin) of the stripe angle
    centre: np.ndarray    # rings: (y, x) of the centre
    cells: np.ndarray     # checkers: cells per side
    blobs: np.ndarray     # blobs: three (y, x, spread) triples
    tint: np.ndarray
    base: np.ndarray
    noise: np.ndarray


def _draw_textures(labels: np.ndarray, rng: np.random.Generator,
                   size: int, noise_std: float) -> _TextureDraws:
    """Draw a block's texture parameters image by image, in stream
    order: phase; the family's own draws (a stripe angle, a ring
    centre, a checker size bit, or three blobs' centre and spread);
    then tint, base and pixel noise."""
    count = len(labels)
    draws = _TextureDraws(
        phase=np.empty(count), angle=np.zeros((count, 2)),
        centre=np.zeros((count, 2)), cells=np.zeros(count),
        blobs=np.zeros((count, 3, 3)), tint=np.empty((count, 3)),
        base=np.empty((count, 3)), noise=np.empty((count, 3, size, size)))
    for k, label in enumerate(labels.tolist()):
        draws.phase[k] = rng.uniform(0, 2 * np.pi)
        if label < 5:
            theta = label * np.pi / 5.0 + rng.normal(0.0, 0.06)
            draws.angle[k] = np.cos(theta), np.sin(theta)
        elif label < 7:
            draws.centre[k] = rng.uniform(0.3, 0.7, size=2)
        elif label < 9:
            draws.cells[k] = 3 + 2 * (label - 7) + int(rng.integers(0, 2))
        else:
            for blob in draws.blobs[k]:
                blob[:2] = rng.uniform(0.0, 1.0, size=2)
                blob[2] = rng.uniform(0.01, 0.05)
        draws.tint[k] = rng.uniform(0.3, 1.0, size=3)
        draws.base[k] = rng.uniform(0.0, 0.3, size=3)
        draws.noise[k] = rng.normal(0.0, noise_std, size=(3, size, size))
    return draws


def _render_textures(labels: np.ndarray, draws: _TextureDraws,
                     yy: np.ndarray, xx: np.ndarray,
                     out: np.ndarray) -> None:
    """Write a block's noiseless textures into float32 ``out``.

    Each class is a distinct parametric pattern family (stripes at a
    class-specific orientation/frequency, rings, checkers, blobs), so a
    convolutional net can learn them while per-sample phase/color
    jitter keeps the task from being trivial.  Stripe and ring fields
    are float64 and checker and blob fields float32, the dtypes each
    family's arithmetic has always had: the bytes depend on them.
    """
    count, size = len(labels), yy.shape[0]
    wave = (2 * np.pi * (3.0 + (labels % 5) * 1.5))[:, None, None]
    phase = draws.phase[:, None, None]
    fields64 = np.empty((count, size, size))
    fields32 = np.empty((count, size, size), dtype=np.float32)

    stripes = labels < 5
    cos_t, sin_t = draws.angle[stripes].T[:, :, None, None]
    fields64[stripes] = np.sin(
        wave[stripes] * (cos_t * xx + sin_t * yy) + phase[stripes])

    rings = (labels >= 5) & (labels < 7)
    cy, cx = draws.centre[rings].T[:, :, None, None]
    fields64[rings] = np.sin(
        wave[rings] * np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        + phase[rings])

    checkers = (labels >= 7) & (labels < 9)
    pitch = (np.pi * draws.cells[checkers]).astype(np.float32)[:, None, None]
    shift = phase[checkers].astype(np.float32)
    fields32[checkers] = np.sign(np.sin(pitch * xx + shift)
                                 * np.sin(pitch * yy + shift))

    spots = labels == 9
    field = np.zeros((int(spots.sum()), size, size), dtype=np.float32)
    for cy, cx, s2 in draws.blobs[spots].transpose(1, 2, 0)[..., None, None]:
        field += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s2))
    fields32[spots] = field / field.max(axis=(1, 2), keepdims=True) * 2.0 - 1.0

    tint = draws.tint.astype(np.float32)[:, :, None, None]
    base = draws.base.astype(np.float32)[:, :, None, None]
    for rows, fields in ((labels < 7, fields64), (labels >= 7, fields32)):
        shade = fields[rows][:, None] * 0.5
        shade += 0.5
        shade = tint[rows] * shade
        shade += base[rows]
        out[rows] = np.clip(shade, 0.0, 1.0, out=shade)


def make_cifar_like(num_samples: int = 512, *, image_size: int = 32,
                    noise_std: float = 0.08,
                    rng: SeedLike = None) -> Dataset:
    """Class-conditional structured textures, in the role of CIFAR-10."""
    check_positive_int(num_samples, "num_samples")
    check_positive_int(image_size, "image_size")
    rng = new_rng(rng)
    images = np.zeros((num_samples, 3, image_size, image_size), dtype=DTYPE)
    labels = rng.integers(0, 10, size=num_samples)
    yy, xx = _grid(image_size)
    for start, stop in _blocks(num_samples, 3 * image_size * image_size):
        block = labels[start:stop]
        draws = _draw_textures(block, rng, image_size, noise_std)
        img = images[start:stop]
        _render_textures(block, draws, yy, xx, img)
        img += draws.noise
        np.clip(img, 0.0, 1.0, out=img)
    return Dataset(images, labels, name="cifar_like", num_classes=10)


#: Dataset factories keyed by the names used in the paper's experiments.
DATASET_FACTORIES = {
    "mnist_like": make_mnist_like,
    "svhn_like": make_svhn_like,
    "cifar_like": make_cifar_like,
}


def make_dataset(name: str, num_samples: int = 512, *, image_size: int = None,
                 rng: SeedLike = None) -> Dataset:
    """Build a synthetic dataset by name.

    Args:
        name: ``'mnist_like'``, ``'svhn_like'`` or ``'cifar_like'``.
        num_samples: total images.
        image_size: side length; defaults per dataset (28 / 32 / 32).
        rng: seed or generator.
    """
    key = name.lower()
    if key not in DATASET_FACTORIES:
        raise KeyError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_FACTORIES)}")
    kwargs = {"rng": rng}
    if image_size is not None:
        kwargs["image_size"] = image_size
    return DATASET_FACTORIES[key](num_samples, **kwargs)
