"""Synthetic source/target dataset pairs with controlled label-space overlap.

Classes are isotropic Gaussian clusters whose means sit at the vertices of a
regular simplex in the first n_classes feature dimensions (`class_means`).
Every pair of means is six standard deviations apart, which keeps classes
well separated before any shift is applied. A label split carves the class
list into common, source-private and target-private groups: indices
[0, n_common) are common, the next n_source_private are source-only, the rest
target-only. The target domain additionally undergoes a fixed covariate shift
(rotation in the first two dimensions, translation, extra feature noise), so
adaptation has real work to do even on common classes.

On-disk format (version 1), line-oriented ASCII with Unix newlines:

    iwot-dataset v1
    role <source|target>
    dim <int>
    split <n_common> <n_source_private> <n_target_private>
    seed <int>
    count <int>
    <label> <x1> ... <xdim>        (exactly count lines)

Floats are written as %.17g so a save/load round trip is bit-exact. Label -1
is legal only in target files and marks a sample known only to be outside the
source label set. The loader is byte-strict and reports the offending line.
"""

import math
import re
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, DataFormatError
from .fileio import atomic_write_text, format_float, read_text

FORMAT_LINE = "iwot-dataset v1"
UNKNOWN_LABEL = -1

_INT_RE = re.compile(r"^-?[0-9]+$")
_FORBIDDEN = "\t\x0b\x0c\x1c\x1d\x1e\x1f_"  # int() and float() take them; the format does not


@dataclass(frozen=True)
class LabelSplit:
    """Counts of common, source-private and target-private classes."""

    n_common: int
    n_source_private: int
    n_target_private: int

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("%s must be an integer" % item.name)
        if self.n_common < 1:
            raise ConfigError("at least one common class is required")
        if self.n_source_private < 0 or self.n_target_private < 0:
            raise ConfigError("private class counts must be nonnegative")

    @property
    def n_total(self):
        return self.n_common + self.n_source_private + self.n_target_private

    @property
    def n_source_classes(self):
        return self.n_common + self.n_source_private

    @property
    def n_target_classes(self):
        return self.n_common + self.n_target_private

    @property
    def source_classes(self):
        return tuple(range(self.n_common + self.n_source_private))

    @property
    def target_classes(self):
        common = tuple(range(self.n_common))
        first_private = self.n_common + self.n_source_private
        return common + tuple(range(first_private, self.n_total))


@dataclass(frozen=True)
class ShiftSpec:
    """Covariate shift applied to every target sample, plus the cluster spread."""

    rotation: float = 0.5
    translation: tuple = (1.0,)
    noise_std: float = 0.1
    spread: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.rotation):
            raise ConfigError("rotation must be finite")
        translation = tuple(float(t) for t in np.atleast_1d(self.translation))
        if not all(math.isfinite(t) for t in translation):
            raise ConfigError("translation must be finite")
        object.__setattr__(self, "translation", translation)
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError("noise_std must be a nonnegative number")
        if not (np.isfinite(self.spread) and self.spread > 0):
            raise ConfigError("spread must be a positive number")

    def translation_vector(self, dim):
        if len(self.translation) == 1:
            return np.full(dim, self.translation[0])
        if len(self.translation) != dim:
            raise ConfigError(
                "translation has %d entries but the data has %d dimensions"
                % (len(self.translation), dim)
            )
        return np.asarray(self.translation, dtype=np.float64)


@dataclass
class DomainDataset:
    """One domain's samples: features, integer labels, and generation metadata."""

    features: np.ndarray
    labels: np.ndarray | None
    split: LabelSplit
    role: str
    seed: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels must align with feature rows")
        if self.role not in ("source", "target"):
            raise ValueError("role must be 'source' or 'target'")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def without_labels(self):
        """A label-free view of the same samples; the unsupervised side of training."""
        return DomainDataset(self.features, None, self.split, self.role, self.seed)


def check_array_size(what, rows, cols):
    """Raise ConfigError if a rows x cols float64 array is larger than NumPy can index.

    Such a size fails in NumPy with a ValueError, not a MemoryError, so it is
    rejected before any allocation is tried.
    """
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise ConfigError(
            "%s of %d x %d floats is larger than NumPy can index" % (what, rows, cols)
        )


def class_means(n_classes, dim, spread):
    """Cluster centers at the vertices of a regular simplex, side 6 * spread.

    Vertex i is the scaled, centered basis vector e_i, so every pair of
    classes is equally far apart and the class signal spans n_classes
    dimensions. Needs dim >= n_classes; a single class sits at the origin.
    """
    if dim < 2:
        raise ConfigError("need at least 2 dimensions for the class layout")
    if n_classes < 1:
        raise ConfigError("need at least one class")
    if dim < n_classes:
        raise ConfigError(
            "the simplex class layout needs dim >= total classes (%d < %d)" % (dim, n_classes)
        )
    if spread <= 0:
        raise ConfigError("spread must be positive")
    means = np.zeros((n_classes, dim))
    if n_classes == 1:
        return means
    scale = 6.0 * spread / math.sqrt(2.0)
    means[:, :n_classes] = scale * (np.eye(n_classes) - 1.0 / n_classes)
    return means


def _balanced_counts(n, classes):
    base, extra = divmod(n, len(classes))
    return {c: base + (1 if i < extra else 0) for i, c in enumerate(classes)}


def _sample_domain(classes, count, means, spread, rng):
    counts = _balanced_counts(count, classes)
    blocks, labels = [], []
    for c in classes:
        blocks.append(means[c] + rng.normal(0.0, spread, size=(counts[c], means.shape[1])))
        labels.extend([c] * counts[c])
    features = np.concatenate(blocks, axis=0)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(count)
    return features[order], labels[order]


# Features whose squared norms overflow fail as one ConfigError at the end, so
# NumPy's overflow warnings on the way there would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def generate_pair(split, n_source, n_target, dim, seed, shift=None):
    """Draw a source/target dataset pair from one class layout.

    Both domains sample from the same per-class generators (restricted to
    their own label sets); every target sample is then rotated in the first
    two dimensions, translated, and perturbed with extra noise per `shift`.
    Generation is deterministic in `seed`.
    """
    if shift is None:
        shift = ShiftSpec()
    if dim < 2:
        raise ConfigError("dim must be at least 2")
    for what, rows in (("the class layout", split.n_total), ("the source set", n_source),
                       ("the target set", n_target)):
        check_array_size(what, rows, dim)
    if n_source < split.n_source_classes or n_target < split.n_target_classes:
        raise ConfigError("need at least one sample per class in each domain")
    spread = shift.spread
    means = class_means(split.n_total, dim, spread)
    translation = shift.translation_vector(dim)
    root = np.random.SeedSequence(seed)
    source_rng, target_rng = (np.random.default_rng(s) for s in root.spawn(2))

    source_x, source_y = _sample_domain(split.source_classes, n_source, means, spread, source_rng)
    target_x, target_y = _sample_domain(split.target_classes, n_target, means, spread, target_rng)

    c, s = math.cos(shift.rotation), math.sin(shift.rotation)
    rotated = target_x[:, :2] @ np.array([[c, s], [-s, c]])
    target_x = target_x.copy()
    target_x[:, :2] = rotated
    target_x += translation
    if shift.noise_std > 0:
        target_x += target_rng.normal(0.0, shift.noise_std, size=target_x.shape)
    # Every consumer takes norms of the features (the cosine cost), so a
    # squared norm that overflows is as unusable as a non-finite feature.
    finite = all(np.isfinite(np.einsum("ij,ij->i", x, x)).all() for x in (source_x, target_x))
    if not finite:
        raise ConfigError(
            "spread %g and noise_std %g give features whose squared norm is not finite"
            % (spread, shift.noise_std)
        )

    source = DomainDataset(source_x, source_y, split, "source", seed)
    target = DomainDataset(target_x, target_y, split, "target", seed)
    return source, target


def save_dataset(path, dataset):
    """Write a dataset in format version 1. Labels are required."""
    if dataset.labels is None:
        raise ValueError("cannot save a dataset whose labels were stripped")
    lines = [
        FORMAT_LINE,
        "role %s" % dataset.role,
        "dim %d" % dataset.dim,
        "split %d %d %d" % astuple(dataset.split),
        "seed %d" % dataset.seed,
        "count %d" % dataset.n,
    ]
    for label, row in zip(dataset.labels, dataset.features):
        lines.append("%d %s" % (label, " ".join(format_float(x) for x in row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_int(token, where):
    if not _INT_RE.match(token):
        raise DataFormatError("%s: %r is not an integer" % (where, token))
    return int(token)


def _header_value(lines, index, key):
    where = "line %d" % (index + 1)
    if index >= len(lines):
        raise DataFormatError("%s: missing %r header" % (where, key))
    line = lines[index]
    if not line.startswith(key + " "):
        raise DataFormatError("%s: expected %r header, got %r" % (where, key, line))
    return line[len(key) + 1 :], where


def load_dataset(path):
    """Read a dataset file, enforcing format version 1 byte-strictly."""
    text = read_text(path, newline="")
    if "\r" in text:
        raise DataFormatError("file contains carriage returns; expected Unix newlines")
    if not text.endswith("\n"):
        raise DataFormatError("file does not end with a newline")
    if not text.isascii() or any(char in text for char in _FORBIDDEN):
        at = next(i for i, char in enumerate(text) if char in _FORBIDDEN or not char.isascii())
        raise DataFormatError("line %d: character %r is not allowed"
                              % (text.count("\n", 0, at) + 1, text[at]))
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != FORMAT_LINE:
        raise DataFormatError("line 1: expected %r" % FORMAT_LINE)

    role, where = _header_value(lines, 1, "role")
    if role not in ("source", "target"):
        raise DataFormatError("%s: role must be 'source' or 'target'" % where)
    dim_text, where = _header_value(lines, 2, "dim")
    dim = _parse_int(dim_text, where)
    if dim < 1:
        raise DataFormatError("%s: dim must be positive" % where)
    split_text, where = _header_value(lines, 3, "split")
    parts = split_text.split(" ")
    if len(parts) != 3:
        raise DataFormatError("%s: split needs exactly three counts" % where)
    try:
        split = LabelSplit(*(_parse_int(p, where) for p in parts))
    except ConfigError as exc:
        raise DataFormatError("%s: %s" % (where, exc)) from exc
    seed_text, where = _header_value(lines, 4, "seed")
    seed = _parse_int(seed_text, where)
    count_text, where = _header_value(lines, 5, "count")
    count = _parse_int(count_text, where)
    if count < 1:
        raise DataFormatError("%s: count must be at least 1" % where)

    body = lines[6:]
    if len(body) != count:
        raise DataFormatError(
            "expected %d sample lines, found %d" % (count, len(body))
        )
    # Every width is checked before the count x dim allocation, so that a
    # corrupt `dim` header fails here rather than in it.
    for i, line in enumerate(body):
        if line.count(" ") != dim:
            raise DataFormatError(
                "line %d: expected %d fields, found %d" % (i + 7, 1 + dim, line.count(" ") + 1)
            )
    # A domain's labels are the common classes and its private range [low,
    # high), tested as ranges so that a huge class count builds no label set;
    # a label must also fit the int64 label array.
    low, high = ((split.n_common, split.n_source_classes) if role == "source"
                 else (split.n_source_classes, split.n_total))
    features = np.empty((count, dim))
    labels = np.empty(count, dtype=np.int64)
    for i, line in enumerate(body):
        where = "line %d" % (i + 7)
        tokens = line.split(" ")
        label = _parse_int(tokens[0], where)
        if label == UNKNOWN_LABEL:
            if role != "target":
                raise DataFormatError("%s: unknown-label marker is target-only" % where)
        elif not (0 <= label < split.n_common or low <= label < high) or label >= 2**63:
            raise DataFormatError("%s: label %d outside the %s label set" % (where, label, role))
        labels[i] = label
        for j, token in enumerate(tokens[1:]):
            try:
                value = float(token)
            except ValueError:
                raise DataFormatError("%s: %r is not a float" % (where, token)) from None
            if not math.isfinite(value):
                raise DataFormatError("%s: non-finite feature value" % where)
            features[i, j] = value
    return DomainDataset(features, labels, split, role, seed)
