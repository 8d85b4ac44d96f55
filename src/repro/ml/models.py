"""Numpy model zoo + binary model format with a loadable-size limit.

Stands in for the TensorFlow/TFLite/ONNX models BQML loads into Dremel
workers (§4.2.1). The binary format ("MDL1") carries a JSON header (type,
input signature, classes, *declared size*) plus float32 weights;
:func:`load_model` enforces the in-engine size ceiling — models over the
limit (2 GB in the paper) must run externally.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.errors import MlError, ModelTooLargeError

_MAGIC = b"MDL1"

# The paper's in-engine ceiling: "models greater than 2GB cannot be loaded".
IN_ENGINE_MODEL_LIMIT_BYTES = 2 * 1024**3


class ImageModel:
    """Base class: classify float32 [N, H, W, C] tensors into labels."""

    model_type = "base"

    def __init__(self, input_height: int, input_width: int, channels: int, classes: list[str]):
        self.input_height = input_height
        self.input_width = input_width
        self.channels = channels
        self.classes = list(classes)

    def predict(self, tensors: np.ndarray) -> tuple[list[str], np.ndarray]:
        """(labels, scores) for a batch of preprocessed tensors."""
        logits = self.forward(tensors)
        indices = np.argmax(logits, axis=1)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probabilities = exp / exp.sum(axis=1, keepdims=True)
        scores = probabilities[np.arange(len(indices)), indices]
        return [self.classes[i] for i in indices], scores

    def forward(self, tensors: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def weights(self) -> list[np.ndarray]:
        raise NotImplementedError

    def size_bytes(self) -> int:
        return sum(w.nbytes for w in self.weights()) + 1024

    @property
    def flops_per_sample(self) -> float:
        """Rough floating-point work per input (drives simulated latency)."""
        pixels = self.input_height * self.input_width * self.channels
        return float(pixels * len(self.classes) * 2)


class CentroidClassifier(ImageModel):
    """Nearest-centroid classifier expressed as a linear layer.

    Trainable on the synthetic corpus and genuinely accurate on it, so
    tests can assert real end-to-end inference quality.
    """

    model_type = "centroid"

    def __init__(self, input_height, input_width, channels, classes, centroids: np.ndarray):
        super().__init__(input_height, input_width, channels, classes)
        self.centroids = np.asarray(centroids, dtype=np.float32)  # [K, D]

    def forward(self, tensors: np.ndarray) -> np.ndarray:
        flat = tensors.reshape(len(tensors), -1)
        # Negative squared distance as logit.
        distances = (
            (flat**2).sum(axis=1, keepdims=True)
            - 2 * flat @ self.centroids.T
            + (self.centroids**2).sum(axis=1)
        )
        return -distances

    def weights(self) -> list[np.ndarray]:
        return [self.centroids]


class MlpClassifier(ImageModel):
    """One-hidden-layer MLP with seeded random weights."""

    model_type = "mlp"

    def __init__(self, input_height, input_width, channels, classes,
                 hidden: int = 64, seed: int = 0,
                 w1: np.ndarray | None = None, w2: np.ndarray | None = None):
        super().__init__(input_height, input_width, channels, classes)
        dim = input_height * input_width * channels
        rng = np.random.default_rng(seed)
        self.w1 = w1 if w1 is not None else rng.standard_normal((dim, hidden)).astype(np.float32) * 0.05
        self.w2 = w2 if w2 is not None else rng.standard_normal((hidden, len(classes))).astype(np.float32) * 0.05

    def forward(self, tensors: np.ndarray) -> np.ndarray:
        flat = tensors.reshape(len(tensors), -1).astype(np.float32)
        hidden = np.maximum(flat @ self.w1, 0.0)
        return hidden @ self.w2

    def weights(self) -> list[np.ndarray]:
        return [self.w1, self.w2]

    @property
    def flops_per_sample(self) -> float:
        return float(2 * (self.w1.size + self.w2.size))


class TinyConvNet(ImageModel):
    """A small convolutional classifier ("resnet-sim" in the examples).

    One 3x3 conv + ReLU + global average pool + linear head, implemented
    with strided numpy windows — real convolution arithmetic at toy scale.
    """

    model_type = "convnet"

    def __init__(self, input_height, input_width, channels, classes,
                 filters: int = 8, seed: int = 0,
                 kernel: np.ndarray | None = None, head: np.ndarray | None = None):
        super().__init__(input_height, input_width, channels, classes)
        rng = np.random.default_rng(seed)
        self.kernel = (
            kernel if kernel is not None
            else rng.standard_normal((3, 3, channels, filters)).astype(np.float32) * 0.1
        )
        self.head = (
            head if head is not None
            else rng.standard_normal((filters, len(classes))).astype(np.float32) * 0.1
        )

    def forward(self, tensors: np.ndarray) -> np.ndarray:
        x = tensors.astype(np.float32)
        n, h, w, c = x.shape
        kh, kw, _, f = self.kernel.shape
        out_h, out_w = h - kh + 1, w - kw + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
        # windows: [N, out_h, out_w, C, kh, kw] -> conv via einsum.
        feature_maps = np.einsum("nhwcij,ijcf->nhwf", windows, self.kernel)
        activated = np.maximum(feature_maps, 0.0)
        pooled = activated.mean(axis=(1, 2))  # [N, F]
        return pooled @ self.head

    def weights(self) -> list[np.ndarray]:
        return [self.kernel, self.head]

    @property
    def flops_per_sample(self) -> float:
        kh, kw, c, f = self.kernel.shape
        spatial = (self.input_height - kh + 1) * (self.input_width - kw + 1)
        return float(2 * spatial * kh * kw * c * f + 2 * f * len(self.classes))


def train_centroid_classifier(
    images: list[np.ndarray], labels: list[str], input_h: int, input_w: int
) -> CentroidClassifier:
    """Fit per-class centroids on preprocessed tensors."""
    classes = sorted(set(labels))
    dim = input_h * input_w * images[0].shape[-1]
    sums = {c: np.zeros(dim, dtype=np.float64) for c in classes}
    counts = {c: 0 for c in classes}
    for image, label in zip(images, labels):
        sums[label] += image.reshape(-1)
        counts[label] += 1
    centroids = np.stack(
        [sums[c] / max(1, counts[c]) for c in classes]
    ).astype(np.float32)
    return CentroidClassifier(input_h, input_w, images[0].shape[-1], classes, centroids)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def serialize_model(model: ImageModel, declared_size_bytes: int | None = None) -> bytes:
    """Serialize to MDL1 bytes.

    ``declared_size_bytes`` lets tests/benchmarks declare an arbitrarily
    large model (the header size is what the loader enforces) without
    allocating gigabytes of weights.
    """
    weights = model.weights()
    header = {
        "type": model.model_type,
        "input": [model.input_height, model.input_width, model.channels],
        "classes": model.classes,
        "shapes": [list(w.shape) for w in weights],
        "declared_size_bytes": declared_size_bytes or model.size_bytes(),
    }
    header_bytes = json.dumps(header).encode("utf-8")
    parts = [_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    for w in weights:
        parts.append(np.asarray(w, dtype=np.float32).tobytes())
    return b"".join(parts)


def peek_model_size(data: bytes) -> int:
    """Declared size without loading weights."""
    header = _read_header(data)[0]
    return int(header["declared_size_bytes"])


def load_model(data: bytes, memory_limit_bytes: int = IN_ENGINE_MODEL_LIMIT_BYTES) -> ImageModel:
    """Deserialize a model, enforcing the in-engine size ceiling."""
    header, offset = _read_header(data)
    declared = int(header["declared_size_bytes"])
    if declared > memory_limit_bytes:
        raise ModelTooLargeError(
            f"model is {declared} bytes; in-engine limit is {memory_limit_bytes} "
            "(use a remote model instead, §4.2.2)"
        )
    h, w, c = header["input"]
    classes = header["classes"]
    weights = []
    for shape in header["shapes"]:
        count = int(np.prod(shape))
        arr = np.frombuffer(data, dtype=np.float32, count=count, offset=offset)
        weights.append(arr.reshape(shape).copy())
        offset += count * 4
    model_type = header["type"]
    if model_type == "centroid":
        return CentroidClassifier(h, w, c, classes, weights[0])
    if model_type == "mlp":
        return MlpClassifier(h, w, c, classes, w1=weights[0], w2=weights[1])
    if model_type == "convnet":
        return TinyConvNet(h, w, c, classes, kernel=weights[0], head=weights[1])
    raise MlError(f"unknown model type {model_type!r}")


def _read_header(data: bytes) -> tuple[dict, int]:
    if len(data) < 8 or data[:4] != _MAGIC:
        raise MlError("not an MDL1 model (bad magic)")
    (header_len,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    return header, 8 + header_len
