"""Inference-only graph convolutional networks and their plain-MLP special case.

A model is an ordered list of layers: an optional embedding (linear, no
bias), graph-convolution layers with optional batch norm, a mean readout
that collapses vertex states to one hidden vector, and dense layers ending
in a scalar regression head. An MLP is simply a model with no
graph-convolution layers and no readout, evaluated on single-vertex,
edgeless inputs.

The graph-convolution update for vertex i is

    h_i' = ReLU(BN?(W @ (1/sqrt(deg_i)) * sum_{j in N_i + {i}} (1/sqrt(deg_j)) h_j + b))

with degrees counting the vertex itself. Batch norm always runs in
inference mode from stored running statistics; nothing here trains.

Embedding, GraphConv and Dense share one record (params, an optional batch_norm,
an activation), and every rebuild of a layer (noise here, alignment and interpolation in
fusion) is dataclasses.replace, which keeps its kind and activation. New values and loaded
records go through the constructors, which check arrays and numbers with the errors readers
(load_model adds the layer index).
_KINDS says once, for each layer class, its model-file name, its summary name and the
layer fields its record carries; summary, save_model and load_model all read it, and
load_model rejects a record setting a layer field its kind does not carry.

One private evaluator runs every forward pass (predict,
forward_with_capture, evaluate_mae, label_with_model) on the graphs'
bucket_layout, which a Dataset builds once and keeps; a batch from
sample_batch, a Dataset too, gathers its graphs' rows from its parent's
kept layout, and a plain graph sequence is laid out per call. The evaluator
holds each vertex-count bucket's states as one (G·n, d) array, so each affine map is
one 2-D product; only the normalized adjacencies (G, n, n) act per graph.
Each layer's product is a new array, and batch norm and ReLU write into it
unless a capture keeps the array they would overwrite, so an evaluation without
captures makes one array per layer. After the readout the state is one
(len(graphs), d) array. Captures keep these shapes, one (G, n, width) stack per
bucket, and leave positions to batch.layout.
BLAS picks kernels by shape, so a graph's bits depend on its batch: one
batch always gives the same bits, and two batches agree to rounding
(within 2e-15 of a layer's largest value; the tests allow 1e-12).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (DimensionMismatchError, InvalidSpecError, ModelFormatError, NumericalError,
                     read_array, read_integer, read_number)
from .graphs import Dataset, bucket_layout

PRE_BN = "pre_bn"
POST_BN = "post_bn"
CAPTURE_POINTS = (PRE_BN, POST_BN)


@dataclass(frozen=True)
class DenseParams:
    """Affine map parameters: weight is (out_dim, in_dim), bias optional."""

    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "weight", read_array(self.weight, 2, "weight", ModelFormatError))
        if self.bias is not None:
            b = read_array(self.bias, 1, "bias", ModelFormatError)
            if b.shape[0] != self.weight.shape[0]:
                raise DimensionMismatchError(f"bias length {b.shape[0]} != out_dim {self.weight.shape[0]}")
            object.__setattr__(self, "bias", b)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class BatchNormParams:
    """Inference-mode batch norm, a fixed per-channel affine map kept folded.

    The record stores the running statistics, and construction folds them
    once into read-only vectors (not fields, so not saved or interpolated):

        scale = gamma / sqrt(running_var + epsilon)
        shift = beta_shift - running_mean * scale

    apply(x) is x * scale + shift, which equals
    gamma * (x - running_mean) / sqrt(running_var + epsilon) + beta_shift up to
    rounding. A record whose scale or shift is not finite is rejected.
    """

    gamma: np.ndarray
    beta_shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        vectors = [f.name for f in fields(self) if f.name != "epsilon"]
        for name in vectors:
            object.__setattr__(self, name, read_array(getattr(self, name), 1, name, ModelFormatError))
        dims = {getattr(self, name).shape[0] for name in vectors}
        if len(dims) != 1:
            raise DimensionMismatchError(f"batch-norm vectors disagree on dim: {dims}")
        if np.any(self.running_var < 0):
            raise ModelFormatError("running_var entries must be >= 0")
        read_number(self.epsilon, "batch-norm epsilon", ModelFormatError, least=0)
        if np.any(self.running_var + self.epsilon <= 0):
            raise ModelFormatError("running_var + epsilon must be > 0 everywhere")
        with np.errstate(over="ignore", invalid="ignore"):
            scale = self.gamma / np.sqrt(self.running_var + self.epsilon)
            shift = self.beta_shift - self.running_mean * scale
        if not np.isfinite(shift).all():  # an infinite scale makes the shift inf or NaN too
            raise ModelFormatError("batch-norm scale or shift is not finite")
        for name, folded in (("scale", scale), ("shift", shift)):
            folded.setflags(write=False)
            object.__setattr__(self, name, folded)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x * scale + shift over the last axis, into out (a new array by default; out=x is fine)."""
        out = np.multiply(x, self.scale, out=out)
        out += self.shift
        return out


@dataclass(frozen=True)
class _Parameterized:
    """An affine map, an optional batch norm over its out_dim, and an activation (a field on Dense)."""

    params: DenseParams
    batch_norm: BatchNormParams | None = None
    activation = "relu"

    def __post_init__(self):
        if self.batch_norm is not None and self.batch_norm.dim != self.params.out_dim:
            raise DimensionMismatchError(
                f"batch-norm dim {self.batch_norm.dim} != out_dim {self.params.out_dim}")


@dataclass(frozen=True)
class Embedding(_Parameterized):
    """Bias-free linear map applied per vertex before any graph convolution."""

    activation = "none"

    def __post_init__(self):
        if self.params.bias is not None or self.batch_norm is not None:
            raise ModelFormatError("embedding layers carry no bias or batch norm")


@dataclass(frozen=True)
class GraphConv(_Parameterized):
    """Degree-normalized neighborhood aggregation, shared affine map, BN?, ReLU."""


@dataclass(frozen=True)
class MeanReadout:
    """Average hidden vectors over graph vertices; no parameters."""


@dataclass(frozen=True)
class Dense(_Parameterized):
    """Affine map with optional batch norm; activation 'relu' or 'none'."""

    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ("relu", "none"):
            raise ModelFormatError(f"unknown activation {self.activation!r}")
        super().__post_init__()


Layer = Union[Embedding, GraphConv, MeanReadout, Dense]

# Each layer kind's file name, summary name and the layer fields its record carries, in file order.
_KINDS = {
    Embedding: ("embedding", "emb", ("weight",)),
    GraphConv: ("graph_conv", "gc", ("weight", "bias", "batch_norm")),
    MeanReadout: ("mean_readout", "mean", ()),
    Dense: ("dense", "dense", ("weight", "bias", "batch_norm", "activation")),
}
_FIELDS = _KINDS[Dense][2]  # every layer field a record may set


@dataclass(frozen=True)
class GcnModel:
    """Ordered layer list plus light metadata; immutable once constructed."""

    layers: tuple[Layer, ...]
    name: str = ""
    seed: int | None = None

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ModelFormatError("model has no layers")
        if not isinstance(self.name, str):
            raise ModelFormatError(f"model name {self.name!r} is not a string")
        if self.seed is not None:
            object.__setattr__(self, "seed", read_integer(self.seed, "model seed", ModelFormatError))
        readouts = [i for i, l in enumerate(layers) if isinstance(l, MeanReadout)]
        if len(readouts) > 1:
            raise ModelFormatError("at most one mean-readout layer is allowed")
        dim = None
        for i, l in enumerate(layers):
            if readouts and isinstance(l, GraphConv) and i > readouts[0]:
                raise ModelFormatError(f"graph-conv layer {i} appears after the readout")
            if readouts and isinstance(l, Dense) and i < readouts[0]:
                raise ModelFormatError(f"dense layer {i} appears before the readout")
            if isinstance(l, Embedding) and i != 0:
                raise ModelFormatError(f"embedding must be the first layer, found at {i}")
            if isinstance(l, _Parameterized):
                if dim is not None and l.params.in_dim != dim:
                    raise ModelFormatError(
                        f"layer {i}: in_dim {l.params.in_dim} does not match previous out_dim {dim}"
                    )
                dim = l.params.out_dim

    @property
    def input_dim(self) -> int:
        for l in self.layers:
            if isinstance(l, _Parameterized):
                return l.params.in_dim
        raise ModelFormatError("model has no parameterized layers")

    def parameterized_indices(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.layers) if isinstance(l, _Parameterized))

    def same_architecture(self, other: "GcnModel") -> bool:
        def shape(l):
            if not isinstance(l, _Parameterized):
                return type(l)
            return (type(l), l.activation, l.params.weight.shape, l.params.bias is None,
                    l.batch_norm is None)
        return [shape(l) for l in self.layers] == [shape(l) for l in other.layers]

    def summary(self) -> str:
        def part(l):
            _, short, keys = _KINDS[type(l)]
            if not keys:
                return short
            bn = "+bn" if l.batch_norm is not None else ""
            act = f",{l.activation}" if "activation" in keys else ""
            return f"{short}({l.params.in_dim}->{l.params.out_dim}{bn}{act})"
        return " ".join(map(part, self.layers))


@dataclass(frozen=True)
class ActivationSample:
    """One layer's pre-activation capture over a fusion batch (a Dataset), neuron-major.

    values: per vertex, a tuple of one (G, n, width) stack of one width per bucket of
    batch.layout, in its order; after the readout, one (sample_size, width) array.
    """

    batch: Dataset
    values: tuple[np.ndarray, ...] | np.ndarray

    def __post_init__(self):
        values, size = self.values, self.batch.sample_size
        if isinstance(values, np.ndarray):
            if values.ndim != 2 or len(values) != size:
                raise InvalidSpecError(f"post-readout values must be a ({size}, width) array")
        # vertex counts differ between buckets, so a stack's (G, n) pins it to its bucket
        elif not (isinstance(values, tuple) and len(values) == len(self.batch.layout)
                  and all(isinstance(stack, np.ndarray)
                          and stack.shape[:-1] == (len(bucket.index), bucket.num_vertices)
                          for stack, bucket in zip(values, self.batch.layout))
                  and len({stack.shape[-1] for stack in values}) == 1):
            raise InvalidSpecError("values must be a post-readout array or a tuple of one (G, n, "
                                   "width) stack of one width per bucket of batch.layout, in its order")

    @property
    def is_graph_valued(self) -> bool:
        return isinstance(self.values, tuple)

    @property
    def width(self) -> int:
        return (self.values[0] if self.is_graph_valued else self.values).shape[-1]


def _evaluate(model: GcnModel, layout, capture_point: str | None):
    """The one forward pass: all graphs of a bucket_layout at once.

    A bucket's G graphs hold their states as one (G·n, width) array, which a
    graph convolution views as (G, n, width) for the bucket's adjacencies. The
    readout writes each bucket's means into one (graph count, width) array in
    graph order for the later layers. Returns (predictions, captures); with a
    capture point, captures maps each parameterized layer index to its
    pre-activations: a list of one (G, n, width) view per bucket before the
    readout, one (graph count, width) array after. A value that overflows or turns NaN raises
    NumericalError, naming the model and the layer.
    """
    input_dim = model.input_dim
    if layout and layout[0].features.shape[2] != input_dim:  # one feature_dim per layout
        raise DimensionMismatchError(
            f"graph feature_dim {layout[0].features.shape[2]} != model input dim {input_dim}")
    layers = model.layers
    split = next((i for i, l in enumerate(layers) if isinstance(l, MeanReadout)), len(layers))
    # the state width at the readout (the output width for a model without one)
    width = next((l.params.out_dim for l in reversed(layers[:split])
                  if isinstance(l, _Parameterized)), input_dim)
    pooled = np.empty((sum(len(bucket.index) for bucket in layout), width))
    captures: dict[int, list | np.ndarray] = {}
    i = 0  # the layer at work, named when a value overflows or turns NaN
    try:
        with np.errstate(over="raise", invalid="raise"):
            for bucket in layout:
                G, n, _ = bucket.features.shape
                h = bucket.features.reshape(G * n, -1)
                for i, layer in enumerate(layers[:split]):
                    if isinstance(layer, GraphConv):
                        h = (bucket.adjacency @ h.reshape(G, n, -1)).reshape(G * n, -1)
                    h, z = _affine(layer, h, capture_point)
                    if z is not None:
                        captures.setdefault(i, []).append(z.reshape(G, n, -1))
                if split == len(layers) and n > 1:
                    raise DimensionMismatchError(
                        f"model output has {n * width} entries; the regression head must be scalar")
                # the readout; without one, each graph is one vertex, whose mean keeps its bits
                pooled[bucket.index] = h.reshape(G, n, -1).mean(axis=1)
            h = pooled
            for i, layer in enumerate(layers[split + 1:], start=split + 1):
                h, z = _affine(layer, h, capture_point)
                if z is not None:
                    captures[i] = z
    except FloatingPointError as exc:
        raise NumericalError(f"model {model.name!r}, layer {i}: {exc}") from exc
    if h.shape[1] != 1:
        raise DimensionMismatchError(
            f"model output has {h.shape[1]} entries; the regression head must be scalar")
    return h[:, 0].copy(), captures  # not a view of the head's capture


def _affine(layer, h: np.ndarray, capture_point: str | None):
    """One parameterized layer on (rows, width) states: (output, capture or None).

    BN and ReLU write into the new array z unless a capture keeps what they overwrite.
    """
    z = h @ layer.params.weight.T
    if layer.params.bias is not None:
        z += layer.params.bias
    bn = layer.batch_norm
    post = z if bn is None else bn.apply(z, out=None if capture_point == PRE_BN else z)
    captured = None if capture_point is None else (z if capture_point == PRE_BN else post)
    if layer.activation != "relu":
        return post, captured
    return np.maximum(post, 0.0, out=None if captured is post else post), captured


def predict(model: GcnModel, graphs) -> np.ndarray:
    """Each graph's scalar prediction, in order; a Dataset lends its kept layout."""
    layout = graphs.layout if isinstance(graphs, Dataset) else bucket_layout(graphs)
    return _evaluate(model, layout, capture_point=None)[0]


def forward_with_capture(
    model: GcnModel, batch: Dataset, capture_point: str = POST_BN
) -> tuple[np.ndarray, dict[int, ActivationSample]]:
    """Evaluate a nonempty batch and capture each parameterized layer's pre-activations.

    capture_point selects the value recorded for layers followed by batch
    norm: the affine output before BN ("pre_bn") or after BN ("post_bn").
    Layers without BN capture the affine output either way.
    """
    if capture_point not in CAPTURE_POINTS:
        raise InvalidSpecError(f"capture_point must be one of {CAPTURE_POINTS}")
    if not batch.graphs:
        raise InvalidSpecError("a fusion batch needs at least one graph")
    predictions, captures = _evaluate(model, batch.layout, capture_point)
    return predictions, {i: ActivationSample(batch, tuple(v) if isinstance(v, list) else v)
                         for i, v in captures.items()}


def evaluate_mae(model: GcnModel, dataset: Dataset) -> float:
    """Mean absolute error of the model's predictions against dataset targets."""
    targets = dataset.targets  # first: a missing target fails before any forward pass
    if not len(targets):
        raise InvalidSpecError("cannot evaluate MAE on an empty dataset")
    return float(np.mean(np.abs(predict(model, dataset) - targets)))


def label_with_model(model: GcnModel, dataset: Dataset) -> Dataset:
    """Relabel every graph's target with the model's own prediction (teacher labels)."""
    graphs = tuple(
        replace(g, target=float(p)) for g, p in zip(dataset.graphs, predict(model, dataset))
    )
    return Dataset(graphs=graphs, feature_dim=dataset.feature_dim)


def permute_model(model: GcnModel, permutations) -> GcnModel:
    """fusion.permute_model, kept here because the benchmark's workloads call models.permute_model."""
    from .fusion import permute_model as permute  # fusion imports models
    return permute(model, permutations)


def perturb_model(model: GcnModel, scale: float, seed: int) -> GcnModel:
    """Add Gaussian noise to weights and biases, sized relative to each array.

    Noise std is scale times the array's own std (or its mean magnitude
    when the std is zero), so scale=0.01 means roughly 1% perturbation per
    layer. Batch-norm statistics are left untouched.
    """
    read_number(scale, "noise scale", InvalidSpecError, least=0)
    read_integer(seed, "seed", InvalidSpecError, least=0)
    rng = np.random.default_rng(seed)

    def noisy(arr: np.ndarray) -> np.ndarray:
        base = float(np.std(arr))
        if base == 0.0:
            base = float(np.mean(np.abs(arr)))
        return arr + scale * base * rng.standard_normal(arr.shape)

    new_layers: list[Layer] = []
    for layer in model.layers:
        if isinstance(layer, _Parameterized):
            bias = layer.params.bias
            layer = replace(layer, params=DenseParams(
                weight=noisy(layer.params.weight), bias=None if bias is None else noisy(bias)))
        new_layers.append(layer)
    return GcnModel(layers=tuple(new_layers), name=model.name + "+noise", seed=model.seed)


@dataclass(frozen=True)
class ArchSpec:
    """Architecture for random model generation.

    gc_layers == 0 builds an MLP (no graph convolutions, no readout) meant
    for single-vertex inputs. With batch_norm=True, BN attaches to every
    hidden layer (graph-conv layers, or hidden dense layers in MLP mode);
    the scalar head never has BN or an activation.
    """

    feature_dim: int
    hidden_dim: int
    gc_layers: int
    dense_layers: int
    batch_norm: bool = False

    def __post_init__(self):
        for name, least in (("feature_dim", 1), ("hidden_dim", 1), ("gc_layers", 0), ("dense_layers", 1)):
            read_integer(getattr(self, name), name, InvalidSpecError, least=least)

    @property
    def is_mlp(self) -> bool:
        return self.gc_layers == 0


def random_model(spec: ArchSpec, seed: int, name: str = "") -> GcnModel:
    """Deterministically initialize a model from an architecture spec and seed."""
    read_integer(seed, "seed", InvalidSpecError, least=0)
    rng = np.random.default_rng(seed)

    def dense_params(out_dim, in_dim, bias=True):
        W = rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)
        b = rng.standard_normal(out_dim) * 0.1 if bias else None
        return DenseParams(weight=W, bias=b)

    def bn_params(dim):
        return BatchNormParams(
            gamma=rng.uniform(0.5, 1.5, dim),
            beta_shift=rng.standard_normal(dim) * 0.5,
            running_mean=rng.standard_normal(dim) * 0.5,
            running_var=rng.uniform(0.5, 1.5, dim),
            epsilon=1e-5,
        )

    layers: list[Layer] = [Embedding(params=dense_params(spec.hidden_dim, spec.feature_dim, bias=False))]
    for _ in range(spec.gc_layers):
        layers.append(GraphConv(
            params=dense_params(spec.hidden_dim, spec.hidden_dim),
            batch_norm=bn_params(spec.hidden_dim) if spec.batch_norm else None,
        ))
    if spec.gc_layers > 0:
        layers.append(MeanReadout())
    for d in range(spec.dense_layers):
        last = d == spec.dense_layers - 1
        out_dim = 1 if last else spec.hidden_dim
        use_bn = spec.batch_norm and spec.is_mlp and not last
        layers.append(Dense(
            params=dense_params(out_dim, spec.hidden_dim),
            batch_norm=bn_params(out_dim) if use_bn else None,
            activation="none" if last else "relu",
        ))
    return GcnModel(layers=tuple(layers), name=name, seed=seed)


_SCHEMA = "gcnfuse-model/1"


def _to_json(value):
    """A layer field as a model file holds it: a batch norm as an object, the rest as lists or scalars."""
    if isinstance(value, BatchNormParams):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return np.asarray(value).tolist()


def _bn_from_json(obj) -> BatchNormParams | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ModelFormatError("batch_norm must be a JSON object or null")
    # a missing key raises KeyError; an extra one is ignored
    return BatchNormParams(**{f.name: obj[f.name] for f in fields(BatchNormParams)})


def _layer_to_json(layer) -> dict:
    """{"kind": its file name, then each layer field its kind carries, in _KINDS order}."""
    name, _, keys = _KINDS[type(layer)]
    record = {"kind": name}
    for key in keys:  # weight and bias sit on the layer's params
        record[key] = _to_json(getattr(layer.params if key in ("weight", "bias") else layer, key))
    return record


def save_model(model: GcnModel, path: str | Path) -> None:
    """Write the model to a JSON document; load_model(save_model(m)) == m exactly."""
    doc = {
        "schema": _SCHEMA,
        "name": model.name,
        "seed": model.seed,
        "summary": model.summary(),
        "layers": [_layer_to_json(layer) for layer in model.layers],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path: str | Path) -> GcnModel:
    """Read a model file, rejecting unknown schemas, layer kinds, or bad values."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("layers", []), list):
        raise ModelFormatError(f"{path}: a model file holds one JSON object with a layer list")
    if doc.get("schema") != _SCHEMA:
        raise ModelFormatError(f"{path}: unsupported schema {doc.get('schema')!r}")
    layers: list[Layer] = []
    for i, rec in enumerate(doc.get("layers", [])):
        try:
            if not isinstance(rec, dict):
                raise ModelFormatError("a layer record must be a JSON object")
            kind = rec.get("kind")
            cls, keys = next(((c, k) for c, (name, _, k) in _KINDS.items() if name == kind), (None, ()))
            if cls is None:
                raise ModelFormatError(f"unknown layer kind {kind!r}")
            if stray := [key for key in _FIELDS if key in rec and key not in keys]:
                raise ModelFormatError(f"{kind} records carry no {stray[0]!r}")
            if keys and "weight" not in rec:
                raise ModelFormatError(f"{kind} record has no 'weight'")
            # only Dense carries an activation; the other kinds fix theirs on the class
            layers.append(cls() if not keys else cls(
                params=DenseParams(weight=rec["weight"], bias=rec.get("bias")),
                batch_norm=_bn_from_json(rec.get("batch_norm")),
                **({"activation": rec["activation"]} if "activation" in rec else {})))
        except (ModelFormatError, DimensionMismatchError, KeyError, TypeError) as exc:
            raise ModelFormatError(f"{path}: layer {i}: {exc}") from exc
    try:
        return GcnModel(layers=tuple(layers), name=doc.get("name", ""), seed=doc.get("seed"))
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
