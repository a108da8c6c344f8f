"""Model configuration, parameter construction, and forward passes.

The backbone is four downscaling aggregation modules followed by a decoder.
Each module runs two stride-2 branches over the same input: an extra
convolution (conventional or depthwise-separable) and a chain of 3x3
convolutions whose per-layer outputs are all concatenated with the extra
branch. The decoder is a 1x1 convolution followed by a depthwise convolution
spanning the full spatial extent, flattened to the feature vector. Each
detection head grows the feature vector through concatenated linear blocks
and ends in a linear layer emitting (x, y) pairs in normalized crop
coordinates.

ReLU follows every convolution and every head block linear; there is no
activation after the decoder's depthwise layer or the final head linear, and
no normalization layers anywhere.

``build_plan`` is the one description of this network: conv, depthwise,
linear, relu and concat steps over named activation sites. ``iter_layers``
(parameters, costing, the container) is a view of it, and ``run_plan`` is
its one interpreter, which drops each value after its last reader
(``last_reads``, computed once per plan). The float forward runs each stage
through it, one ``_apply`` op per step, and writes each site that a
convolution pads inside the zero border those convolutions read
(``site_pads``), so they take their padded input as a view.

Without a tape, the float forward runs the backbone and decoder depth-first:
eosa1 to the decoder on one block of samples at a time (``block_samples``:
as many samples as keep the largest bordered site of a block within
``_BLOCK_ELEMENTS``, 4 for the stock model at 128 px), so a block's
activations stay in cache from layer to layer and the forward's memory does
not grow with the batch. The blocks run through ``on_lanes``, ``STEP_LANES``
at a time on the process's one set of threads (the lanes): their kernels are
large numpy calls that release the GIL. Only the (B, decoder_dim) feature
rows of the blocks are joined, in block order whichever lane ends first, and
the heads run once on the whole batch on the calling thread. A batch of one
block submits nothing to the lanes, and with an ``observer`` (calibration)
the blocks run one after another on the calling thread. The backbone's
kernels treat every sample on its own, so the outputs are bit-identical to
a whole-batch forward. A stage whose input is the batch's images copies
them into their zero border itself, so only the stage holds that copy and
it dies after its last reader. A taped forward runs each stage on the whole
batch it is given: blocks made it no faster, and the tape keeps every value
until the backward anyway. Training bounds that memory instead by handing
it micro-batches, ``STEP_LANES`` at a time through ``on_lanes``
(``micro_batch_samples``: as many samples as keep all the activation sites
of the micro-batches in flight within ``_STEP_ELEMENTS``, 8 for the stock
3-head model at 128 px).

Each group of ``sibling_convs``, conv layers that read one site with one
kernel size, stride and padding, runs as one ``ops.sibling_conv2d`` at the
step of its first layer, with or without a tape: per sample, one copy of
the receptive fields feeds the GEMM of every layer of the group. In the
stock model that is ``eosa1.extra`` with ``eosa1.osa.l0``; in
``conv-backbone`` the same pair in every module; a depthwise extra conv
joins none. Each GEMM keeps its layer's own shape and weights (read through
``Model.layer`` on every call), and each layer records its own backward
node, so the outputs and the gradients are the bits of the layers run one
by one: one GEMM over the weights joined along cout gave other float64 bits
on OpenBLAS, which picks its kernel by the GEMM's shape, and its weight
gradient would sum in another order.

The int8 path in ``quantize`` compiles the plan once per model into fused
steps, each layer with its ReLU and its writes into concat buffers, and runs
them through ``run_plan`` too, each group of ``sibling_convs`` as one step
on one receptive-field copy. Its spatial layers call the kernel bodies of
the float convolutions one block of samples at a time, layer by layer (run
depth-first, the int8 forward was slower), and its linears and
``decoder.dw`` call ``_apply``, so it accumulates integers through these
float kernels. Those sums are exact: a layer with fan-in K (kh*kw*cin,
kh*kw for depthwise, the input width for linear) sums K products of
|q - zero_point| <= 255 and |w| <= 128, so every partial sum is an integer of
magnitude at most K * 255 * 128. The int8 path runs it in float32 when that
is below 2**24 (K <= 514), where float32 holds every such integer exactly in
any summation order, and in float64 otherwise.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, ShapeError, UsageError, ValidationError
from .formats import default_registry
from .ops import (_out_and_pad, concat_channels, conv2d, depthwise_conv2d, flatten_rows, linear,
                  relu, sibling_conv2d, with_border)
from .tensor import LayerParams, Tape, Tensor

EXTRA_CONV_KINDS = ("conventional", "depthwise-separable")
HEAD_KINDS = ("efld", "pfld-plain")
INPUT_CHANNELS = 3


@dataclass(frozen=True)
class EosaConfig:
    """One backbone module: chain width/depth plus the extra convolution."""

    f_osa: int
    n_osa: int
    f_conv: int
    extra_conv: str = "conventional"

    def validate(self, where: str = "eosa") -> None:
        for key in ("n_osa", "f_osa", "f_conv"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{where}: {key} must be >= 1, got {getattr(self, key)}")
        if self.extra_conv not in EXTRA_CONV_KINDS:
            raise ConfigError(f"{where}: unknown extra_conv kind {self.extra_conv!r}")

    @property
    def out_channels(self) -> int:
        return self.f_conv + self.n_osa * self.f_osa


@dataclass(frozen=True)
class HeadConfig:
    """One detection head: output format plus block count and width."""

    format: str
    points: int
    blocks: int = 3
    width: int = 32

    def validate(self) -> None:
        if self.points < 1:
            raise ConfigError(f"head {self.format!r}: points must be >= 1")
        if self.blocks < 0 or self.width < 1:
            raise ConfigError(f"head {self.format!r}: invalid blocks/width")


DEFAULT_EOSA = (
    EosaConfig(4, 2, 8, "conventional"),
    EosaConfig(8, 3, 8, "depthwise-separable"),
    EosaConfig(16, 3, 16, "depthwise-separable"),
    EosaConfig(16, 3, 32, "depthwise-separable"),
)


@dataclass(frozen=True)
class ModelConfig:
    """Declarative architecture description."""

    input_size: int = 128
    eosa: tuple = DEFAULT_EOSA
    decoder_dim: int = 256
    heads: tuple = (HeadConfig("p51", 51),)
    head_kind: str = "efld"

    def validate(self) -> None:
        divisor = 2 ** len(self.eosa)
        if self.input_size < divisor or self.input_size % divisor != 0:
            raise ConfigError(
                f"input_size {self.input_size} must be divisible by {divisor} "
                f"(one halving per backbone module)"
            )
        for i, ec in enumerate(self.eosa, 1):
            ec.validate(f"eosa.{i}")
        if self.decoder_dim < 1:
            raise ConfigError("decoder_dim must be >= 1")
        if not self.heads:
            raise ConfigError("at least one head is required")
        names = [h.format for h in self.heads]
        if len(set(names)) != len(names):
            raise ConfigError(f"head format names must be distinct, got {names}")
        for h in self.heads:
            h.validate()
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"unknown head_kind {self.head_kind!r}")

    def with_heads(self, formats) -> "ModelConfig":
        """This config with only the heads named in ``formats``, in this
        config's order. The one check of a head subset: raises
        ``UsageError`` when ``formats`` is empty or names a head this config
        lacks."""
        wanted = set(formats)
        available = [h.format for h in self.heads]
        unknown = wanted.difference(available)
        if unknown or not wanted:
            problem = (f"unknown heads {', '.join(sorted(unknown))}" if unknown
                       else "a head subset must be nonempty")
            raise UsageError(f"{problem}; available heads: {', '.join(available)}")
        return replace(self, heads=tuple(h for h in self.heads if h.format in wanted))


VARIANTS = ("default", "conv-backbone", "pfld-head")


def apply_variant(config: ModelConfig, variant: str) -> ModelConfig:
    """Architecture ablations: all-conventional extra convs, or plain heads."""
    if variant == "default":
        return config
    if variant == "conv-backbone":
        eosa = tuple(replace(ec, extra_conv="conventional") for ec in config.eosa)
        return replace(config, eosa=eosa)
    if variant == "pfld-head":
        return replace(config, head_kind="pfld-plain")
    raise UsageError(f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}")


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one parameterized layer, used for construction and costing."""

    name: str
    kind: str  # conv | depthwise-conv | linear
    kernel: tuple  # (kh, kw) for convs, () for linear
    cin: int
    cout: int
    stride: int = 1
    padding: str = "same"
    out_hw: tuple = ()  # spatial output, filled when input_size known

    @property
    def weight_shape(self) -> tuple:
        if self.kind == "conv":
            return (*self.kernel, self.cin, self.cout)
        if self.kind == "depthwise-conv":
            return (*self.kernel, self.cout)
        return (self.cin, self.cout)

    @property
    def param_count(self) -> int:
        n = 1
        for d in self.weight_shape:
            n *= d
        return n + self.cout

    @property
    def fan_in(self) -> int:
        if self.kind == "conv":
            return self.kernel[0] * self.kernel[1] * self.cin
        if self.kind == "depthwise-conv":
            return self.kernel[0] * self.kernel[1]
        return self.cin


class PlanStep(NamedTuple):
    """One step of the execution plan. ``inputs`` and ``output`` name
    activation sites; layer steps carry the geometry of their layer."""

    stage: str  # eosa1 .. eosaN | decoder | head.<format>
    op: str  # conv | depthwise | linear | relu | concat
    inputs: tuple
    output: str
    spec: LayerSpec | None = None
    flatten: bool = False  # reshape the (B, 1, 1, C) output to (B, C)

    @property
    def layer(self) -> str | None:
        return self.spec.name if self.spec is not None else None


_LAYER_OPS = {"conv": "conv", "depthwise-conv": "depthwise", "linear": "linear"}


@lru_cache(maxsize=64)
def build_plan(config: ModelConfig) -> tuple:
    """The network as steps in execution order, starting from the ``input``
    site. It is the only description of the architecture: the float and int8
    forward passes, calibration, costing and the container all follow it.
    Built once per config: the plan is a tuple of immutable steps, and a
    config is frozen, so every caller shares it."""
    steps = []

    def step(stage, op, inputs, output, spec=None, flatten=False):
        steps.append(PlanStep(stage, op, inputs, output, spec, flatten))
        return output

    def layer(stage, src, spec, output=None, flatten=False):
        return step(stage, _LAYER_OPS[spec.kind], (src,), output or f"{spec.name}.out",
                    spec, flatten)

    def layer_relu(stage, src, spec):
        return step(stage, "relu", (layer(stage, src, spec),), f"{spec.name}.relu")

    size, cin, prev = config.input_size, INPUT_CHANNELS, "input"
    for i, ec in enumerate(config.eosa, 1):
        stage = f"eosa{i}"
        out = -(-size // 2)
        hw = (out, out)
        if ec.extra_conv == "conventional":
            extra = layer_relu(stage, prev, LayerSpec(
                f"{stage}.extra", "conv", (3, 3), cin, ec.f_conv, 2, "same", hw))
        else:
            dw = layer_relu(stage, prev, LayerSpec(
                f"{stage}.extra.dw", "depthwise-conv", (3, 3), cin, cin, 2, "same", hw))
            extra = layer_relu(stage, dw, LayerSpec(
                f"{stage}.extra.pw", "conv", (1, 1), cin, ec.f_conv, 1, "same", hw))
        branches = [extra]
        chain, chain_in = prev, cin
        for j in range(ec.n_osa):
            chain = layer_relu(stage, chain, LayerSpec(
                f"{stage}.osa.l{j}", "conv", (3, 3), chain_in, ec.f_osa, 2 if j == 0 else 1,
                "same", hw))
            chain_in = ec.f_osa
            branches.append(chain)
        prev = step(stage, "concat", tuple(branches), f"{stage}.concat")
        cin, size = ec.out_channels, out
    dim = config.decoder_dim
    feat = layer_relu("decoder", prev, LayerSpec(
        "decoder.pw", "conv", (1, 1), cin, dim, 1, "same", (size, size)))
    feat = layer("decoder", feat, LayerSpec(
        "decoder.dw", "depthwise-conv", (size, size), dim, dim, 1, "valid", (1, 1)),
        output="decoder.out", flatten=True)
    for hc in config.heads:
        stage = f"head.{hc.format}"
        feed, width = feat, dim
        if config.head_kind == "efld":
            for j in range(hc.blocks):
                z = layer_relu(stage, feed, LayerSpec(
                    f"{stage}.block{j}", "linear", (), width, hc.width))
                feed = step(stage, "concat", (feed, z), f"{stage}.block{j}.concat")
                width += hc.width
        layer(stage, feed, LayerSpec(f"{stage}.out", "linear", (), width, 2 * hc.points),
              output=f"{stage}.out")
    return tuple(steps)


def site_shapes(plan, input_size: int) -> dict:
    """The shape of one sample of every activation site: (h, w, channels)
    for a feature map, (width,) for a vector."""
    shapes = {"input": (input_size, input_size, INPUT_CHANNELS)}
    for step in plan:
        spec = step.spec
        if spec is not None:
            shape = (spec.cout,) if step.flatten else (*spec.out_hw, spec.cout)
        else:
            first = shapes[step.inputs[0]]
            shape = first[:-1] + (sum(shapes[site][-1] for site in step.inputs),)
        shapes[step.output] = shape
    return shapes


def site_pads(plan, shapes: dict) -> dict:
    """The zero border of every activation site that a convolution pads:
    (top, bottom, left, right), the elementwise max of the padding of the
    convolutions that read the site. The forward copies the input, and runs
    each ReLU and concat, into the interior of a zero buffer with its site's
    border, and every reader takes its padded input as a view of that
    buffer (see ``ops``). Depends only on the plan and its ``site_shapes``."""
    pads = {}
    for step in plan:
        spec, src = step.spec, step.inputs[0]
        if step.op not in ("conv", "depthwise"):
            continue
        (h, w, _), (kh, kw) = shapes[src], spec.kernel
        _, top, bottom = _out_and_pad(spec.name, h, kh, spec.stride, spec.padding)
        _, left, right = _out_and_pad(spec.name, w, kw, spec.stride, spec.padding)
        pad = (top, bottom, left, right)
        pads[src] = tuple(map(max, pads.get(src, pad), pad))
    return {site: pad for site, pad in pads.items() if any(pad)}


# The untaped backbone runs as many samples at a time as keep the largest
# bordered activation site of a block within this many elements (at least
# one sample), so that a block's activations stay in cache between layers.
_BLOCK_ELEMENTS = 5 << 16


def block_samples(shapes: dict, pads: dict) -> int:
    """Samples per block of the untaped backbone: ``_BLOCK_ELEMENTS`` over
    the largest site of one sample (``shapes``) with its border (``pads``)."""
    largest = 1
    for site, shape in shapes.items():
        if len(shape) == 3:
            top, bottom, left, right = pads.get(site, (0, 0, 0, 0))
            largest = max(largest, (shape[0] + top + bottom) * (shape[1] + left + right) * shape[2])
    return max(1, _BLOCK_ELEMENTS // largest)


# A training step runs forward and backward on STEP_LANES micro-batches at
# once, one per lane, each of as many samples as keep the activations of
# every site of the plan within its share of this many elements (at least
# one sample): 8 samples of the stock 3-head model at 128 px. An untaped
# forward runs its backbone blocks on the same lanes.
_STEP_ELEMENTS = 1 << 23
STEP_LANES = 2


def _reset_lanes() -> None:
    """Make the process's one set of lanes: ``STEP_LANES`` threads, started
    by the first submission and used by every later call. A forked child
    has none of its parent's threads, so it makes a set of its own."""
    global _LANES
    _LANES = ThreadPoolExecutor(STEP_LANES, thread_name_prefix="efld-lane")


_reset_lanes()
os.register_at_fork(after_in_child=_reset_lanes)


def on_lanes(fn, items) -> Iterator:
    """Yield ``fn(item)`` for each of ``items`` in item order, whichever lane
    ends first, each run on the lanes under the caller's ``np.errstate``
    (numpy's is per thread); an item whose call raised raises in its turn.
    At most ``STEP_LANES`` + 1 items are in flight. When the caller stops
    reading (returns or raises), items not yet started are cancelled and
    running ones joined, so no call of ``fn`` outlives the loop. ``fn`` must
    not submit to the lanes itself: they are the whole process's, and a
    lane waiting on them can wait forever."""
    errors = np.geterr()

    def run(item):
        with np.errstate(**errors):
            return fn(item)

    submitted = (_LANES.submit(run, item) for item in items)
    pending = deque(islice(submitted, STEP_LANES))  # oldest first
    try:
        while pending:
            # one more in flight while the oldest is read: a lane that
            # finishes first starts it
            pending.extend(islice(submitted, 1))
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def micro_batch_samples(shapes: dict) -> int:
    """Samples per micro-batch of a training step: ``_STEP_ELEMENTS``, split
    between the ``STEP_LANES`` micro-batches in flight, over the elements
    of all the activation sites of one sample, the input included
    (``site_shapes``). It depends on the plan alone, not on the cores or
    threads there are, so a step's bits do not either."""
    per_sample = sum(math.prod(shape) for shape in shapes.values())
    return max(1, _STEP_ELEMENTS // (STEP_LANES * per_sample))


def sibling_convs(plan) -> list:
    """The conv steps of ``plan`` that read one site in one stage with one
    kernel size, stride and padding, as tuples of two or more in plan order.
    A depthwise layer never joins one: each of its channels reads its own
    input channel."""
    groups = {}
    for step in plan:
        spec = step.spec
        if step.op == "conv" and not step.flatten:
            key = (step.stage, step.inputs[0], spec.kernel, spec.stride, spec.padding)
            groups.setdefault(key, []).append(step)
    return [tuple(group) for group in groups.values() if len(group) > 1]


def iter_layers(config: ModelConfig) -> Iterator[LayerSpec]:
    """Every parameterized layer in plan order, with spatial sizes."""
    return (step.spec for step in build_plan(config) if step.spec is not None)


class Model:
    """Instantiated parameter set, addressable by stable hierarchical names.

    Parameter tensors are named ``<layer>.w`` and ``<layer>.b``. A built model
    is immutable during inference and safe for concurrent forward passes,
    taped or not; training mutates parameters in place, only while no
    forward runs, and requires exclusive access.
    Each forward allocates its own activation buffers, with the zero border
    of ``site_pads`` where a convolution reads them; none is shared between
    calls. An untaped forward runs the backbone on blocks of
    ``block_samples`` samples, a number fixed per model from the plan,
    ``STEP_LANES`` blocks at a time on the lanes; a training step runs
    forward and backward on micro-batches of ``micro_batch`` samples,
    ``STEP_LANES`` at a time on the same lanes (``micro_batch_samples``),
    fixed per model from the plan too.
    """

    def __init__(self, config: ModelConfig, params: dict, dtype: str):
        self.config = config
        self.params = params
        self.dtype = dtype
        plan = build_plan(config)
        self._kinds = {step.layer: step.spec.kind for step in plan if step.spec is not None}
        self._stages = {}
        for step in plan:
            self._stages.setdefault(step.stage, []).append(step)
        self._drops = {stage: last_reads(steps) for stage, steps in self._stages.items()}
        shapes = site_shapes(plan, config.input_size)
        self._pads = site_pads(plan, shapes)
        self._block = block_samples(shapes, self._pads)
        self.micro_batch = micro_batch_samples(shapes)
        self._siblings = {group[0].output: group for group in sibling_convs(plan)}
        self._layers = {}

    def layer(self, name: str) -> LayerParams:
        """The layer's parameters, built once and again only after one of
        its parameter tensors in ``params`` was replaced."""
        w, b = self.params[name + ".w"], self.params[name + ".b"]
        lp = self._layers.get(name)
        if lp is None or lp.weights is not w or lp.bias is not b:
            lp = self._layers[name] = LayerParams(self._kinds[name], w, b)
        return lp

    def layer_names(self) -> list:
        return list(self._kinds)

    def head_formats(self) -> tuple:
        return tuple(h.format for h in self.config.heads)

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def with_heads(self, formats) -> "Model":
        """This model over ``config.with_heads(formats)``: the same parameter
        tensors, those of its own layers only. The one way to run or save a
        head subset."""
        config = self.config.with_heads(formats)
        names = [spec.name + part for spec in iter_layers(config) for part in (".w", ".b")]
        return Model(config, {name: self.params[name] for name in names}, self.dtype)


def build_model(config: ModelConfig, seed: int = 0, dtype: str = "float32") -> Model:
    """Deterministically initialized model: uniform He-style fan-in scaling
    for weights, zero biases."""
    config.validate()
    if dtype not in ("float32", "float64"):
        raise ConfigError(f"dtype must be float32 or float64, got {dtype!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = {}
    for spec in iter_layers(config):
        limit = np.sqrt(6.0 / spec.fan_in)
        w = rng.uniform(-limit, limit, size=spec.weight_shape).astype(dtype)
        params[spec.name + ".w"] = Tensor(w)
        params[spec.name + ".b"] = Tensor(np.zeros(spec.cout, dtype=dtype))
    return Model(config, params, dtype)


def _apply(step: PlanStep, params: LayerParams | None, operands, tape=None,
           pad=None) -> Tensor:
    """One step of the plan on its operands, with its layer's ``params``; a
    ReLU or concat writes its output inside a zero border of ``pad``."""
    if step.op == "concat":
        return concat_channels(*operands, tape=tape, pad=pad)
    (src,) = operands
    if step.op == "relu":
        return relu(src, tape=tape, pad=pad)
    if step.op == "linear":
        return linear(src, params, tape=tape)
    spec = step.spec
    if step.flatten and src.shape[1:3] != spec.kernel:
        raise ShapeError(
            spec.name,
            f"spatial size {src.shape[1]}x{src.shape[2]} does not match the "
            f"full-extent kernel {spec.kernel[0]}x{spec.kernel[1]}",
        )
    conv = conv2d if step.op == "conv" else depthwise_conv2d
    y = conv(src, params, stride=spec.stride, padding=spec.padding, tape=tape)
    return flatten_rows(y, tape=tape) if step.flatten else y


def last_reads(steps) -> list:
    """Per step, the input sites that no later step reads. It depends only on
    the steps, so a plan computes it once and hands it to every ``run_plan``."""
    later, drops = set(), []
    for step in reversed(steps):
        drops.append(frozenset(step.inputs) - later)
        later.update(step.inputs)
    return drops[::-1]


def run_plan(steps, values: dict, apply, drops=None) -> dict:
    """Set ``values[step.output] = apply(step, operands)`` for each step in
    order, the operands being the values of ``step.inputs``, and drop each
    value after its last reader. ``values`` starts with the sites the steps
    read before writing; the values that no step reads are returned.
    ``drops`` is ``last_reads(steps)``, computed here when not given."""
    if drops is None:
        drops = last_reads(steps)
    for step, drop in zip(steps, drops):
        operands = [values.pop(site) if site in drop else values[site] for site in step.inputs]
        values[step.output] = apply(step, operands)
    return values


def _run_stage(model: Model, stage: str, x: Tensor, tape: Tape | None,
               observer) -> Tensor:
    """Run one stage of the plan on ``x``, reporting each output site to
    ``observer``. An ``x`` that lacks the zero border of its site (the
    images) is copied into one. The first step of each group of
    ``sibling_convs`` runs the whole group as one ``sibling_conv2d``, on the
    tape when there is one, and each later member's step hands on its
    output."""
    steps = model._stages[stage]
    held = {}  # output site -> the output of a group member whose step is still to come

    def apply(step, operands):
        if step.output in held:
            y = held.pop(step.output)
        elif step.output in model._siblings:
            group = model._siblings[step.output]
            y, *rest = sibling_conv2d(operands[0], [model.layer(s.layer) for s in group],
                                      stride=step.spec.stride, padding=step.spec.padding,
                                      tape=tape)
            held.update((s.output, out) for s, out in zip(group[1:], rest))
        else:
            y = _apply(step, model.layer(step.layer) if step.layer else None, operands, tape,
                       model._pads.get(step.output))
        if observer is not None:
            observer(step.output, y.data)
        return y

    site = steps[0].inputs[0]
    values = {site: x}
    if site in model._pads and x.border is None:
        # the images: run_plan alone holds their bordered copy, and drops it
        # after its last reader
        values[site] = with_border(x, model._pads[site], tape=tape)
    (y,) = run_plan(steps, values, apply, model._drops[stage]).values()
    return y


def eosa_forward(model: Model, index: int, x: Tensor, tape: Tape | None = None,
                 observer=None) -> Tensor:
    """Run backbone module ``index`` (1-based): both branches see the same
    input; the output concatenates the extra branch with every chain layer."""
    return _run_stage(model, f"eosa{index}", x, tape, observer)


def decoder_forward(model: Model, x: Tensor, tape: Tape | None = None, observer=None) -> Tensor:
    """1x1 convolution (ReLU) then full-extent depthwise convolution with no
    activation, flattened to the feature vector."""
    return _run_stage(model, "decoder", x, tape, observer)


def head_forward(model: Model, fmt: str, v: Tensor, tape: Tape | None = None,
                 observer=None) -> Tensor:
    """One detection head on the shared feature vector; no final activation.
    Point k of the output lives at indices (2k, 2k+1)."""
    stage = f"head.{fmt}"
    if stage not in model._stages:
        model.config.with_heads((fmt,))  # raises the UsageError naming the model's heads
    return _run_stage(model, stage, v, tape, observer)


def backbone_forward(model: Model, images: Tensor, tape: Tape | None = None,
                     observer=None) -> Tensor:
    """The (B, decoder_dim) feature vectors of ``images``. Without a tape the
    backbone and decoder run block by block of samples: on the lanes
    (``on_lanes``), so no block outlives the call, and one after another on
    the calling thread when ``observer`` is given, which then sees each of
    their sites once per block, in block order. A batch of one block runs
    on the calling thread. The rows are joined in block order, and the
    first block that fails raises its error. With a tape the backbone and
    decoder run on the whole batch at once. The outputs are the same
    bits."""
    s = model.config.input_size
    if images.data.ndim != 4 or images.shape[1:] != (s, s, INPUT_CHANNELS) \
            or not images.shape[0]:
        raise ShapeError("model_forward", f"expected images of shape (B, {s}, {s}, "
                         f"{INPUT_CHANNELS}) with B >= 1, got {tuple(images.shape)}")
    block = model._block
    if tape is not None or len(images.data) <= block:
        return _backbone_block(model, images, tape, observer)

    def block_rows(start):
        return _backbone_block(model, Tensor(images.data[start : start + block]), None,
                               observer, start).data

    starts = range(0, len(images.data), block)
    # with an observer (calibration), the blocks in order on this thread
    rows = map(block_rows, starts) if observer is not None else on_lanes(block_rows, starts)
    return Tensor(np.concatenate(list(rows)))


def _backbone_block(model: Model, images: Tensor, tape: Tape | None, observer,
                    first: int = 0) -> Tensor:
    """The backbone and decoder on ``images``, samples ``first`` onward of
    the batch, in one piece, stage by stage. Raises ``ValidationError``
    naming the first image with a NaN or infinite pixel."""
    if not np.isfinite(images.data).all():
        finite = np.isfinite(images.data).reshape(len(images.data), -1).all(axis=1)
        bad = first + int(np.argmin(finite))
        raise ValidationError(f"model_forward: image {bad} has a non-finite pixel")
    if observer is not None:
        observer("input", images.data)
    x = images
    for i in range(1, len(model.config.eosa) + 1):
        x = eosa_forward(model, i, x, tape=tape, observer=observer)
    return decoder_forward(model, x, tape=tape, observer=observer)


def model_forward(model: Model, images: Tensor, tape: Tape | None = None,
                  observer=None) -> dict:
    """Backbone and decoder give each sample its feature vector (block by
    block without a tape, see ``backbone_forward``); every head of the model
    runs once on the whole batch of them (``Model.with_heads`` picks a
    subset). ``observer(site, value)``, when given, sees the value of every
    site the forward computes: a backbone site once per block of samples, a
    head site once per batch. Returns {format: predictions (B, 2K)}, in the
    model's head order. Raises ``ValidationError`` naming the first image
    with a NaN or infinite pixel."""
    v = backbone_forward(model, images, tape=tape, observer=observer)
    return {fmt: head_forward(model, fmt, v, tape=tape, observer=observer)
            for fmt in model.head_formats()}


def default_config(formats=("p51",)) -> ModelConfig:
    """The stock architecture with heads for the given registered formats,
    each with its format's point count."""
    registry = default_registry()
    return ModelConfig(heads=tuple(HeadConfig(f, registry.get(f).points) for f in formats))
