"""Layer specification classes.

A :class:`Layer` carries the hyper-parameters of one network layer and
knows how to (a) infer its output shape, (b) declare the weight tensors
it needs, (c) execute itself on NumPy arrays, and (d) label itself with
the layer-type *category* used throughout the paper's figures (Conv,
Pooling, FC, Norm, Fire_Squeeze, Fire_Expand, Relu, Scale, Eltwise, ...).

The same specification objects feed three consumers: the functional
executor (:mod:`repro.core.graph`), the kernel compiler
(:mod:`repro.kernels`), and the CUDA/OpenCL source emitters
(:mod:`repro.codegen`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.layers import functional as F

Shape = tuple[int, ...]


@dataclass
class Layer:
    """Base class for all layer specifications."""

    #: Category label used by the paper's per-layer-type figures.
    category: str = field(default="Others", init=False)

    @property
    def n_inputs(self) -> int:
        """Number of dataflow inputs the layer consumes."""
        return 1

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        """Infer the output tensor shape from the input shapes."""
        raise NotImplementedError

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        """Declare the weight tensors (name -> shape) this layer needs."""
        return {}

    def forward(
        self, inputs: Sequence[np.ndarray], weights: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Execute the layer on NumPy inputs."""
        raise NotImplementedError

    def macs(self, in_shapes: Sequence[Shape]) -> int:
        """Multiply-accumulate count, used by the FPGA analytic model."""
        return 0

    def activation_bytes(self, in_shapes: Sequence[Shape]) -> int:
        """Bytes of the output activation tensor (f32)."""
        return 4 * math.prod(self.out_shape(in_shapes))

    def weight_bytes(self, in_shapes: Sequence[Shape]) -> int:
        """Bytes of all weight tensors (f32)."""
        return 4 * sum(math.prod(shape) for shape in self.weight_shapes(in_shapes).values())


@dataclass
class Conv2D(Layer):
    """2-D convolution, optionally fused with bias and ReLU.

    ``fire_role`` marks SqueezeNet fire-module convolutions so the
    characterization can separate Fire_Squeeze / Fire_Expand layers from
    plain convolutions, exactly as the paper's Figure 1 does.
    """

    out_channels: int = 0
    kernel: int = 1
    stride: int = 1
    pad: int = 0
    bias: bool = True
    relu: bool = False
    fire_role: str | None = None  # None | "squeeze" | "expand"

    def __post_init__(self) -> None:
        if self.fire_role is None:
            self.category = "Conv"
        elif self.fire_role == "squeeze":
            self.category = "Fire_Squeeze"
        elif self.fire_role == "expand":
            self.category = "Fire_Expand"
        else:
            raise ValueError(f"unknown fire_role {self.fire_role!r}")
        if self.out_channels <= 0:
            raise ValueError("Conv2D needs a positive out_channels")

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        c, h, w = in_shapes[0]
        oh = F.conv_out_dim(h, self.kernel, self.stride, self.pad)
        ow = F.conv_out_dim(w, self.kernel, self.stride, self.pad)
        return (self.out_channels, oh, ow)

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        c_in = in_shapes[0][0]
        shapes: dict[str, Shape] = {
            "weight": (self.out_channels, c_in, self.kernel, self.kernel)
        }
        if self.bias:
            shapes["bias"] = (self.out_channels,)
        return shapes

    def forward(self, inputs, weights):
        out = F.conv2d(
            inputs[0],
            weights["weight"],
            weights.get("bias"),
            stride=self.stride,
            pad=self.pad,
        )
        return F.relu(out) if self.relu else out

    def macs(self, in_shapes: Sequence[Shape]) -> int:
        c_in = in_shapes[0][0]
        _, oh, ow = self.out_shape(in_shapes)
        return self.out_channels * oh * ow * c_in * self.kernel * self.kernel


@dataclass
class Pool2D(Layer):
    """Max or average pooling; ``global_pool`` reduces the whole map."""

    kind: str = "max"  # "max" | "avg"
    kernel: int = 2
    stride: int = 2
    pad: int = 0
    global_pool: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("max", "avg"):
            raise ValueError(f"unknown pooling kind {self.kind!r}")
        self.category = "Pooling"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        c, h, w = in_shapes[0]
        if self.global_pool:
            return (c,)
        oh = F.conv_out_dim(h, self.kernel, self.stride, self.pad)
        ow = F.conv_out_dim(w, self.kernel, self.stride, self.pad)
        return (c, oh, ow)

    def forward(self, inputs, weights):
        x = inputs[0]
        if self.global_pool:
            return F.global_avg_pool(x)
        if self.kind == "max":
            return F.max_pool2d(x, self.kernel, self.stride, self.pad)
        return F.avg_pool2d(x, self.kernel, self.stride, self.pad)


@dataclass
class FC(Layer):
    """Fully-connected layer, optionally fused with ReLU."""

    out_features: int = 0
    relu: bool = False

    def __post_init__(self) -> None:
        if self.out_features <= 0:
            raise ValueError("FC needs a positive out_features")
        self.category = "FC"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return (self.out_features,)

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        in_features = int(np.prod(in_shapes[0]))
        return {
            "weight": (self.out_features, in_features),
            "bias": (self.out_features,),
        }

    def forward(self, inputs, weights):
        out = F.fully_connected(inputs[0], weights["weight"], weights["bias"])
        return F.relu(out) if self.relu else out

    def macs(self, in_shapes: Sequence[Shape]) -> int:
        return self.out_features * int(np.prod(in_shapes[0]))


@dataclass
class LRN(Layer):
    """Local response normalization (AlexNet's Norm layers)."""

    local_size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75

    def __post_init__(self) -> None:
        self.category = "Norm"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return in_shapes[0]

    def forward(self, inputs, weights):
        return F.lrn(inputs[0], self.local_size, self.alpha, self.beta)


@dataclass
class BatchNorm(Layer):
    """Inference batch normalization with stored mean/variance."""

    eps: float = 1e-5

    def __post_init__(self) -> None:
        self.category = "Norm"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return in_shapes[0]

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        c = in_shapes[0][0]
        return {"mean": (c,), "var": (c,)}

    def forward(self, inputs, weights):
        return F.batch_norm(inputs[0], weights["mean"], weights["var"], self.eps)


@dataclass
class Scale(Layer):
    """Per-channel affine scale (ResNet's Scale kernels)."""

    def __post_init__(self) -> None:
        self.category = "Scale"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return in_shapes[0]

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        c = in_shapes[0][0]
        return {"gamma": (c,), "beta": (c,)}

    def forward(self, inputs, weights):
        return F.scale(inputs[0], weights["gamma"], weights["beta"])


@dataclass
class ReLU(Layer):
    """Stand-alone rectified linear unit (ResNet lists ReLU kernels)."""

    def __post_init__(self) -> None:
        self.category = "Relu"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return in_shapes[0]

    def forward(self, inputs, weights):
        return F.relu(inputs[0])


@dataclass
class Eltwise(Layer):
    """Element-wise addition of two tensors (ResNet shortcut join)."""

    def __post_init__(self) -> None:
        self.category = "Eltwise"

    @property
    def n_inputs(self) -> int:
        return 2

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if in_shapes[0] != in_shapes[1]:
            raise ValueError(f"eltwise inputs differ: {in_shapes[0]} vs {in_shapes[1]}")
        return in_shapes[0]

    def forward(self, inputs, weights):
        return F.eltwise_add(inputs[0], inputs[1])


@dataclass
class Concat(Layer):
    """Channel concatenation (SqueezeNet expand 1x1 || expand 3x3)."""

    def __post_init__(self) -> None:
        self.category = "Others"

    @property
    def n_inputs(self) -> int:
        return 2

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        (c0, h0, w0), (c1, h1, w1) = in_shapes[0], in_shapes[1]
        if (h0, w0) != (h1, w1):
            raise ValueError("concat inputs must share spatial dims")
        return (c0 + c1, h0, w0)

    def forward(self, inputs, weights):
        return np.concatenate([inputs[0], inputs[1]], axis=0)


@dataclass
class Softmax(Layer):
    """Softmax over class scores."""

    def __post_init__(self) -> None:
        self.category = "Others"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return in_shapes[0]

    def forward(self, inputs, weights):
        return F.softmax(inputs[0])


@dataclass
class GRUCell(Layer):
    """One GRU layer applied over a short input sequence.

    The paper's GRU benchmark feeds two days of bitcoin prices through a
    single recurrent layer; the input shape is ``(seq_len, input_size)``
    and the output is the final hidden state.
    """

    hidden_size: int = 100
    input_size: int = 1

    def __post_init__(self) -> None:
        self.category = "GRU"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return (self.hidden_size,)

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        h, i = self.hidden_size, self.input_size
        shapes: dict[str, Shape] = {}
        for gate in ("z", "r", "h"):
            shapes[f"w_{gate}"] = (h, i)
            shapes[f"u_{gate}"] = (h, h)
            shapes[f"b_{gate}"] = (h,)
        return shapes

    def forward(self, inputs, weights):
        seq = np.atleast_2d(inputs[0])
        h = np.zeros(self.hidden_size)
        for x_t in seq:
            h = F.gru_cell(
                x_t, h,
                weights["w_z"], weights["u_z"], weights["b_z"],
                weights["w_r"], weights["u_r"], weights["b_r"],
                weights["w_h"], weights["u_h"], weights["b_h"],
            )
        return h

    def macs(self, in_shapes: Sequence[Shape]) -> int:
        seq_len = in_shapes[0][0] if len(in_shapes[0]) > 0 else 1
        per_step = 3 * (self.hidden_size * self.input_size + self.hidden_size**2)
        return seq_len * per_step


@dataclass
class LSTMCell(Layer):
    """One LSTM layer applied over a short input sequence.

    Three gates (input, forget, output) plus the candidate path — one
    more gate than GRU, which the paper links to LSTM's higher
    data-dependency stall share.
    """

    hidden_size: int = 100
    input_size: int = 1

    def __post_init__(self) -> None:
        self.category = "LSTM"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        return (self.hidden_size,)

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        h, i = self.hidden_size, self.input_size
        shapes: dict[str, Shape] = {}
        for gate in ("i", "f", "o", "g"):
            shapes[f"w_{gate}"] = (h, i)
            shapes[f"u_{gate}"] = (h, h)
            shapes[f"b_{gate}"] = (h,)
        return shapes

    def forward(self, inputs, weights):
        seq = np.atleast_2d(inputs[0])
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        for x_t in seq:
            h, c = F.lstm_cell(
                x_t, h, c,
                weights["w_i"], weights["u_i"], weights["b_i"],
                weights["w_f"], weights["u_f"], weights["b_f"],
                weights["w_o"], weights["u_o"], weights["b_o"],
                weights["w_g"], weights["u_g"], weights["b_g"],
            )
        return h

    def macs(self, in_shapes: Sequence[Shape]) -> int:
        seq_len = in_shapes[0][0] if len(in_shapes[0]) > 0 else 1
        per_step = 4 * (self.hidden_size * self.input_size + self.hidden_size**2)
        return seq_len * per_step


@dataclass
class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution: one k x k filter per channel.

    The building block of MobileNet's depthwise-separable convolutions —
    the network the paper names as the suite's next addition ("We are
    currently developing more networks such as MobileNet").
    """

    kernel: int = 3
    stride: int = 1
    pad: int = 1
    bias: bool = True
    relu: bool = True

    def __post_init__(self) -> None:
        self.category = "Conv"

    def out_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        c, h, w = in_shapes[0]
        oh = F.conv_out_dim(h, self.kernel, self.stride, self.pad)
        ow = F.conv_out_dim(w, self.kernel, self.stride, self.pad)
        return (c, oh, ow)

    def weight_shapes(self, in_shapes: Sequence[Shape]) -> dict[str, Shape]:
        c = in_shapes[0][0]
        shapes: dict[str, Shape] = {"weight": (c, self.kernel, self.kernel)}
        if self.bias:
            shapes["bias"] = (c,)
        return shapes

    def forward(self, inputs, weights):
        out = F.depthwise_conv2d(
            inputs[0],
            weights["weight"],
            weights.get("bias"),
            stride=self.stride,
            pad=self.pad,
        )
        return F.relu(out) if self.relu else out

    def macs(self, in_shapes: Sequence[Shape]) -> int:
        c, oh, ow = self.out_shape(in_shapes)
        return c * oh * ow * self.kernel * self.kernel
