"""A memo-free forward pass for checking `controller.net_compute`.

`matmul_net` runs the network through ``@`` and array-valued biases on every
call. The properties in `test_controller.py` require `net_compute` to equal it
bit for bit, and `run_oracle.reference_run` and the assessment reference in
`test_mapek.py` compute their power through it, so a whole run with the
memo is compared with one without.
"""
import math

import numpy as np

from safeadapt.controller import NET_INPUT_COUNT


def matmul_net(spec, inputs, max_power):
    """The forward pass through ``@`` and array-valued biases: the bit-exact oracle.

    Unflattens the weights as ``NetControllerSpec.layers`` does, as views of one
    float array, so that each matrix has the same layout in memory.
    """
    dims = (NET_INPUT_COUNT, *spec.layer_sizes, 1)
    flat = np.array(spec.weights, dtype=float)
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        matrix = flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((matrix, flat[pos:pos + fan_out]))
        pos += fan_out
    x = np.asarray(inputs, dtype=float)
    for matrix, bias in layers[:-1]:
        x = np.tanh(x @ matrix + bias)
    matrix, bias = layers[-1]
    z = float((x @ matrix + bias)[0])
    level = 0.5 * (1.0 + math.tanh(0.5 * z))
    return level * max_power
