"""The tanh MLP shared by the coupling translation net, the classifier and
the scoring head: a plain forward pass and its hand-written backward pass.

A network is a list of ``(W, b)`` layers: every layer but the last is
``tanh(h @ W.T + b)`` and the last is linear.  The test suite's autodiff
tape (``tests/tape.py``) runs the same operations in the same order, so its
forward values agree with the plain pass bit for bit; it is the reference
the hand-written backward pass is checked against.

A training loop calls the pair once per step, on batches of at most a
fixed number of rows.  It allocates the step's arrays once, with
:func:`step_buffers`, and passes them as ``out``: each layer's output is
written into its own array, and the gradients with respect to the layers'
inputs into one pair of arrays that successive layers use in turn.  A
layer's input is not read again once its weight gradient has been taken, so
the buffered backward pass writes the input's tanh slope over it.  A
buffered pass gives the same bits as a plain one.  Fresh arrays cost page
faults: the classifier's 256x64 activations are exactly glibc's default
128 KiB mmap threshold.
"""

from __future__ import annotations

import numpy as np


def step_buffers(layers, rows, backward=None):
    """One training step's arrays for ``layers`` on batches of at most
    ``rows`` rows: ``(outputs, pair)``, where ``outputs`` holds each layer's
    output array and ``pair`` two flat arrays, each large enough for the
    gradient with respect to the widest layer input.

    ``backward``, the step buffers of a network of the same shapes, lends
    its pair instead of a new one: right when the two networks' backward
    passes never overlap, since the pair holds the gradient a backward pass
    returns until its caller has used it.
    """
    outputs = [np.empty((rows, w.shape[0])) for w, _ in layers]
    if backward is not None:
        return outputs, backward[1]
    size = rows * max(w.shape[1] for w, _ in layers)
    return outputs, (np.empty(size), np.empty(size))


def tanh_mlp(layers, x, out=None):
    """Forward pass over the last axis of ``x``.

    Returns the output and the input of every layer, which is what
    :func:`tanh_mlp_backward` needs.  ``x`` may carry extra leading axes,
    except with ``out``, the :func:`step_buffers` of a 2-d batch.
    """
    inputs = []
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        h = np.matmul(h, w.T, out=None if out is None else out[0][i][:len(h)])
        h += b
        if i < last:
            np.tanh(h, out=h)
    return h, inputs


def tanh_mlp_backward(layers, inputs, g, grads, out=None):
    """Backward pass for a batch ``(N, n_in)`` given the output gradient ``g``.

    ``grads`` holds one ``(dW, db)`` pair of arrays per layer, shaped like the
    layer's parameters; the parameter gradients are written into them.
    Returns the gradient with respect to the network input.  With ``out``,
    the step's :func:`step_buffers`, that gradient is an array of its pair,
    and each input but the first is overwritten by its tanh slope.
    """
    rows = len(g)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        h = inputs[i]
        np.matmul(g.T, h, out=gw)
        gb[...] = g.sum(axis=0).reshape(gb.shape)
        # layer i's input gradient goes to the pair array layer i + 1's did not use
        g = np.matmul(g, w, out=None if out is None else
                      out[1][i % 2][:rows * w.shape[1]].reshape(rows, w.shape[1]))
        if i:
            slope = np.multiply(h, h, out=None if out is None else h)
            np.subtract(1.0, slope, out=slope)
            g *= slope
    return g
