"""The tanh MLP shared by the coupling translation net, the classifier and
the scoring head: a plain forward pass and its hand-written backward pass.

A network is a list of ``(W, b)`` layers: every layer but the last is
``tanh(h @ W.T + b)`` and the last is linear.  The test suite's autodiff
tape (``tests/tape.py``) runs the same operations in the same order, so its
forward values agree with the plain pass bit for bit; it is the reference
the hand-written backward pass is checked against.

A training loop calls the pair once per step, on batches of at most a
fixed number of rows.  It allocates the step's arrays once, with :func:`step_buffers`, and
passes them as ``out``: each layer's output, the gradient with respect to
its input and its input's tanh slope are then written into leading-row
slices of them instead of into new arrays.  A buffered pass gives the same
bits as a plain one.  Inference calls the pair without ``out``.  Fresh
arrays cost page faults: the classifier's 256x64 activations are exactly
glibc's default 128 KiB mmap threshold.
"""

from __future__ import annotations

import numpy as np


def step_buffers(layers, rows, backward=None):
    """One training step's arrays for ``layers`` on batches of at most
    ``rows`` rows: per layer, its output, the gradient with respect to its
    input, and (past the first layer) its input's tanh slope.

    ``backward``, the step buffers of a network of the same shapes, lends
    its gradient and slope arrays instead of new ones: right when the two
    networks' backward passes never overlap, since each output array holds
    an activation that the network's backward pass still reads.
    """
    if backward is not None:
        return [(np.empty((rows, w.shape[0])), g, slope)
                for (w, _), (_, g, slope) in zip(layers, backward, strict=True)]
    return [(np.empty((rows, w.shape[0])), np.empty((rows, w.shape[1])),
             np.empty((rows, w.shape[1])) if i else None)
            for i, (w, _) in enumerate(layers)]


def _slot(out, layer, kind, rows):
    """The leading ``rows`` rows of a layer's output (``kind`` 0), input
    gradient (1) or tanh slope (2) array in ``out``, the
    :func:`step_buffers`; None without buffers, so numpy allocates one."""
    return None if out is None else out[layer][kind][:rows]


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
        h = np.matmul(h, w.T, out=_slot(out, i, 0, len(h)))
        h += b
        if i < last:
            np.tanh(h, out=h)
    return h, inputs


def tanh_mlp_backward(layers, inputs, g, grads, out=None):
    """Backward pass for a batch ``(N, n_in)`` given the output gradient ``g``.

    ``grads`` holds one ``(dW, db)`` pair of arrays per layer, shaped like the
    layer's parameters; the parameter gradients are written into them.
    Returns the gradient with respect to the network input, which is an
    array of ``out`` (the step's :func:`step_buffers`) when given.
    """
    rows = len(g)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        h = inputs[i]
        np.matmul(g.T, h, out=gw)
        gb[...] = g.sum(axis=0).reshape(gb.shape)
        g = np.matmul(g, w, out=_slot(out, i, 1, rows))
        if i:
            slope = np.multiply(h, h, out=_slot(out, i, 2, rows))
            np.subtract(1.0, slope, out=slope)
            g *= slope
    return g
