"""The tanh MLP shared by the coupling translation net, the classifier and
the scoring head: a plain forward pass, its hand-written backward pass, and
the same forward pass written in autodiff operations.

A network is a list of ``(W, b)`` layers: every layer but the last is
``tanh(h @ W.T + b)`` and the last is linear.  :func:`tape_tanh_mlp` runs the
same operations in the same order as :func:`tanh_mlp`, so the tape's forward
values agree with the plain pass bit for bit; the tape is the reference the
hand-written backward pass is checked against.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def tanh_mlp(layers, x):
    """Forward pass over the last axis of ``x``.

    Returns the output and the input of every layer, which is what
    :func:`tanh_mlp_backward` needs.  ``x`` may carry extra leading axes.
    """
    inputs = []
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        h = h @ w.T
        h += b
        if i < last:
            np.tanh(h, out=h)
    return h, inputs


def tape_tanh_mlp(layers, x):
    """:func:`tanh_mlp`'s forward pass for a batch ``(N, n_in)`` in autodiff
    operations: plain arrays in give plain arrays out, tape nodes give a tape."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        x = ad.add(ad.matvec(w, x), b)
        if i < last:
            x = ad.tanh(x)
    return x


def tanh_mlp_backward(layers, inputs, g, grads):
    """Backward pass for a batch ``(N, n_in)`` given the output gradient ``g``.

    ``grads`` holds one ``(dW, db)`` pair of arrays per layer, shaped like the
    layer's parameters; the parameter gradients are written into them.
    Returns the gradient with respect to the network input.
    """
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        h = inputs[i]
        np.matmul(g.T, h, out=gw)
        gb[...] = g.sum(axis=0).reshape(gb.shape)
        g = g @ w
        if i:
            g *= 1.0 - h * h
    return g
