"""The draw-by-draw `random_network`, kept verbatim as a reference.

It makes one generator call per bias, per weight draw and per skip coin.
`tests/test_netgraph.py` checks that the bulk-drawing
`expressivity_auditor.random_network` builds the same networks from the
same seeds and leaves a passed-in generator in the same state.
"""

import numpy as np

from expressivity_auditor.activations import builtin_activation
from expressivity_auditor.netgraph import MIN_ABS_WEIGHT, OUTPUT_ID, Edge, Network, Unit, require_valid


def random_network(
    n,
    depth,
    widths=None,
    max_width=None,
    skip_prob=0.0,
    weight_bound=1.0,
    activation="relu",
    seed=0,
) -> Network:
    """Deterministic random layered network.

    Adjacent layers are densely wired (so the requested depth is exact and
    every unit is live); every allowed non-neighbouring skip edge (input or
    hidden unit to a layer at least two levels deeper, or a non-final hidden
    unit straight to the output) is included independently with probability
    skip_prob. Weights are uniform on [-weight_bound, weight_bound], redrawn
    while |w| < 1e-3; biases use the same range without rejection.
    """
    if n < 1 or depth < 1:
        raise ValueError("need n >= 1 and depth >= 1")
    if (widths is None) == (max_width is None):
        raise ValueError("give exactly one of widths / max_width")
    if not 0.0 <= skip_prob <= 1.0:
        raise ValueError("skip_prob must be in [0, 1]")
    if not weight_bound > 0.0:
        raise ValueError("weight_bound must be positive")
    act = builtin_activation(activation) if isinstance(activation, str) else activation
    rng = np.random.default_rng(seed)
    if widths is None:
        widths = tuple(int(w) for w in rng.integers(1, max_width + 1, size=depth))
    else:
        widths = tuple(int(w) for w in widths)
        if len(widths) != depth or any(w < 1 for w in widths):
            raise ValueError("widths must list a positive size per layer")

    def draw_weight():
        while True:
            w = float(rng.uniform(-weight_bound, weight_bound))
            if abs(w) >= MIN_ABS_WEIGHT:
                return w

    layer_ids = [[f"u{i + 1}_{j + 1}" for j in range(widths[i])] for i in range(depth)]
    units = [
        Unit(uid, float(rng.uniform(-weight_bound, weight_bound)), act)
        for layer in layer_ids
        for uid in layer
    ]
    edges = []
    inputs = [f"x{i}" for i in range(1, n + 1)]
    for i in range(depth):
        prev = inputs if i == 0 else layer_ids[i - 1]
        for uid in layer_ids[i]:
            for src in prev:
                edges.append(Edge(src, uid, draw_weight()))
    for i in range(depth):  # skip edges from >= 2 levels above
        sources = (inputs if i >= 1 else []) + [uid for j in range(i - 1) for uid in layer_ids[j]]
        for uid in layer_ids[i]:
            for src in sources:
                if rng.random() < skip_prob:
                    edges.append(Edge(src, uid, draw_weight()))
    for uid in layer_ids[-1]:
        edges.append(Edge(uid, OUTPUT_ID, draw_weight()))
    for i in range(depth - 1):
        for uid in layer_ids[i]:
            if rng.random() < skip_prob:
                edges.append(Edge(uid, OUTPUT_ID, draw_weight()))
    net = Network(n, tuple(units), tuple(edges))
    require_valid(net)  # dense adjacent wiring keeps this vacuous
    return net
