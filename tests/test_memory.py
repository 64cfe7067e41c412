"""Allocation budgets of the training kernels, counted with tracemalloc.

numpy reports every array buffer it allocates to tracemalloc, in its own
domain, so the counts below are exact and the same on every run. A forward
pass allocates one array per layer (relu is applied in place), and a client
update holds one layer's gradient at a time (each layer is stepped inside
the backward), so its peak stays under its clone, its largest layer
gradient and a few copies of one batch's activations.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np

from fedre import config, nets, protocol, runner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402

NUMPY = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)


def numpy_blocks():
    """(count, bytes) of the numpy buffers allocated since tracing began
    and still alive."""
    traces = tracemalloc.take_snapshot().filter_traces([NUMPY]).traces
    return len(traces), sum(t.size for t in traces)


def test_forward_allocates_one_array_per_layer():
    rng = np.random.default_rng(0)
    sizes = [32, 128, 256, 64, 16]
    net = nets.init_dense(sizes, [nets.RELU] * (len(sizes) - 1), rng)
    X = rng.standard_normal((64, sizes[0]))
    tracemalloc.start()
    try:
        before = numpy_blocks()
        out, cache = nets._forward(net, X)  # held: the cache's arrays count
        after = numpy_blocks()
    finally:
        tracemalloc.stop()
    assert after[0] - before[0] == len(net.layers)
    assert after[1] - before[1] == out.itemsize * len(X) * sum(sizes[1:])


def nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


def test_widest_wide_client_update_holds_one_layer_gradient_at_a_time():
    cfg = config.parse_config(workloads.wide_all_rep_mapping())
    cfg.seeds = cfg.seeds[:1]
    [(_, world)] = runner.build_worlds(cfg)
    clients = runner.init_clients(cfg, world)
    client = max(clients, key=lambda c: sum(l.weight.size for l in c.extractor.layers))
    layers = [l for net in (client.extractor, client.rm.net, client.classifier) for l in net.layers]
    clone = nbytes(*(a for l in layers for a in (l.weight, l.bias)))
    largest_gradient = max(nbytes(l.weight, l.bias) for l in layers)
    widths = [client.extractor.input_dim] + [l.fan_out for l in layers]
    activations = client.batch_size * sum(widths) * np.dtype(float).itemsize
    # the forward's arrays, the gradients the backward sends through them,
    # and the epoch's gathered rows with the relu masks
    budget = clone + largest_gradient + 3 * activations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        protocol.client_local_update(client, world.server.classifier)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < budget
