"""The traced end-to-end benchmark can install every layer it wraps.

``perfbench/layers.py`` wraps kernels, packing helpers and engine
methods by name in the namespace the engine resolves them from
(``getattr(repro.engines.bit, name)``).  Dropping one of those names
would crash ``perfbench/run.py --trace 1``; this test makes it fail the
unit suite instead.  It also checks that each BFS level is exactly one
traced engine round.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np

from perfbench.layers import install_layers
from perfbench.trace import Tracer
from perfbench.workloads import install_probes


def test_install_layers_and_probes_then_restore():
    import repro.engines.bit as bit
    from repro.engines.bit import BitEngine

    names = (
        "bmv_bin_bin_bin_masked",
        "bmv_bin_bin_bin_multi_masked",
        "pack_bitmatrix",
        "pack_bitvector",
        "unpack_bitmatrix",
        "unpack_bitvector",
    )
    before = {name: getattr(bit, name) for name in names}
    expand = BitEngine.frontier_expand_multi
    tr = Tracer()
    try:
        install_layers(tr)
        install_probes(tr)
        for name in names:
            assert getattr(bit, name) is not before[name]
        assert BitEngine.frontier_expand_multi is not expand
    finally:
        tr.close()
    for name in names:
        assert getattr(bit, name) is before[name]
    assert BitEngine.frontier_expand_multi is expand


def test_one_traced_round_per_level():
    """``bfs`` and ``multi_source_bfs`` each count one ``engines.bit``
    round per level: the single-source expand shares the batched one's
    level code without going through the wrapped public method."""
    import repro.algorithms as algorithms
    from repro.datasets.generators import hybrid_pattern
    from repro.engines.bit import BitEngine

    engine = BitEngine(hybrid_pattern(300, seed=5), tile_dim=32)
    runs = (
        lambda: algorithms.bfs(engine, 0),
        lambda: algorithms.multi_source_bfs(engine, np.arange(0, 80, 5)),
    )
    tr = Tracer()
    try:
        install_layers(tr)
        for run in runs:
            before = tr.counts["rounds"]
            _, rep = run()
            assert rep.extra["levels"] == rep.iterations > 1
            assert tr.counts["rounds"] - before == rep.iterations
    finally:
        tr.close()
