"""The traced end-to-end benchmark can install every layer it wraps.

``perfbench/layers.py`` wraps kernels, packing helpers and engine
methods by name in the namespace the engine resolves them from
(``getattr(repro.engines.bit, name)``).  Dropping one of those names
would crash ``perfbench/run.py --trace 1``; this test makes it fail the
unit suite instead.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

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
        "unpack_bitmatrix",
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
