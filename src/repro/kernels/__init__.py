"""Linear-algebra kernels.

* :mod:`repro.kernels.bmv` — the paper's six Binarized Matrix-Vector
  schemes (Table II);
* :mod:`repro.kernels.bmm` — the two Binarized Matrix-Matrix schemes
  (Table III);
* :mod:`repro.kernels.csr_spmv` / :mod:`repro.kernels.csr_spgemm` — the
  cuSPARSE-equivalent CSR baselines;
* :mod:`repro.kernels.costmodel` — analytic :class:`KernelStats` for each
  kernel under a device model (drives the Figures 6/7 and Tables VII–IX
  reproductions);
* :mod:`repro.kernels.simt` — the paper's Listings 1–2 ported to the SIMT
  simulator for validation;
* :mod:`repro.kernels.plan` — memoized sweep plans (launch-invariant
  chunk tables, gather indices, masked-gather indices) every BMV/BMM launch
  executes against, plus the exact active-tile skip helpers;
* :mod:`repro.kernels.planless` — the seed per-launch kernels, kept as
  the bitwise reference and cold-path baseline.
"""

from repro.kernels.plan import (
    DEFAULT_BITS_BUDGET_BYTES,
    SweepChunk,
    SweepPlan,
)

from repro.kernels.bmv import (
    bmv_bin_bin_bin,
    bmv_bin_bin_bin_masked,
    bmv_bin_bin_bin_multi,
    bmv_bin_bin_bin_multi_masked,
    bmv_bin_bin_full,
    bmv_bin_bin_full_masked,
    bmv_bin_bin_full_multi,
    bmv_bin_full_full,
    bmv_bin_full_full_masked,
    bmv_bin_full_full_multi,
)
from repro.kernels.bmm import bmm_bin_bin_sum, bmm_bin_bin_sum_masked
from repro.kernels.csr_spmv import (
    csr_spmv,
    csr_spmv_masked,
    csr_spmv_semiring,
    csr_spmspv,
)
from repro.kernels.csr_spgemm import csr_spgemm, spgemm_flops, csr_spgemm_mask_sum

__all__ = [
    "bmv_bin_bin_bin",
    "bmv_bin_bin_full",
    "bmv_bin_full_full",
    "bmv_bin_bin_bin_masked",
    "bmv_bin_bin_full_masked",
    "bmv_bin_full_full_masked",
    "bmv_bin_bin_bin_multi",
    "bmv_bin_bin_bin_multi_masked",
    "bmv_bin_bin_full_multi",
    "bmv_bin_full_full_multi",
    "bmm_bin_bin_sum",
    "bmm_bin_bin_sum_masked",
    "csr_spmv",
    "csr_spmv_masked",
    "csr_spmv_semiring",
    "csr_spmspv",
    "csr_spgemm",
    "csr_spgemm_mask_sum",
    "spgemm_flops",
    "DEFAULT_BITS_BUDGET_BYTES",
    "SweepChunk",
    "SweepPlan",
]
