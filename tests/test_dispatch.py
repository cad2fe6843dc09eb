"""The bit-pinned tests, rerun in a process held to numpy's loops below AVX-512.

numpy picks its SIMD loops by CPU at import, and ``NPY_DISABLE_CPU_FEATURES``
holds a process below a level. A host with AVX-512 then also checks the
bits that a host without it computes; otherwise a dispatch dependence shows
only as a failing suite on such a host. The CSV writer's byte tests are
rerun through the same helper, ``helpers.assert_passes_below_avx512``, in
``test_config_cli.py``.
"""

import pytest

from helpers import assert_passes_below_avx512, only_passed


def test_golden_files_and_draws_are_the_same_without_avx512():
    assert_passes_below_avx512("tests/test_golden.py", "tests/test_homodyne.py",
                               "-k", "golden or ndtri or normal")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the OPO pins were recorded with "
                   "numpy's AVX-512 log10, which rounds some values differently")
def test_opo_pins_are_the_same_without_avx512():
    assert_passes_below_avx512("tests/test_opo.py", "-k", "pinned")


@pytest.mark.parametrize("summary, passed", (
    ("48 passed, 126 deselected in 3.16s", True),
    ("3 passed in 0.50s", True),
    ("47 passed, 1 skipped, 126 deselected in 3.16s", False),
    ("47 passed, 1 failed in 3.16s", False),
    ("47 passed, 1 xfailed in 3.16s", False),
    ("48 passed, 1 xpassed in 3.16s", False),
    ("48 passed, 1 error in 3.16s", False),
    ("174 deselected in 0.50s", False),
    ("no tests ran in 0.01s", False),
    ("", False),
))
def test_a_rerun_passes_only_if_every_selected_test_passes(summary, passed):
    assert only_passed(summary) is passed
