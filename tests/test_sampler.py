"""The in-repo scrambled Halton sampler behind `DomainBox.sample` and `joint_sample`.

Every sampled certificate (gradient fidelity, realizability, Poincaré,
monotonicity) reads this stream, so it is pinned bit for bit: against
scipy's `qmc.Halton(scramble=True)` where scipy is installed, against rows
recorded with `repr()` from the scipy-backed sampler, and against
`reference_halton`, the digit-by-digit sum the prefix tables replaced.
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decadapt.model import DomainBox, _first_primes, _scrambled_halton, joint_sample

SRC = Path(__file__).resolve().parent.parent / "src"

SEEDS = (0, 1, 7, 12345)
DIMS = (1, 2, 3, 6, 9)
# b**k and b**k +- 1 for the first bases, plus the benchmark's 10**5 draw.
COUNTS = (1, 2, 3, 4, 5, 8, 9, 10, 17, 24, 25, 26, 27, 28, 1000, 1023, 1024, 1025, 100_000)

# Rows 0, 1, 2 and 1024 of a 1025-point draw on the 9-dimensional unit box,
# recorded with `repr()` from `DomainBox.sample` when it called scipy.  A
# d-dimensional draw uses the first d bases and the first part of the same
# permutation stream, so its rows are the first d columns of these.
PINNED_ROWS = (0, 1, 2, 1024)
PINNED = {
    0: (
        (0.0991217798843752, 0.05391376185363979, 0.30077622909743845, 0.7557337970515801,
         0.4658102659117047, 0.6415954465447364, 0.1799973347679687, 0.10876779466521673,
         0.6648807917112258),
        (0.5991217798843752, 0.7205804285203065, 0.7007762290974384, 0.4700195113372944,
         0.3749011750026138, 0.256980061929352, 0.2976443935914981, 0.16139937361258516,
         0.5779242699720953),
        (0.3491217798843752, 0.38724709518697303, 0.1007762290974384, 0.04144808276586588,
         0.5567193568207954, 0.9492877542370441, 0.06235027594443931, 0.21403095255995358,
         0.3170547047547039),
        (0.0986334986343752, 0.9944716036460494, 0.9833362290974385, 0.13682500904658224,
         0.4357576738756416, 0.5628517050791015, 0.5903372492804866, 0.41172740976945926,
         0.16475750741764458),
    ),
    1: (
        (0.15399122029251433, 0.6736793145320517, 0.17632857713370528, 0.5981158881920572,
         0.736847254449155, 0.6843662086067429, 0.05382262182810851, 0.4407297328113852,
         0.14512408411617805),
        (0.6539912202925143, 0.34034598119871784, 0.5763285771337054, 0.31240160247777155,
         0.46411998172188224, 0.06898159322212778, 0.11264615123987318, 0.6512560486008588,
         0.27555886672487373),
        (0.40399122029251433, 0.007012647865384606, 0.7763285771337055, 0.8838301739063429,
         0.5550290726309731, 0.7612892855298198, 0.347940268886932, 0.3354665749166484,
         0.5364284319422649),
        (0.15350293904251433, 0.5374195980254215, 0.9424085771337054, 0.9787906070591958,
         0.5167120177849928, 0.6060776332767476, 0.9105293183475468, 0.7710985912455591,
         0.7885037175508782),
    ),
}


def unit_box(dim):
    return DomainBox((0.0,) * dim, (1.0,) * dim)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMatchesScipy:
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise(self, seed, dim, count):
        qmc = pytest.importorskip("scipy.stats").qmc
        want = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
        assert same_bits(_scrambled_halton(dim, count, seed), want)


def reference_halton(dim, count, seed):
    """The digit-by-digit sampler the prefix tables replaced, kept as the reference."""
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    columns = []
    for base in _first_primes(dim):
        perms = rng.permuted(
            np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0), axis=1
        )
        acc = np.zeros(count)
        quotient = index
        span = 1
        b2r = 1.0 / base
        for perm in perms.tolist():
            if span < count:
                quotient, digit = np.divmod(quotient, base)
                acc += np.multiply(perm, b2r)[digit]
                span *= base
            else:
                acc += perm[0] * b2r
            b2r /= base
        columns.append(acc)
    return np.array(columns).T.reshape(count, dim)


class TestMatchesReference:
    """The prefix-table sums equal the digit-by-digit sums bit for bit, without scipy."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           base=st.sampled_from(_first_primes(9)), offset=st.sampled_from([-1, 0, 1]))
    def test_bitwise(self, data, dim, seed, base, offset):
        # counts b**k - 1, b**k and b**k + 1 around every table level up to about 2**14
        count = base ** data.draw(st.integers(0, int(14 / math.log2(base)))) + offset
        assert same_bits(_scrambled_halton(dim, count, seed), reference_halton(dim, count, seed))

    @pytest.mark.parametrize("dim", [1, 5, 9])
    def test_benchmark_draw(self, dim):
        assert same_bits(_scrambled_halton(dim, 100_000, 12345),
                         reference_halton(dim, 100_000, 12345))


class TestPinnedRows:
    @pytest.mark.parametrize("dim", range(1, 10))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows(self, seed, dim):
        pts = unit_box(dim).sample(1025, seed=seed)
        for row, want in zip(PINNED_ROWS, PINNED[seed]):
            assert tuple(float(v) for v in pts[row]) == want[:dim]

    def test_joint_sample_splits_one_stream(self):
        boxes = [unit_box(2), unit_box(1), unit_box(1), unit_box(1)]
        parts = joint_sample(boxes, 1025, seed=0)
        assert [p.shape for p in parts] == [(1025, 2), (1025, 1), (1025, 1), (1025, 1)]
        joined = np.hstack(parts)
        for row, want in zip(PINNED_ROWS, PINNED[0]):
            assert tuple(float(v) for v in joined[row]) == want[:5]


class TestSupersetProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=9),
        count=st.integers(min_value=1, max_value=300),
        extra=st.integers(min_value=0, max_value=800),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_prefix_of_larger_draw(self, dim, count, extra, seed):
        small = unit_box(dim).sample(count, seed=seed)
        large = unit_box(dim).sample(count + extra, seed=seed)
        assert same_bits(large[:count], small)


@functools.cache
def packages_loaded_by_import() -> frozenset:
    """Top-level packages a fresh interpreter holds after `import decadapt`."""
    code = "import sys, decadapt; print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return frozenset(proc.stdout.split())


def test_import_leaves_scipy_unloaded():
    assert "scipy" not in packages_loaded_by_import()


@pytest.mark.parametrize("package", ["concurrent", "multiprocessing"])
def test_import_leaves_process_pool_unloaded(package):
    # the sweep's pool belongs to the CLI; importing the library must not pay for it
    assert package not in packages_loaded_by_import()
