"""Golden-output gate: recorded configurations must keep their output bytes.

Every subcommand promises byte-identical output across reruns.  This test
runs each recorded configuration through the CLI and compares the sha256
of its output file with the table below.  Floating-point results may
legitimately differ under another numpy build or CPU architecture, so the
table is pinned to the platform it was recorded on and the test skips
elsewhere.  A change that means to alter an output records its new hash
here, next to an output-change note in CHANGES.md.  Each entry also
records its exit code, so the failing path of `verify` is pinned too: the
`--self-test-corrupt` report exits 1 with the same bytes on every rerun.
"""

import hashlib
import platform

import numpy as np
import pytest

from subspec import sampling
from subspec.cli import main

RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64"}

# configuration -> (exit code, sha256 of the output file)
GOLDEN = {
    "oracle --ensemble rw-covariance --n 11 --k 5 --x 10 30":
        (0, "3195b9fce2f110bed41c3272d6dac2c8c6a1e3bc0ebf87c3a6e45c7269b78142"),
    "oracle --ensemble half-ones --n 8 --k 3 --x 0 0.5 1":
        (0, "481b80a92cbabd710dec7ff68efd7eed76ae34791bc349822c754f8c0e479dfd"),
    "oracle --ensemble random-gaussian --n 9 --k 4 --matrix-seed 3 --mode singular "
    "--x -1 0 1":
        (0, "85c2bde992dd53060825d365c117e67b71f81cffd237024b5446610bdf91599c"),
    "oracle --ensemble random-pm1 --n 10 --k 3 --format csv":
        (0, "ee3b956276d9be5ad536ce70b0768bad1af286e8544c7ea24a1e7400fed1dc2a"),
    "oracle --ensemble half-ones --n 12 --k 1":
        (0, "06b240f59891f2da45c11a81403d519ccab1ef28a287aa4d5c650fbb320fea54"),
    "verify --n 2":
        (0, "e389ff587fffd170c34151ad1ac5a0ac72089c060cf143a868ff646aeae9b0e1"),
    "verify --n 3 4 5":
        (0, "dafc2358b3637b0153e33e19434ded24110b1c7080c3ac2a0ac1c01c42de4e7b"),
    "verify --n 3 4 5 --self-test-corrupt":
        (1, "d6538e61ac69c277710030aba1af6edd79f3de9f882e6bd3ac0ab910322faf51"),
    "verify --n 7 8":
        (0, "9c147e267b8773ab03d17cd68adefc47d861dd40fb82369d3a4b946ee5fc8f94"),
    "estimate --ensemble rw-covariance --n 100 --k 20 --samples 25 --seed 3":
        (0, "fdb5c4b40371563d987b9d796dcc50dbd4f697078e80b5a3a7724862eec56974"),
    # order 32, solved by Householder + bisection
    "estimate --ensemble random-gaussian --n 64 --k 32 --samples 20 --seed 1":
        (0, "6ee80505c1f25584662d0e348280a0a8b40e6a7bde868cccfa8aa49341690d39"),
    "estimate --ensemble rw-covariance --n 40 --k 12 --samples 110 --seed 3":
        (0, "5e8e4628080430c3e1af2bd5725873daaea26475174c2c7445ba758161420993"),
    "estimate --ensemble half-ones --n 1024 --k 256 --samples 100 --seed 3":
        (0, "1a76caf7b4c7a77dcd2743ab2571b40f32c09cccfdc625db57f8106d92159a11"),
    "estimate --ensemble random-gaussian --n 10 --k 3 --samples 200 --seed 2":
        (0, "cdbdd1e95ca5fabdb4f5b6d6b1e10946993cd4de9edcc7c7c9dfd9513ad1d2c8"),
    "estimate --ensemble random-pm1 --n 9 --k 3 --samples 5000 --seed 4":
        (0, "57c5bd545d0dcd56e617bebf827dc028b17edb92c0061fd5986a48dee4dc88b4"),
    "estimate --ensemble half-ones --n 12 --k 4 --samples 300 --seed 5 --mode singular":
        (0, "ac99f173d6fb5d000a37a30b23a4ec858b495ae48d59789f744976b4da8e2f14"),
    "pair --ensemble rw-covariance --n 30 --k 8 --exclude-top 2 --pairs 20 --seed 6":
        (0, "91f9f0513a2329fc9a170223f2bf9f7a569aa47419dcfeb90c8dd46532814af9"),
    # tied spectra: 61 of the half-ones pairs have D = 0
    "pair --ensemble half-ones --n 40 --k 10 --exclude-top 0 --pairs 300 --seed 1":
        (0, "3d3ad2000ef30d62e4da13ccb3987fe87a0dacb2291e42a8b4f1a94f3733914b"),
    "pair --ensemble random-pm1 --n 30 --k 8 --exclude-top 1 --pairs 200 --seed 2":
        (0, "faf6a47846d58f7c65512f02765e9b60af87ce283b177b156cc3b3d411b01f40"),
    "pair --ensemble half-ones --n 12 --k 6 --mode singular --exclude-top 0 --pairs 50 "
    "--seed 3":
        (0, "80c7f7553176dda3cb35cb2712c81a9a595b47423050ab539747e3658d2f8092"),
}


def _platform_mismatch():
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != RECORDED_ON:
        return f"hashes recorded on {RECORDED_ON}, this is {here}"
    return None


@pytest.mark.skipif(_platform_mismatch() is not None, reason=str(_platform_mismatch()))
@pytest.mark.parametrize("config", list(GOLDEN))
def test_output_bytes_unchanged(tmp_path, config):
    out = tmp_path / "out"
    exit_code, digest = GOLDEN[config]
    assert main(config.split() + ["--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# entries solved in stacks of many blocks at the default stack budget: the
# two of order 20 and 32 by bisection, the others by Jacobi, all but `pair`
# (40 blocks of order 8) batch last; the singular `oracle` entry solves the
# 126 blocks of gram(M) in one stack
ONE_BLOCK_PER_STACK = [
    "estimate --ensemble rw-covariance --n 100 --k 20 --samples 25 --seed 3",
    "estimate --ensemble random-gaussian --n 64 --k 32 --samples 20 --seed 1",
    "oracle --ensemble rw-covariance --n 11 --k 5 --x 10 30",
    "oracle --ensemble random-gaussian --n 9 --k 4 --matrix-seed 3 --mode singular "
    "--x -1 0 1",
    "pair --ensemble rw-covariance --n 30 --k 8 --exclude-top 2 --pairs 20 --seed 6",
    "estimate --ensemble half-ones --n 12 --k 4 --samples 300 --seed 5 --mode singular",
]


@pytest.mark.skipif(_platform_mismatch() is not None, reason=str(_platform_mismatch()))
@pytest.mark.parametrize("config", ONE_BLOCK_PER_STACK)
def test_output_bytes_unchanged_one_block_per_stack(tmp_path, monkeypatch, config):
    # with a budget of one byte every stack holds one block, which Jacobi
    # takes row-major: neither the layout nor a stack's size may change a byte
    monkeypatch.setattr(sampling, "STACK_BYTES", 1)
    test_output_bytes_unchanged(tmp_path, config)
