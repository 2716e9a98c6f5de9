"""Pinned trace checksums: a guard that a change meant to keep every bit of
training keeps them.

Each digest is ``trace_checksum`` of the trace that ``gantrace train`` makes
from a shipped config at seed 0, computed before the losses moved onto the
discriminator's logits and unchanged by that move.  A BLAS product may round
differently under another NumPy or BLAS build, so where the versions differ
from the recorded ones the test skips and names both; the tape and
finite-difference tests check correctness there.  A BLAS built for several
CPUs picks its kernels at run time, so on another CPU the digests may fail
to match even under the recorded versions.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gantrace.config import load_config
from gantrace.experiments import seed_dataset
from gantrace.training import run_training, trace_checksum

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PINNED_NUMPY = "2.4.6"
PINNED_BLAS = "scipy-openblas 0.3.31.188.0"
CHECKSUMS = {
    "normal2d_desk.ini": "a77a4057a5c300d9e0ca940fa9e4f64aff31c4b90c5c175923b268d67278ed8d",
    "digits8_smoke.ini": "b87130e3a049cb26f4101dea2da80b53fce67eb4bb62d0419c7efb338e71aa98",
}


def blas_version() -> str:
    """The name and version of the BLAS NumPy was built against."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def skip_unless_pinned_build() -> None:
    """Skip the calling test, naming both builds, where NumPy or its BLAS is
    not the build the pinned values were recorded under."""
    if (np.__version__, blas_version()) != (PINNED_NUMPY, PINNED_BLAS):
        pytest.skip(f"pinned values recorded under NumPy {PINNED_NUMPY} with {PINNED_BLAS}; "
                    f"this is NumPy {np.__version__} with {blas_version()}")


@pytest.mark.parametrize("name", sorted(CHECKSUMS))
def test_trace_checksum_is_pinned(name):
    skip_unless_pinned_build()
    config = load_config(CONFIGS / name)
    data, _, fingerprint = seed_dataset(config, 0)
    trace = run_training(config.problem(), data, dataclasses.replace(config.training, seed=0),
                         fingerprint=fingerprint)
    assert trace_checksum(trace) == CHECKSUMS[name]
