"""Smoke test of the demo scripts: each runs in a fresh interpreter and
prints exactly the recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(swlab.__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "d0_blocks_tour.py": "0e4442da5a57e261a70d6c35e2c527fe495724c0382f9c1e6cf8fdda6f0a1203",
    "extension_graph_tour.py": "935b31e1135ac76694983be8c2430d1b10fe288ba9cbb675d0f00e83597d66ce",
    "predicted_weights_tour.py": "77a880a45b327116b3b6dada2f6a01a02569b1ad946fb10f55512fdf2240c6bb",
    "projective_envelope_tour.py": "b2831e1dafc14c8f3a36587322559086b0205a196bd47e9985e18f6e48892160",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, env=env, check=True
    )
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
