"""Every demo script runs to the end from a checkout, and prints its pinned output."""

import hashlib

import pytest

import fingerprints


@pytest.mark.parametrize("demo", fingerprints.DEMO_NAMES)
def test_demo_exits_zero(tmp_path, demo):
    proc = fingerprints.demo_stdout(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == fingerprints.stored()["demos"][demo]
