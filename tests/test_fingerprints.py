"""The package's outputs keep the bits pinned in ``fingerprints.json``."""

import fingerprints


def test_outputs_equal_their_fingerprints():
    pinned = fingerprints.stored()
    assert fingerprints.chain() == pinned["chain"]
    assert fingerprints.continuum() == pinned["continuum"]
    assert fingerprints.form_quadrature() == pinned["form_quadrature"]


def test_check_names_each_fingerprint_that_moved():
    pinned = {"chain": {"chain-readme/0": {"exit": 0, "files": {"report.csv": "a", "report.json": "b"}}},
              "continuum": {"3": {"mean": "0x1p+0", "stderr": "0x1p-4"}}}
    now = {"chain": {"chain-readme/0": {"exit": 0, "files": {"report.csv": "a", "report.json": "c"}}},
           "continuum": {"3": {"mean": "0x1p+0"}}}
    assert fingerprints.moved(pinned, pinned) == []
    assert fingerprints.moved(pinned, now) == [("chain/chain-readme/0/files/report.json", "b", "c"),
                                               ("continuum/3/stderr", "0x1p-4", None)]
