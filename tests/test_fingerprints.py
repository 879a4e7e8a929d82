"""The package's outputs keep the bits pinned in ``fingerprints.json``."""

import fingerprints


def test_outputs_equal_their_fingerprints():
    pinned = fingerprints.stored()
    assert fingerprints.chain() == pinned["chain"]
    assert fingerprints.continuum() == pinned["continuum"]
    assert fingerprints.form_quadrature() == pinned["form_quadrature"]
