"""Golden digests of every circuit-backed multiplier's look-up table.

The circuit models are gate-level simulations; their LUTs feed every M6 /
M8 / M9 victim and the defensive-approximation baseline.  These SHA-256
digests of ``lut().tobytes()`` pin the tables byte for byte, so a change to
how the gates are simulated (dtype, gate expressions, lane layout) cannot
move a single product unnoticed.
"""

import hashlib

import numpy as np
import pytest

from repro.multipliers import evoapprox
from repro.multipliers.base import CircuitMultiplier, clear_global_lut_cache

GOLDEN_LUT_SHA256 = {
    "mul8u_FTA": "a9897f3ba7607f77037707173a271938505870cce114fd5c4e52db7e1e16b280",
    "mul8u_L40": "a1a1632f701c52a74903e64a6b090f55ab68ef203884e1722ea0c998546bc142",
    "mul8u_JV3": "1ad1800e1d91289be21257f81d455232d5161bfa196eecd07d9b5e775b3fabaa",
    "guesmi_ama1_l8": "e7de30881be5639ce95825928134dd72dd54217adcd6f4eedc47fc47ed127a26",
    "guesmi_ama2_l6": "1351b77cfbfe3a4c8460712ff3084469249e3ff602c0964f8870d5e26fb91b53",
    "guesmi_ama3_l8": "2717f905a3f4fd2fe9f97eae4c96283dfcae5a4b8609db629a418d1d207ba858",
}


def test_golden_set_covers_every_circuit_multiplier():
    circuit_backed = {
        name
        for name in evoapprox.available_names()
        if isinstance(evoapprox.build(name), CircuitMultiplier)
    }
    assert circuit_backed == set(GOLDEN_LUT_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_LUT_SHA256))
def test_circuit_lut_matches_golden_digest(name):
    clear_global_lut_cache()  # force a true simulation, not a cached table
    table = evoapprox.build(name).lut()
    assert table.dtype == np.int32 and table.shape == (256, 256)
    assert hashlib.sha256(table.tobytes()).hexdigest() == GOLDEN_LUT_SHA256[name]
