"""The cross-architecture primitive measurements (repro.primitives.matrix).

The matrix benchmark runs these at full size over every lab family;
here one family at small sizes pins the contract the benchmark relies
on: the write measurement reports its inputs and rates.
"""

from __future__ import annotations

from repro.cpu.config import FIRESTORM_M1
from repro.primitives.matrix import (
    WritePrimitiveResult,
    measure_write_primitive,
)


def test_write_primitive_plants_read_back_on_a_tagged_family():
    result = measure_write_primitive(FIRESTORM_M1, plants=4,
                                     probes_per_plant=8)
    assert isinstance(result, WritePrimitiveResult)
    assert (result.model_id, result.plants, result.probes_per_plant) == (
        "m1-phr", 4, 8)
    # Tagged history tables hold the plant at its own history only.
    assert result.planted_rate == 1.0
    assert result.specificity == 1.0
    assert result.as_row() == {"model": "m1-phr", "plants": 4,
                               "planted_rate": 1.0, "specificity": 1.0}
