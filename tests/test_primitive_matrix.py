"""The cross-architecture primitive measurements (repro.primitives.matrix).

The matrix benchmark runs these at full size over every lab family;
here one family at small sizes pins the contracts the benchmark relies
on: each batch replica is its own seeded scalar sweep, and the write
measurement reports its inputs and rates.
"""

from __future__ import annotations

from repro.cpu.config import FIRESTORM_M1
from repro.primitives.matrix import (
    ReadPrimitiveResult,
    WritePrimitiveResult,
    measure_read_primitive,
    measure_read_primitive_batch,
    measure_write_primitive,
)

#: One training round leaves the predictor half-trained, so replicas
#: with different seeds score differently and a seed mix-up shows.
SMALL_READ = dict(paths=8, prelude_length=4, train_rounds=1, test_rounds=2)


def test_batch_replica_r_is_the_scalar_sweep_at_seed_plus_r():
    seed = 0x5EC4
    batch = measure_read_primitive_batch(FIRESTORM_M1, replicas=4,
                                         seed=seed, **SMALL_READ)
    scalar = [measure_read_primitive(FIRESTORM_M1, seed=seed + r,
                                     **SMALL_READ)
              for r in range(4)]
    assert batch == scalar
    assert len({result.accuracy for result in batch}) > 1
    assert all(isinstance(result, ReadPrimitiveResult)
               and result.model_id == "m1-phr"
               and result.blind_floor == 0.5 for result in batch)


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
