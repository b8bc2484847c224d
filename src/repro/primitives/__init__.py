"""The Pathfinder attack primitives (paper Sections 4 and 5).

The paper's central contribution is a set of primitives that make the
conditional branch predictor read/writable "as easy as memory":

* :class:`PhrMacros` -- ``Shift_PHR`` / ``Clear_PHR`` / ``Write_PHR``
  (Section 4, fundamental techniques and Attack Primitive "Write PHR"),
* :class:`PhrReader` -- ``Read_PHR`` (Attack Primitive 1, Figure 4),
* :class:`PhtWriter` -- ``Write_PHT`` (Attack Primitive 2),
* :class:`PhtReader` -- ``Read_PHT`` (Attack Primitive 3),
* :class:`ExtendedPhrReader` -- ``Extended_Read_PHR`` (Attack Primitive 4,
  Figure 5).
"""

from repro.primitives.errors import (
    AmbiguousDoubletError,
    DoubletCountError,
    HistoryLengthError,
    PrimitiveProtocolError,
)
from repro.primitives.macros import PhrMacros
from repro.primitives.victim import VictimHandle
from repro.primitives.read_phr import PhrReadResult, PhrReader
from repro.primitives.write_pht import PhtWriter
from repro.primitives.read_pht import PhtReader
from repro.primitives.extended_read import ExtendedPhrReader, TakenBranch

__all__ = [
    "AmbiguousDoubletError",
    "DoubletCountError",
    "ExtendedPhrReader",
    "HistoryLengthError",
    "PrimitiveProtocolError",
    "PhrMacros",
    "PhrReadResult",
    "PhrReader",
    "PhtReader",
    "PhtWriter",
    "TakenBranch",
    "VictimHandle",
]
