"""Tests for the TAGE-style conditional branch predictor."""

from repro.cpu.cbp import ConditionalBranchPredictor
from repro.cpu.phr import PathHistoryRegister


def make_cbp() -> ConditionalBranchPredictor:
    return ConditionalBranchPredictor(history_lengths=(34, 66, 194))


def phr_of(value: int) -> PathHistoryRegister:
    return PathHistoryRegister(194, value)


class TestPrediction:
    def test_cold_prediction_comes_from_base(self):
        cbp = make_cbp()
        prediction = cbp.predict(0x40, phr_of(0))
        assert prediction.provider == 0
        assert prediction.entry is None
        assert not prediction.taken  # weak not-taken default

    def test_base_trains_without_history(self):
        cbp = make_cbp()
        for _ in range(3):
            cbp.update(0x40, phr_of(0), True)
        assert cbp.predict(0x40, phr_of(0)).taken

    def test_allocation_on_mispredict(self):
        cbp = make_cbp()
        prediction = cbp.predict(0x40, phr_of(5))
        cbp.update(0x40, phr_of(5), True, prediction)  # base said NT
        assert cbp.tables[0].lookup(0x40, phr_of(5)) is not None

    def test_no_allocation_on_correct_prediction(self):
        cbp = make_cbp()
        prediction = cbp.predict(0x40, phr_of(5))
        cbp.update(0x40, phr_of(5), False, prediction)  # base said NT, right
        assert cbp.tables[0].lookup(0x40, phr_of(5)) is None

    def test_longest_matching_table_provides(self):
        cbp = make_cbp()
        phr = phr_of(7)
        cbp.tables[0].allocate(0x40, phr, taken=False)
        cbp.tables[2].allocate(0x40, phr, taken=True)
        prediction = cbp.predict(0x40, phr)
        assert prediction.provider == 3
        assert prediction.taken

    def test_update_recomputes_prediction_if_missing(self):
        cbp = make_cbp()
        cbp.update(0x40, phr_of(1), True)  # no prediction passed
        assert cbp.tables[0].lookup(0x40, phr_of(1)) is not None


class TestHistoryCorrelation:
    """The predictor must learn patterns only global history separates --
    the mechanism behind the Figure 4 read protocol."""

    def test_disambiguates_by_top_doublet(self):
        cbp = make_cbp()
        context_a = phr_of(0b01 << (2 * 193))
        context_b = phr_of(0b11 << (2 * 193))
        pc = 0x1234
        # Alternate: context A always taken, context B always not-taken.
        for _ in range(12):
            cbp.observe(pc, context_a, True)
            cbp.observe(pc, context_b, False)
        assert cbp.predict(pc, context_a).taken
        assert not cbp.predict(pc, context_b).taken

    def test_converges_to_zero_mispredicts(self):
        cbp = make_cbp()
        context_a = phr_of(0b10 << (2 * 193))
        context_b = phr_of(0)
        pc = 0x40AC00
        for _ in range(16):
            cbp.observe(pc, context_a, True)
            cbp.observe(pc, context_b, False)
        missed = 0
        for _ in range(8):
            missed += cbp.observe(pc, context_a, True)
            missed += cbp.observe(pc, context_b, False)
        assert missed == 0

    def test_identical_history_cannot_converge(self):
        """50% misprediction when the contexts collide (X == P_i)."""
        cbp = make_cbp()
        context = phr_of(0b01 << (2 * 193))
        pc = 0x40AC00
        outcomes = [True, False] * 16
        missed = sum(cbp.observe(pc, context, outcome)
                     for outcome in outcomes[16:])
        assert missed >= 8  # keeps mispredicting about half the time


class TestObserve:
    def test_returns_mispredict_flag(self):
        cbp = make_cbp()
        assert cbp.observe(0x40, phr_of(0), True) is True  # cold NT vs T
        for _ in range(4):
            cbp.observe(0x40, phr_of(0), True)
        assert cbp.observe(0x40, phr_of(0), True) is False


class TestMaintenance:
    def test_flush(self):
        cbp = make_cbp()
        for value in range(8):
            cbp.observe(0x40, phr_of(value), True)
        assert cbp.populated_entries() > 0
        cbp.flush()
        assert cbp.populated_entries() == 0

    def test_non_monotonic_lengths_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ConditionalBranchPredictor(history_lengths=(66, 34))


class TestPredictionKeys:
    """The predict-time (index, tag) keys stashed in the Prediction and
    reused by update/allocate -- each branch hashes once per commit."""

    def test_keys_cover_every_table(self):
        cbp = make_cbp()
        phr = phr_of(0x1111)
        prediction = cbp.predict(0x40, phr)
        assert len(prediction.keys) == len(cbp.tables)
        for table, (index, tag) in zip(cbp.tables, prediction.keys):
            assert index == table.index(0x40, phr)
            # Cold tables: probes miss on emptiness, no tag computed.
            assert tag is None

    def test_keys_match_table_hashes_when_occupied(self):
        cbp = make_cbp()
        phr = phr_of(0x2222)
        cbp.tables[0].allocate(0x40, phr, True)
        prediction = cbp.predict(0x40, phr)
        index, tag = prediction.keys[0]
        assert index == cbp.tables[0].index(0x40, phr)
        assert tag == cbp.tables[0].tag(0x40, phr)

    def test_fresh_prediction_is_version_stamped(self):
        phr = phr_of(0x3333)
        prediction = make_cbp().predict(0x40, phr)
        assert prediction.phr is phr
        assert prediction.phr_value == phr.value

    def test_stale_prediction_recomputed_on_update(self):
        """If the PHR mutated between predict and update, the stashed
        keys no longer describe the current history: update must rehash
        against the new PHR, so a mispredict allocates at the new
        coordinates, not the stale ones."""
        cbp = make_cbp()
        phr = phr_of(0x1111)
        prediction = cbp.predict(0x40, phr)
        phr.set_value(0xFFFF_0000_0000)
        cbp.update(0x40, phr, taken=True, prediction=prediction)
        table = cbp.tables[0]
        assert table.lookup(0x40, phr) is not None
        stale = phr_of(0x1111)
        if (table.index(0x40, stale), table.tag(0x40, stale)) != \
                (table.index(0x40, phr), table.tag(0x40, phr)):
            assert table.lookup(0x40, stale) is None

    def test_update_without_prediction_still_allocates(self):
        cbp = make_cbp()
        phr = phr_of(0x4444)
        cbp.update(0x40, phr, taken=True)
        assert cbp.tables[0].lookup(0x40, phr) is not None
