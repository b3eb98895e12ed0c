"""The `Record` contract, checked against what frozen dataclasses do."""
import dataclasses
import functools

import numpy as np
import pytest

from schreg import martin, periodic, potentials as P, propagation as PR, regularity
from schreg.record import Record

BUMP = P.PiecewiseConstant((1.0,), (2.0, 0.0))

# (a record, an equal one built another way, an unequal one)
VALUE_RECORDS = {
    "constant": (P.Constant(1), P.Constant(value=1.0), P.Constant(2)),
    "piecewise": (BUMP, P.PiecewiseConstant([1], [2, 0]), P.PiecewiseConstant((1.0,), (2.0, 1.0))),
    "tabulated": (P.Tabulated((0, 1), (1, 2)), P.Tabulated(grid=[0.0, 1.0], values=[1, 2]),
                  P.Tabulated((0, 2), (1, 2))),
    "decaying": (P.Decaying(1, 2), P.Decaying(rate=2.0, amplitude=1.0), P.Decaying(1, 3)),
    "periodic_square": (P.PeriodicSquare(0.5), P.PeriodicSquare(delta=0.5), P.PeriodicSquare(1)),
    "oscillating": (P.OscillatingExample(), P.OscillatingExample(), P.Constant(0)),
    "sparse_bumps": (P.SparseBumps(BUMP, (0, 4)), P.SparseBumps(BUMP, [0.0, 4.0], sparse_from=0),
                     P.SparseBumps(BUMP, (0, 5))),
    "random": (P.Random(3, 0.5, -1, 1), P.Random(seed=3, cell_width=0.5, low=-1.0, high=1),
               P.Random(4, 0.5, -1, 1)),
    "gap_set": (martin.GapSet(0.0), martin.GapSet(b0=0, gaps=()), martin.GapSet(0, ((1, 2),))),
    "critical_points": (martin.CriticalPoints((1.5,), (0.0,)),
                        martin.CriticalPoints(c=(1.5,), residuals=(0.0,)),
                        martin.CriticalPoints((1.5,), (1e-12,))),
    "martin_evaluation": (martin.MartinEvaluation(-1 + 0j, 1.0, 0.0),
                          martin.MartinEvaluation(z=-1, value=1, theta_real=0),
                          martin.MartinEvaluation(-1 + 0j, 1.0, 0.5)),
    "solution_sample": (PR.SolutionSample(1j, 1.0, 0.0), PR.SolutionSample(1j, 1.0 + 0j, 0),
                        PR.SolutionSample(1j, 1.0, 1.0)),
    "report_config": (regularity.ReportConfig(), regularity.ReportConfig(x_max=2000),
                      regularity.ReportConfig(dos_points=100)),
}

ARRAY_RECORDS = [P.CesaroTrace, PR.ScaledTransferMatrix, PR.MeasureCDF, periodic.BandSpectrum,
                 regularity.InequalityCheck, regularity.GrowthComparison,
                 regularity.DosComparison, regularity.RegularityReport]


@functools.cache
def twin_class(cls):
    """A frozen dataclass with the record class's name, fields and defaults."""
    return dataclasses.make_dataclass(cls.__qualname__, [
        (f, object, dataclasses.field(default=getattr(cls, f))) if hasattr(cls, f) else f
        for f in cls._fields], frozen=True)


def twin(record):
    return twin_class(type(record))(*record._values())


def filled(cls):
    return cls(*(np.arange(3.0) for _ in cls._fields))


def test_construction_by_position_keyword_and_default():
    assert repr(martin.GapSet(0.0)) == repr(twin_class(martin.GapSet)(0.0)) == (
        "GapSet(b0=0.0, gaps=())")
    assert P.SparseBumps(BUMP, (0, 4)).sparse_from == 0
    config = regularity.ReportConfig()
    assert config.x_max == 2000.0 and config.lambda_window is None
    assert config.z_grid == (-1.0 + 0j, -2.0 + 0j, -0.5 + 0j, 1j, 2 + 1j)
    assert regularity.ReportConfig(100.0, dos_x=50.0)._values()[:6] == (
        100.0, 0.02, 128, config.z_grid, config.growth_fractions, 50.0)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                          # missing b0
    ((0.0,), {"colour": 1}),           # unknown
    ((0.0,), {"b0": 1.0}),             # repeated
    ((0.0, (), 1), {}),                # one positional too many
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        martin.GapSet(*args, **kwargs)
    with pytest.raises(TypeError):    # the dataclass agrees
        twin_class(martin.GapSet)(*args, **kwargs)


@pytest.mark.parametrize("record", [martin.GapSet(0.0, ((1, 2),)), filled(PR.MeasureCDF)],
                         ids=["value", "array"])
def test_records_are_frozen(record):
    before, field = repr(record), record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        record.new_field = 1.0
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_repr_lists_the_fields_in_order(name):
    record = VALUE_RECORDS[name][0]
    assert repr(record) == repr(twin(record))


def test_repr_of_an_array_record_matches_the_dataclass():
    record = filled(PR.MeasureCDF)
    assert repr(record) == repr(twin(record)) == (
        "MeasureCDF(lam=array([0., 1., 2.]), cdf=array([0., 1., 2.]))")


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_and_hash_by_fields(name):
    record, same, other = VALUE_RECORDS[name]
    assert record is not same
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert (twin(record) == twin(same), twin(record) == twin(other)) == (True, False)
    assert len({record, same, other}) == 2


def test_equal_fields_of_another_type_are_unequal():
    assert P.Constant(1.0) != P.PeriodicSquare(1.0)
    assert P.Constant(1.0) != (1.0,)
    assert martin.GapSet(0.0) != {"b0": 0.0, "gaps": []}


@pytest.mark.parametrize("cls", ARRAY_RECORDS, ids=lambda c: c.__name__)
def test_array_records_compare_by_identity(cls):
    record, twin_record = filled(cls), filled(cls)
    assert record == record and record != twin_record
    assert len({record, twin_record}) == 2
    assert hash(record) == object.__hash__(record)


def test_every_record_class_is_listed_here():
    # a new record must say which equality it has
    listed = {type(v[0]) for v in VALUE_RECORDS.values()} | set(ARRAY_RECORDS)
    modules = (P, PR, martin, periodic, regularity)
    found = {c for m in modules for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, Record) and c is not Record}
    assert found == listed


def test_kernel_blocks_are_slotted_and_only_a_repeat_has_a_count():
    cells = P.CellBlock(np.ones(2), np.zeros(2))
    repeat = P.RepeatBlock(np.ones((2, 2)), np.array([[1.0, 1.0], [-1.0, -1.0]]),
                           np.array([2.0, 3.0]))
    assert repeat.count == 5
    with pytest.raises(AttributeError):
        repeat.count = 6
    assert not hasattr(cells, "count") and not hasattr(cells, "__dict__")
    assert not hasattr(repeat, "__dict__")
