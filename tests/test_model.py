import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecmkit import (
    ECMInput,
    ECMParseError,
    ECMPrediction,
    Measurement,
    PenaltyConfig,
    apply_penalty,
    builtin_haswell,
    builtin_kernels,
    ecm_input,
    format_cycles,
    format_ecm,
    mem_cycles_per_cl,
    model_error,
    parse_ecm,
    predict,
    read_measurements,
)
from ecmkit.errors import SchemaError
from ecmkit.kernels import KernelModel, Stream, StreamCounts
from ecmkit.model import LEVELS, PENALTY_MEMO_ENTRIES, ModelError
from ecmkit.reference import reference_cells, reference_measurements, REFERENCE_KERNELS
from ecmkit.scaling import BandwidthCeiling, NtEstimate, PerformancePoint, ScalingCurve
from ecmkit.scheduler import CoreTiming
from ecmkit.traffic import TrafficProfile

from oracles import (
    decimal_fraction,
    fraction_mem_cycles_per_cl,
    fraction_model_error,
    fraction_penalty,
    fraction_predict,
    rational_format_cycles,
    scan_ecm,
)

HASWELL = builtin_haswell()
KERNELS = builtin_kernels()


def test_mem_cycles_per_cl_examples():
    c = mem_cycles_per_cl(Fraction("32.4"), Fraction("2.3"))
    assert format_cycles(2 * c) == "9.1"
    assert format_cycles(c) == "4.5"
    assert format_cycles(3 * mem_cycles_per_cl(Fraction("26.3"), Fraction("2.3"))) == "16.8"
    assert mem_cycles_per_cl(64 * Fraction("1.7"), Fraction("1.7")) == 1


def test_mem_cycles_rejects_nonpositive():
    with pytest.raises(ValueError):
        mem_cycles_per_cl(0, Fraction("2.3"))
    with pytest.raises(ValueError):
        mem_cycles_per_cl(Fraction("32.4"), -1)


@pytest.mark.parametrize("name", REFERENCE_KERNELS)
def test_inputs_and_predictions_match_reference(name):
    expected_input, expected_pred = reference_cells(name)
    inp = ecm_input(KERNELS[name], HASWELL)
    assert [format_cycles(c) for c in inp.cells()] == expected_input
    pred = predict(inp)
    assert [format_cycles(c) for c in pred.cells()] == expected_pred


def test_integer_cells_on_builtin_machine():
    for name in REFERENCE_KERNELS:
        inp = ecm_input(KERNELS[name], HASWELL)
        for cell in (inp.t_ol, inp.t_nol, inp.t_l1l2, inp.t_l2l3):
            assert cell.denominator == 1


def test_predict_known_values():
    pred = predict(ECMInput(*(Fraction(x) for x in (1, 2, 2, 4)), Fraction("9.1")))
    assert [format_cycles(c) for c in pred.cells()] == ["2", "4", "8", "17.1"]
    pred = predict(ECMInput(Fraction(0), Fraction(2), Fraction(3), Fraction(6), Fraction("16.8")))
    assert [format_cycles(c) for c in pred.cells()] == ["2", "5", "11", "27.8"]


def test_predict_pure_compute():
    pred = predict(ECMInput(Fraction(5), Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    assert pred.cells() == (5, 5, 5, 5)


def test_predict_monotone_levels():
    for name in KERNELS:
        pred = predict(ecm_input(KERNELS[name], HASWELL))
        assert pred.t_core <= pred.t_l2 <= pred.t_l3 <= pred.t_mem


# p/q in [0, 50] with q <= 1000, drawn directly: limiting the denominator of
# st.fractions draws to that support spent most of the test's time
nonneg = st.integers(1, 1000).flatmap(lambda q: st.integers(0, 50 * q).map(lambda p: Fraction(p, q)))


@settings(max_examples=200, deadline=None)
@given(nonneg, nonneg, nonneg, nonneg, nonneg)
def test_predict_monotone_property(ol, nol, l1l2, l2l3, l3mem):
    pred = predict(ECMInput(ol, nol, l1l2, l2l3, l3mem))
    assert pred.t_core <= pred.t_l2 <= pred.t_l3 <= pred.t_mem
    if l1l2 == l2l3 == l3mem == 0:
        assert pred.cells() == (pred.t_core,) * 4


# ints and Fractions with denominators up to 10^6, zero transfers, and
# overlapping times far above and far below the data path
fraction_cell = st.builds(Fraction, st.integers(0, 10**7), st.integers(1, 10**6))
cell = st.one_of(st.integers(0, 10**4), fraction_cell)
transfer = st.one_of(st.just(0), st.just(Fraction(0)), cell)
overlapping = st.one_of(cell, st.integers(10**7, 10**8), st.just(0))


def predicted_types(ol, nol, l1l2, l2l3, l3mem) -> list[type]:
    """The type of each predicted cell: an int exactly when the term `max`
    picks, t_ol if it is at least the sum and else the sum, was summed from
    ints only; a Fraction otherwise."""
    types, terms = [], [nol]
    for transfer in ((), (l1l2,), (l2l3,), (l3mem,)):
        terms += transfer
        picked = [ol] if ol >= sum(terms) else terms
        types.append(int if all(type(term) is int for term in picked) else Fraction)
    return types


def penalized_types(cells, load_streams: int, cycles_per_stream) -> list[type]:
    """The type of each penalized cell: L1 and L2 keep theirs; L3 and memory,
    which gain the cycles once and twice, are ints exactly when the cell is
    an int and the cycles it gains are whole."""
    per_level = load_streams * Fraction(cycles_per_stream)
    core, l2, l3, mem = (type(c) for c in cells)
    return [core, l2, *(int if t is int and (times * per_level).denominator == 1 else Fraction
                        for t, times in ((l3, 1), (mem, 2)))]


def exactly_like(got, expected, types) -> bool:
    """`got` equals and hashes like the oracle's cells, with the given types."""
    return (tuple(got) == tuple(expected) and [hash(c) for c in got] == [hash(c) for c in expected]
            and [type(c) for c in got] == list(types))


@settings(max_examples=100, deadline=None)
@given(overlapping, cell, transfer, transfer, transfer)
def test_predict_equals_the_fraction_operator_oracle(ol, nol, l1l2, l2l3, l3mem):
    pred = predict(ECMInput(ol, nol, l1l2, l2l3, l3mem))
    expected = fraction_predict(ol, nol, l1l2, l2l3, l3mem)
    assert exactly_like(pred.cells(), expected, predicted_types(ol, nol, l1l2, l2l3, l3mem))


inexact = st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=3), st.none())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(cell, min_size=5, max_size=5), st.integers(0, 4), inexact)
def test_records_refuse_an_inexact_cell_at_first_use(cells, at, bad):
    """A float, bool, str or None cell is built unchecked, so parse_ecm and
    the memos build records at no extra cost, and refused at first use: the
    prediction, each shorthand, the penalty and the model error raise one
    TypeError naming the record and the field, never an AttributeError or a
    quiet Fraction."""
    kernel = streams_kernel([("read", False)])
    measurement = Measurement("k", {"L1": 2})
    for record, queries in (
        (ECMInput, (predict, format_ecm)),
        (ECMPrediction, (format_ecm, lambda pred: apply_penalty(pred, kernel),
                         lambda pred: model_error(pred, measurement))),
    ):
        fields = list(cells[:len(record._fields)])
        fields[at % len(fields)] = bad
        value = record(*fields)
        field = record._fields[at % len(fields)]
        for query in queries:
            for _ in range(2):  # a refusal is kept nowhere
                with pytest.raises(TypeError, match=rf"^{record.__name__}: {field} must be an int or a Fraction, got "):
                    query(value)
        assert vars(value) in ({}, {"_penalized": {}})


stream_kinds = st.sampled_from((("read", False), ("readwrite", False), ("write", False), ("write", True)))


def streams_kernel(kinds) -> KernelModel:
    streams = tuple(Stream(f"s{i}", access, nt) for i, (access, nt) in enumerate(kinds))
    return KernelModel("streams", streams, 8, ())


@settings(max_examples=100, deadline=None)
@given(
    overlapping,
    cell,
    transfer,
    transfer,
    transfer,
    st.lists(stream_kinds, max_size=5),
    st.one_of(fraction_cell, fraction_cell.map(lambda f: -f), st.integers(-3, 3)),
)
def test_apply_penalty_equals_the_fraction_operator_oracle(ol, nol, l1l2, l2l3, l3mem, kinds, cycles):
    kernel = streams_kernel(kinds)
    pred = predict(ECMInput(ol, nol, l1l2, l2l3, l3mem))
    loading = sum(1 for access, nt in kinds if not nt)
    config = PenaltyConfig(cycles_per_load_stream_per_level=cycles)
    try:
        expected = fraction_penalty(pred.cells(), loading, cycles)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            apply_penalty(pred, kernel, config)
        assert str(raised.value) == str(exc)
        return
    adjusted = apply_penalty(pred, kernel, config)
    assert exactly_like(adjusted.cells(), expected, penalized_types(pred.cells(), loading, cycles))


positive = st.one_of(st.integers(1, 10**4), st.builds(Fraction, st.integers(1, 10**7), st.integers(1, 10**6)))


@settings(max_examples=50, deadline=None)
@given(positive, positive)
def test_mem_cycles_per_cl_equals_the_fraction_operator_oracle(bandwidth, frequency):
    cycles = mem_cycles_per_cl(bandwidth, frequency)
    assert cycles == fraction_mem_cycles_per_cl(bandwidth, frequency)
    assert type(cycles) is Fraction


def test_penalty_ddot():
    pred = predict(ecm_input(KERNELS["ddot"], HASWELL))
    adjusted = apply_penalty(pred, KERNELS["ddot"])
    assert adjusted.t_l3 == 10
    assert format_cycles(adjusted.t_mem) == "21.1"
    assert (adjusted.t_core, adjusted.t_l2) == (pred.t_core, pred.t_l2)


def test_penalty_store_uses_write_allocate_stream():
    pred = predict(ecm_input(KERNELS["store"], HASWELL))
    adjusted = apply_penalty(pred, KERNELS["store"])
    assert adjusted.t_l3 == 9
    assert format_cycles(adjusted.t_mem) == "22.5"


def test_penalty_preserves_monotonicity():
    for name in REFERENCE_KERNELS:
        adjusted = apply_penalty(predict(ecm_input(KERNELS[name], HASWELL)), KERNELS[name])
        assert adjusted.t_core <= adjusted.t_l2 <= adjusted.t_l3 <= adjusted.t_mem


def test_penalty_rejects_cells_that_would_decrease():
    pred = predict(ecm_input(KERNELS["ddot"], HASWELL))
    with pytest.raises(ValueError, match="must not decrease"):
        apply_penalty(pred, KERNELS["ddot"], PenaltyConfig(cycles_per_load_stream_per_level=Fraction(-3)))
    with pytest.raises(ValueError, match="must not decrease"):
        apply_penalty(ECMPrediction(Fraction(5), Fraction(3), Fraction(6), Fraction(9)), KERNELS["ddot"])


@pytest.mark.parametrize("cycles", ["x", True, None, [1], float("nan"), "1/0", 0.5, "1.5", "3/2"])
def test_penalty_config_rejects_cycles_that_are_not_a_number_on_construction(cycles):
    with pytest.raises(ValueError) as raised:
        PenaltyConfig(cycles)
    assert str(raised.value) == (
        f"PenaltyConfig: cycles_per_load_stream_per_level must be an integer or a Fraction, got {cycles!r}"
    )


@pytest.mark.parametrize("cycles", [2, Fraction(1, 3), -1])
def test_penalty_config_keeps_every_value_read_exactly(cycles):
    config = PenaltyConfig(cycles)
    assert config.cycles_per_load_stream_per_level is cycles
    pred = predict(ecm_input(KERNELS["ddot"], HASWELL))
    assert apply_penalty(pred, KERNELS["ddot"], config).t_l3 == pred.t_l3 + 2 * cycles


def test_penalty_moves_memory_prediction_toward_measurement():
    for name in ("ddot", "load"):
        pred = predict(ecm_input(KERNELS[name], HASWELL))
        adjusted = apply_penalty(pred, KERNELS[name])
        measured = reference_measurements()[name].levels["MEM"]
        assert abs(adjusted.t_mem - measured) <= abs(pred.t_mem - measured)


def test_format_examples():
    inp = ecm_input(KERNELS["ddot"], HASWELL)
    assert format_ecm(inp) == "{1 || 2 | 2 | 4 | 9.1}"
    assert format_ecm(predict(inp)) == "{2 \\ 4 \\ 8 \\ 17.1}"


@pytest.mark.parametrize("value", [Fraction(9), (1, 2, 2, 4, 9), CoreTiming(1, 2)])
def test_format_ecm_refuses_what_is_neither_an_input_nor_a_prediction(value):
    with pytest.raises(TypeError) as raised:
        format_ecm(value)
    assert str(raised.value) == f"cannot format {type(value).__name__}"


def test_format_cycles_rounding():
    assert format_cycles(Fraction(9)) == "9"
    assert format_cycles(Fraction("9.05")) == "9.1"  # halves away from zero
    assert format_cycles(Fraction("8.96")) == "9"
    assert format_cycles(Fraction("-1.25")) == "-1.3"
    assert format_cycles(Fraction(736, 81)) == "9.1"


def test_parse_prediction_roundtrip():
    text = "{2 \\ 4 \\ 8 \\ 17.1}"
    value = parse_ecm(text)
    assert isinstance(value, ECMPrediction)
    assert format_ecm(value) == text


def test_parse_wrong_arity():
    with pytest.raises(ECMParseError):
        parse_ecm("{1 || 2 | 2}")
    with pytest.raises(ECMParseError):
        parse_ecm("{1 | 2 | 3 | 4 | 5}")


def test_parse_error_carries_position():
    try:
        parse_ecm("{1 || 2 | x | 4 | 5}")
    except ECMParseError as exc:
        assert exc.position == 10
    else:
        pytest.fail("expected a parse error")


def test_parse_maps_a_cell_too_long_for_int_to_a_parse_error():
    # int() converts at most 4 300 digits; the error names the long cell
    assert parse_ecm(f"{{1 || {'1' * 4300} | 2 | 3 | 4}}").t_nol == int("1" * 4300)
    long_cell = "1" * 4301
    for text, position in ((f"{{1 || {long_cell} | 2 | 3 | 4}}", 6), (f"{{1 \\ 2 \\ 3.{long_cell[1:]} \\ 4}}", 9)):
        with pytest.raises(ECMParseError) as raised:
            parse_ecm(text)
        assert raised.value.position == position


def test_parse_reads_ascii_digits_only():
    # \d matches any Unicode decimal digit, so the Arabic-Indic three read as 3
    with pytest.raises(ECMParseError) as raised:
        parse_ecm("{\u0663 \\ 4 \\ 5 \\ 6}")
    assert raised.value.position == 1


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ECMParseError):
        parse_ecm("{1 || 2 | 2 | 4 | 9.1} q")


one_decimal = st.integers(min_value=0, max_value=500).map(lambda n: Fraction(n, 10))


# any size and sign, exact halves of a tenth, and values that round to 0
cycle_values = st.one_of(
    st.fractions(),
    st.builds(lambda k, sign: Fraction(sign * (2 * k + 1), 20), st.integers(0, 10**6), st.sampled_from((1, -1))),
    st.fractions(min_value=Fraction(-1, 20), max_value=Fraction(1, 20)),
)


@settings(max_examples=200, deadline=None)
@given(cycle_values)
def test_format_cycles_agrees_with_fraction_rounding(value):
    assert format_cycles(value) == rational_format_cycles(value)


digits = st.text("0123456789", min_size=1, max_size=25)
decimal_text = st.builds(lambda whole, frac: whole if frac is None else f"{whole}.{frac}", digits, st.none() | digits)


@settings(max_examples=100, deadline=None)
@given(decimal_text, decimal_text, decimal_text, decimal_text)
def test_parse_reads_decimals_as_fraction_does(a, b, c, d):
    """Each cell equals and hashes like Fraction's reading of its text, and is
    an int exactly when the text has no fraction digits."""
    value = parse_ecm(f"{{{a} \\ {b} \\ {c} \\ {d}}}")
    assert value.cells() == tuple(decimal_fraction(text) for text in (a, b, c, d))
    for cell, text in zip(value.cells(), (a, b, c, d)):
        assert type(cell) is (Fraction if "." in text else int)
        assert hash(cell) == hash(decimal_fraction(text))


@settings(max_examples=200, deadline=None)
@given(one_decimal, one_decimal, one_decimal, one_decimal, one_decimal)
def test_parse_format_roundtrip_inputs(a, b, c, d, e):
    value = ECMInput(a, b, c, d, e)
    assert parse_ecm(format_ecm(value)) == value


@settings(max_examples=200, deadline=None)
@given(one_decimal, one_decimal, one_decimal, one_decimal)
def test_parse_format_roundtrip_predictions(a, b, c, d):
    value = ECMPrediction(a, b, c, d)
    assert parse_ecm(format_ecm(value)) == value


input_values = st.tuples(*[one_decimal] * 5).map(lambda cells: ECMInput(*cells))
prediction_values = st.tuples(*[one_decimal] * 4).map(lambda cells: ECMPrediction(*cells))
canonical = st.one_of(input_values, prediction_values).map(format_ecm)


def parsed_or_error(text: str) -> tuple:
    try:
        value = parse_ecm(text)
    except ECMParseError as exc:
        return ("error", str(exc), exc.position)
    return ("input" if isinstance(value, ECMInput) else "prediction", value.cells())


@settings(max_examples=100, deadline=None)
@given(canonical, st.data())
def test_parse_agrees_with_the_scanner_on_canonical_text_and_one_character_edits(text, data):
    assert parsed_or_error(text) == scan_ecm(text)
    where = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789.|\\{} \tx"))
    edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
    if edit == "insert":
        mutated = text[:where] + char + text[where:]
    elif edit == "replace":
        mutated = text[:where] + char + text[where + 1 :]
    else:
        mutated = text[:where] + text[where + 1 :]
    assert parsed_or_error(mutated) == scan_ecm(mutated)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "{",
        "{}",
        "{1",
        "{1 ||",
        "{1.}",
        "{1 \\ 2 \\ 3 \\ 4 \\ 5}",
        "{1 || 2 | 3 | 4 | 5 | 6}",
        " {1\\2\\3\\4} ",
        "{1 |2||3|4|5}",
        # any Unicode whitespace between tokens, ASCII digits only in cells
        "\t{1\n||\t2 | 3 |\u00a04 | 5}\n",
        "{\u0661.5 \\ 2 \\ 3 \\ 4}",
        # token boundaries: Unicode whitespace, a dot without digits, a token
        # where another kind belongs, and text after the closing brace
        "\u2003{1\x1c||\u20032 |\x1c3 | 4 | 5}\u2003",
        "{1\u2003\\\x1c2 \\ 3 \\ 4 x",
        "{2.}",
        "{{1",
        "{1 ||| 2 | 3 | 4 | 5}",
        "{1 |\\ 2}",
        "{1 \\ 2 \\ 3 \\ 4}}",
    ],
)
def test_parse_errors_and_values_match_the_scanner_on_edge_cases(text):
    assert parsed_or_error(text) == scan_ecm(text)


def test_model_error_examples():
    copy_pred = predict(ecm_input(KERNELS["copy"], HASWELL))
    errors = model_error(copy_pred, reference_measurements()["copy"])
    assert errors.absolute_pct["MEM"] == 3
    schoen_pred = predict(ecm_input(KERNELS["schoenauer_triad"], HASWELL))
    errors = model_error(schoen_pred, reference_measurements()["schoenauer_triad"])
    assert errors.absolute_pct["L2"] == 24
    assert errors.signed_pct["L2"] == -24  # model predicts fewer cycles than measured


def test_model_error_identical_is_zero():
    pred = ECMPrediction(Fraction(2), Fraction(4), Fraction(8), Fraction(16))
    meas = Measurement("x", {"L1": Fraction(2), "L2": Fraction(4), "L3": Fraction(8), "MEM": Fraction(16)})
    errors = model_error(pred, meas)
    assert set(errors.absolute_pct.values()) == {0}


# measured cycles, and signed errors in percent: exact halves (which the
# rounding sends away from zero), negative ones, and any fraction above -100
measured_cycles = st.tuples(st.integers(1, 10**5), st.integers(1, 1000)).map(lambda pq: Fraction(*pq))
signed_error = st.one_of(
    st.integers(-199, 400).map(lambda k: Fraction(k, 2)),
    st.integers(1, 1000).flatmap(lambda q: st.integers(-99 * q, 300 * q).map(lambda p: Fraction(p, q))),
)


# (predicted, measured) cells: a measured Fraction off by a signed error, or
# two ints, any pair or 40 cycles off by an odd multiple of 2.5%, an exact
# half that int / int division would round through a float
error_cells = st.one_of(
    st.tuples(measured_cycles, signed_error).map(lambda me: (me[0] * (1 + me[1] / 100), me[0])),
    st.tuples(st.integers(0, 1200), st.integers(1, 400)),
    st.integers(-20, 39).map(lambda k: (41 + 2 * k, 40)),
)


@settings(max_examples=100, deadline=None)
@example(cells=[(17, 40)] * 4, missing=set())
@given(st.lists(error_cells, min_size=4, max_size=4), st.sets(st.sampled_from(LEVELS)))
def test_model_error_equals_the_fraction_rounding_oracle(cells, missing):
    predicted = {level: p for level, (p, _) in zip(LEVELS, cells)}
    measured = {level: m for level, (_, m) in zip(LEVELS, cells) if level not in missing}
    errors = model_error(ECMPrediction(*predicted.values()), Measurement("k", measured))
    assert (errors.absolute_pct, errors.signed_pct) == fraction_model_error(predicted, measured)


def test_model_error_is_exact_for_int_cells():
    """-57.5% rounds away from zero; int / int division gave -57.49999999999999."""
    errors = model_error(ECMPrediction(17, 18, 19, 20), Measurement("k", {"L1": 40}))
    assert (errors.absolute_pct, errors.signed_pct) == ({"L1": 58}, {"L1": -58})


def test_measurement_requires_positive_cycles():
    with pytest.raises(SchemaError):
        Measurement("x", {"L1": Fraction(0)})


def test_measurement_refuses_an_unknown_level():
    with pytest.raises(SchemaError) as raised:
        Measurement("x", {"L4": Fraction(1)})
    assert str(raised.value) == "measurement 'x': unknown level 'L4'"


def test_a_measurement_keeps_a_read_only_copy_of_its_levels():
    """A change to the caller's dict after construction reaches no
    measurement, and the measurement's levels refuse stores."""
    levels = {"L1": Fraction(2), "MEM": Fraction(19)}
    measurement = Measurement("ddot", levels)
    levels["L5"] = -3
    levels["L1"] = Fraction(7)
    assert dict(measurement.levels) == {"L1": Fraction(2), "MEM": Fraction(19)}
    with pytest.raises(TypeError):
        measurement.levels["L2"] = Fraction(4)
    assert measurement == Measurement("ddot", {"L1": Fraction(2), "MEM": Fraction(19)})


def test_a_measurement_pickles_and_copies():
    """Pickle and copy rebuild a measurement with read-only levels of its own."""
    measurement = Measurement("ddot", {"L1": Fraction(2), "MEM": Fraction(39, 2)})
    for twin in (pickle.loads(pickle.dumps(measurement)), copy.deepcopy(measurement), copy.copy(measurement)):
        assert twin == measurement and repr(twin) == repr(measurement)
        with pytest.raises(TypeError):
            twin.levels["L2"] = Fraction(4)


def test_read_measurements_roundtrip(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("kernel,level,cycles_per_cl\nddot,L1,2.1\nddot,MEM,19.4\n")
    result = read_measurements(path)
    assert result["ddot"].levels == {"L1": Fraction("2.1"), "MEM": Fraction("19.4")}


def test_read_measurements_reads_a_whole_count_as_an_int(tmp_path):
    """The reader shares the shorthand's cell rule: 2 is an int, 2.0 and 19.4
    Fractions; each measurement still pickles, copies and scores alike."""
    path = tmp_path / "meas.csv"
    path.write_text("kernel,level,cycles_per_cl\nddot,L1,2\nddot,L2,2.0\nddot,MEM,19.4\n")
    measurement = read_measurements(path)["ddot"]
    assert [type(v) for v in measurement.levels.values()] == [int, Fraction, Fraction]
    assert measurement.levels == {"L1": 2, "L2": 2, "MEM": Fraction("19.4")}
    for twin in (pickle.loads(pickle.dumps(measurement)), copy.deepcopy(measurement)):
        assert twin == measurement and [type(v) for v in twin.levels.values()] == [int, Fraction, Fraction]
    pred = ECMPrediction(Fraction(2), Fraction(4), Fraction(8), Fraction(39, 2))
    fractions = Measurement("ddot", {name: Fraction(v) for name, v in measurement.levels.items()})
    assert model_error(pred, measurement) == model_error(pred, fractions)


def test_read_measurements_rejects_duplicates(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("kernel,level,cycles_per_cl\nddot,L1,2.1\nddot,L1,2.2\n")
    with pytest.raises(SchemaError, match="row 3"):
        read_measurements(path)


def test_read_measurements_rejects_bad_level(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("kernel,level,cycles_per_cl\nddot,L9,2.1\n")
    with pytest.raises(SchemaError, match="row 2"):
        read_measurements(path)


def test_read_measurements_reads_ascii_digits_only(tmp_path):
    # Arabic-Indic 17.08, which \d would read as 17.08
    path = tmp_path / "meas.csv"
    path.write_text("kernel,level,cycles_per_cl\nddot,L1,\u0661\u0667.\u0660\u0668\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="row 2: cycles_per_cl must be a positive plain decimal"):
        read_measurements(path)


def test_read_measurements_rejects_bad_header(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("name,lvl,cycles\nddot,L1,2.1\n")
    with pytest.raises(SchemaError, match="header"):
        read_measurements(path)


_CHIP = BandwidthCeiling(per_domain_mups=None, per_chip_mups=Fraction(2300, 3), compute_bound=False)
RECORDS = [
    (CoreTiming(t_ol=3, t_nol=2), ("t_ol", "t_nol"), "CoreTiming(t_ol=3, t_nol=2)"),
    (
        TrafficProfile(cls_l1l2=3, cls_l2l3=3, cls_l3mem=3, mem_bytes_per_iteration=24, payload_bytes_per_iteration=16),
        ("cls_l1l2", "cls_l2l3", "cls_l3mem", "mem_bytes_per_iteration", "payload_bytes_per_iteration"),
        "TrafficProfile(cls_l1l2=3, cls_l2l3=3, cls_l3mem=3, mem_bytes_per_iteration=24, payload_bytes_per_iteration=16)",
    ),
    (
        ECMInput(t_ol=Fraction(1), t_nol=Fraction(4), t_l1l2=Fraction(6), t_l2l3=Fraction(6), t_l3mem=Fraction(81, 10)),
        ("t_ol", "t_nol", "t_l1l2", "t_l2l3", "t_l3mem"),
        "ECMInput(t_ol=Fraction(1, 1), t_nol=Fraction(4, 1), t_l1l2=Fraction(6, 1), t_l2l3=Fraction(6, 1), "
        "t_l3mem=Fraction(81, 10))",
    ),
    (
        ECMPrediction(t_core=Fraction(4), t_l2=Fraction(10), t_l3=Fraction(16), t_mem=Fraction(241, 10)),
        ("t_core", "t_l2", "t_l3", "t_mem"),
        "ECMPrediction(t_core=Fraction(4, 1), t_l2=Fraction(10, 1), t_l3=Fraction(16, 1), t_mem=Fraction(241, 10))",
    ),
    (
        ModelError(absolute_pct={"L1": 5}, signed_pct={"L1": -5}),
        ("absolute_pct", "signed_pct"),
        "ModelError(absolute_pct={'L1': 5}, signed_pct={'L1': -5})",
    ),
    (
        StreamCounts(explicit_loads=2, rfo_streams=1, write_streams=1),
        ("explicit_loads", "rfo_streams", "write_streams"),
        "StreamCounts(explicit_loads=2, rfo_streams=1, write_streams=1)",
    ),
    (
        PerformancePoint(cores=3, performance_mups=Fraction(300, 7), bandwidth_bound=False),
        ("cores", "performance_mups", "bandwidth_bound"),
        "PerformancePoint(cores=3, performance_mups=Fraction(300, 7), bandwidth_bound=False)",
    ),
    (
        ScalingCurve(
            mode="cod",
            points=(PerformancePoint(cores=1, performance_mups=Fraction(5), bandwidth_bound=True),),
            saturation_cores=1,
            ceiling_mups=Fraction(5),
        ),
        ("mode", "points", "saturation_cores", "ceiling_mups"),
        "ScalingCurve(mode='cod', points=(PerformancePoint(cores=1, performance_mups=Fraction(5, 1), "
        "bandwidth_bound=True),), saturation_cores=1, ceiling_mups=Fraction(5, 1))",
    ),
    (
        _CHIP,
        ("per_domain_mups", "per_chip_mups", "compute_bound"),
        "BandwidthCeiling(per_domain_mups=None, per_chip_mups=Fraction(2300, 3), compute_bound=False)",
    ),
    (
        NtEstimate(volume_ratio=Fraction(3, 2), regular=_CHIP, nontemporal=_CHIP),
        ("volume_ratio", "regular", "nontemporal"),
        "NtEstimate(volume_ratio=Fraction(3, 2), "
        "regular=BandwidthCeiling(per_domain_mups=None, per_chip_mups=Fraction(2300, 3), compute_bound=False), "
        "nontemporal=BandwidthCeiling(per_domain_mups=None, per_chip_mups=Fraction(2300, 3), compute_bound=False))",
    ),
]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_query_records_keep_their_fields_repr_hash_and_immutability(record, fields, text):
    """The records queries return kept the field names and order, repr and
    hash they had as frozen dataclasses, and still refuse assignment."""
    assert record._fields == fields
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict field makes the record unhashable, as it made the dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])


# ---------------------------------------------------------------------------
# the values an input and a prediction keep


def oracle_shorthand(cells) -> str:
    """The shorthand of five input or four prediction cells, each cell by Fraction rounding."""
    shown = [rational_format_cycles(c) for c in cells]
    if len(shown) == 5:
        return "{%s || %s | %s | %s | %s}" % tuple(shown)
    return "{" + " \\ ".join(shown) + "}"


def oracle_answers(cells, penalties) -> list:
    """By the Fraction-operator oracles, for an input's five cells: the
    prediction and both shorthands; for a prediction's four: its shorthand.
    Then each penalty's prediction and shorthand, or its error message; all
    twice over, as `answers` asks twice."""
    if len(cells) == 5:
        pred = fraction_predict(*cells)
        once = [(pred, oracle_shorthand(cells), oracle_shorthand(pred))]
    else:
        pred = tuple(cells)
        once = [oracle_shorthand(pred)]
    for kernel, config in penalties:
        try:
            shown = fraction_penalty(pred, load_streams(kernel), config.cycles_per_load_stream_per_level)
            once.append((shown, oracle_shorthand(shown)))
        except ValueError as exc:
            once.append(str(exc))
    return once * 2


def answers(record, penalties) -> list:
    """What the package answers for `oracle_answers`' queries on an input or
    a prediction, asking each twice: the second time from kept values."""
    got = []
    for _ in range(2):
        if isinstance(record, ECMInput):
            pred = predict(record)
            assert exactly_like(pred, fraction_predict(*record), predicted_types(*record))
            got.append((pred, format_ecm(record), format_ecm(pred)))
        else:
            pred = record
            got.append(format_ecm(pred))
        for kernel, config in penalties:
            try:
                shown = apply_penalty(pred, kernel, config)
                got.append((shown, format_ecm(shown)))
            except ValueError as exc:
                got.append(str(exc))
    return got


def load_streams(kernel) -> int:
    return sum(1 for s in kernel.streams if not s.nontemporal)


signed_cell = st.one_of(st.integers(-10**4, 10**4), fraction_cell, fraction_cell.map(lambda f: -f))
penalty = st.tuples(
    st.lists(stream_kinds, max_size=4).map(streams_kernel),
    st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))).map(PenaltyConfig),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(signed_cell, min_size=5, max_size=5), st.lists(penalty, max_size=6))
def test_records_answer_as_the_uncached_arithmetic_on_every_call(cells, penalties):
    """An input and the predictions made from it answer predict,
    apply_penalty and format_ecm as the Fraction-operator oracles do, on the
    first call and from their kept values on the second. Records made by
    `_replace`, pickling, copying and `parse_ecm` start with nothing kept and
    answer for their own cells; keeping changes no ==, hash or repr."""
    inp = ECMInput(*cells)
    fresh = (repr(inp), hash(inp))
    assert answers(inp, penalties) == oracle_answers(cells, penalties)
    assert (repr(inp), hash(inp)) == fresh and inp == tuple(cells)
    assert {"_prediction", "_shorthand"} <= vars(inp).keys()
    pred = predict(inp)
    moved = cells[:4] + [cells[4] + 1]
    made = [
        (inp._replace(), cells),
        (inp._replace(t_l3mem=moved[4]), moved),
        (pickle.loads(pickle.dumps(inp)), cells),
        (copy.copy(inp), cells),
        (copy.deepcopy(inp), cells),
        (pred._replace(), pred),
        (pickle.loads(pickle.dumps(pred)), pred),
        (copy.copy(pred), pred),
    ]
    for value in (inp, pred):
        text = format_ecm(value)
        if "-" not in text:  # the shorthand has no negative numbers
            parsed = parse_ecm(text)
            made.append((parsed, list(parsed)))
    for record, record_cells in made:
        assert type(record) in (ECMInput, ECMPrediction) and vars(record) == {}
        assert answers(record, penalties) == oracle_answers(record_cells, penalties)


def test_penalized_predictions_are_kept_by_both_parts_of_the_penalty_cycles():
    """penalty_cycles gives (extra, d) with extra / d cycles: (2, 1), (2, 2)
    and (4, 1) for two loading streams and 1, 1/2 and 2 cycles. Each key
    keeps its own prediction, so pairs that share one part answer apart."""
    kernel = streams_kernel([("read", False), ("write", False)])
    pred = predict(ECMInput(Fraction(1), Fraction(2), Fraction(2), Fraction(4), Fraction(9)))
    for cycles in (1, Fraction(1, 2), 2, 1, Fraction(1, 2), 2):
        shown = apply_penalty(pred, kernel, PenaltyConfig(cycles))
        assert shown == fraction_penalty(pred, 2, cycles)
    assert sorted(pred._penalized) == [(2, 1), (2, 2), (4, 1)]


def test_a_refused_penalty_is_kept_nowhere_and_refused_again():
    pred = predict(ECMInput(Fraction(1), Fraction(2), Fraction(2), Fraction(4), Fraction(9)))
    config = PenaltyConfig(Fraction(-3))
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="must not decrease") as raised:
            apply_penalty(pred, KERNELS["ddot"], config)
        messages.append(str(raised.value))
        assert pred._penalized == {}
    assert messages[0] == messages[1]


def test_the_penalized_map_is_cleared_when_full():
    kernel = streams_kernel([("read", False)])
    pred = predict(ECMInput(Fraction(1), Fraction(2), Fraction(2), Fraction(4), Fraction(9)))
    sizes = []
    for numerator in range(1, 2 * PENALTY_MEMO_ENTRIES + 2):
        cycles = Fraction(numerator, 3)
        assert apply_penalty(pred, kernel, PenaltyConfig(cycles)) == fraction_penalty(pred, 1, cycles)
        sizes.append(len(pred._penalized))
    assert max(sizes) == PENALTY_MEMO_ENTRIES
    assert sizes[PENALTY_MEMO_ENTRIES - 1:PENALTY_MEMO_ENTRIES + 2] == [PENALTY_MEMO_ENTRIES, 1, 2]
    assert (pred._penalized.misses, pred._penalized.clears) == (2 * PENALTY_MEMO_ENTRIES + 1, 2)


def test_kept_values_die_with_their_record():
    """No process-wide cache holds what a record keeps: a probe put beside
    the kept prediction, shorthand and penalized map dies with the record."""
    class Probe:
        pass

    inp = ECMInput(Fraction(1), Fraction(2), Fraction(2), Fraction(4), Fraction(9))
    pred = predict(inp)
    apply_penalty(pred, KERNELS["ddot"])
    format_ecm(inp), format_ecm(pred)
    vars(inp)["probe"] = input_probe = Probe()
    pred._penalized["probe"] = penalty_probe = Probe()
    held = [weakref.ref(input_probe), weakref.ref(penalty_probe)]
    del inp, pred, input_probe, penalty_probe
    gc.collect()
    assert [ref() for ref in held] == [None, None]
