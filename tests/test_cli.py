import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ecmkit
from ecmkit import SchemaError, builtin_haswell, load_kernel, load_machine, serialize_machine
from ecmkit.cli import run
from ecmkit.machine import PortSpec

SRC = str(Path(ecmkit.__file__).resolve().parent.parent)
# the address space a capped child run may take
CHILD_MEMORY_BYTES = 1 << 30
# a number JSON or Python prints for a value no float holds
NON_FINITE = re.compile(r"\b(?:inf|nan|Infinity|NaN)\b")


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def run_capped(*argv: str, flags=(), timeout=60) -> subprocess.CompletedProcess:
    """`python [flags] -m ecmkit argv` in a child process whose address space
    is capped at CHILD_MEMORY_BYTES, so a run that asks for gigabytes fails
    in the child alone; PYTHONWARNINGS unset, text output, killed after
    `timeout` seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONWARNINGS", None)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))

    argv = [sys.executable, *flags, "-m", "ecmkit", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=cap_memory)


def test_predict_ddot_shorthand():
    code, text = invoke("predict", "-m", "haswell", "-k", "ddot")
    assert code == 0
    assert "{1 || 2 | 2 | 4 | 9.1}" in text
    assert "{2 \\ 4 \\ 8 \\ 17.1}" in text


def test_predict_penalty_memory_value():
    code, text = invoke("predict", "-m", "haswell", "-k", "ddot", "--penalty")
    assert code == 0
    assert "21.1" in text


def test_predict_unknown_kernel_lists_builtins(capsys):
    code, _ = invoke("predict", "-k", "nosuch")
    assert code == 2
    err = capsys.readouterr().err
    assert "ddot" in err and "schoenauer_triad" in err


def test_predict_unknown_machine_lists_builtins(monkeypatch, capsys):
    monkeypatch.delenv("ECM_MACHINE_PATH", raising=False)
    code, text = invoke("predict", "-m", "nosuch", "-k", "ddot")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: unknown machine 'nosuch'; built-in machines: haswell "
                   "(or pass a machine file path, searched also under ECM_MACHINE_PATH)"]


def test_predict_invalid_machine_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _ = invoke("predict", "-m", str(bad), "-k", "ddot")
    assert code == 2


def write_kernel(tmp_path, streams, uops):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"name": "k", "element_bytes": 8, "streams": streams, "uops": uops}))
    return str(path)


def test_predict_string_nontemporal_flag_is_an_error(tmp_path, capsys):
    store = {"count": 2, "class": "store", "addressing": "base-index-offset"}
    path = write_kernel(tmp_path, [{"array": "A", "access": "write", "nontemporal": "false"}], [store])
    code, text = invoke("predict", "-k", path)
    assert (code, text) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "nontemporal" in err[0]


def test_predict_kernel_without_streams_or_uops_is_an_error(tmp_path, capsys):
    code, text = invoke("predict", "-k", write_kernel(tmp_path, [], []))
    assert (code, text) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: prediction has zero memory-level cycles"]


@pytest.mark.parametrize(
    "key,value",
    [("element_bytes", "8"), ("element_bytes", 8.0), ("name", 7), ("flops_per_iteration", "2"), ("streams", 5)],
)
def test_predict_kernel_field_of_the_wrong_type_is_an_error(tmp_path, capsys, key, value):
    load = {"count": 2, "class": "load", "addressing": "base-index-offset"}
    data = {"name": "k", "element_bytes": 8, "streams": [{"array": "A", "access": "read"}], "uops": [load], key: value}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(data))
    code, text = invoke("predict", "-k", str(path))
    assert (code, text) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_predict_non_finite_machine_number_is_an_error(tmp_path, capsys, literal):
    text = json.dumps(serialize_machine(builtin_haswell()))
    text = text.replace('"frequency_ghz": 2.3', f'"frequency_ghz": {literal}')
    assert literal in text
    path = tmp_path / "machine.json"
    path.write_text(text)
    code, out = invoke("predict", "-m", str(path), "-k", "ddot")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "frequency_ghz" in err[0]


def test_predict_value_too_large_for_a_float_is_an_error(tmp_path, capsys):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(serialize_machine(builtin_haswell())).replace('"frequency_ghz": 2.3', '"frequency_ghz": 1.7e308'))
    code, out = invoke("predict", "-m", str(path), "-k", "ddot", "--precise")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "too large" in err[0]


def regression_machine(tmp_path, kind: str) -> str:
    """A machine file that once broke a CLI run: "store-weight", a store of
    10^9 retire slots, which no retire cycle holds; "tiny-bandwidth", a
    default bandwidth of 3e-320 GB/s and no table, so T_L3Mem and the cells
    built on it are too large for a float."""
    data = serialize_machine(builtin_haswell())
    if kind == "store-weight":
        data["store_uop_weight"] = 10**9
    else:
        data["memory"].update(default_bandwidth_gbs=3e-320, table=[])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["predict", "scale"])
@pytest.mark.parametrize("kind", ["store-weight", "tiny-bandwidth"])
def test_regression_machine_runs_within_contract_in_a_capped_child(tmp_path, kind, command):
    result = run_capped(command, "-k", "update", "-m", regression_machine(tmp_path, kind))
    assert result.returncode in (0, 2), result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    assert not NON_FINITE.search(result.stdout), result.stdout


def test_store_no_retire_cycle_holds_is_answered_without_a_cycle_list(tmp_path):
    """A store no retire cycle holds fits no group of the schedule builder,
    which places units in runs of equal cycles, so nothing is allocated per
    cycle of T = 500 000 001; the kind set has no pattern table, and the
    span is the start."""
    result = run_capped("predict", "-k", "update", "-m", regression_machine(tmp_path, "store-weight"))
    assert result.returncode == 0, result.stderr
    assert "input:      {500000001 || 2 | 2 | 4 | 12.5}\n" in result.stdout


@pytest.mark.parametrize("precise", [[], ["--precise"]])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_display_too_large_for_a_float_is_an_error_in_every_format(tmp_path, capsys, fmt, precise):
    path = regression_machine(tmp_path, "tiny-bandwidth")
    code, out = invoke("predict", "-m", path, "-k", "ddot", "--format", fmt, *precise)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "too large" in err[0]
    assert "MEM cycles_per_cl" in err[0]


@pytest.mark.parametrize("precise", [[], ["--precise"]])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_compare_display_too_large_for_a_float_names_the_cell(tmp_path, capsys, fmt, precise):
    path = regression_machine(tmp_path, "tiny-bandwidth")
    code, out = invoke("compare", "-m", path, "-k", "ddot", "--format", fmt, *precise)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.splitlines() == ["error: ddot MEM predicted is too large for a float"]


@pytest.mark.parametrize("section", ["ports", "boundaries", "table"])
def test_predict_machine_section_that_is_not_a_list_is_an_error(tmp_path, capsys, section):
    data = serialize_machine(builtin_haswell())
    (data["memory"] if section == "table" else data)[section] = 5
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    code, out = invoke("predict", "-m", str(path), "-k", "ddot")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and section in err[0]


def test_predict_runs_at_any_retire_width(tmp_path):
    """The pattern table's cost does not grow with the retire width: a width
    no uop mix can fill gives the same output as width 64."""
    outputs = []
    for width in (64, 10**9):
        path = tmp_path / f"width{width}.json"
        path.write_text(json.dumps(serialize_machine(replace(builtin_haswell(), retire_width=width))))
        result = run_capped("predict", "-m", str(path), "-k", "stream_triad")
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_kernel_consistency_warnings_are_warning_lines_under_any_filter(tmp_path):
    """Three loads for one read stream: one `warning:` line and the same
    output, also when Python's warnings are errors."""
    load = {"count": 3, "class": "load", "addressing": "base-index-offset"}
    path = write_kernel(tmp_path, [{"array": "A", "access": "read"}], [load, {"count": 1, "class": "add"}])
    results = [run_capped("predict", "-k", path, flags=flags) for flags in ([], ["-W", "error"])]
    for result in results:
        assert result.returncode == 0, result.stderr
        assert result.stderr == "warning: kernel 'k': 3 load uops per cache line, but streams imply 2\n"
    assert results[0].stdout == results[1].stdout != ""


INCONSISTENT_UOPS = [{"count": 3, "class": "load", "addressing": "base-index-offset"}, {"count": 1, "class": "add"}]
INCONSISTENT_WARNING = "warning: kernel 'k': 3 load uops per cache line, but streams imply 2\n"


def test_a_warning_is_printed_before_the_error_of_a_failing_command(tmp_path):
    """The inconsistent kernel on a machine with no add port: its warning
    line comes first, then the error, also when Python's warnings are errors."""
    path = write_kernel(tmp_path, [{"array": "A", "access": "read"}], INCONSISTENT_UOPS)
    data = serialize_machine(builtin_haswell())
    for port in data["ports"]:
        port["capabilities"] = [c for c in port["capabilities"] if c != "add"]
    machine = tmp_path / "no-add.json"
    machine.write_text(json.dumps(data))
    result = run_capped("predict", "-k", path, "-m", str(machine), flags=["-W", "error"])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == INCONSISTENT_WARNING + "error: kernel 'k' needs add ports\n"


def test_compare_warnings_are_printed_in_the_order_they_arise(tmp_path, capsys):
    """A kernel file's consistency line comes where the file is loaded,
    among the skip lines of the kernels named before and after it."""
    path = write_kernel(tmp_path, [{"array": "A", "access": "read"}], INCONSISTENT_UOPS)
    meas = tmp_path / "meas.csv"
    meas.write_text(f"kernel,level,cycles_per_cl\n{path},L1,3\nddot,L1,2\n")
    code, text = invoke("compare", "--measurements", str(meas), "-k", path, "-k", "nosuch", "-k", "ddot", "--format", "csv")
    assert code == 0
    assert [row["kernel"] for row in csv.DictReader(io.StringIO(text))] == [path, "ddot"]
    assert capsys.readouterr().err == INCONSISTENT_WARNING + "".join(
        [f"warning: kernel {path!r} has no {level} measurement; skipped\n" for level in ("L2", "L3", "MEM")]
        + ["warning: no measurement rows for kernel 'nosuch'; skipped\n"]
        + [f"warning: kernel 'ddot' has no {level} measurement; skipped\n" for level in ("L2", "L3", "MEM")]
    )


@pytest.mark.parametrize(
    "argv,content",
    [
        (["predict", "-k"], b'{"name": "\xff"}'),
        (["predict", "-k", "ddot", "-m"], b'{"name": "\xff"}'),
        (["compare", "--measurements"], b"kernel,level,cycles_per_cl\nddot\xff,L1,2\n"),
    ],
)
def test_input_file_that_is_not_utf8_is_an_error(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out = invoke(*argv, str(path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not UTF-8" in err[0]


def test_compare_measurements_directory_is_an_error(tmp_path, capsys):
    code, out = invoke("compare", "--measurements", str(tmp_path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "kind,old,new,message",
    [
        ("machine", '"name": "haswell"', f'"name": {DEEP}', "not valid JSON"),
        ("machine", '"retire_width": 4', '"retire_width": ' + "9" * 5000, "not valid JSON"),
        ("machine", '"bytes_per_cycle": 64', '"bytes_per_cycle": 64.0', "bytes_per_cycle: expected an integer"),
        ("kernel", '"name": "ddot"', f'"name": {DEEP}', "not valid JSON"),
        ("kernel", '"count": 4', '"count": ' + "9" * 5000, "not valid JSON"),
        ("machine", '"cores_per_domain": 7', '"cores_per_domain": 2049', "cores_per_domain is 4098, more than 4096"),
        ("kernel", '"count": 4', '"count": 9999', "kernel 'ddot': 10001 uops per cache line, more than 10000"),
    ],
    ids=["machine-deep", "machine-long-integer", "machine-float-width", "kernel-deep", "kernel-long-integer",
         "machine-core-cap", "kernel-uop-cap"],
)
def test_file_the_reader_rejects_is_a_one_line_error(tmp_path, capsys, kind, old, new, message):
    """Deep nesting, an integer longer than int() converts, a float where an
    integer belongs, and more cores or uops per cache line than the caps that
    bound what a command costs each fail in the loader and give one error
    line."""
    seed = serialize_machine(builtin_haswell()) if kind == "machine" else kernel_dict(ecmkit.builtin_kernels()["ddot"])
    text = json.dumps(seed)
    assert old in text
    path = tmp_path / f"{kind}.json"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(SchemaError, match=message):
        (load_machine if kind == "machine" else load_kernel)(path)
    code, out = invoke("predict", *(["-k", "ddot", "-m"] if kind == "machine" else ["-k"]), str(path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize(
    "cycles,message",
    [
        ("1" * 131_073, "field larger than field limit"),
        ("1e-5000", "plain decimal"),
        ("1e2000000", "plain decimal"),
        ("\u0661\u0667.\u0660\u0668", "positive plain decimal"),
    ],
    ids=["long-field", "tiny-exponent", "huge-exponent", "arabic-indic-digits"],
)
def test_measurement_the_reader_rejects_is_a_quick_one_line_error(tmp_path, capsys, cycles, message):
    meas = tmp_path / "meas.csv"
    meas.write_text(f"kernel,level,cycles_per_cl\nddot,L1,{cycles}\n")
    start = time.perf_counter()
    code, out = invoke("compare", "--measurements", str(meas))
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "row 2" in err[0] and message in err[0]
    assert elapsed < 0.1


def test_traffic_copy():
    code, text = invoke("traffic", "-k", "copy")
    assert code == 0
    cells = [line.split() for line in text.splitlines()]
    assert ["L1L2", "3"] in cells and ["L2L3", "3"] in cells and ["L3MEM", "3"] in cells
    assert "24 B with write-allocate" in text


def test_traffic_nt_variant():
    code, text = invoke("traffic", "-k", "stream_triad_nt", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1:] == [["L1L2", "2"], ["L2L3", "2"], ["L3MEM", "3"]]


def test_traffic_load_single_line():
    code, text = invoke("traffic", "-k", "load", "--format", "csv")
    assert code == 0
    assert text.splitlines()[1:] == ["L1L2,1", "L2L3,1", "L3MEM,1"]


def test_scale_ddot_ceiling():
    code, text = invoke("scale", "-k", "ddot", "--mode", "cod", "--cores", "14")
    assert code == 0
    assert "ceiling: 4050 MUp/s" in text


def test_scale_kernel_without_streams_has_no_ceiling(tmp_path):
    path = write_kernel(tmp_path, [], [{"count": 2, "class": "fma"}])
    code, text = invoke("scale", "-k", path, "--cores", "3")
    assert code == 0
    assert text.splitlines()[-3:] == ["3      55200  core", "", "compute bound: no bandwidth ceiling"]


def test_scale_single_core_matches_predict():
    code, text = invoke("scale", "-k", "ddot", "--cores", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["cores", "mups", "bound"]
    assert rows[1][0] == "1"
    assert float(rows[1][1]) == pytest.approx(1076.9)


def test_scale_out_of_range_cores():
    code, _ = invoke("scale", "-k", "ddot", "--cores", "99")
    assert code == 2


def test_scale_csv_matches_json_values():
    _, csv_text = invoke("scale", "-k", "stream_triad", "--cores", "5", "--format", "csv")
    _, json_text = invoke("scale", "-k", "stream_triad", "--cores", "5", "--format", "json")
    csv_rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    json_points = json.loads(json_text)["points"]
    assert len(csv_rows) == len(json_points) == 5
    for row, point in zip(csv_rows, json_points):
        assert int(row[0]) == point["cores"]
        assert float(row[1]) == float(point["mups"])
        assert row[2] == point["bound"]


def test_compare_embedded_measurements():
    code, text = invoke("compare", "-k", "copy", "--format", "csv")
    assert code == 0
    rows = {r["level"]: r for r in csv.DictReader(io.StringIO(text))}
    assert rows["MEM"]["abs_error_pct"] == "3"


def test_compare_schoenauer_l2_error():
    code, text = invoke("compare", "-k", "schoenauer_triad", "--format", "csv")
    assert code == 0
    rows = {r["level"]: r for r in csv.DictReader(io.StringIO(text))}
    assert rows["L2"]["abs_error_pct"] == "24"


def test_compare_synthetic_exact_measurements(tmp_path):
    meas = tmp_path / "exact.csv"
    lines = ["kernel,level,cycles_per_cl", "ddot,L1,2", "ddot,L2,4", "ddot,L3,8", f"ddot,MEM,{17.0864197530864198:.10f}"]
    meas.write_text("\n".join(lines) + "\n")
    code, text = invoke("compare", "-k", "ddot", "--measurements", str(meas), "--no-penalty", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["abs_error_pct"] for r in rows] == ["0", "0", "0", "0"]


def test_compare_kernel_named_twice_is_compared_once():
    _, once = invoke("compare", "-k", "ddot", "-k", "copy", "--format", "csv")
    _, repeated = invoke("compare", "-k", "ddot", "-k", "copy", "-k", "ddot", "--format", "csv")
    assert repeated == once
    assert [row["kernel"] for row in csv.DictReader(io.StringIO(once))] == ["ddot"] * 4 + ["copy"] * 4


def test_compare_malformed_csv(tmp_path, capsys):
    meas = tmp_path / "bad.csv"
    meas.write_text("kernel,level,cycles_per_cl\nddot,L1\n")
    code, _ = invoke("compare", "--measurements", str(meas))
    assert code == 2
    assert "row 2" in capsys.readouterr().err


def test_compare_skips_a_measured_kernel_it_cannot_resolve(tmp_path, capsys):
    meas = tmp_path / "extra.csv"
    meas.write_text("kernel,level,cycles_per_cl\nddot,L1,2.1\nfoo,L1,3\n")
    code, text = invoke("compare", "--measurements", str(meas), "--format", "csv")
    assert code == 0
    assert [row["kernel"] for row in csv.DictReader(io.StringIO(text))] == ["ddot"]
    assert "warning: unknown kernel 'foo'; skipped" in capsys.readouterr().err.splitlines()


def test_compare_missing_level_warns(tmp_path, capsys):
    meas = tmp_path / "partial.csv"
    meas.write_text("kernel,level,cycles_per_cl\nddot,L1,2.1\n")
    code, text = invoke("compare", "-k", "ddot", "--measurements", str(meas), "--format", "csv")
    assert code == 0
    assert "no MEM measurement" in capsys.readouterr().err
    assert len(list(csv.DictReader(io.StringIO(text)))) == 1


def test_validate_passes_on_builtins():
    code, text = invoke("validate")
    assert code == 0
    assert "35/35 input cells match" in text
    assert "28/28 prediction cells match" in text


def test_validate_json_format():
    code, text = invoke("validate", "--format", "json")
    assert code == 0
    report = json.loads(text)
    assert report["ok"] is True
    assert report["predictions"]["matched"] == 28


def test_validate_detects_misconfigured_boundary(tmp_path):
    data = serialize_machine(builtin_haswell())
    for boundary in data["boundaries"]:
        if boundary["name"] == "L2L3":
            boundary["bytes_per_cycle"] = 64
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    code, text = invoke("validate", "-m", str(path))
    assert code == 1
    assert "ddot" in text and "L3" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--mode", "noncod"],
        ["validate", "--precise"],
        ["traffic", "-k", "ddot", "--mode", "cod"],
        ["traffic", "-k", "ddot", "--precise"],
        ["list-kernels", "--mode", "cod"],
        ["list-kernels", "--precise"],
        ["show-machine", "--mode", "noncod"],
    ],
)
def test_option_the_command_does_not_use_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def capability_machine(tmp_path, name, ports):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(serialize_machine(replace(builtin_haswell(), name=name, ports=ports))))
    return str(path)


def without(capabilities, ports=builtin_haswell().ports):
    """The ports with the capabilities removed, and ports left with none dropped."""
    return tuple(replace(p, capabilities=p.capabilities - set(capabilities)) for p in ports if p.capabilities - set(capabilities))


FMA_BEFORE_STORE = [{"count": 2, "class": "fma"}, {"count": 2, "class": "store", "addressing": "base-index-offset"}]


@pytest.mark.parametrize(
    "ports,argv,line",
    [
        ((PortSpec(0, frozenset({"add"})),), ["predict", "-k", "ddot"], "error: kernel 'ddot' needs load-agu-full ports"),
        ((PortSpec(0, frozenset({"add"})),), ["scale", "-k", "load"], "error: kernel 'load' needs load-agu-full ports"),
        ((PortSpec(0, frozenset({"add"})),), ["compare"], "error: kernel 'copy' needs load-agu-full ports"),
        ((PortSpec(0, frozenset({"add"})),), ["validate"], "error: kernel 'ddot' needs load-agu-full ports"),
        (without({"load-agu-full"}), ["predict", "-k", "store"], "error: kernel 'store' needs address-generation ports"),
        (without({"store-data"}), ["predict", "-k", "stream_triad"], "error: kernel 'stream_triad' needs store-data ports"),
        (without({"store-data"}), ["validate"], "error: kernel 'store' needs store-data ports"),
        (without({"fma"}), ["predict", "-k", "ddot"], "error: kernel 'ddot' needs fma ports"),
        (without({"fma"}), ["compare"], "error: kernel 'ddot' needs fma ports"),
        # a missing load/store capability is reported before an arithmetic
        # one, also when the arithmetic uop comes first
        (without({"fma", "store-data"}), ["predict", "-k", FMA_BEFORE_STORE], "error: kernel 'k' needs store-data ports"),
    ],
)
def test_missing_port_capability_is_a_one_line_error(tmp_path, capsys, ports, argv, line):
    argv = [write_kernel(tmp_path, [{"array": "A", "access": "write"}], a) if isinstance(a, list) else a for a in argv]
    code, text = invoke(*argv, "-m", capability_machine(tmp_path, "lacking", ports))
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == line + "\n"


def test_list_kernels_has_all_builtins():
    code, text = invoke("list-kernels", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 10
    names = {r["kernel"] for r in rows}
    assert {"ddot", "stream_triad_nt", "schoenauer_triad_opt"} <= names


def test_show_machine_haswell():
    code, text = invoke("show-machine", "haswell")
    assert code == 0
    assert "2.3" in text
    assert "L1L2" in text and "64" in text


def test_show_machine_from_env_path(tmp_path, monkeypatch):
    path = tmp_path / "custom.json"
    data = serialize_machine(builtin_haswell())
    data["name"] = "custom"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("ECM_MACHINE_PATH", str(tmp_path))
    code, text = invoke("show-machine", "custom")
    assert code == 0
    assert "custom" in text


@pytest.mark.parametrize("precise", [(), ("--precise",)])
def test_show_machine_shows_the_noncod_derating_in_every_format(tmp_path, precise):
    path = tmp_path / "derated.json"
    data = serialize_machine(builtin_haswell())
    for derating, default in ((0.9, 27.2), (0.95, 27.15)):
        data["memory"]["noncod_derating"] = derating
        data["memory"]["default_bandwidth_gbs"] = default
        path.write_text(json.dumps(data))
        texts = {fmt: invoke("show-machine", "-m", str(path), "--format", fmt, *precise) for fmt in ("table", "csv", "json")}
        assert all(code == 0 for code, _ in texts.values())
        memory = json.loads(texts["json"][1])["memory"]
        assert (memory["noncod_derating"], memory["default_bandwidth_gbs"]) == (derating, default)
        rows = list(csv.DictReader(io.StringIO(texts["csv"][1])))
        assert {"parameter": "noncod derating", "value": str(derating)} in rows
        assert {"parameter": "default GB/s", "value": str(default)} in rows
        lines = [line.split() for line in texts["table"][1].splitlines()]
        assert [line for line in lines if line[0] == "noncod"] == [["noncod", "derating", str(derating)]]
        assert [line for line in lines if line[:2] == ["default", "GB/s"]] == [["default", "GB/s", str(default)]]
    for fmt in ("table", "csv"):
        _, underated = invoke("show-machine", "haswell", "--format", fmt, *precise)
        assert "derating" not in underated


@pytest.mark.parametrize("machine", ["/nonexistent.json", "haswell"])
def test_show_machine_refuses_a_name_and_a_machine_option(capsys, machine):
    code, text = invoke("show-machine", "haswell", "-m", machine)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: show-machine takes a machine name or -m, not both\n"


def test_nt_estimate_stream_triad():
    code, text = invoke("nt-estimate", "-k", "stream_triad", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["volume_ratio"] == pytest.approx(1.3)
    assert payload["measured_reference"]["domain_mups"]["nontemporal"] == 1181


def test_predict_table_csv_json_same_values():
    _, table_text = invoke("predict", "-k", "copy")
    _, csv_text = invoke("predict", "-k", "copy", "--format", "csv")
    _, json_text = invoke("predict", "-k", "copy", "--format", "json")
    csv_rows = {r["level"]: r for r in csv.DictReader(io.StringIO(csv_text))}
    json_rows = {r["level"]: r for r in json.loads(json_text)["levels"]}
    for level in ("L1", "L2", "L3", "MEM"):
        assert float(csv_rows[level]["cycles_per_cl"]) == float(json_rows[level]["cycles_per_cl"])
        assert f"{level}" in table_text
        assert csv_rows[level]["cycles_per_cl"] in table_text


# ---------------------------------------------------------------------------
# golden CLI bytes: every argv in tests/data/cli_golden.json must give the
# recorded exit code, stdout and stderr. `<work>` stands for a directory
# holding the files `write_golden_inputs` writes.

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("predict", "traffic", "scale", "compare", "validate", "list-kernels", "show-machine", "nt-estimate")
FORMATS = ("table", "csv", "json")


def kernel_dict(kernel) -> dict:
    """A kernel in the kernel file schema, every key written."""
    streams = [{"array": s.array_name, "access": s.access, "nontemporal": s.nontemporal} for s in kernel.streams]
    uops = [{"count": g.count, "class": g.uop_class} for g in kernel.uops]
    for entry, group in zip(uops, kernel.uops):
        if group.addressing is not None:
            entry["addressing"] = group.addressing
    data = {"name": kernel.name, "element_bytes": kernel.element_bytes, "streams": streams, "uops": uops}
    return {**data, "flops_per_iteration": kernel.flops_per_iteration}


def write_golden_inputs(work: Path) -> None:
    """The built-in machine and kernels as files, a machine with a 64 B/c
    L2L3 boundary, and a measurement CSV with only ddot's L1 row."""
    machine = serialize_machine(builtin_haswell())
    (work / "machine.json").write_text(json.dumps(machine, indent=2) + "\n")
    for boundary in machine["boundaries"]:
        if boundary["name"] == "L2L3":
            boundary["bytes_per_cycle"] = 64
    (work / "wide.json").write_text(json.dumps(machine))
    (work / "partial.csv").write_text("kernel,level,cycles_per_cl\nddot,L1,2.1\n")
    for name, kernel in ecmkit.builtin_kernels().items():
        (work / f"{name}.json").write_text(json.dumps(kernel_dict(kernel)))


def golden_argvs() -> list[list[str]]:
    """The benchmark's CLI probe argvs (every command and format, built-in
    names and then files), the display and scaling options in every format,
    warnings, a validation failure and three input errors."""
    kernels = ecmkit.builtin_kernels()
    names = sorted(kernels)
    with_writes = sorted(n for n, k in kernels.items() if any(s.access == "write" for s in k.streams))
    argvs = []
    for i, (command, fmt) in enumerate((c, f) for c in COMMANDS for f in FORMATS):
        pool = with_writes if command == "nt-estimate" else names
        kernel = pool[i % len(pool)]
        for from_files in (False, True):
            argv = [command, "--format", fmt]
            if command in ("predict", "traffic", "scale", "nt-estimate"):
                argv += ["-k", f"<work>/{kernel}.json" if from_files else kernel]
            if from_files:
                argv += ["-m", "<work>/machine.json"]
            if command in ("predict", "scale") and fmt != "csv":
                argv.append("--penalty")
            if command == "compare" and from_files:
                argv.append("--no-penalty")
            argvs.append(argv)
    variants = [
        ["predict", "-k", "schoenauer_triad", "--precise"],
        ["scale", "-k", "stream_triad", "--precise"],
        ["compare", "-k", "copy", "-k", "update", "--precise"],
        ["show-machine", "--precise"],
        ["nt-estimate", "-k", "stream_triad", "--precise"],
        ["predict", "-k", "copy", "--mode", "noncod"],
        ["scale", "-k", "copy", "--mode", "noncod"],
        ["nt-estimate", "-k", "schoenauer_triad", "--mode", "noncod"],
        ["scale", "-k", "ddot", "--pinning", "round-robin", "--cores", "9"],
        ["scale", "-k", "update", "--penalty"],
        ["compare", "-k", "ddot", "--measurements", "<work>/partial.csv"],
        ["compare", "-k", "copy", "-k", "nosuch"],
        ["validate", "-m", "<work>/wide.json"],
    ]
    argvs += [argv + ["--format", fmt] for argv in variants for fmt in FORMATS]
    return argvs + [["nt-estimate", "-k", "ddot"], ["predict", "-k", "nosuch"], ["scale", "-k", "ddot", "--cores", "99"]]


def run_golden(argv: list[str], work: Path) -> dict:
    """One in-process run: the argv with <work> replaced, and its exit code,
    stdout and stderr with the directory put back as <work>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([a.replace("<work>", str(work)) for a in argv], out=out)
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue().replace(str(work), "<work>"),
        "stderr": err.getvalue().replace(str(work), "<work>"),
    }


def test_cli_output_matches_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("ECM_MACHINE_PATH", raising=False)
    write_golden_inputs(tmp_path)
    cases = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in cases] == golden_argvs()
    assert {case["code"] for case in cases} == {0, 1, 2}
    for case in cases:
        assert run_golden(case["argv"], tmp_path) == case


if __name__ == "__main__":
    # Rewrites the golden file from the current CLI:
    # PYTHONPATH=src python tests/test_cli.py
    import tempfile

    os.environ.pop("ECM_MACHINE_PATH", None)
    with tempfile.TemporaryDirectory() as work:
        write_golden_inputs(Path(work))
        cases = [run_golden(argv, Path(work)) for argv in golden_argvs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
