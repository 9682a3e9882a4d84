from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogndt
from fogndt.bounds import CSV_HEADER, bounds_report, gap
from fogndt.cli import main
from conftest import make_cfg

_SRC = str(Path(fogndt.__file__).resolve().parents[1])


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python_fresh(*args):
    """(exit code, stdout, stderr) of ``python args`` in a new process."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _run_fresh(*argv, module="fogndt"):
    """(exit code, stdout, stderr) of ``python -m <module> argv`` in a new process."""
    return _python_fresh("-m", module, *argv)


def test_cli_loads_no_heavy_module():
    # Each of these costs every command set-up time or peak RSS; numpy.ma
    # alone is 1.4 MB.  Checked after the import and after a threaded simulate.
    script = """
import os, sys
import fogndt.cli
heavy = ("concurrent.futures", "logging", "numpy.ma")
print(*[m for m in heavy if m in sys.modules])
fogndt.cli.main(["simulate", "--nt", "3", "--nr", "3", "--mut", "0.5", "--mur", "0.5", "--r", "10",
                 "--file-bits", "100000", "--out", os.devnull])
print(*[m for m in heavy if m in sys.modules])
"""
    assert _python_fresh("-c", script) == (0, "\n\n", "")


_SIMULATE_2X2 = ["simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
                 "--file-bits", "4096", "--seed", "3"]


def test_closed_form_commands_load_no_numpy(capsys):
    # Only the oracle needs numpy; importing it costs every other command
    # about half its start-up time.  Checked after each step in one process.
    script = f"""
import contextlib, io, os, sys
steps = []
def step(name):
    steps.append(name + ("+numpy" if "numpy" in sys.modules else ""))
import fogndt
step("import fogndt")
import fogndt.cli
step("import fogndt.cli")
cfg = ["--nt", "3", "--nr", "2", "--mut", "0.3", "--mur", "0.4", "--r", "2", "--out", os.devnull]
for argv in (["bounds", *cfg], ["bounds", *cfg, "--format", "csv"],
             ["sweep", *cfg, "--axis", "r", "--values", "lin:0.5:4:3"],
             ["gap-scan", "--nt-range", "2:3", "--nr-range", "2", "--mu-values", "0.5", "--r-values", "1",
              "--out", os.devnull],
             ["schedule-export", *cfg]):
    with contextlib.redirect_stderr(io.StringIO()):
        assert fogndt.cli.main(argv) == 0, argv
    step(argv[0])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert fogndt.cli.main({_SIMULATE_2X2!r}) == 0
step("simulate")
print(*steps, sep="\\n")
print(out.getvalue(), end="")
"""
    code, out, err = _python_fresh("-c", script)
    assert (code, err) == (0, "")
    steps = ["import fogndt", "import fogndt.cli", "bounds", "bounds", "sweep", "gap-scan",
             "schedule-export", "simulate+numpy"]
    assert out.split("\n", len(steps))[:-1] == steps
    assert out.split("\n", len(steps))[-1] == _run(capsys, *_SIMULATE_2X2)[1]


def test_python_dash_m_bounds_loads_no_numpy():
    code, out, err = _python_fresh(
        "-X", "importtime", "-m", "fogndt", "bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5",
        "--r", "1",
    )
    assert code == 0 and json.loads(out)["tau_upper"] == 0.75
    imported = [line.rpartition("|")[2].strip() for line in err.splitlines()]
    assert "fogndt.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


def test_traced_names_are_module_callables_before_numpy_loads():
    # The benchmark's tracer wraps these three in `fogndt.cli`'s namespace for
    # its scheduler, placement and oracle metrics; a name that moved out of it
    # would silently drop those metrics.
    script = """
import sys
import fogndt.cli
names = ("build_schedule", "sample_placement", "execute_schedule")
print([callable(fogndt.cli.__dict__.get(n)) for n in names], "numpy" in sys.modules)
"""
    assert _python_fresh("-c", script) == (0, "[True, True, True] False\n", "")


def test_bounds_json(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--nt", "2", "--nr", "5", "--mut", "0.5", "--mur", "0.2", "--r", "2"
    )
    assert code == 0
    doc = json.loads(out)
    report = bounds_report(make_cfg(nt=2, nr=5, nfiles=5, mu_t=0.5, mu_r=0.2, r=2.0))
    assert doc["tau_upper"] == report.tau_upper
    assert doc["tau_lower"] == report.tau_lower
    assert doc["gap"] == report.gap


def test_bounds_csv(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5",
        "--r", "1", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == CSV_HEADER
    assert row == bounds_report(make_cfg()).to_csv_row()


def test_bounds_degenerate_point(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "1", "--r", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tau_upper"] == 0.0 and doc["tau_lower"] == 0.0 and doc["gap"] == 1.0


def test_malformed_flag_exits_2(capsys):
    code, out, _ = _run(capsys, "bounds", "--nt", "two")
    assert code == 2
    assert out == ""


def test_invalid_config_exits_2(capsys):
    code, out, err = _run(
        capsys, "bounds", "--nt", "1", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1"
    )
    assert code == 2
    assert out == ""
    assert "num_ens" in err


def test_missing_config_exits_2(capsys):
    code, _, err = _run(capsys, "bounds", "--nt", "2", "--nr", "2")
    assert code == 2
    assert "missing configuration" in err


def test_config_file_with_flag_overrides(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"num_ens": 2, "num_ues": 2, "num_files": 2, "mu_t": 0.5, "mu_r": 0.5, "fronthaul_r": 1.0}
        ),
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, "bounds", "--config", str(path), "--r", "2", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1] == bounds_report(make_cfg(r=2.0)).to_csv_row()


_VALID_DOC = {"num_ens": 2, "num_ues": 2, "num_files": 2, "mu_t": 0.5, "mu_r": 0.5, "fronthaul_r": 1.0}


@pytest.mark.parametrize(
    "doc",
    [
        {**_VALID_DOC, "mu_t": "0.5"},
        {**_VALID_DOC, "mu_t": True},
        {**_VALID_DOC, "mu_r": None},
        {**_VALID_DOC, "fronthaul_r": [1.0]},
        [1, 2],
        "config",
        None,
    ],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_VALID_DOC, "fronthaul_R": 99, "num_file": 7}), encoding="utf-8")
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: unknown configuration key: 'fronthaul_R'\n"


@pytest.mark.parametrize(
    "doc, line",
    [
        ({**_VALID_DOC, "num_ens": "two"}, "error: num_ens must be an integer, got 'two'\n"),
        ({**_VALID_DOC, "mu_t": [0.5]}, "error: mu_t must be a number, got [0.5]\n"),
        ({**_VALID_DOC, "num_ens": "x" * 1_000_000}, f"error: num_ens must be an integer, got '{'x' * 47}...{'x' * 47}'\n"),
        ({**_VALID_DOC, "k" * 500_000: 1}, f"error: unknown configuration key: '{'k' * 47}...{'k' * 47}'\n"),
    ],
    ids=["short_value", "short_list", "long_value", "long_key"],
)
def test_config_error_echoes_a_bounded_value(tmp_path, capsys, doc, line):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == line


def test_deeply_nested_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: configuration file nests too deeply: {path}\n"


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 7)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(0.0, 1.0)
    | st.text(max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_CONFIG_DOCS = (
    _JSON_VALUES
    | st.dictionaries(st.sampled_from(sorted(_VALID_DOC)), _JSON_VALUES)
    | st.dictionaries(
        st.sampled_from(sorted(_VALID_DOC)),
        st.integers(2, 6) | st.floats(0.0, 1.0) | _JSON_VALUES,
        max_size=2,
    ).map(lambda changes: {**_VALID_DOC, **changes})
)


@settings(max_examples=200, deadline=None)
@given(doc=_CONFIG_DOCS)
def test_fuzzed_config_file_exits_0_or_2(doc):
    """Any JSON document as a config file gives exit 0 or 2, never a traceback.

    Integers stay within [-3, 7] so that shapes stay small: a size guard for
    huge shapes is a separate, still open item, and without it a huge shape
    is merely slow, not malformed.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bounds", "--config", str(path), "--out", str(Path(tmp) / "out.json")]) in (0, 2)


def test_sweep_single_point_equals_bounds(capsys):
    base = ("--nt", "2", "--nr", "5", "--mut", "0.5", "--mur", "0.2")
    code, sweep_out, _ = _run(
        capsys, "sweep", *base, "--r", "1", "--axis", "r", "--values", "2"
    )
    assert code == 0
    code, bounds_out, _ = _run(capsys, "bounds", *base, "--r", "2", "--format", "csv")
    assert code == 0
    assert sweep_out == bounds_out


def test_sweep_r_monotone_and_limit(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--nt", "2", "--nr", "5", "--mut", "0.5", "--mur", "0.2", "--r", "1",
        "--axis", "r", "--values", "geom:0.01:1e9:25",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    uppers = [float(row.split(",")[5]) for row in lines[1:]]
    assert all(b <= a for a, b in zip(uppers, uppers[1:]))
    limit = float(lines[1].split(",")[10])
    assert abs(uppers[-1] - limit) < 1e-6


def test_sweep_mu_r_to_one_ends_at_zero(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--axis", "mu_r", "--values", "0.5,0.75,1",
    )
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert float(last.split(",")[5]) == 0.0


def test_sweep_rejects_out_of_range_value(capsys):
    code, _, err = _run(
        capsys, "sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--axis", "mu_r", "--values", "0.5,1.5",
    )
    assert code == 2
    assert "mu_r" in err


@pytest.mark.parametrize("spec", ["lin:0:1", "geom:1:10:2:3", "lin:0:1:x"])
def test_sweep_malformed_grid_names_the_flag(capsys, spec):
    code, out, err = _run(
        capsys, "sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--axis", "r", "--values", spec,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --values") and "kind:start:stop:count" in err and repr(spec) in err


def test_simulate_success(capsys):
    code, out, _ = _run(
        capsys, "simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--file-bits", "100000", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["per_ue_success"] == [True, True]
    assert doc["failed_ues"] == []
    assert abs(doc["delta"]["tau"]) / doc["analytic"]["tau"] < 0.05


def test_simulate_zero_traffic_when_cached(capsys):
    code, out, _ = _run(
        capsys, "simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "1", "--r", "1",
        "--file-bits", "256",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["fronthaul_bits"] == 0
    assert doc["report"]["per_ue_success"] == [True, True]


def test_simulate_bad_demand_exits_2(capsys):
    code, _, err = _run(
        capsys, "simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--file-bits", "64", "--demand", "1",
    )
    assert code == 2
    assert "demand" in err


@pytest.mark.parametrize("demand", ["1,,2", "1,2,", ",1,2"])
def test_demand_with_empty_token_exits_2(capsys, demand):
    code, out, err = _run(
        capsys, "schedule-export", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--demand", demand,
    )
    assert code == 2
    assert out == ""
    assert "demand" in err


def test_simulate_negative_seed_exits_2(capsys):
    code, out, err = _run(
        capsys, "simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--file-bits", "64", "--seed", "-1",
    )
    assert code == 2
    assert out == "" and err == "error: --seed must be a non-negative integer: -1\n"


def test_simulate_unallocatable_file_size_exits_2(capsys):
    # Files of 10**15 bits exceed a 47-bit address space, so the allocation
    # fails at once whatever the memory overcommit policy.
    code, out, err = _run(
        capsys, "simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--file-bits", str(10**15),
    )
    assert code == 2
    assert out == "" and err.startswith("error:") and "file_size_bits" in err


def test_schedule_export(capsys):
    code, out, _ = _run(
        capsys, "schedule-export", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5",
        "--r", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "fogndt-schedule/1"
    assert doc["total_ndt"] == doc["fronthaul_ndt"] + doc["access_ndt"]


_EXPORT_ARGS = ("schedule-export", "--nt", "3", "--nr", "2", "--nfiles", "3", "--mut", "0.4", "--mur", "0.3",
                "--r", "2", "--demand", "3,3")


def test_schedule_export_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "schedule.json"
    code, printed, _ = _run(capsys, *_EXPORT_ARGS)
    assert code == 0
    code, out, _ = _run(capsys, *_EXPORT_ARGS, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_schedule_export_unwritable_out_exits_2(tmp_path, capsys, where):
    target = tmp_path / "missing" / "schedule.json" if where == "missing-directory" else tmp_path
    code, out, err = _run(capsys, *_EXPORT_ARGS, "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_gap_scan_single_cell(capsys):
    code, out, err = _run(
        capsys, "gap-scan", "--nt-range", "2:2", "--nr-range", "2:2",
        "--mu-values", "0.5", "--r-values", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER + ",degenerate"
    assert len(lines) == 2
    assert float(lines[1].split(",")[7]) == gap(make_cfg())
    assert "max gap" in err


def test_gap_scan_flags_degenerate_rows(capsys):
    code, out, _ = _run(
        capsys, "gap-scan", "--nt-range", "2:2", "--nr-range", "2:2",
        "--mu-values", "0.5,1", "--r-values", "1",
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    flags = {row.split(",")[3]: row.split(",")[-1] for row in rows}
    assert flags["1.0"] == "1"
    assert flags["0.5"] == "0"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gap-scan", "--nt-range", "2", "--nr-range", "2", "--mu-values", "0.5,,0.7", "--r-values", "1"),
         "--mu-values"),
        (("gap-scan", "--nt-range", "2", "--nr-range", "2", "--mu-values", "0.5", "--r-values", "1,"), "--r-values"),
        (("gap-scan", "--nt-range", "2", "--nr-range", "2", "--mu-values", "", "--r-values", ""), "--mu-values"),
        (("gap-scan", "--nt-range", "2", "--nr-range", "2", "--mu-values", "0.5", "--r-values", ""), "--r-values"),
        (("sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
          "--axis", "r", "--values", "1,,2,"), "--values"),
        (("sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
          "--axis", "r", "--values", ",1"), "--values"),
        (("sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
          "--axis", "r", "--values", ""), "--values"),
    ],
    ids=["gap-mu-inner", "gap-r-trailing", "gap-both-empty", "gap-r-empty",
         "sweep-inner-trailing", "sweep-leading", "sweep-empty"],
)
def test_empty_grid_token_exits_2(capsys, argv, flag):
    # An empty entry is refused as in --demand, never dropped; an empty list
    # never falls back to a default grid.
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and flag in err


@pytest.mark.parametrize("flag, value", [("--nt-range", "6:2"), ("--mu-values", ",")])
def test_gap_scan_empty_grid_exits_2(capsys, flag, value):
    code, out, err = _run(
        capsys, "gap-scan", "--nt-range", "2:2", "--nr-range", "2:2",
        "--mu-values", "0.5", "--r-values", "1", flag, value,
    )
    assert code == 2
    assert out == "" and "grid is empty" in err


@pytest.mark.parametrize("flag", ["--nt-range", "--nr-range"])
@pytest.mark.parametrize("value", ["x:3", ":3", "2:3:4", "", "2.5"])
def test_gap_scan_malformed_range_names_the_flag(capsys, flag, value):
    code, out, err = _run(
        capsys, "gap-scan", "--nt-range", "2:2", "--nr-range", "2:2",
        "--mu-values", "0.5", "--r-values", "1", flag, value,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}") and "lo:hi" in err and repr(value) in err


@pytest.mark.parametrize("flag", ["--nt-range", "--nr-range"])
@pytest.mark.parametrize("value, count", [("2", 1), ("2:", 1), ("2:6", 5)])
def test_gap_scan_range_forms(capsys, flag, value, count):
    code, out, _ = _run(
        capsys, "gap-scan", "--nt-range", "2:2", "--nr-range", "2:2",
        "--mu-values", "0.5", "--r-values", "1", flag, value,
    )
    assert code == 0 and len(out.strip().split("\n")) == 1 + count


def test_gap_scan_default_grid_within_bound(capsys):
    code, out, _ = _run(capsys, "gap-scan")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    worst = max(float(r.split(",")[7]) for r in rows if r.split(",")[-1] == "0")
    assert worst <= 12.0


def test_identical_invocations_are_byte_identical(capsys):
    args = (
        "sweep", "--nt", "3", "--nr", "3", "--mut", "0.3", "--mur", "0.4", "--r", "1",
        "--axis", "r", "--values", "geom:0.1:100:7",
    )
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = _run(
        capsys, "bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER


_TINY_R = "1e-310"


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", _TINY_R, "--format", "csv"),
        ("gap-scan", "--nt-range", "2:2", "--nr-range", "2:2", "--mu-values", "0.5", "--r-values", f"1,{_TINY_R}"),
        ("sweep", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
         "--axis", "r", "--values", f"1,{_TINY_R}"),
        ("simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", _TINY_R,
         "--file-bits", "64"),
        ("schedule-export", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", _TINY_R),
    ],
    ids=["bounds", "gap-scan", "sweep", "simulate", "schedule-export"],
)
def test_overflowing_r_exits_2(capsys, argv):
    # Times that overflow to inf have no finite gap or delta; the point is
    # refused instead of reporting gap = nan or an Infinity JSON token.
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "fronthaul_r" in err


@pytest.mark.parametrize("nt, nr", [(1100, 2), (2, 1100)])
def test_shape_with_overflowing_binomials_exits_2(capsys, nt, nr):
    code, out, err = _run(
        capsys, "bounds", "--nt", str(nt), "--nr", str(nr), "--mut", "0.5", "--mur", "0.5", "--r", "1"
    )
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err
    assert f"n_t={nt}, n_r={nr}" in err


def test_simulate_refuses_overflowing_r_before_sampling(capsys, monkeypatch):
    # The refusal must not wait for a placement of the whole file size.
    def no_sampling(*args):
        raise AssertionError("placement sampled before the schedule was checked")

    monkeypatch.setattr("fogndt.cli.sample_placement", no_sampling)
    code, out, err = _run(
        capsys, "simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", _TINY_R,
        "--file-bits", "5000000",
    )
    assert code == 2
    assert out == "" and "fronthaul_r" in err


def test_simulate_decode_failure_document(capsys, monkeypatch):
    from fogndt.oracle import DecodeFailure

    exc = DecodeFailure(("en", 2), ((1, 2), (1,)), (2,))

    def failing_oracle(*args):
        raise exc

    monkeypatch.setattr("fogndt.cli.execute_schedule", failing_oracle)
    code, out, err = _run(capsys, *_SIMULATE_2X2)
    assert code == 3
    assert out == json.dumps({"error": str(exc)}, indent=2) + "\n"
    assert err == ""


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    # One parser serves every call in a process; each call's output must
    # equal the same call's output in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    calls = [
        ("simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1"),
        ("bounds", "--nt", "2", "--nr", "5", "--mut", "0.5", "--mur", "0.2", "--r", "2", "--format", "csv"),
        ("sweep", "--nt", "3", "--nr", "3", "--mut", "0.3", "--mur", "0.4", "--r", "1",
         "--axis", "r", "--values", "0.1,1,10"),
        ("gap-scan", "--nt-range", "2:3", "--nr-range", "2:2", "--mu-values", "0.3,0.7", "--r-values", "1"),
        ("bounds", "--nt", "3", "--nr", "2", "--mut", "0.25", "--mur", "0.75", "--r", "0.5"),
    ]
    results = [_run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in results] == [2, 0, 0, 0, 0]
    assert json.loads(results[-1][1])["config"]["num_ens"] == 3
    for argv, result in zip(calls, results):
        assert result == _run_fresh(*argv)


@pytest.mark.parametrize("module", ["fogndt", "fogndt.cli"])
def test_python_dash_m_runs_the_cli(module):
    code, out, _ = _run_fresh(
        "bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1", "--format", "csv",
        module=module,
    )
    assert code == 0
    assert out == CSV_HEADER + "\n" + bounds_report(make_cfg()).to_csv_row() + "\n"
    code, out, err = _run_fresh(
        "bounds", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "0", module=module
    )
    assert code == 2
    assert out == "" and "fronthaul_r" in err
