"""Command-line harness: subcommands, exit codes, deterministic artifacts."""

import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from entwit.cli import main

BUNDLED = resources.files("entwit.data") / "ks_6_4_peres.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ks_ok(capsys):
    code, out, _ = run(capsys, "verify-ks")
    assert code == 0
    assert "ks-property: holds" in out
    assert "traversals-checked: 4096" in out


def test_verify_ks_bad_set(tmp_path, capsys):
    data = json.loads(BUNDLED.read_text())
    data["bases"][0][1] = data["bases"][0][0]  # duplicate vector in basis 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-ks", "--ks-set", str(path))
    assert code == 1
    assert "orthonormal: fail" in out


def test_missing_file_fails_cleanly(capsys):
    code, _out, err = run(capsys, "verify-ks", "--ks-set", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


def _readme_commands():
    """The ``entwit ...`` lines of the first fenced block under "Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("entwit ")
    ]


def test_readme_examples_run(tmp_path):
    commands = _readme_commands()
    assert len(commands) == 6
    for n, argv in enumerate(commands):
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        else:
            argv += ["--out", str(tmp_path / f"example-{n}.txt")]
        assert main(argv) == 0, argv


def _malformed_set(case, tmp_path):
    """A --ks-set path that does not parse as a basis set."""
    if case == "directory":
        return tmp_path
    data = json.loads(BUNDLED.read_text())
    if case == "float-entry":
        data["bases"][0][0][0][0] = 0.5
    elif case == "scalar-bases":
        data["bases"] = 5
    else:  # a JSON array where an object belongs
        data = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("case", ["float-entry", "scalar-bases", "directory", "list"])
def test_malformed_set_fails_cleanly(tmp_path, capsys, case):
    path = _malformed_set(case, tmp_path)
    code, out, err = run(capsys, "verify-ks", "--ks-set", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_channel_info(capsys):
    code, out, _ = run(capsys, "channel-info")
    assert code == 0
    assert "inputs: 24" in out
    assert "edges: 108" in out
    assert "degree-profile: 9x24" in out
    assert "independence-number: 5" in out


def test_quantum_run(capsys):
    code, out, _ = run(capsys, "quantum-run", "--t", "10", "--k", "1")
    assert code == 0
    assert "cost: 7/2 (3.5)" in out
    assert "branches: 216" in out
    assert "max-final-signal: 0" in out
    assert "below-kd2: true" in out


def test_quantum_run_rejects_small_t(capsys):
    code, _out, err = run(capsys, "quantum-run", "--t", "3")
    assert code == 2
    assert "error:" in err


def test_classical_search(capsys):
    code, out, _ = run(capsys, "classical-search", "--t", "10", "--window", "1")
    assert code == 0
    assert "complete: true" in out
    assert "best-cost:" in out


def test_classical_search_budget_exit_code(capsys):
    code, out, _ = run(
        capsys, "classical-search", "--t", "10", "--window", "2", "--budget", "30"
    )
    assert code == 3
    assert "complete: false" in out


def test_certify_with_window_override(capsys):
    code, out, _ = run(capsys, "certify", "--k", "1", "--bound", "3.5", "--window", "4")
    assert code == 0
    assert "status: certified" in out
    assert "t: 39" in out
    assert "window: 4" in out
    assert "quantum-cost: 7/2 (3.5)" in out


def test_certify_vacuous_exit_code(capsys):
    code, out, _ = run(capsys, "certify", "--k", "1", "--bound", "1")
    assert code == 4
    assert "status: vacuous" in out


def test_certify_budget_exit_code(capsys):
    code, out, _ = run(
        capsys, "certify", "--k", "1", "--bound", "3.5", "--window", "2",
        "--budget", "100",
    )
    assert code == 3
    assert "status: inconclusive" in out


def test_certify_reaches_bound_1000(capsys):
    code, out, _ = run(capsys, "certify", "--k", "1", "--bound", "1000")
    assert code == 0
    assert "status: certified" in out
    assert "t: 634" in out
    assert "window: 78" in out


def test_sweep_csv_contract(tmp_path, capsys):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    for out in (out1, out2):
        code, _o, _e = run(
            capsys, "sweep", "--t", "4,8", "--k", "1", "--window", "2",
            "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical artifacts
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,quantum_cost,classical_best,window,M_X,M_Z,t0,certified"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["4", "8"]
    assert {r[1] for r in rows} == {"3.5"}  # constant quantum column
    classical = [float(r[2]) for r in rows]
    assert classical == sorted(classical)  # non-decreasing


def test_sweep_workers_do_not_change_bytes(tmp_path, capsys):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    run(capsys, "sweep", "--t", "4", "--k", "1", "--window", "2",
        "--workers", "1", "--out", str(out1))
    run(capsys, "sweep", "--t", "4", "--k", "1", "--window", "2",
        "--workers", "2", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_classical_search_workers_do_not_change_bytes(tmp_path, capsys):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.txt"
        code, _o, _e = run(
            capsys, "classical-search", "--t", "4", "--k", "1/1000",
            "--window", "3", "--workers", workers, "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_search_gate_survives_optimized_mode():
    # python -O strips assert statements; the search's re-check must still
    # fire when its arithmetic disagrees with the exact re-evaluation
    script = (
        "assert False, 'assert statements are live'\n"
        "import sys\n"
        "from fractions import Fraction\n"
        "from entwit import control\n"
        "control._PrefixEvaluator.to_fraction = (\n"
        "    lambda self, scaled: Fraction(scaled + 1, self.scale_den))\n"
        "from entwit.cli import main\n"
        "sys.exit(main(['classical-search', '--t', '10', '--window', '1']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "SearchMismatchError" in proc.stderr
    assert "assert statements are live" not in proc.stderr


def test_entangled_gate_survives_optimized_mode():
    # python -O strips assert statements; a decoder that names the right
    # candidate with probability 1/2 leaves every final signal at zero, so
    # only the decode gate can stop quantum-run, and it must still raise
    script = (
        "assert False, 'assert statements are live'\n"
        "import sys\n"
        "from entwit import control, entangled\n"
        "real = entangled.decoder_decode\n"
        "def wrong(ks, s, residual):\n"
        "    right, p = real(ks, s, residual)\n"
        "    return right, p / 2\n"
        "control.decoder_decode = wrong\n"
        "from entwit.cli import main\n"
        "sys.exit(main(['quantum-run', '--t', '10']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "QuantumDecodeError" in proc.stderr
    assert "with probability 1/2" in proc.stderr
    assert "assert statements are live" not in proc.stderr


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "channel-info", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "independence-number: 5" in target.read_text()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical-search", "--t", "10"])  # missing required --window
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classical-search", "--t", "2", "--window", "1"],
        ["classical-search", "--t", "8", "--window", "-1"],
        ["certify", "--bound", "0"],
        ["classical-search", "--t", "4", "--window", "1", "--workers", "0"],
        ["classical-search", "--t", "10", "--window", "1", "--budget", "5"],
    ],
    ids=[
        "t-below-d", "negative-window", "zero-bound", "zero-workers",
        "budget-below-one-table",
    ],
)
def test_invalid_arguments_exit_usage(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects at parse time
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
