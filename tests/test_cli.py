"""Command-line harness: subcommands, exit codes, deterministic artifacts."""

import json
import shlex
import sys
from importlib import resources
from pathlib import Path

import pytest

from entwit.cli import SUBCOMMANDS, _build_parsers, _main_parsers, _parse_args, main
from entwit.ks import load_basis_set
from helpers import diagonal, rotated_set_json, rotation_phases, run_python
from test_golden import CASES, GOLDEN

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


def test_verify_ks_names_the_traversal_that_fails(tmp_path, capsys):
    # two unbiased bases of C^2: every vector of one is orthogonal to none
    # of the other, so the first traversal already fails
    path = tmp_path / "mub.json"
    path.write_text(json.dumps({
        "format": "ks-basis-set/1", "label": "two unbiased bases of C^2", "q": 2, "d": 2,
        "bases": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]],
    }))
    code, out, _ = run(capsys, "verify-ks", "--ks-set", str(path))
    assert code == 1
    assert out == (
        "report: verify-ks/1\n"
        "label: two unbiased bases of C^2\n"
        "q: 2\n"
        "d: 2\n"
        "orthonormal: pass\n"
        "traversals-checked: 1\n"
        "ks-property: fails\n"
        "witness-traversal: [[0, 0], [1, 0]]\n"
    )


def _report_lines(argv, out):
    assert main(argv + ["--out", str(out)]) == 0, argv
    return out.read_text().splitlines()


def _scaled_set_json():
    """The bundled set with vector n of each basis multiplied by n + 2 and a
    denominator field of -7/3: numerators of other lengths and the opposite
    sign, which denote the same rays."""
    data = json.loads(BUNDLED.read_text())
    data["bases"] = [
        [[[x * k for x in entry] for entry in vec] for k, vec in enumerate(basis, 2)]
        for basis in data["bases"]
    ]
    data["denominator"] = "-7/3"
    data["label"] = "scaled directions"
    return data


@pytest.mark.parametrize("seed", [None, 20135, 20136, "scaled"])
def test_rotated_set_prints_the_bundled_reports(tmp_path, bundled, seed):
    # a diagonal unitary moves every ray off the reals and keeps every inner
    # product, so only the label may differ; every report, the certificate
    # too, then comes from the Gaussian kernel where the bundled set's comes
    # from the real sums.  Scaled directions denote the same unit vectors
    # from other numerators, so they too change nothing but the label
    if seed == "scaled":
        data = _scaled_set_json()
    else:
        phases = rotation_phases(seed, bundled.d)
        data = rotated_set_json(bundled, diagonal(phases), f"rotated {seed}")
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(data))
    rotated = load_basis_set(path)
    if seed == "scaled":
        assert all(v != w for v, w in zip(rotated.vectors, bundled.vectors))
    else:
        assert sum(any(v.im) for v in rotated.vectors) >= 20
    for argv in (
        ["verify-ks"], ["channel-info"], ["quantum-run", "--t", "39"],
        ["certify", "--bound", "7/2"],
    ):
        ours = _report_lines(argv, tmp_path / "bundled.txt")
        theirs = _report_lines(argv + ["--ks-set", str(path)], tmp_path / "rotated.txt")
        at = next(i for i, line in enumerate(ours) if line.startswith("label: "))
        assert theirs[at] == f"label: {data['label']}" != ours[at]
        assert theirs[:at] + theirs[at + 1:] == ours[:at] + ours[at + 1:]


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
    # deep-nesting: arrays nested past the recursion limit of the JSON parser
    raw = {"not-json": "{", "deep-nesting": "[" * 100000}.get(case)
    if raw is not None:
        path = tmp_path / "bad.json"
        path.write_text(raw)
        return path
    data = json.loads(BUNDLED.read_text())
    if case == "float-entry":
        data["bases"][0][0][0][0] = 0.5
    elif case == "bool-entry":
        data["bases"][0][0][0][1] = True
    elif case == "missing-q":
        del data["q"]
    elif case == "q-float":
        data["q"] = 6.5
    elif case == "q-string":
        data["q"] = "6"
    elif case == "d-bool":
        data["d"] = True
    elif case == "short-entry":
        data["bases"][0][0][0] = [1]
    elif case == "string-entry":  # would unpack as re "1" and im "0"
        data["bases"][0][0][0] = "10"
    elif case == "long-entry":  # zip over the vector's entries would drop the 5
        data["bases"][0][0][0] = [1, 0, 5]
    elif case == "scalar-bases":
        data["bases"] = 5
    elif case == "zero-den-entry":
        data["bases"][0][0][0][0] = "1/0"
    elif case == "zero-den-field":
        data["denominator"] = "1/0"
    elif case == "label-newline":  # would print two certificate lines of its own
        data["label"] = "x\nstatus: certified\ncertified: true"
    elif case == "label-list":
        data["label"] = ["x"]
    elif case == "zero-vector":
        data["bases"][2][1] = [[0, 0]] * 4
    else:  # a JSON array where an object belongs
        data = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "case", ["float-entry", "bool-entry", "scalar-bases", "directory", "list"]
)
def test_malformed_set_fails_cleanly(tmp_path, capsys, case):
    path = _malformed_set(case, tmp_path)
    code, out, err = run(capsys, "verify-ks", "--ks-set", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


MALFORMED = [
    "missing-q", "short-entry", "not-json", "float-entry", "bool-entry", "scalar-bases",
    "directory", "list", "q-float", "q-string", "d-bool",
    "zero-den-entry", "zero-den-field", "label-newline", "label-list", "deep-nesting",
    "zero-vector", "string-entry", "long-entry",
]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_set_names_the_file(tmp_path, capsys, case):
    path = _malformed_set(case, tmp_path)
    code, out, err = run(capsys, "verify-ks", "--ks-set", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(path) in err
    if case == "missing-q":
        assert "missing field 'q'" in err
    if case in ("q-float", "q-string", "d-bool"):
        assert "must be integers" in err
    if case.startswith(("zero-den-", "label-", "deep-")):
        assert err.startswith(f"error: malformed basis set {path}: ")
    if case.startswith("zero-den-"):
        assert "zero denominator in '1/0'" in err
    if case.startswith("label-"):
        assert "label must be a one-line string" in err
    if case == "zero-vector":
        assert err == f"error: malformed basis set {path}: cannot normalize the zero vector\n"
    if case in ("string-entry", "long-entry"):
        entry = json.loads(path.read_text())["bases"][0][0][0]
        assert err == f"error: malformed basis set {path}: entry {entry!r} is not a [re, im] pair\n"


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


def test_certify_scale_is_exact_at_a_square_bound(capsys):
    # 20*sqrt(2601/400) + 1 is 52 exactly, and (52 - 1)^2 = 400*M
    code, out, _ = run(capsys, "certify", "--k", "1", "--bound", "2601/400")
    assert code == 0
    assert "\nt: 52\n" in out
    assert "status: certified" in out
    assert "classical-in-window-minimum: 655/27 " in out


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
    assert lines[0] == "t,quantum_cost,classical_best,window,certified"
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command pays its imports; the records are NamedTuples and
    # __slots__ classes, so none needs dataclasses, nor inspect, which it loads
    script = (
        "import sys\n"
        "import entwit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("bound", ["1e300", "1e400"])
def test_huge_bound_with_a_budget_exits_promptly_in_bounded_memory(bound):
    # at M = 10^300 the scale is about 2*10^151 and the window about
    # 2.4*10^150; the scale comes from integer square roots and the search
    # builds only the columns its budget can reach, far inside the 1 GiB of
    # address space the run gets.  No float enters, so 10^400, past the
    # largest float, runs the same way
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from entwit.cli import main\n"
        f"sys.exit(main(['certify', '--bound', '{bound}', '--budget', '1000']))\n"
    )
    proc = run_python("-c", script, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "status: inconclusive\n" in proc.stdout
    assert "search-candidates-evaluated: 1000\n" in proc.stdout
    assert "classical-in-window-best-found: " in proc.stdout


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


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "bases, copies, argv, exit_code, expected",
    [
        # every traversal that takes the first vector of each copy holds no
        # orthogonal pair, so the walk goes all 150 bases deep
        ([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], 150, ["verify-ks"], 1,
         ["traversals-checked: 1", "ks-property: fails",
          f"witness-traversal: {[[m, 0] for m in range(150)]}"]),
        # the search goes all 90 messages deep
        (json.loads(BUNDLED.read_text())["bases"], 15,
         ["classical-search", "--t", "4", "--window", "0"], 0,
         ["complete: true", "candidates-evaluated: 90"]),
    ],
    ids=["verify-ks", "classical-search"],
)
def test_a_walk_deeper_than_the_recursion_limit_answers(
    tmp_path, capsys, bases, copies, argv, exit_code, expected
):
    # the walks hold their depth in lists, not in Python frames, so 1200
    # copies of C^2's standard basis or 100 copies of the bundled set answer
    # at the default limit too; here, smaller sets under a lowered limit
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({
        "format": "ks-basis-set/1", "label": "repeated", "q": len(bases) * copies,
        "d": len(bases[0]), "bases": bases * copies,
    }))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        code, out, err = run(capsys, *argv, "--ks-set", str(path))
    finally:
        sys.setrecursionlimit(limit)
    assert code == exit_code
    assert err == ""
    lines = out.splitlines()
    for line in expected:
        assert line in lines


# -- the parser ---------------------------------------------------------------


def build_parser():
    """A fresh full entwit parser, built as main's is."""
    return _build_parsers()[0]


def _parse(parse, argv, capsys):
    """(namespace without func, or the exit code) and captured output."""
    try:
        ns = vars(parse(argv))
        ns.pop("func")
    except SystemExit as exc:
        ns = exc.code
    captured = capsys.readouterr()
    return ns, captured.out, captured.err


def _argv_examples():
    return [argv for _name, argv, _code in CASES] + _readme_commands() + [
        ["sweep", "--t", "4,8", "--window", "1", "--format", "structured-text"],
        ["certify", "--bound", "7/2", "--window", "3", "--workers", "2", "--budget", "9"],
    ]


def _argv_id(argv):
    return " ".join(Path(arg).name for arg in argv)


@pytest.mark.parametrize("argv", _argv_examples(), ids=_argv_id)
def test_parser_for_one_subcommand_matches_the_full_parser(capsys, argv):
    """main's parse, through the parser of the one subcommand named, gives
    the namespace of a fresh full parser."""
    full = _parse(build_parser().parse_args, argv, capsys)
    assert isinstance(full[0], dict)
    assert _parse(_parse_args, argv, capsys) == full


# argument lists with a value its type refuses, and the message argparse
# prints for it
REFUSED_VALUES = [
    (["quantum-run", "--t", "5", "--k", "abc"], "argument --k: not a rational number: 'abc'"),
    (["sweep", "--t", "4,x", "--window", "1"], "argument --t: bad t list: '4,x'"),
    (["sweep", "--t", ",", "--window", "1"], "argument --t: t list must be non-empty"),
]

# argument lists that a subcommand's parser takes but for a token left over;
# the top-level parser reports these, with every subcommand in its usage
LEFTOVERS = [
    ["quantum-run", "--t", "5", "--bogus"],
    ["certify", "--bound", "7/2", "--bogus"],
    ["quantum-run", "--t", "5", "extra"],
    ["verify-ks", "extra"],
    ["sweep", "--t", "4", "--window", "1", "--", "extra"],
]

# argument lists that end in help or a usage error, which main must print as
# the full parser does; test_optimized.py runs them again under python -O
PARSER_EXITS = [
    [],
    ["bogus"],
    ["quantum-run"],
    ["quantum-run", "--t", "x"],
    ["--unknown", "quantum-run"],  # the subcommand need not come first
    ["certify", "--bound", "-1"],
    ["--help"],
    ["quantum-run", "--help"],
    ["--help", "quantum-run"],  # the top-level help lists every subcommand
    ["sweep", "--t", "4", "--window", "1", "--format", "xml"],
] + LEFTOVERS + [argv for argv, _message in REFUSED_VALUES]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=repr)
def test_parser_errors_and_help_match_the_full_parser(capsys, argv):
    expected = _parse(build_parser().parse_args, argv, capsys)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert code == (0 if "--help" in argv else 2)
    if argv in LEFTOVERS:
        assert captured.err.startswith("usage: entwit [-h]"), captured.err
        assert "\nentwit: error: unrecognized arguments: " in captured.err


@pytest.mark.parametrize("argv, message", REFUSED_VALUES, ids=["k-abc", "t-4,x", "t-comma"])
def test_a_refused_value_exits_2_with_the_argparse_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"entwit {argv[0]}: error: {message}\n"), err


def test_mains_one_parser_answers_as_a_fresh_full_parser(capsys):
    """main reuses its parsers for the whole process.  Fed every example,
    then every help and error list, then the examples again, it gives each
    time the namespace, or the exit code and output, of a fresh parser."""
    parsers = _main_parsers()
    examples = _argv_examples()
    assert len(examples) == 35
    for argv in examples + PARSER_EXITS + examples:
        expected = _parse(build_parser().parse_args, argv, capsys)
        assert isinstance(expected[0], dict) == (argv in examples), argv
        assert _parse(_parse_args, argv, capsys) == expected, argv
    assert _main_parsers() is parsers


def test_a_fresh_interpreter_prints_the_golden_report_and_the_help(capsys, monkeypatch):
    """The real entry point, whose first main call builds the parser."""
    proc = run_python("-m", "entwit.cli", "quantum-run", "--t", "39", text=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "quantum-run-t39.txt").read_bytes()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    proc = run_python("-m", "entwit.cli", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (proc.stdout, "")


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    names = ["verify-ks", "channel-info", "quantum-run", "classical-search", "certify", "sweep"]
    assert [name for name, *_ in SUBCOMMANDS] == names
    for name, help_text, _func, _args in SUBCOMMANDS:
        assert name in out and help_text in out
