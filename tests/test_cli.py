import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from pgmhsp.cli import main
from pgmhsp.groups import parse_group_spec
from pgmhsp.jsonio import dumps

from oracles import eta_histogram_all_x


def run_cli(args, stdin_text=None, env=None):
    """Run the CLI in a child process; env adds variables to the environment."""
    proc = subprocess.run(
        [sys.executable, "-m", "pgmhsp.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=None if env is None else dict(os.environ, **env),
    )
    return proc


def run_cli_in_1_gib(args):
    """run_cli with the child's address space limited to 1 GiB."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pgmhsp.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
    )


def test_jsonio_formatting():
    doc = {"b": 0.1, "a": [1, 2.5, None, True], "c": "x\"y"}
    text = dumps(doc)
    assert text == '{"a": [1,2.5,null,true],"b": 0.10000000000000001,"c": "x\\"y"}'
    from fractions import Fraction

    assert dumps({"r": Fraction(19, 49)}) == '{"r": "19/49"}'
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(TypeError):
        dumps(object())


def test_closed_stdout_ends_the_run_quietly():
    # all 3^9 solutions print about 600 kB, far more than a pipe buffers, so
    # the child is still writing when the reader closes stdout (| head -c 200)
    instance = '{"group": "zn N=7 p=3 mu=2", "x": [0,0,0,0,0,0,0,0,0], "w": 0}'
    proc = subprocess.Popen(
        [sys.executable, "-m", "pgmhsp.cli", "solve-msum"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdin.write(instance.encode())
    proc.stdin.close()
    assert proc.stdout.read(200).startswith(b"{")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_solve_msum_example():
    proc = run_cli(
        ["solve-msum", "--verify"],
        stdin_text='{"group": "zn N=7 p=3 mu=2", "k": 1, "x": [1], "w": 3}',
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["solutions"] == [[2]]
    assert doc["eta"] == 1


def test_solve_msum_homogeneous_includes_zero():
    proc = run_cli(
        ["solve-msum"],
        stdin_text='{"group": "zpr p=3 jordan=2", "k": 2, "x": [[1,2],[0,1]], "w": [0,0]}',
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [0, 0] in doc["solutions"]


def test_solve_msum_malformed_group():
    proc = run_cli(
        ["solve-msum"],
        stdin_text='{"group": "zq N=7 p=3 mu=2", "k": 1, "x": [1], "w": 3}',
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_solve_msum_bad_json():
    proc = run_cli(["solve-msum"], stdin_text="{nope")
    assert proc.returncode == 2


def test_solve_msum_cap_exceeded():
    proc = run_cli(
        ["solve-msum", "--enum-cap", "10"],
        stdin_text='{"group": "zn N=7 p=3 mu=2", "k": 3, "x": [1,2,3], "w": 3}',
    )
    assert proc.returncode == 3


def _large_prime_instance():
    """zpr p=1009 jordan=3 at k = 3 with b = (5, 6, 7) planted: p^k = 1009^3
    exceeds the enumeration cap; the polynomial route checks the 1009^2
    points left by the linear layer."""
    from pgmhsp.msum import MSumInstance

    from oracles import instance_residual

    g = parse_group_spec("zpr p=1009 jordan=3")
    x = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
    w = instance_residual(MSumInstance(g, x, g.a_group.zero), (5, 6, 7))
    return {"group": "zpr p=1009 jordan=3", "k": 3, "x": [list(v) for v in x], "w": list(w)}


def test_solve_msum_large_prime_under_default_caps():
    from pgmhsp.msum import MSumInstance

    from oracles import instance_residual

    doc = _large_prime_instance()
    g, x, w = parse_group_spec(doc["group"]), tuple(map(tuple, doc["x"])), tuple(doc["w"])
    start = time.monotonic()
    proc = run_cli(["solve-msum"], stdin_text=json.dumps(doc))
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 10
    solutions = json.loads(proc.stdout)["solutions"]
    assert [5, 6, 7] in solutions
    for b in solutions:
        assert instance_residual(MSumInstance(g, x, w), tuple(b)) == w
    # --verify re-checks each b by its residual, with no brute force over p^k
    start = time.monotonic()
    verified = run_cli(["solve-msum", "--verify"], stdin_text=json.dumps(doc))
    assert verified.returncode == 0, verified.stderr
    assert time.monotonic() - start < 10
    assert verified.stdout == proc.stdout


def test_solve_msum_large_work_exits_3_quickly():
    # k = 4 at p = 1009: three free coordinates, 1009^3 grid points or 1009^2
    # lines to root-find
    doc = {"group": "zpr p=1009 jordan=3", "x": [[1, 2, 3], [4, 5, 6], [7, 8, 10], [1, 0, 0]],
           "w": [0, 0, 0]}
    start = time.monotonic()
    proc = run_cli(["solve-msum"], stdin_text=json.dumps(doc))
    assert proc.returncode == 3, proc.stderr
    assert time.monotonic() - start < 5


def test_solve_msum_heisenberg_at_large_p():
    # one line and a quadratic in t at p near 10^9; b = (5, 7) is planted
    p = 999999937
    x, b = [[3, 4], [5, 6]], (5, 7)
    w = [sum(bj * u + bj * (bj - 1) // 2 * v for bj, (u, v) in zip(b, x)) % p,
         sum(bj * v for bj, (u, v) in zip(b, x)) % p]
    doc = {"group": f"zpr p={p} jordan=2", "x": x, "w": w}
    start = time.monotonic()
    proc = run_cli(["solve-msum"], stdin_text=json.dumps(doc))
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 5
    assert [5, 7] in json.loads(proc.stdout)["solutions"]


@pytest.mark.parametrize("cap,code", [("26", 3), ("27", 0)])
def test_solve_msum_all_of_z_p_k_hits_the_cap(cap, code):
    # x = 0, w = 0: every b in Z_3^3 solves, so all 27 are walked
    proc = run_cli(
        ["solve-msum", "--enum-cap", cap],
        stdin_text='{"group": "zpr p=3 jordan=3", "x": [[0,0,0],[0,0,0],[0,0,0]], "w": [0,0,0]}',
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["eta"] == 27


@pytest.mark.parametrize("cap,code", [("26", 3), ("27", 0)])
def test_solve_msum_lookup_keeps_the_brute_force_cap(cap, code):
    # p^k = 27: the residual lookup runs only within the cap, so below it
    # brute force still exits 3
    doc = '{"group": "zn N=7 p=3 mu=2", "x": [1,2,3], "w": 3}'
    proc = run_cli(["solve-msum", "--enum-cap", cap, "--verify"], stdin_text=doc)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        solutions = [[0, 0, 1], [1, 0, 2], [1, 1, 0], [1, 2, 1], [2, 0, 0]]
        assert json.loads(proc.stdout)["solutions"] == solutions


def test_solve_msum_cap_bounds_walked_candidates_not_p_k():
    # one linear equation in three copies leaves 9 of the 27 b to walk: a cap
    # of 10 is below p^k and exited 3 before the polynomial route
    proc = run_cli(
        ["solve-msum", "--enum-cap", "10", "--group", "zpr p=3 jordan=3"],
        stdin_text='{"x": [[1,2,0],[0,1,1],[2,2,2]], "w": [0,0,0]}',
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["solutions"] == [[0, 0, 0]]


BAD_SPECS = [
    "zpr p=4 jordan=2", "zn N=7 p=4 mu=2", "zn N=8 p=1 mu=1", "zpr p=3 r=2 mu=1,1;1,1",
    "zpr p=3 r=2 mu=0,0;0,0", "zn N=7 p=3 mu=3", "zn N=7 p=3 mu=7", "zpr p=3 jordan=4",
    "zpr p=3 jordan=0", "zpr p=x jordan=2", "zpr p=3 jordan=", "zn N=7 p=3 mu=2 extra",
    "zq N=7 p=3 mu=2", "zpr p=3 r=2 mu=1,1;0", "zpr p=3 r=0 mu=", "zn N=0 p=3 mu=1",
    "zn N=7 p=3 mu=2.5", "zpr p=3 r=2 jordan=2", 5, None, ["zn N=7 p=3 mu=2"], {},
]
BAD_ELEMENTS = {
    "zn N=7 p=3 mu=2": ["1", 1.5, None, [1], {}, [[1]], True],
    "zpr p=3 jordan=2": [1, "12", [1], [1, 2, 3], ["a", 1], [1.0, 2], [[1], [2]], None, {},
                         [True, 0]],
}
NOT_JSON = ["{nope", "", "[1,", "{'x': [1]}", "nan?", "{\"x\": [1],}", "\u00ff\u00fe"]


def fuzzed_instance(rng):
    """One malformed solve-msum input: (argv, document text)."""
    spec = rng.choice(sorted(BAD_ELEMENTS))
    a_zero = 0 if spec.startswith("zn") else [0, 0]
    k = rng.randrange(1, 4)
    doc = {"group": spec, "k": k, "x": [a_zero] * k, "w": a_zero}
    argv = ["solve-msum"]
    kind = rng.randrange(9)
    if kind == 0:
        doc["group"] = rng.choice(BAD_SPECS)
    elif kind == 1:
        bad = rng.choice([s for s in BAD_SPECS if isinstance(s, str) and s])
        argv += ["--group", bad]
    elif kind == 2:
        doc["x"] = rng.choice(["x", 3, {}, None, [], 1.5])
    elif kind == 3:
        doc["x"][rng.randrange(k)] = rng.choice(BAD_ELEMENTS[spec])
    elif kind == 4:
        doc["w"] = rng.choice(BAD_ELEMENTS[spec])
    elif kind == 5:
        doc["k"] = rng.choice([k + 1, 0, -1, "2", None, [k], True])
    elif kind == 6:
        del doc[rng.choice(["x", "w", "group"])]
    elif kind == 7:
        return argv, json.dumps(rng.choice([[doc], 7, "doc", None]))
    else:
        return argv, rng.choice(NOT_JSON)
    return argv, json.dumps(doc)


def test_solve_msum_fuzzed_inputs_exit_2(tmp_path, capsys):
    rng = random.Random(2024)
    path = tmp_path / "instance.json"
    for trial in range(400):
        argv, text = fuzzed_instance(rng)
        path.write_text(text, encoding="utf-8")
        assert main([*argv, "--instance", str(path)]) == 2, (argv, text)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, text, err)
    # and the same through a child process, stdin and all
    for trial in range(5):
        argv, text = fuzzed_instance(rng)
        proc = run_cli(argv, stdin_text=text)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, (argv, text)


SMALL_INSTANCE = {"group": "zpr p=3 jordan=2", "k": 2, "x": [[1, 2], [0, 1]], "w": [1, 0]}


@pytest.mark.parametrize(
    "doc,returned",
    [
        # a b that does not solve the instance, caught by its residual
        (SMALL_INSTANCE, lambda right: [(0, 2)] if (0, 2) not in right else [(1, 1)]),
        (_large_prime_instance(), lambda right: [(5, 6, 8)]),
        # a b outside Z_p^k
        (_large_prime_instance(), lambda right: [(5, 6, 1016)]),
        # a dropped solution, caught by brute force where p^k fits the cap
        (SMALL_INSTANCE, lambda right: right[1:]),
    ],
    ids=["wrong-b-small", "wrong-b-large-p", "b-out-of-range", "dropped-b"],
)
def test_solve_msum_verify_catches_wrong_solutions(tmp_path, monkeypatch, capsys, doc, returned):
    from pgmhsp import msum

    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve-msum", "--verify", "--instance", str(path)]) == 0
    right = [tuple(b) for b in json.loads(capsys.readouterr().out)["solutions"]]
    assert right
    monkeypatch.setattr(msum, "solve_auto", lambda inst, cap=None: msum.SolutionSet(
        tuple(returned(right))))
    assert main(["solve-msum", "--instance", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve-msum", "--verify", "--instance", str(path)]) == 4
    assert capsys.readouterr().err.startswith("internal invariant violated: ")


FIXTURE_GROUPS = {"zn N=7 p=3 mu=2": 1, "zpr p=3 jordan=2": [1, 1]}


def fuzzed_fixture(rng):
    """One malformed run-hsp fixture document, as JSON text."""
    spec = rng.choice(sorted(FIXTURE_GROUPS))
    element = FIXTURE_GROUPS[spec]
    doc = {"group": spec, "labeling": "canonical-coset",
           "hidden": {"generators": [{"a": element, "b": 1}]}}
    gens = doc["hidden"]["generators"]
    kind = rng.randrange(10)
    if kind == 0:
        doc["group"] = rng.choice(BAD_SPECS)
    elif kind == 1:
        del doc["group"]
    elif kind == 2:
        doc["labeling"] = rng.choice(["canonical", "", 5, None, ["canonical-coset"]])
    elif kind == 3:
        doc["hidden"] = rng.choice(
            ["nontrivial", "", 3, None, [], {}, {"h": 1}, {"generator": []}]
        )
    elif kind == 4:
        doc["hidden"] = {"d": rng.choice(BAD_ELEMENTS[spec])}
    elif kind == 5:
        doc["hidden"]["generators"] = rng.choice([3, "ab", None, {}, {"a": element, "b": 1}])
    elif kind == 6:
        gens.insert(rng.randrange(2), rng.choice([3, "g", None, [element, 1], [], 1.5]))
    elif kind == 7:
        del gens[0][rng.choice(["a", "b"])]
    elif kind == 8:
        gens[0]["a"] = rng.choice(BAD_ELEMENTS[spec])
    else:
        gens[0]["b"] = rng.choice([1.5, 1.0, "1", None, [1], {}, True])
    if rng.random() < 0.1:
        return json.dumps(rng.choice([[doc], 7, "doc", None]))
    if rng.random() < 0.05:
        return rng.choice(NOT_JSON)
    return json.dumps(doc)


def test_run_hsp_fuzzed_fixtures_exit_2(tmp_path, capsys):
    rng = random.Random(2025)
    path = tmp_path / "fixture.json"
    argv = ["run-hsp", "--algo", "pgm", "--fixture", str(path), "--seed", "1", "--k", "1"]
    for trial in range(400):
        text = fuzzed_fixture(rng)
        path.write_text(text, encoding="utf-8")
        assert main(argv) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, (
            text, captured.err)
    # the two documents that used to end in a traceback, through a child process
    for doc in ({"group": 5}, {"group": "zn N=7 p=3 mu=2", "hidden": {"generators": 3}}):
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli(argv)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, (doc, proc.stderr)


def test_pgm_report_z7():
    proc = run_cli(["pgm-report", "--group", "zn N=7 p=3 mu=2", "--k", "1"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pr_formula_exact"] == "19/49"
    assert abs(doc["pr_formula"] - doc["pr_trace"]) < 1e-10
    assert doc["optimality"]["pass"] is True
    assert doc["lemma2"]["lower"] <= doc["pr_formula"] <= doc["lemma2"]["upper"]


def test_pgm_report_heisenberg_k3_under_default_caps():
    # |G|^3 = 19683: the orbit walk takes 225 rows of 27 entries
    proc = run_cli(["pgm-report", "--group", "zpr p=3 jordan=2", "--k", "3"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["optimality"]["pass"] is True
    assert abs(doc["pr_formula"] - doc["pr_trace"]) < 1e-10


def test_pgm_report_rejects_nonpositive_k(capsys):
    assert main(["pgm-report", "--group", "zpr p=101 jordan=2", "--k", "-1"]) == 2
    assert "--k: must be a positive integer, got '-1'" in capsys.readouterr().err


# a fixture whose reduction stops at the non-normal H1 = <((1, 0), 0)>,
# before the PGM stage reads k
NONNORMAL_HEIS3 = {"group": "zpr p=3 jordan=2", "hidden": {"generators": [{"a": [1, 0], "b": 0}]}}


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["pgm-report", "--group", "zn N=7 p=3 mu=2"],
        ["eta-stats", "--group", "zn N=7 p=3 mu=2"],
        ["run-hsp", "--algo", "pgm", "--fixture", "{fixture}", "--seed", "1"],
    ],
    ids=["pgm-report", "eta-stats", "run-hsp"],
)
def test_nonpositive_k_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, value):
    from pgmhsp import cli

    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(NONNORMAL_HEIS3))
    argv = [arg.format(fixture=fixture) for arg in argv]
    assert main([*argv, "--k", "1"]) == 0
    capsys.readouterr()
    # the parser refuses k, so no command starts
    monkeypatch.setattr(cli, "parse_group_spec", None)
    assert main([*argv, "--k", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--k: must be a positive integer, got '{value}'" in captured.err


def test_zn_spec_with_unknown_keys_exits_2(capsys):
    assert main(["pgm-report", "--group", "zn N=7 p=3 mu=2 r=9 jordan=2"]) == 2
    assert "unexpected keys ['jordan', 'r']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-msum", "--instance", "{instance}"],
        ["pgm-report", "--group", "zn N=7 p=3 mu=2"],
        ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "2"],
        ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--trials", "20",
         "--seed", "3"],
        ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--exact"],
        ["run-hsp", "--algo", "pgm", "--fixture", "{fixture}", "--seed", "1"],
    ],
    ids=["solve-msum", "pgm-report", "eta-stats", "run-hsp-stripped", "run-hsp-exact",
         "run-hsp-pgm"],
)
def test_out_dash_writes_to_stdout(tmp_path, monkeypatch, capsys, argv):
    # --out - prints, byte for byte, what --out FILE writes, then what the
    # command prints anyway, and creates no file named "-"
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "instance.json").write_text('{"group": "zn N=7 p=3 mu=2", "x": [1, 2], "w": 3}')
    (inputs / "fixture.json").write_text('{"group": "zn N=7 p=3 mu=2", "hidden": {"d": 1}}')
    argv = [arg.format(instance=inputs / "instance.json", fixture=inputs / "fixture.json")
            for arg in argv]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([*argv, "--out", str(inputs / "out")]) == 0
    written, printed = (inputs / "out").read_bytes().decode(), capsys.readouterr().out
    assert written.endswith("\n")
    assert main([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out == written + printed
    assert list(work.iterdir()) == []


def test_pgm_report_enumeration_cap_exits_3_before_tabulating():
    # p^k = 101^4 > the default enumeration cap of 1e7; a table sized p^k
    # would not fit in the child's 1 GiB and end in a MemoryError instead
    proc = run_cli_in_1_gib(["pgm-report", "--group", "zpr p=101 jordan=2", "--k", "4"])
    assert proc.returncode == 3, proc.stderr
    assert "exceeds enumeration cap" in proc.stderr


def test_pgm_report_dim_cap_exits_3_before_the_formula():
    # |G|^k = 29791^3: the walk would take 15 million orbit rows of 29791
    # entries, and orbit rows times |A| exceed the population cap
    start = time.monotonic()
    proc = run_cli_in_1_gib(["pgm-report", "--group", "zpr p=31 jordan=2", "--k", "3"])
    assert proc.returncode == 3, proc.stderr
    assert "exceeds" in proc.stderr
    assert time.monotonic() - start < 5


def test_pgm_report_at_n_9839_runs_in_1_gib():
    # two orbit rows of 4919 entries: a dense check of each row's 9839 x 4919
    # vectors would take several GB, the character check 64 x 9839 phases
    proc = run_cli_in_1_gib(["pgm-report", "--group", "zn N=9839 p=4919 mu=4", "--k", "1"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert abs(doc["pr_formula"] - doc["pr_trace"]) < 1e-10
    assert doc["optimality"]["pass"] is True


def test_pgm_report_population_cap():
    proc = run_cli(
        ["pgm-report", "--group", "zn N=7 p=3 mu=2", "--k", "1", "--pop-cap", "10"]
    )
    assert proc.returncode == 3
    assert "cap exceeded" in proc.stderr


@pytest.mark.parametrize(
    "fixture_doc,extra,code,message",
    [
        # the default trial budget counts the eta histogram: |A|^2 = 49 > 10
        ({"group": "zn N=7 p=3 mu=2", "hidden": "trivial"}, ["--k", "1", "--pop-cap", "10"],
         3, "cap exceeded"),
        # each trial's block law enumerates p^k = 9 > 1 values of b
        (
            {"group": "zpr p=3 jordan=2", "hidden": {"d": [1, 1]}},
            ["--k", "2", "--trials", "5", "--enum-cap", "1"],
            3, "cap exceeded",
        ),
        # a given budget walks no orbits, so no population cap applies to it
        (
            {"group": "zpr p=5 jordan=2", "hidden": {"d": [1, 1]}},
            ["--k", "2", "--trials", "5", "--pop-cap", "1000"],
            2, "error: --pop-cap does not apply to --trials",
        ),
    ],
    ids=["pop-cap", "enum-cap", "pop-cap-trials"],
)
def test_run_hsp_pgm_caps(tmp_path, fixture_doc, extra, code, message):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(fixture_doc))
    proc = run_cli(
        ["run-hsp", "--algo", "pgm", "--fixture", str(fixture), "--seed", "1", *extra]
    )
    assert proc.returncode == code
    assert message in proc.stderr


def test_unapplied_cap_flags_are_not_accepted():
    for argv in (
        ["solve-msum", "--dim-cap", "10"],
        ["solve-msum", "--pop-cap", "10"],
        ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--dim-cap", "10"],
        ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--exact",
         "--dim-cap", "10"],
        ["pgm-report", "--group", "zn N=7 p=3 mu=2", "--dim-cap", "10"],
    ):
        assert main(argv) == 2, argv


STRIPPED_Z7 = ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2"]
PGM_FIXTURE = ["run-hsp", "--algo", "pgm", "--fixture", "{fixture}", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,extra",
    [
        ([*STRIPPED_Z7, "--trials", "5", "--seed", "1"], ["--k", "2"]),
        ([*STRIPPED_Z7, "--trials", "5", "--seed", "1"], ["--enum-cap", "5"]),
        ([*STRIPPED_Z7, "--trials", "5", "--seed", "1"], ["--pop-cap", "5"]),
        ([*STRIPPED_Z7, "--trials", "5", "--seed", "1"], ["--fixture", "x.json"]),
        ([*STRIPPED_Z7, "--exact"], ["--trials", "5"]),
        ([*STRIPPED_Z7, "--exact"], ["--seed", "0"]),
        (PGM_FIXTURE, ["--exact"]),
        (PGM_FIXTURE, ["--group", "zn N=7 p=3 mu=2"]),
    ],
    ids=["stripped-k", "stripped-enum-cap", "stripped-pop-cap", "stripped-fixture",
         "exact-trials", "exact-seed", "pgm-exact", "pgm-group"],
)
def test_run_hsp_rejects_flags_its_algo_does_not_apply(tmp_path, capsys, argv, extra):
    # a flag the chosen route would ignore exits 2 naming it, as a cap flag
    # the subcommand does not apply does
    fixture = tmp_path / "fixture.json"
    fixture.write_text('{"group": "zn N=7 p=3 mu=2", "hidden": "trivial"}')
    argv = [arg.format(fixture=fixture) for arg in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{extra[0]} does not apply" in err, err


@pytest.mark.parametrize("value", ["0", "-3", "ten"])
@pytest.mark.parametrize("cap", ["enum", "pop"])
def test_cap_flags_must_be_positive(cap, value, capsys):
    # a cap flag must be a positive integer, as its environment variable must
    assert main(["pgm-report", "--group", "zn N=7 p=3 mu=2", f"--{cap}-cap", value]) == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert main(["eta-stats", "--group", "zn N=7 p=3 mu=2", f"--{cap}-cap", value]) == 2


ETA_Z7 = ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "2"]


@pytest.mark.parametrize(
    "env,argv,code",
    [
        ({"PGMHSP_POP_CAP": "10"}, ETA_Z7, 3),
        # a flag wins over the environment
        ({"PGMHSP_POP_CAP": "10"}, [*ETA_Z7, "--pop-cap", "100000000"], 0),
        ({"PGMHSP_ENUM_CAP": "abc"}, ETA_Z7, 2),
        ({"PGMHSP_ENUM_CAP": "0"}, ETA_Z7, 2),
    ],
    ids=["pop-env", "pop-flag-wins", "enum-env-not-int", "enum-env-zero"],
)
def test_cap_environment_variables(env, argv, code):
    proc = run_cli(argv, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 3:
        assert "cap exceeded" in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error:") and next(iter(env)) in proc.stderr


@pytest.mark.parametrize("command", ["eta-stats", "run-hsp"])
def test_pop_cap_environment_read_only_where_a_walk_applies_it(tmp_path, command):
    # sampled eta-stats and run-hsp --algo pgm with --trials walk no orbits,
    # so an invalid PGMHSP_POP_CAP is never read
    fixture = tmp_path / "fixture.json"
    fixture.write_text('{"group": "zn N=7 p=3 mu=2", "hidden": {"d": 1}}')
    argv = {
        "eta-stats": ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "1", "--mode", "sampled",
                      "--samples", "5", "--seed", "1"],
        "run-hsp": ["run-hsp", "--algo", "pgm", "--fixture", str(fixture), "--trials", "5",
                    "--seed", "1"],
    }[command]
    proc = run_cli(argv, env={"PGMHSP_POP_CAP": "0"})
    assert proc.returncode == 0, proc.stderr


def test_cap_environment_read_once_per_process(monkeypatch):
    from pgmhsp import caps

    caps._env_int.cache_clear()
    try:
        monkeypatch.setenv("PGMHSP_ENUM_CAP", "123")
        assert caps.enum_cap() == 123
        # a later change of the variable is not seen, a per-call value is
        monkeypatch.setenv("PGMHSP_ENUM_CAP", "456")
        assert caps.enum_cap() == 123
        assert caps.enum_cap(789) == 789
    finally:
        monkeypatch.undo()
        caps._env_int.cache_clear()
    assert caps.enum_cap() == caps.DEFAULT_ENUM_CAP


def test_stripped_run_large_n_in_1_gib():
    # a dense N x N transform alone would take 1.46 GiB
    proc = run_cli_in_1_gib(
        ["run-hsp", "--algo", "stripped", "--group", "zn N=9901 p=3 mu=99",
         "--trials", "3", "--seed", "1"]
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trials"] == 3


def test_sampled_eta_stats_large_group_in_1_gib():
    # codes for all of A = Z_101^3 would take 2.33 GiB; ten samples need ten x
    proc = run_cli_in_1_gib(
        ["eta-stats", "--group", "zpr p=101 jordan=3", "--k", "1", "--mode", "sampled",
         "--samples", "10", "--seed", "1"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("eta_value,count\n")


def test_memory_error_exits_as_cap_exceeded(monkeypatch, capsys):
    from pgmhsp import eta

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(eta, "eta_statistics", out_of_memory)
    assert main(["eta-stats", "--group", "zn N=7 p=3 mu=2"]) == 3
    assert "cap exceeded: out of memory" in capsys.readouterr().err


def test_eta_stats_exhaustive(tmp_path):
    out = tmp_path / "hist.csv"
    proc = run_cli(
        [
            "eta-stats",
            "--group",
            "zpr p=3 jordan=2",
            "--k",
            "2",
            "--out",
            str(out),
        ]
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eta_value,count"
    rows = {int(a): int(b) for a, b in (line.split(",") for line in lines[1:])}
    assert rows == {0: 218, 1: 378, 2: 54, 3: 78, 9: 1}
    summary = json.loads(proc.stdout)
    assert summary["population"] == 729
    assert summary["mean"] == 1.0
    assert summary["mode"] == "exhaustive"


def test_eta_stats_orbit_census_under_default_caps():
    # population 5^12 exceeds the 10^8 cap; the walk over symmetry orbits
    # evaluates 32 unit classes x 7875 multisets x 125 w = 3.15e7 pairs
    proc = run_cli(["eta-stats", "--group", "zpr p=5 jordan=3", "--k", "3"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    end = lines.index("{")
    counts = {int(a): int(b) for a, b in (line.split(",") for line in lines[1:end])}
    assert json.loads("\n".join(lines[end:]))["population"] == 5**12
    assert counts == eta_histogram_all_x(parse_group_spec("zpr p=5 jordan=3"), 3)


def test_eta_stats_sampled_requires_seed():
    proc = run_cli(
        ["eta-stats", "--group", "zpr p=3 jordan=2", "--k", "2", "--mode", "sampled",
         "--samples", "10"]
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: sampled mode requires --seed\n"


def test_eta_stats_sampled_requires_samples(capsys):
    argv = ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--mode", "sampled", "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: sampled mode requires --samples\n"
    assert main([*argv, "--samples", "5"]) == 0


@pytest.mark.parametrize("extra", [["--samples", "5"], ["--seed", "1"]], ids=["samples", "seed"])
def test_eta_stats_exhaustive_rejects_sampling_flags(capsys, extra):
    # exhaustive mode draws nothing, so a sample count or seed would be
    # ignored, and "seed": null in the summary would hide that
    argv = ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, *extra]) == 2
    assert capsys.readouterr().err == f"error: {extra[0]} does not apply to exhaustive mode\n"


def test_eta_stats_sampled_rejects_pop_cap(capsys):
    # sampled mode draws a fixed number of samples and walks no orbits, so a
    # population cap would be ignored
    argv = ["eta-stats", "--group", "zpr p=5 jordan=3", "--k", "3", "--mode", "sampled",
            "--samples", "100", "--seed", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--pop-cap", "1"]) == 2
    assert capsys.readouterr().err == "error: --pop-cap does not apply to sampled mode\n"


def test_run_hsp_stripped_exact():
    proc = run_cli(
        ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--exact"]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["exact_rate_fraction"] == "18/49"
    assert doc["pass"] is True


def test_run_hsp_stripped_sampled():
    proc = run_cli(
        [
            "run-hsp",
            "--algo",
            "stripped",
            "--group",
            "zn N=7 p=3 mu=2",
            "--trials",
            "400",
            "--seed",
            "5",
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["trials"] == 400
    assert doc["pass"] is True


def test_run_hsp_pgm_fixture(tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(
        json.dumps(
            {
                "group": "zpr p=3 jordan=2",
                "hidden": {"d": [1, 1]},
                "labeling": "canonical-coset",
            }
        )
    )
    transcript = tmp_path / "transcript.jsonl"
    proc = run_cli(
        [
            "run-hsp",
            "--algo",
            "pgm",
            "--fixture",
            str(fixture),
            "--k",
            "2",
            "--seed",
            "4",
            "--out",
            str(transcript),
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["answer"]["order"] == 3
    assert {"a": [1, 1], "b": 1} in doc["answer"]["generators"]
    lines = transcript.read_text().strip().splitlines()
    assert len(lines) == doc["trials_used"]
    last = json.loads(lines[-1])
    assert last["verified"] is True


def test_run_hsp_pgm_trivial_fixture(tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(
        json.dumps(
            {
                "group": "zn N=7 p=3 mu=2",
                "hidden": "trivial",
                "labeling": "canonical-coset",
            }
        )
    )
    proc = run_cli(
        [
            "run-hsp", "--algo", "pgm", "--fixture", str(fixture),
            "--k", "1", "--seed", "3", "--trials", "15",
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["answer"]["trivial"] is True


def test_run_hsp_pgm_requires_seed(tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(
        json.dumps({"group": "zn N=7 p=3 mu=2", "hidden": "trivial"})
    )
    proc = run_cli(["run-hsp", "--algo", "pgm", "--fixture", str(fixture)])
    assert proc.returncode == 2


def test_determinism_byte_identical():
    args = ["pgm-report", "--group", "zn N=7 p=3 mu=2", "--k", "1"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.stdout == second.stdout
    args = [
        "run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2",
        "--trials", "200", "--seed", "11",
    ]
    assert run_cli(args).stdout == run_cli(args).stdout


def test_main_entrypoint_in_process(capsys):
    code = main(["pgm-report", "--group", "zn N=7 p=3 mu=2", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pr_formula_exact"] == "19/49"
    assert main(["pgm-report", "--group", "nonsense"]) == 2
    assert main(["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "0"]) == 2
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize(
    "command", [[], ["solve-msum"], ["pgm-report"], ["eta-stats"], ["run-hsp"]],
    ids=["top", "solve-msum", "pgm-report", "eta-stats", "run-hsp"],
)
def test_help_exits_0_with_usage_on_stdout(command):
    # argparse ends --help with SystemExit(0), which main() returns as 0
    proc = run_cli([*command, "--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"usage: pgmhsp {' '.join(command)}".rstrip())
    assert proc.stderr == ""


# Each exit-hook check runs in a fresh interpreter, whose exit is the one
# under test.  EXIT_PROBE runs main() on the argv in sys.argv[1] under a
# handler registered before it, and prints the freeze count right after
# main() and again in that handler at exit.
EXIT_PROBE = """
import atexit, gc, json, sys
import pgmhsp.cli
atexit.register(lambda: print("at exit", gc.get_freeze_count() > 0))
code = pgmhsp.cli.main(json.loads(sys.argv[1]))
print("after main", code, gc.get_freeze_count())
"""


def run_exit_probe(argv):
    return subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, json.dumps(argv)], capture_output=True, text=True
    )


def test_exit_hook_leaves_other_handlers_and_the_caller_running():
    proc = run_exit_probe(["pgm-report", "--group", "zn N=7 p=3 mu=2", "--k", "1"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads("\n".join(lines[:-2]))["pr_formula_exact"] == "19/49"
    # the caller keeps its GC state until its own exit, where the heap is
    # frozen before the earlier handler runs
    assert lines[-2:] == ["after main 0 0", "at exit True"]


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["eta-stats", "--group", "zn N=7 p=3 mu=2", "--seed", "1"], 2,
         "error: --seed does not apply to exhaustive mode\n"),
        (["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "2", "--pop-cap", "10"], 3,
         "cap exceeded: "),
        (["bogus-command"], 2, "usage: pgmhsp"),
    ],
    ids=["usage", "cap", "parse"],
)
def test_exit_hook_on_error_exits(argv, code, err):
    proc = run_exit_probe(argv)
    assert proc.returncode == 0
    assert proc.stdout == f"after main {code} 0\nat exit True\n"
    assert proc.stderr.startswith(err)


def test_exit_hook_freezes_once_however_often_main_runs():
    argv = ["eta-stats", "--group", "zn N=7 p=3 mu=2"]
    proc = subprocess.run(
        [sys.executable, "-c", f"""
import atexit, contextlib, gc, io
import pgmhsp.cli
calls = []
freeze = gc.freeze
gc.freeze = lambda: calls.append(1) or freeze()
atexit.register(lambda: print("freezes at exit", len(calls)))
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        assert pgmhsp.cli.main({argv!r}) == 0
print("freezes before exit", len(calls))
"""],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "freezes before exit 0\nfreezes at exit 1\n"


def test_run_hsp_stripped_sampled_transcript(tmp_path):
    out = tmp_path / "trials.jsonl"
    proc = run_cli(
        [
            "run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2",
            "--trials", "50", "--seed", "5", "--out", str(out),
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 50
    assert sum(rec["success"] for rec in lines) == doc["successes"]
    for rec in lines:
        if not rec["accepted"]:
            assert rec["outcome"] is None


def test_pgm_report_heisenberg_k2_within_budget():
    import time

    start = time.monotonic()
    proc = run_cli(["pgm-report", "--group", "zpr p=3 jordan=2", "--k", "2"])
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert elapsed < 60
    doc = json.loads(proc.stdout)
    assert abs(doc["pr_formula"] - doc["pr_trace"]) < 1e-10
    assert doc["optimality"]["pass"] is True


def test_run_hsp_rejects_negative_trials(tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"group": "zn N=7 p=3 mu=2", "hidden": "trivial"}))
    for argv in (
        ["--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--seed", "1"],
        ["--algo", "pgm", "--fixture", str(fixture), "--seed", "1"],
    ):
        for trials in ("-5", "-1", "five"):
            assert main(["run-hsp", *argv, "--trials", trials]) == 2, (argv, trials)
        assert main(["run-hsp", *argv, "--trials", "0"]) == 0, argv


def test_run_hsp_rejects_negative_seed_naming_the_flag(tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"group": "zn N=7 p=3 mu=2", "hidden": "trivial"}))
    # random.Random(-s) draws what random.Random(s) draws, so eta-stats
    # refuses negative seeds too rather than record an alias
    for argv in (
        ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--trials", "10"],
        ["run-hsp", "--algo", "pgm", "--fixture", str(fixture)],
        ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--mode", "sampled", "--samples", "5"],
    ):
        for seed in ("-1", "one"):
            proc = run_cli([*argv, "--seed", seed])
            assert proc.returncode == 2, (argv, seed, proc.stderr)
            assert "--seed" in proc.stderr and "non-negative" in proc.stderr, proc.stderr
        assert main([*argv, "--seed", "0"]) == 0, argv


# stdout and the sha256 of the --out JSONL of seeded Monte Carlo runs (one
# block of draws at N = 31, three at N = 7); a change to the trial loop must
# reproduce them byte for byte.  Each run is a CLI child, so its output must
# also survive the heap freeze at exit
STRIPPED_GOLDEN = [
    (
        "zn N=7 p=3 mu=2",
        10000,
        "9428e50ae83538aa5157c425b391d101ca3dc3af1cc89a9752b19b13196f4f08",
        """{
  "N": 7,
  "bound": 0.36734693877551022,
  "empirical_rate": 0.37109999999999999,
  "mu": 2,
  "p": 3,
  "pass": true,
  "seed": 17,
  "successes": 3711,
  "trials": 10000,
  "wilson_99": [
    0.35874549012392459,
    0.38362544409736127
  ]
}
""",
    ),
    (
        "zn N=31 p=5 mu=2",
        2000,
        "fc41c1e46d9b6a88633010e1e33246c8a975198e35d012747640f750ffd77644",
        """{
  "N": 31,
  "bound": 0.15608740894901144,
  "empirical_rate": 0.14299999999999999,
  "mu": 2,
  "p": 5,
  "pass": true,
  "seed": 17,
  "successes": 286,
  "trials": 2000,
  "wilson_99": [
    0.12401594654620113,
    0.16434487962160527
  ]
}
""",
    ),
]


@pytest.mark.parametrize(
    "spec,trials,jsonl_sha256,stdout", STRIPPED_GOLDEN, ids=[case[0] for case in STRIPPED_GOLDEN]
)
def test_run_hsp_stripped_golden_bytes(tmp_path, spec, trials, jsonl_sha256, stdout):
    import hashlib
    import math

    # the pinned count itself lies within 5 sigma of trials * phi(N) p / N^2
    g = parse_group_spec(spec)
    n, p = g.a_group.n, g.p
    bound = sum(math.gcd(x, n) == 1 for x in range(n)) * p / n**2
    successes = json.loads(stdout)["successes"]
    assert abs(successes - trials * bound) <= 5 * math.sqrt(trials * bound * (1 - bound))

    out = tmp_path / "trials.jsonl"
    proc = run_cli(
        ["run-hsp", "--algo", "stripped", "--group", spec, "--trials", str(trials),
         "--seed", "17", "--out", str(out)]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == jsonl_sha256
