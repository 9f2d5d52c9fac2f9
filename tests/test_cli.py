"""End-to-end command-line checks: exit codes, JSON determinism, workflows."""

import json
import os
import subprocess
import sys
from pathlib import Path

FIXTURE = Path(__file__).parent / "fixtures" / "s3s3_critical.json"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "nkvol.cli", *args],
        capture_output=True,
        text=True,
    )


def test_catalog_list():
    p = run_cli("catalog", "list")
    assert p.returncode == 0
    assert "s3s3" in p.stdout and "torus6" in p.stdout


def test_catalog_emit_and_check(tmp_path):
    from nkvol.frame_manifold import Manifest

    out = tmp_path / "s3s3.json"
    p = run_cli("catalog", "emit", "s3s3", "--out", str(out))
    assert p.returncode == 0
    assert Manifest.from_json(out.read_text()).name == "s3s3"
    q = run_cli("check", str(out), "--json")
    assert q.returncode == 0
    rep = json.loads(q.stdout)
    assert rep["verdicts"]["jacobi"] is True
    assert rep["verdicts"]["j_valid"] is True


def test_check_rejects_bad_manifest(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "dimension": 6,
        "structure_constants": [{"i": 1, "j": 3, "k": 2, "value": 1.0}],
    }))
    p = run_cli("check", str(bad))
    assert p.returncode == 2
    assert "j < k" in p.stdout or "malformed" in p.stdout

    # NaN constants are rejected as non-finite, not as asymmetric
    nan = tmp_path / "nan.json"
    nan.write_text('{"name": "nan", "dimension": 6, "structure_constants": '
                   '[{"i": 1, "j": 2, "k": 3, "value": NaN}]}')
    p = run_cli("check", str(nan))
    assert p.returncode == 2
    assert "non-finite" in p.stdout

    # values of the wrong JSON type are input errors naming the field
    sc = {"i": 1, "j": 2, "k": 3, "value": 1.0}
    for field, value in (
        ("structure_constants", [{**sc, "value": None}]),
        ("omega", [{"indices": [1, 2], "re": "x", "im": 0.0}]),
        ("structure_constants", 5),
        ("omega", [{"indices": 5, "re": 1.0, "im": 0.0}]),
        ("dimension", True),
    ):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({"name": "typed", "dimension": 6,
                                     "structure_constants": [], field: value}))
        p = run_cli("check", str(typed))
        assert p.returncode == 2, (field, value, p.stdout, p.stderr)
        assert field in p.stdout


def test_duplicate_manifest_entries_are_input_errors(tmp_path):
    # a repeated entry would silently overwrite the first one
    data = json.loads(FIXTURE.read_text())
    for field in ("structure_constants", "omega", "Omega3"):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({**data, field: data[field] + data[field][:1]}))
        p = run_cli("check", str(path), "--json")
        assert p.returncode == 2, (field, p.stdout, p.stderr)
        error = json.loads(p.stdout)["error"]
        assert "duplicate" in error and field in error, (field, error)


def test_check_rejects_unknown_field(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({
        "name": "bad", "dimension": 6, "structure_constants": [], "bogus": 1,
    }))
    p = run_cli("check", str(bad))
    assert p.returncode == 2


def test_out_of_scope_J_is_input_error(tmp_path):
    # a valid 4-dimensional manifest: every J-dependent subcommand rejects it
    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps({
        "name": "d4", "dimension": 4, "structure_constants": [],
        "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    }))
    for command in ("check", "nijenhuis", "torsion", "nk", "cone", "alt12", "functional",
                    "optimize"):
        p = run_cli(command, str(d4))
        assert p.returncode == 2, (command, p.stdout, p.stderr)
        assert "dimension 6" in p.stdout or "6x6" in p.stdout

    nan_j = tmp_path / "nan_j.json"
    nan_j.write_text(json.dumps({
        "name": "nan_j", "dimension": 6, "structure_constants": [],
        "J": [[float("nan")] * 6] * 6,
    }))
    p = run_cli("nijenhuis", str(nan_j))
    assert p.returncode == 2
    assert "non-finite" in p.stdout


def test_check_low_dimensions(tmp_path):
    # for n <= 2 the forms d e^i are top-degree or absent: d d = 0 trivially
    for n in (1, 2):
        low = tmp_path / f"d{n}.json"
        low.write_text(json.dumps({"name": f"d{n}", "dimension": n, "structure_constants": []}))
        p = run_cli("check", str(low), "--json")
        assert p.returncode == 0, p.stdout
        rep = json.loads(p.stdout)
        assert rep["verdicts"]["jacobi"] is True
        assert rep["checks"]["jacobi_residual_dd"] == 0.0


def test_optimize_rejects_bad_numeric_arguments(tmp_path):
    src = tmp_path / "p7.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "7", "--out", str(src))
    for value in ("nan", "inf", "-1"):  # the search has no tolerance option
        p = run_cli("optimize", str(src), "--tol", value)
        assert p.returncode == 2, (value, p.stdout, p.stderr)
        assert "unrecognized arguments: --tol" in p.stderr, (value, p.stderr)
    p = run_cli("optimize", str(src), "--max-iter", "-3")
    assert p.returncode == 2, (p.stdout, p.stderr)
    assert "max_iter" in p.stdout


def test_argv_forms(capsys):
    # the parser reads one table: `--opt value` and `--opt=value` alike, --json anywhere;
    # every usage error prints the usage and `nkvol: error: ...` to stderr and exits 2, with
    # nothing on stdout; --help prints the usage to stdout and exits 0
    from nkvol import cli

    def call(*argv):
        code = cli.run([str(a) for a in argv])
        return (code, *capsys.readouterr())

    emit = ("catalog", "emit", "s3s3_perturbed")
    for forms in (
            [(*emit, "--seed", "3", "--magnitude", "0.1", "--json"),
             (*emit, "--seed=3", "--magnitude=0.1", "--json"),
             ("--json", *emit, "--magnitude", "0.1", "--seed=3"),
             ("catalog", "--json", "emit", "--seed", "3", "s3s3_perturbed", "--magnitude=0.1")],
            [("optimize", FIXTURE, "--max-iter", "2", "--seed", "1", "--json"),
             ("optimize", "--max-iter=2", FIXTURE, "--json", "--seed=1")],
            [("functional", FIXTURE, "--gradient", "--json"),
             ("functional", "--gradient", "--json", FIXTURE)]):
        first = call(*forms[0])
        assert first[0] == 0 and first[2] == "", (forms[0], first)
        for argv in forms[1:]:
            assert call(*argv) == first, argv
    for argv, message in (
            ((), "the following arguments are required: command"),
            (("nosuch", FIXTURE), "invalid choice: 'nosuch'"),
            (("catalog",), "the following arguments are required: catalog command"),
            (("catalog", "nosuch"), "invalid choice: 'nosuch' (choose from 'list', 'emit')"),
            (("nk",), "the following arguments are required: FILE"),
            (("catalog", "emit", "--seed", "1"), "the following arguments are required: NAME"),
            (("check", FIXTURE, "--bogus"), "unrecognized arguments: --bogus"),
            (("nk", FIXTURE, "extra.json"), "unrecognized arguments: extra.json"),
            (("optimize", FIXTURE, "--max", "3"), "unrecognized arguments: --max 3"),
            (("optimize", FIXTURE, "--max-iter"), "argument --max-iter: expected one argument"),
            (("optimize", FIXTURE, "--max-iter", "--seed", "1"), "expected one argument"),
            (("optimize", FIXTURE, "--max-iter", "x"), "argument --max-iter: invalid int value"),
            (("optimize", FIXTURE, "--seed=2.5"), "argument --seed: invalid int value: '2.5'"),
            ((*emit, "--magnitude", "big"), "argument --magnitude: invalid float value: 'big'"),
            (("functional", FIXTURE, "--gradient=1"), "ignored explicit argument '1'")):
        code, out, err = call(*argv, "--json")
        assert code == 2 and out == "", (argv, code, out)
        usage, _, error = err.rstrip("\n").rpartition("\n")
        assert usage.startswith("usage:\n  nkvol [--json] "), (argv, err)
        assert error.startswith("nkvol: error: ") and message in error, (argv, err)
    code, out, err = call("--help")
    assert code == 0 and err == "", err
    assert out.count("\n  nkvol [--json] ") == len(cli._CATALOG) + len(cli._COMMANDS), out
    for argv in (("optimize", "--help"), ("optimize", FIXTURE, "-h")):
        code, out, err = call(*argv)
        assert code == 0 and err == "", (argv, err)
        assert "optimize FILE [--max-iter MAX_ITER] [--seed SEED] [--emit EMIT]" in out, out
        assert out.count("\n  nkvol [--json] ") == 1, out
    # a negative value is a value, which the program itself rejects
    code, out, err = call("optimize", FIXTURE, "--seed", "-1", "--json")
    assert code == 2 and err == "" and "seed" in json.loads(out)["error"], (out, err)


def test_missing_file_is_input_error():
    p = run_cli("nk", "/nonexistent/file.json")
    assert p.returncode == 2


def test_nk_fixture_exit_zero():
    p = run_cli("nk", str(FIXTURE), "--json")
    assert p.returncode == 0, p.stdout
    rep = json.loads(p.stdout)
    assert rep["verdicts"]["torsion_criterion"] is True
    assert rep["verdicts"]["structure_equations"] is True
    assert rep["verdicts"]["nabla_antisymmetric_strict"] is True


def test_nk_plain_catalog_fails_verdict(tmp_path):
    out = tmp_path / "s3s3.json"
    run_cli("catalog", "emit", "s3s3", "--out", str(out))
    p = run_cli("nk", str(out))
    assert p.returncode == 1


def test_json_runs_byte_identical():
    a = run_cli("--json", "nk", str(FIXTURE))
    b = run_cli("nk", str(FIXTURE), "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    rep = json.loads(a.stdout)  # parses
    assert rep["manifest"]["name"] == "s3s3_critical"
    # and round-trips through the same printer byte-for-byte
    assert json.dumps(rep, indent=2, sort_keys=True) + "\n" == a.stdout


def test_torsion_and_nijenhuis_fixture():
    p = run_cli("torsion", str(FIXTURE), "--json")
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["verdicts"]["admits_connection"] is True
    assert rep["checks"]["solution_dimension"] == 1

    q = run_cli("nijenhuis", str(FIXTURE), "--json")
    assert q.returncode == 0
    rq = json.loads(q.stdout)
    assert rq["verdicts"]["routes_agree"] is True
    assert rq["checks"]["psi"] > 0


def test_cone_fixture(tmp_path):
    p = run_cli("cone", str(FIXTURE), "--json")
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["verdicts"]["stabilizer_14"] is True
    assert rep["verdicts"]["metric_proportional"] is True

    # a negative omega is rejected with the same diagnostic by every command
    data = json.loads(FIXTURE.read_text())
    data["omega"] = [{**e, "re": -e["re"], "im": -e["im"]} for e in data["omega"]]
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps(data))
    for command in ("torsion", "nk", "cone"):
        p = run_cli(command, str(neg))
        assert p.returncode == 2, (command, p.stdout, p.stderr)
        assert "omega not positive" in p.stdout, (command, p.stdout)


def test_cone_gates_the_manifest_omega3(tmp_path):
    # a manifest Omega3 must be a (3,0)-form for J of unit norm against omega; the
    # fixture's passes (test_cone_fixture), and a zero, a conjugated (a (0,3)-form)
    # and a doubled Omega3 each exit 2 naming the failed gate
    data = json.loads(FIXTURE.read_text())
    conjugated = [{**e, "im": -e["im"]} for e in data["Omega3"]]
    for name, Omega3, gate in (
            ("zero", [{**e, "re": 0.0, "im": 0.0} for e in data["Omega3"]], "unit_norm"),
            ("conjugated", conjugated, "pure_bidegree"),
            ("doubled", [{**e, "re": 2 * e["re"], "im": 2 * e["im"]} for e in data["Omega3"]],
             "unit_norm")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "Omega3": Omega3}))
        p = run_cli("cone", str(path), "--json")
        assert p.returncode == 2, (name, p.stdout, p.stderr)
        assert f"Omega3 fails the {gate} gate" in json.loads(p.stdout)["error"], (name, p.stdout)


def test_functional_gradient():
    p = run_cli("functional", str(FIXTURE), "--gradient", "--json")
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["checks"]["gradient_max_abs"] < 1e-8
    assert rep["checks"]["criticality_verdict"] == "critical"


def test_functional_gates_the_manifest_omega(tmp_path):
    # without --gradient too, a manifest omega that is not a positive real (1,1)-form
    # is an input error, not a criticality verdict
    data = json.loads(FIXTURE.read_text())
    complex_omega = [{**e, "im": 5.0 if i == 0 else e["im"]} for i, e in enumerate(data["omega"])]
    for name, omega, diagnostic in (("zero", [], "omega not positive"),
                                    ("complex", complex_omega, "real (1,1)-form")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "omega": omega}))
        p = run_cli("functional", str(path), "--json")
        assert p.returncode == 2, (name, p.stdout, p.stderr)
        assert diagnostic in json.loads(p.stdout)["error"], (name, p.stdout)
    # with no manifest omega and no positive candidate, the report gives psi alone
    q = tmp_path / "q.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "6", "--magnitude", "3", "--out", str(q))
    p = run_cli("functional", str(q), "--json")
    assert p.returncode == 0, (p.stdout, p.stderr)
    assert set(json.loads(p.stdout)["checks"]) == {"psi"}, p.stdout


def test_commands_gate_the_manifest_omega(tmp_path):
    # every other command that reads omega rejects a zero or complex manifest omega
    # as functional does above
    data = json.loads(FIXTURE.read_text())
    complex_omega = [{**e, "im": 5.0 if i == 0 else e["im"]} for i, e in enumerate(data["omega"])]
    for name, omega, diagnostic in (("zero", [], "omega not positive"),
                                    ("complex", complex_omega, "real (1,1)-form")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "omega": omega}))
        for command in ("nijenhuis", "torsion", "nk", "cone"):
            p = run_cli(command, str(path), "--json")
            assert p.returncode == 2, (name, command, p.stdout, p.stderr)
            assert diagnostic in json.loads(p.stdout)["error"], (name, command, p.stdout)


def test_functional_gradient_rejects_bad_omega(tmp_path):
    # a manifest omega is gated before the gradient is computed
    data = json.loads(FIXTURE.read_text())
    negated = [{**e, "re": -e["re"], "im": -e["im"]} for e in data["omega"]]
    mixed = [{**e, "re": e["re"] + (0.01 if e["indices"] == [1, 2] else 0.0)}
             for e in data["omega"]]
    for name, omega, diagnostic in (("neg", negated, "omega not positive"),
                                    ("mixed", mixed, "real (1,1)-form")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "omega": omega}))
        p = run_cli("functional", str(path), "--gradient", "--json")
        assert p.returncode == 2, (name, p.stdout, p.stderr)
        assert diagnostic in p.stdout, (name, p.stdout)


def test_functional_gradient_names_the_missing_candidate(tmp_path):
    # N is nondegenerate here, but no positive Hermitian candidate exists
    q, torus = tmp_path / "q.json", tmp_path / "torus.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "6", "--magnitude", "3", "--out", str(q))
    run_cli("catalog", "emit", "torus6", "--out", str(torus))
    assert json.loads(run_cli("nijenhuis", str(q), "--json").stdout)["checks"]["nondegenerate"]
    for path, cause in ((q, "no positive Hermitian candidate"), (torus, "degenerate")):
        p = run_cli("functional", str(path), "--gradient", "--json")
        assert p.returncode == 2, (path, p.stdout, p.stderr)
        assert cause in json.loads(p.stdout)["error"], (path, p.stdout)


def test_optimize_end_to_end(tmp_path):
    from nkvol.frame_manifold import Manifest

    src = tmp_path / "p7.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "7", "--out", str(src))
    solved = tmp_path / "solved.json"
    p = run_cli("optimize", str(src), "--json", "--emit", str(solved))
    assert p.returncode == 0, p.stdout
    rep = json.loads(p.stdout)
    assert rep["verdicts"]["converged"] is True
    assert rep["verdicts"]["nk_suite"] is True
    trace = rep["checks"]["trace"]
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    assert rep["checks"]["final_objective"] < 1e-12
    # the emitted manifest is whole, and is itself a passing fixture
    assert Manifest.from_json(solved.read_text()).Omega3 is not None
    q = run_cli("nk", str(solved), "--json")
    assert q.returncode == 0
    # determinism: identical input and flags give byte-identical reports, and
    # a re-emitted manifest is byte-identical too
    p1 = run_cli("optimize", str(src), "--json")
    p2 = run_cli("optimize", str(src), "--json")
    assert p1.stdout == p2.stdout
    p3 = run_cli("optimize", str(src), "--json", "--emit", str(tmp_path / "solved2.json"))
    assert (tmp_path / "solved2.json").read_text() == solved.read_text()


def test_alt12_command(tmp_path):
    out = tmp_path / "s3s3.json"
    run_cli("catalog", "emit", "s3s3", "--out", str(out))
    p = run_cli("alt12", str(out), "--json")
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["checks"]["rank_full"] == 90
    assert rep["checks"]["rank_hermitian"] == 54
    assert rep["checks"]["span_with_cokernel"] == 72


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reports_carry_the_tolerance_table(tmp_path):
    from nkvol.conventions import TOLERANCES

    for args in (("check", str(FIXTURE)), ("catalog", "list"), ("nk", "/nonexistent/file.json")):
        rep = json.loads(run_cli(*args, "--json").stdout)
        assert rep["tolerances"] == TOLERANCES, args


def test_j_valid_agrees_with_constructor(tmp_path):
    # J^2 = -(1 + eps) Id with |J|_2^2 = 100: the residual eps is judged
    # against 1e-10 * 100 by the constructor and by `check` alike
    for eps, accepted in ((5e-10, True), (5e-8, False)):
        J = [[0.0] * 6 for _ in range(6)]
        for k in (0, 2, 4):
            J[k][k + 1] = 10.0
            J[k + 1][k] = -(1.0 + eps) / 10.0
        path = tmp_path / "block.json"
        path.write_text(json.dumps({"name": "block", "dimension": 6,
                                    "structure_constants": [], "J": J}))
        p = run_cli("check", str(path), "--json")
        assert p.returncode == (0 if accepted else 1), (eps, p.stdout)
        assert json.loads(p.stdout)["verdicts"]["j_valid"] is accepted
        for command in ("torsion", "alt12"):
            q = run_cli(command, str(path))
            if accepted:
                assert q.returncode == 0, (eps, command, q.stdout, q.stderr)
            else:
                assert q.returncode == 2 and "invalid J" in q.stdout, (eps, command, q.stdout)


def test_check_reads_manifest_metric(tmp_path):
    p = run_cli("check", str(FIXTURE), "--json")
    assert p.returncode == 0
    assert json.loads(p.stdout)["verdicts"]["metric_compatible"] is True

    data = json.loads(FIXTURE.read_text())
    data["metric"] = [[2.0 * x for x in row] for row in data["metric"]]
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(data))
    p = run_cli("check", str(doubled), "--json")
    assert p.returncode == 1
    assert json.loads(p.stdout)["verdicts"]["metric_compatible"] is False


def test_unwritable_output_is_input_error(tmp_path):
    target = str(tmp_path / "missing" / "x.json")
    p = run_cli("catalog", "emit", "s3s3", "--out", target)
    assert p.returncode == 2, (p.stdout, p.stderr)
    assert "cannot write" in p.stdout and "Traceback" not in p.stderr
    p = run_cli("optimize", str(FIXTURE), "--emit", target)
    assert p.returncode == 2, (p.stdout, p.stderr)
    assert "cannot write" in p.stdout and "Traceback" not in p.stderr


def test_closed_stdout_is_unwritable_output():
    # the read end is closed before the child prints, as under `| head -1`
    for args in (("nk", str(FIXTURE), "--json"), ("check", str(FIXTURE))):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            p = subprocess.run([sys.executable, "-m", "nkvol.cli", *args], stdout=write_end,
                               stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert p.returncode == 2, (args, p.stderr)
        assert "Traceback" not in p.stderr and "Exception ignored" not in p.stderr, p.stderr


def test_usage_to_a_closed_pipe_keeps_the_exit_code():
    # help to a closed stdout still exits 0 and a usage error to a closed stderr still exits 2,
    # with no traceback
    for args, closed, code in ((("--help",), "stdout", 0), (("nosuch",), "stderr", 2)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
        try:
            p = subprocess.run([sys.executable, "-m", "nkvol.cli", *args], text=True, **streams)
        finally:
            os.close(write_end)
        assert p.returncode == code, (args, p.stdout, p.stderr)
        assert "Traceback" not in (p.stdout or "") + (p.stderr or ""), (args, p.stdout, p.stderr)


def test_internal_error_exit_three(monkeypatch, capsys):
    from nkvol import cli

    def boom(manifest):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr(cli, "_cmd_check", boom)
    assert cli.run(["check", str(FIXTURE), "--json"]) == 3
    out, err = capsys.readouterr()
    assert "RuntimeError" in json.loads(out)["error"]
    assert "Traceback" in err and "deliberate failure" in err


def test_reports_are_strict_json(tmp_path):
    # constants of size 1e160 overflow the products of two of them
    data = json.loads(run_cli("catalog", "emit", "s3s3", "--json").stdout)["checks"]["manifest"]
    for c in data["structure_constants"]:
        c["value"] *= 1e160
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    # check reaches its report and names the non-finite key; the others stop
    # earlier, at the norm of the conformal candidate
    for command, words in (("check", "jacobi_residual_bracket"), ("nijenhuis", "non-finite"),
                           ("torsion", "non-finite")):
        p = run_cli(command, str(big), "--json")
        assert p.returncode == 2, (command, p.stdout)
        rep = json.loads(p.stdout, parse_constant=_reject_constant)
        assert "checks" not in rep and words in rep["error"], (command, rep)


def test_optimize_reports_iteration_records(tmp_path):
    src = tmp_path / "p7.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "7", "--out", str(src))
    p = run_cli("optimize", str(src), "--json")
    assert p.returncode == 0, p.stderr
    checks = json.loads(p.stdout)["checks"]
    records = checks["records"]
    assert len(records) == checks["iterations"] == 6
    for rec in records:
        assert set(rec) == {"objective", "mu", "step_norm", "rejected_trials", "kick",
                            "residual_evals"}
        assert rec["residual_evals"] >= 1 and rec["kick"] is None  # the accepted trial at least
    assert [rec["objective"] for rec in records] == checks["trace"][1:]
    assert checks["psi_gradient_max_abs"] < 1e-8
    # the human-readable report summarizes the records
    p = run_cli("optimize", str(src))
    assert "records: [6 records]" in p.stdout


def modules_after(*args: str, blocked: tuple = ()) -> tuple[set, str]:
    """The nkvol modules, numpy, numpy.random, _hashlib, argparse, gettext and locale a fresh
    process holds after one CLI call, and its output; the modules named in `blocked` cannot be
    imported there."""
    code = ("import contextlib, io, sys\n"
            f"sys.modules.update(dict.fromkeys({list(blocked)!r}))\n"
            "from nkvol.cli import run\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    run({list(args)!r})\n"
            "print(' '.join(m for m in sys.modules\n"
            "               if m in ('numpy', 'argparse', 'gettext', 'locale')\n"
            "               or m.startswith(('nkvol', 'numpy.random', '_hashlib'))))\n"
            "print(out.getvalue())\n")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    loaded, _, output = p.stdout.partition("\n")
    return set(loaded.split()), output


def test_subcommands_load_only_their_layers(tmp_path):
    # calls that compute nothing run on the standard library alone, and no call loads
    # argparse or its gettext and locale: the parser is nkvol's own
    parser_modules = {"argparse", "gettext", "locale"}
    for args in (("catalog", "list"), ("catalog", "list", "--json"), ("--help",),
                 ("optimize", "--help"), ("optimize",), ("nosuch",)):
        loaded, _ = modules_after(*args)
        assert loaded == {"nkvol", "nkvol.cli", "nkvol.conventions"}, (args, loaded)
        assert not loaded & parser_modules, (args, loaded)
    loaded, _ = modules_after("optimize", str(FIXTURE))
    assert "nkvol.variation_opt" in loaded and "nkvol.g2_cone" not in loaded, loaded
    assert not loaded & parser_modules, loaded
    # check runs the acs layer only: the Jacobi gate, and the J gates when J is present
    jless = tmp_path / "jless.json"
    jless.write_text(json.dumps({"name": "jless", "dimension": 6, "structure_constants": []}))
    for path in (jless, FIXTURE):
        loaded, output = modules_after("check", str(path), "--json")
        assert json.loads(output)["verdicts"]["jacobi"] is True
        assert "nkvol.acs" in loaded, loaded
        assert not loaded & {"nkvol.nijenhuis", "nkvol.hermitian_torsion"}, (path, loaded)


def test_every_listed_catalog_name_is_emitted():
    names = json.loads(run_cli("catalog", "list", "--json").stdout)["checks"]["catalog"]
    assert names == ["torus6", "s3s3", "s3s3_perturbed"]
    for name in names:
        p = run_cli("catalog", "emit", name, "--seed", "1", "--json")
        assert p.returncode == 0, (name, p.stdout)
        assert json.loads(p.stdout)["checks"]["manifest"]["name"].startswith(name)
    p = run_cli("catalog", "emit", "nosuch", "--json")
    assert p.returncode == 2 and str(tuple(names)) in json.loads(p.stdout)["error"], p.stdout


def test_non_finite_magnitude_is_input_error():
    # rejected before numpy's random generator sees it, with the argument named;
    # a negative magnitude would flip the sign of the kick
    for value in ("nan", "inf", "-inf", "-1"):
        p = run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "1", f"--magnitude={value}")
        assert p.returncode == 2, (value, p.stdout, p.stderr)
        assert "magnitude" in p.stdout and "Traceback" not in p.stderr, (value, p.stdout)


def test_kick_free_optimize_leaves_numpy_random_unloaded(tmp_path):
    src = tmp_path / "p7.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "7", "--out", str(src))
    loaded, output = modules_after("optimize", str(src), "--json")
    checks = json.loads(output)["checks"]
    assert checks["iterations"] == 6 and all(r["kick"] is None for r in checks["records"])
    assert "numpy.random" not in loaded, loaded


FIXTURE_COMMANDS = (("check",), ("nijenhuis",), ("torsion",), ("nk",), ("cone",), ("alt12",),
                    ("functional", "--gradient"), ("optimize",))


def test_no_openssl_in_any_call():
    # hashlib maps OpenSSL's libcrypto; the digest comes from the builtin SHA-256
    import hashlib

    want = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    loaded, _ = modules_after("catalog", "list")
    assert "_hashlib" not in loaded, loaded
    for command, *extra in FIXTURE_COMMANDS:
        loaded, output = modules_after(command, str(FIXTURE), *extra, "--json")
        assert "_hashlib" not in loaded, (command, loaded)
        assert json.loads(output)["manifest"]["sha256"] == want, command
    # without the builtin modules the hashlib fallback gives the same digest
    loaded, output = modules_after("check", str(FIXTURE), "--json", blocked=("_sha2", "_sha256"))
    assert "_hashlib" in loaded, loaded
    assert json.loads(output)["manifest"]["sha256"] == want


LAYERS_AT_LOAD = (
    "import contextlib, io, sys\n"
    "from nkvol import cli\n"
    "seen = set()\n"
    "def load(path, _load=cli._load):\n"
    "    seen.update(sys.modules)\n"
    "    return _load(path)\n"
    "cli._load = load\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.run(sys.argv[1:])\n"
    "print(code, *(m for m in sys.modules if m.startswith('nkvol') and m not in seen))\n"
)


def test_layers_load_before_the_manifest():
    # every layer a subcommand runs is imported before _load reads the manifest;
    # nk_su3 is loaded only when optimize converges
    for command, *extra in FIXTURE_COMMANDS:
        p = subprocess.run([sys.executable, "-c", LAYERS_AT_LOAD, command, str(FIXTURE), *extra],
                           capture_output=True, text=True)
        assert p.returncode == 0, (command, p.stderr)
        code, *late = p.stdout.split()
        assert code == "0", (command, p.stdout)
        assert set(late) <= ({"nkvol.nk_su3"} if command == "optimize" else set()), (command, late)


def test_negative_seed_is_input_error(tmp_path):
    # rejected before the search runs, although this search needs no kick
    src = tmp_path / "p7.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "7", "--out", str(src))
    for args in (("optimize", str(src), "--seed", "-1"),
                 ("catalog", "emit", "s3s3_perturbed", "--seed", "-1")):
        p = run_cli(*args)
        assert p.returncode == 2, (args, p.stdout, p.stderr)
        assert "seed" in p.stdout and "Traceback" not in p.stderr, (args, p.stdout)


def su2r3_manifest(path: Path) -> Path:
    """su(2) + R^3: the S^3 x S^3 constants without those touching e^4, e^5, e^6."""
    data = json.loads(run_cli("catalog", "emit", "s3s3", "--json").stdout)["checks"]["manifest"]
    data["name"] = "su2_r3"
    data["structure_constants"] = [c for c in data["structure_constants"]
                                   if max(c["i"], c["j"], c["k"]) <= 3]
    path.write_text(json.dumps(data))
    return path


def test_overflowing_constants_are_input_errors(tmp_path):
    # s3s3 with every constant scaled by 1e200: each computing subcommand meets an
    # infinite or NaN value and names it with exit 2; alt12 reads J alone
    data = json.loads(run_cli("catalog", "emit", "s3s3", "--json").stdout)["checks"]["manifest"]
    for c in data["structure_constants"]:
        c["value"] *= 1e200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    for args in (("check",), ("nijenhuis",), ("torsion",), ("nk",), ("cone",),
                 ("functional", "--gradient"), ("optimize",)):
        p = run_cli(args[0], str(path), *args[1:], "--json")
        assert p.returncode == 2, (args, p.stdout, p.stderr)
        assert "non-finite" in json.loads(p.stdout)["error"], (args, p.stdout)
    assert run_cli("alt12", str(path)).returncode == 0


FAILING_MAIN = (
    "import sys\n"
    "from nkvol import cli\n"
    "def boom(manifest):\n"
    "    raise RuntimeError('deliberate failure')\n"
    "cli._cmd_check = boom\n"
    "sys.argv[1:] = ['check', sys.argv[1], '--json']\n"
    "cli.main()\n"
)


def test_main_exits_three_after_the_whole_report():
    # main() ends the process with os._exit once the report is flushed
    p = subprocess.run([sys.executable, "-c", FAILING_MAIN, str(FIXTURE)],
                       capture_output=True, text=True)
    assert p.returncode == 3, (p.stdout, p.stderr)
    rep = json.loads(p.stdout)
    assert rep["error"] == "internal error: RuntimeError: deliberate failure"
    assert rep["manifest"]["name"] == "s3s3_critical" and rep["tolerances"]
    assert "Traceback" in p.stderr and "deliberate failure" in p.stderr


def test_largest_report_arrives_whole_through_a_pipe(tmp_path):
    path = su2r3_manifest(tmp_path / "su2r3.json")
    p = run_cli("optimize", str(path), "--max-iter", "18", "--json")
    assert p.returncode == 1, p.stderr
    rep = json.loads(p.stdout)
    assert json.dumps(rep, indent=2, sort_keys=True) + "\n" == p.stdout
    assert rep["checks"]["iterations"] == 18 and len(rep["checks"]["records"]) == 18


def test_closed_stderr_keeps_the_exit_code():
    # the interpreter sets sys.stderr to None when descriptor 2 is closed at start
    p = subprocess.run([sys.executable, "-m", "nkvol.cli", "catalog", "list", "--json"],
                       stdout=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(2))
    assert p.returncode == 0
    assert "s3s3" in json.loads(p.stdout)["checks"]["catalog"]


def test_nk_passes_on_the_closed_form_structure(tmp_path):
    from helpers import nk_closed_form

    path = tmp_path / "s3s3_nk.json"
    nk_closed_form().save(path)
    p = run_cli("nk", str(path), "--json")
    assert p.returncode == 0, (p.stdout, p.stderr)
    assert json.loads(p.stdout)["verdicts"]["suite_consistent"] is True


def test_stdout_closed_at_start_is_unwritable_output():
    # the interpreter sets sys.stdout to None when descriptor 1 is closed at start
    for args in (("nk", str(FIXTURE), "--json"), ("check", str(FIXTURE))):
        p = subprocess.run([sys.executable, "-m", "nkvol.cli", *args], stderr=subprocess.PIPE,
                           text=True, preexec_fn=lambda: os.close(1))
        assert p.returncode == 2, (args, p.stderr)
        assert "Traceback" not in p.stderr and "Exception ignored" not in p.stderr, p.stderr


def test_calls_make_no_reference_cycles(tmp_path):
    # main() runs a call with the cyclic collector off, so a call may leave no garbage
    # that only the collector frees, beyond the closures of json's indenting encoder:
    # what `catalog list --json` leaves per report and `catalog emit --out` per file
    import contextlib
    import gc
    import io

    from nkvol import cli

    torus = tmp_path / "torus.json"
    run_cli("catalog", "emit", "torus6", "--out", str(torus))
    calls = [[command, str(FIXTURE), *extra, "--json"] for command, *extra in FIXTURE_COMMANDS]
    calls += [
        ["functional", str(FIXTURE), "--json"],
        ["optimize", str(FIXTURE), "--emit", str(tmp_path / "solved.json"), "--json"],
        ["optimize", str(su2r3_manifest(tmp_path / "su2r3.json")), "--max-iter", "18", "--json"],
        ["functional", str(torus), "--gradient", "--json"],
        ["catalog", "emit", "s3s3_perturbed", "--seed", "7", "--json"],
    ]
    report = ["catalog", "list", "--json"]
    written = ["catalog", "emit", "s3s3", "--out", str(tmp_path / "s3s3.json")]
    codes = []

    def garbage(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.run(argv))
        return gc.collect()

    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in [*calls, report, written]:  # warm: imports and first-use caches
            garbage(argv)
        per_report, per_file = garbage(report), garbage(written)
        for argv in calls:
            bound = per_report + (per_file if "--emit" in argv else 0)
            assert garbage(argv) <= bound, argv
            assert not gc.isenabled(), argv
    finally:
        if enabled:
            gc.enable()
    assert set(codes) == {0, 1, 2}, codes
    assert gc.isenabled() is enabled
    garbage(report)
    assert gc.isenabled() is enabled


def test_valid_manifests_exit_2_only_out_of_scope(tmp_path, capsys):
    # the exit-code census on 150 random valid manifests: a computing command never
    # exits 3, and exits 2 only with a message that names the scope.  A rank-deficient
    # conformal candidate fails the definite gate, so it counts as no candidate and never
    # reaches the metric or levi_civita
    from collections import Counter

    import numpy as np

    from helpers import random_acs, random_valid_algebra
    from nkvol import cli
    from nkvol.frame_manifold import Manifest

    rng = np.random.default_rng(11)
    errors = {}
    for k in range(150):
        alg, J = random_valid_algebra(rng), random_acs(rng)
        path = tmp_path / f"m{k}.json"
        Manifest(f"m{k}", 6, alg.structure_constants, J=J.matrix).save(path)
        for command in (["nijenhuis"], ["torsion"], ["nk"], ["cone"], ["functional", "--gradient"],
                        ["optimize", "--max-iter", "30"]):
            code = cli.run([command[0], str(path), *command[1:], "--json"])
            report = json.loads(capsys.readouterr().out)
            assert code in (0, 1, 2), (k, command, report.get("error"))
            if code == 2:
                errors.setdefault(command[0], Counter())[report["error"]] += 1
    # so no message reads "omega not positive" or "Singular matrix"
    no_candidate = "no positive Hermitian candidate available for the "
    assert errors == {
        "torsion": {no_candidate + "criterion": 81},
        "nk": {no_candidate + "suite": 81},
        "cone": {no_candidate + "cone": 81},
        "functional": {"gradient undefined: Nijenhuis tensor degenerate": 84,
                       "gradient undefined: no positive Hermitian candidate omega at this structure": 43},
    }, errors


def test_vanished_search_manifest_exits_on_its_verdicts(tmp_path, capsys):
    # the final J of su(2)+su(2) draw 5 of rng 2026, saved without omega: the conformal solve
    # decides its thin omega positive once and hands that omega out, so no command exits 2 on
    # positivity, and every check is finite.  The cone 3-form of that omega is unstable: `cone`
    # reports no roundtrip ratio or spread and exits 1.  So does a manifest omega
    # n2 (H + 1e-10 lambda_max(H) Id) from the same solve, whose spread used to be infinite
    import numpy as np

    from helpers import vanished_su2su2_search
    from nkvol import cli
    from nkvol.frame_manifold import catalog
    from nkvol.hermitian_torsion import _hermitian_form_coeffs, conformal_solve
    from nkvol.multilinear import Form
    from nkvol.nijenhuis import nijenhuis_via_brackets

    alg, res = vanished_su2su2_search()
    assert res.reason.endswith(": the equivalence suite rejects the candidate"), res.reason
    bare = catalog("s3s3")._replace(name="draw5_final", J=res.J.matrix, metric=None,
                                    omega=None, Omega3=None)
    bare.save(tmp_path / "bare.json")
    st = conformal_solve(nijenhuis_via_brackets(alg, res.J))
    H = st.n2 * (st.hermitian + 1e-10 * np.linalg.eigvalsh(st.hermitian)[-1] * np.eye(3))
    omega = Form(6, 2, _hermitian_form_coeffs(st.theta, H).real.astype(complex))
    bare._replace(omega=omega).save(tmp_path / "thick.json")
    calls = [("bare", "nijenhuis", 0), ("bare", "torsion", 1), ("bare", "nk", 1), ("bare", "cone", 1),
             ("thick", "cone", 1)]
    for name, command, expected in calls:
        code = cli.run([command, str(tmp_path / f"{name}.json"), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == expected, (name, command, report.get("error"))
        json.dumps(report["checks"], allow_nan=False)  # raises on a non-finite check
        if command == "cone":
            assert not report["verdicts"]["stable"], name
            assert not report["verdicts"]["metric_proportional"], name
            assert not {"roundtrip_ratio", "roundtrip_spread"} & set(report["checks"]), name
