"""Report generation, manifests and the command-line surface."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symlab import catalog, cli, expr as ex
from symlab.cli import (
    ManifestError,
    emit_report,
    export_manifest,
    load_manifest,
    run_verification,
)
from symlab.emfield import KgfChecker, Potential, field_from_potential
from symlab.geometry import Metric, StructureConstants


CHECK_NAMES = [
    "jacobi identity",
    "killing equations, generator 1",
    "killing equations, generator 2",
    "killing equations, generator 3",
    "admissibility, generator 1",
    "admissibility, generator 2",
    "admissibility, generator 3",
    "no central term",
    "field invariance, generator 1",
    "field invariance, generator 2",
    "field invariance, generator 3",
    "second-order scalar conditions",
]


def _g11_plus_u2(m):
    entries = [list(row) for row in m.metric.entries]
    entries[1][1] = entries[1][1] + ex.coord(2)
    return dataclasses.replace(m, metric=Metric(entries, m.metric.sign))


def _a2_plus_u1(m):
    # a uniform magnetic field F12 = 1: invariant, but with a central term
    pert = Potential.make(0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3])
    return dataclasses.replace(m, potential=pert, field=field_from_potential(pert))


def _a2_plus_u1_squared(m):
    pert = Potential.make(0, m.potential[1], m.potential[2] + ex.coord(1) ** 2, m.potential[3])
    return dataclasses.replace(m, potential=pert, field=field_from_potential(pert))


def _printed_viii_constants(m):
    # the sign the paper prints for C_23, which fails the Jacobi identity
    z, one = ex.number(0), ex.number(1)
    printed = StructureConstants(
        [
            [[z] * 3, [one, z, z], [z, ex.number(2), z]],
            [[-one, z, z], [z] * 3, [z, z, -one]],
            [[z, ex.number(-2), z], [z, z, one], [z] * 3],
        ]
    )
    return dataclasses.replace(m, constants=printed)


# (model, mutation, the checks it fails); together the rows fail every check
_FAILING_INPUTS = [
    ("IX", _g11_plus_u2, CHECK_NAMES[1:4] + ["second-order scalar conditions"]),
    ("I", _a2_plus_u1, [CHECK_NAMES[i] for i in (4, 7, 11)]),
    ("II", _a2_plus_u1_squared, [CHECK_NAMES[i] for i in (4, 6, 7, 8, 10, 11)]),
    ("IX", _a2_plus_u1_squared, [CHECK_NAMES[i] for i in (5, 6, 9, 10, 11)]),
    ("VIII", _printed_viii_constants, ["jacobi identity"]),
]


class TestRunVerification:
    def test_builtin_passes(self, models):
        for tag, m in models.items():
            rep = run_verification(m, samples=5, seed=1)
            assert rep.passed, tag
            assert [c.name for c in rep.checks] == CHECK_NAMES, tag
            assert rep.checks[0].detail == str(m.constants), tag

    def test_errata_reported_but_passing(self, models):
        rep = run_verification(models["VIII"], samples=5, seed=1)
        assert rep.passed
        assert rep.errata
        assert any("structure-constant" in e["location"] for e in rep.errata)

    def test_check_order_is_stable(self, models):
        for tag, m in models.items():
            rep = run_verification(m, samples=1, seed=0)
            assert [c.name for c in rep.checks] == CHECK_NAMES, tag

    @pytest.mark.parametrize(
        "tag, mutate, failing", _FAILING_INPUTS, ids=[f"{t}-{f.__name__}" for t, f, _ in _FAILING_INPUTS]
    )
    def test_mutation_fails_its_checks(self, models, tag, mutate, failing):
        rep = run_verification(mutate(models[tag]), samples=3, seed=0)
        assert [c.name for c in rep.checks if c.verdict == "fail"] == failing

    def test_every_check_can_fail(self, models):
        # a check that no input fails would pass by construction
        names = [c.name for c in run_verification(models["I"], samples=1).checks]
        failed = {name for _tag, _mutate, failing in _FAILING_INPUTS for name in failing}
        assert [n for n in names if n not in failed] == []


class TestReports:
    def test_json_deterministic(self, models):
        r1 = run_verification(models["III"], samples=8, seed=42)
        r2 = run_verification(models["III"], samples=8, seed=42)
        assert emit_report(r1, "json") == emit_report(r2, "json")

    def test_json_schema_versioned(self, models):
        rep = run_verification(models["I"], samples=5, seed=0)
        doc = json.loads(emit_report(rep, "json"))
        assert doc["schema"] == "symlab-report/1"
        assert doc["passed"] is True
        assert doc["timing_seconds"] is None

    def test_text_has_no_fail_lines_when_passing(self, models):
        rep = run_verification(models["IV"], samples=5, seed=0)
        text = emit_report(rep, "text")
        assert "FAIL" not in text


class TestManifests:
    def test_export_round_trip(self, models, tmp_path):
        m = models["III"]
        path = tmp_path / "three.manifest"
        path.write_text(export_manifest(m))
        loaded, bindings = load_manifest(str(path))
        assert loaded.frame == m.frame
        assert loaded.constants == m.constants
        assert loaded.potential == m.potential
        assert loaded.metric == m.metric
        assert loaded.field == m.field
        assert not bindings

    def test_round_trip_verifies(self, models, tmp_path):
        path = tmp_path / "six.manifest"
        path.write_text(export_manifest(models["VI"]))
        loaded, _ = load_manifest(str(path))
        rep = run_verification(loaded, samples=5, seed=0)
        assert rep.passed

    def test_round_trip_with_quotient_components(self, models, tmp_path):
        # the rotation frame carries 1/sin(u1) factors through the grammar
        path = tmp_path / "nine.manifest"
        path.write_text(export_manifest(models["IX"]))
        loaded, _ = load_manifest(str(path))
        assert loaded.frame == models["IX"].frame
        assert loaded.constants == models["IX"].constants
        assert loaded.potential == models["IX"].potential
        assert loaded.metric == models["IX"].metric

    def test_perturbed_potential_fails_admissibility(self, models, tmp_path):
        text = export_manifest(models["I"]).replace("A2 = beta0", "A2 = beta0 + u1^2")
        path = tmp_path / "bad.manifest"
        path.write_text(text)
        loaded, _ = load_manifest(str(path))
        rep = run_verification(loaded, samples=5, seed=0)
        assert not rep.passed
        failing = [c for c in rep.checks if c.verdict == "fail"]
        assert any("admissibility" in c.name for c in failing)

    def test_derived_constants_for_degenerate_span(self, tmp_path):
        path = tmp_path / "degenerate.manifest"
        path.write_text(
            "\n".join(
                [
                    "[model]",
                    "name = degenerate",
                    "[frame]",
                    "xi1 = 0, 1, 0, 0",
                    "xi2 = 0, 0, 1, 0",
                    "xi3 = 0, u1, 0, 0",
                    "[metric]",
                    "g00 = e",
                    "g11 = a11",
                    "g22 = a22",
                    "g33 = a33",
                    "[potential]",
                    "A0 = 0",
                    "A1 = 0",
                    "A2 = 0",
                    "A3 = 0",
                ]
            )
        )
        model, _ = load_manifest(str(path))
        assert model.constants[0, 2, 0] == ex.number(1)

    def test_rank_one_frame_rejected(self, tmp_path):
        path = tmp_path / "rank1.manifest"
        path.write_text(
            "\n".join(
                [
                    "[model]",
                    "name = rank1",
                    "[frame]",
                    "xi1 = 0, 1, 0, 0",
                    "xi2 = 0, u2, 0, 0",
                    "xi3 = 0, u2^2, 0, 0",
                    "[metric]",
                    "g00 = e",
                    "[potential]",
                    "A0 = 0",
                    "A1 = 0",
                    "A2 = 0",
                    "A3 = 0",
                ]
            )
        )
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "syntax.manifest"
        path.write_text("[model]\nname = x\n[frame]\nxi1 = 0, 1, +, 0\n")
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "missing.manifest"
        path.write_text("[model]\nname = x\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(str(path))
        assert "frame" in str(err.value)


class TestCommandLine:
    def test_verify_single_group_exit_zero(self, capsys):
        rc = cli.main(["verify", "--group", "II", "--samples", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result: PASS" in out

    def test_verify_manifest_failure_exit_one(self, capsys, tmp_path, models):
        text = export_manifest(models["I"]).replace("A2 = beta0", "A2 = beta0 + u1^2")
        path = tmp_path / "bad.manifest"
        path.write_text(text)
        rc = cli.main(["verify", "--manifest", str(path), "--samples", "5"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_errata_json(self, capsys):
        rc = cli.main(["errata", "--group", "VIII", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["errata"][0]["reproduced"] is True

    def test_solve_text(self, capsys):
        rc = cli.main(["solve", "--group", "V"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "free functions of u0: f1, f2, f3" in out

    def test_solve_unknown_group_exit_two(self, capsys):
        rc = cli.main(["solve", "--group", "X"])
        assert rc == 2

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_solve_every_type(self, capsys, tag):
        rc = cli.main(["solve", "--group", tag, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["free_functions"] == ["f1", "f2", "f3"]
        assert doc["free_constants"] == []
        pre = {"I": 3, "II": 2, "III": 1}.get(tag, 0)
        assert len(doc["pre_constraint_constants"]) == pre

    def test_export_then_verify(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        rc = cli.main(["export", "--group", "VII", "--out", str(path)])
        assert rc == 0
        rc = cli.main(["verify", "--manifest", str(path), "--samples", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result: PASS" in out

    def test_simulate_writes_rows(self, capsys, tmp_path):
        path = tmp_path / "traj.txt"
        rc = cli.main(
            [
                "simulate",
                "--group",
                "IX",
                "--tau",
                "2",
                "--tol",
                "1e-9",
                "--out",
                str(path),
            ]
        )
        assert rc == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tau")
        assert len(lines) > 10
        assert len(lines[1].split()) == 13

    def test_simulate_runaway_reports_error(self, capsys, tmp_path):
        # a uniform field: the flow grows like exp(2 tau) and leaves double range
        path = tmp_path / "runaway.manifest"
        path.write_text("[bindings]\ngamma0 = u0\n")
        rc = cli.main(
            ["simulate", "--group", "V", "--tau", "10", "--tol", "1e-10", "--bindings", str(path)]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "error" in err

    def test_simulate_step_budget_stops_runaway(self, capsys, tmp_path):
        path = tmp_path / "runaway.manifest"
        path.write_text("[bindings]\ngamma0 = u0\n")
        start = time.perf_counter()
        rc = cli.main(["simulate", "--group", "I", "--bindings", str(path), "--max-steps", "2000"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2
        assert elapsed < 10.0
        assert len(err.splitlines()) == 1
        assert "step budget exhausted at tau = " in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_rejects_vacuous_samples(self, capsys, samples):
        rc = cli.main(["verify", "--group", "II", "--samples", samples])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "--samples" in captured.err

    def test_simulate_with_binding_overrides(self, capsys, tmp_path):
        path = tmp_path / "bindings.manifest"
        path.write_text("[bindings]\nalpha0 = 0.5*sin(u0)\ngamma0 = 0*u0\n")
        rc = cli.main(
            [
                "simulate",
                "--group",
                "V",
                "--tau",
                "4",
                "--tol",
                "1e-9",
                "--bindings",
                str(path),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 0
        assert "drift" in err
        assert "steps: accepted=" in err


_U0_FRAME_MANIFEST = """[model]
name = timelike
[frame]
xi1 = 1, 0, 0, 0
xi2 = 0, 0, 1, 0
xi3 = 0, 0, 0, 1
[metric]
g00 = e
g11 = a11
g22 = a22
g33 = a33
[potential]
A0 = 0
A1 = alpha0
A2 = beta0
A3 = gamma0
"""

# (arguments, files to write first); {dir} is the test's temporary directory
_INPUT_ERRORS = {
    "verify-unknown-group": (["verify", "--group", "X"], {}),
    "errata-all": (["errata", "--group", "all"], {}),
    "errata-unknown-group": (["errata", "--group", "X"], {}),
    "export-unknown-group": (["export", "--group", "X"], {}),
    "simulate-unknown-group": (["simulate", "--group", "X"], {}),
    "verify-missing-manifest": (["verify", "--manifest", "{dir}/nope.manifest"], {}),
    "manifest-without-potential": (
        ["verify", "--manifest", "{dir}/m.manifest"],
        {"m.manifest": _U0_FRAME_MANIFEST.split("[potential]")[0]},
    ),
    "manifest-u0-generator": (
        ["verify", "--manifest", "{dir}/m.manifest"],
        {"m.manifest": _U0_FRAME_MANIFEST},
    ),
    "simulate-negative-tol": (["simulate", "--group", "I", "--tol", "-1"], {}),
    "simulate-zero-tau": (["simulate", "--group", "I", "--tau", "0"], {}),
    "simulate-missing-bindings": (
        ["simulate", "--group", "I", "--bindings", "{dir}/nope.manifest"],
        {},
    ),
    "solve-vi-q-one": (["solve", "--group", "VI", "--q", "1"], {}),
    "solve-unknown-group": (["solve", "--group", "X"], {}),
    "solve-q-off-type-vi": (["solve", "--group", "V", "--q", "3"], {}),
    "simulate-nan-tau": (["simulate", "--group", "I", "--tau", "nan"], {}),
    "simulate-inf-tau": (["simulate", "--group", "I", "--tau", "inf"], {}),
    "simulate-nan-tol": (["simulate", "--group", "I", "--tol", "nan"], {}),
    "simulate-zero-max-steps": (["simulate", "--group", "I", "--max-steps", "0"], {}),
    "simulate-binding-not-of-u0": (
        ["simulate", "--group", "I", "--bindings", "{dir}/b.manifest"],
        {"b.manifest": "[bindings]\nalpha0 = u1\n"},
    ),
    "simulate-unknown-binding": (
        ["simulate", "--group", "I", "--bindings", "{dir}/b.manifest"],
        {"b.manifest": "[bindings]\nalpah0 = 5*u0\n"},
    ),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
    def test_exit_two_with_one_line(self, case, capsys, tmp_path):
        argv, files = _INPUT_ERRORS[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        rc = cli.main([a.format(dir=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("q", ["1/0", "abc"])
    def test_unreadable_q_is_a_usage_error(self, q, capsys):
        # Fraction('1/0') raises ZeroDivisionError, which argparse does not catch
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["solve", "--group", "VI", "--q", q])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"argument --q: invalid Fraction value: '{q}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, suffix, extra",
        [
            ("xi2 = ", " +* 2", ""),
            ("s3 = ", " +* 2", ""),
            ("A1 = ", " +* 2", ""),
            ("A1 = ", "*0^-1", ""),
            ("A1 = ", "*2\u00b2", ""),
            ("gamma0 = ", " +* 2", "gamma0 = sin(u0)\n"),
        ],
    )
    def test_parse_error_names_its_line(self, models, tmp_path, entry, suffix, extra):
        text = export_manifest(models["II"])
        if extra:
            text += "\n[bindings]\n" + extra
        lines = text.splitlines()
        lineno = next(n for n, ln in enumerate(lines, start=1) if ln.startswith(entry))
        lines[lineno - 1] += suffix
        path = tmp_path / "bad.manifest"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ManifestError) as err:
            load_manifest(str(path))
        assert str(err.value).startswith(f"line {lineno}: ")
        if extra:
            with pytest.raises(ManifestError) as err:
                cli.load_bindings(str(path))
            assert str(err.value).startswith(f"line {lineno}: ")

    def test_metric_entry_error_names_its_line(self, tmp_path):
        text = _U0_FRAME_MANIFEST.replace("g22 = a22", "g22 = a22 )")
        lineno = text.splitlines().index("g22 = a22 )") + 1
        path = tmp_path / "bad.manifest"
        path.write_text(text)
        with pytest.raises(ManifestError) as err:
            load_manifest(str(path))
        assert str(err.value).startswith(f"line {lineno}: ")

    def test_non_utf8_bytes_are_a_manifest_error(self, models, tmp_path):
        path = tmp_path / "latin1.manifest"
        path.write_bytes(export_manifest(models["I"]).encode() + b"# \xe9\n")
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_engine_defect_keeps_its_traceback(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise ex.InternalInconsistencyError("canonical forms disagree")

        monkeypatch.setattr(cli, "get_model", broken)
        with pytest.raises(ex.InternalInconsistencyError):
            cli.main(["export", "--group", "I"])

    def test_value_error_from_the_engine_is_a_defect(self, monkeypatch):
        # only InputError means bad input; any other ValueError keeps its traceback
        def broken(*_args, **_kwargs):
            raise ValueError("cannot reshape array")

        monkeypatch.setattr(KgfChecker, "residuals", broken)
        with pytest.raises(ValueError, match="cannot reshape array"):
            cli.main(["verify", "--group", "I", "--samples", "1"])

    def test_input_checks_raise_input_error(self, models):
        for call in (
            lambda: catalog.get_model("X"),
            lambda: catalog.get_model("I", q=2),
            lambda: catalog.get_model("VI", q=1),
            lambda: run_verification(models["I"], samples=0),
        ):
            with pytest.raises(ex.InputError):
                call()


class TestBuildModel:
    @pytest.mark.parametrize("tag", ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"])
    def test_manifest_round_trip_equals_model(self, models, tmp_path, tag):
        m = models[tag]
        path = tmp_path / "m.manifest"
        path.write_text(export_manifest(m))
        loaded, _ = load_manifest(str(path))
        for f in dataclasses.fields(m):
            if f.name != "errata":
                assert getattr(loaded, f.name) == getattr(m, f.name), f.name
        assert loaded.errata == ()

    def test_param_that_is_not_rational_stays_text(self, models, tmp_path):
        text = export_manifest(models["I"]).replace("k = 0", "k = 1/0")
        path = tmp_path / "m.manifest"
        path.write_text(text)
        loaded, _ = load_manifest(str(path))
        assert loaded.params["k"] == "1/0"

    def test_catalog_models_come_from_build_model(self, models):
        m = models["VIII"]
        rebuilt = catalog.build_model(
            m.type_tag, m.params, m.frame, m.coframe, m.metric, m.potential, m.errata
        )
        assert rebuilt == m


# a frame whose invariant coframe has no exactly representable form, with a
# diagonal metric that is not invariant under it
_DIAGONAL_METRIC_MANIFEST = """[model]
name = custom
[frame]
xi1 = 0, 1, 0, 0
xi2 = 0, 0, 1, 0
xi3 = 0, u2, u1 + u2, -1
[metric]
g00 = e
g11 = a11
g22 = a22
g33 = a33
[potential]
A0 = 0
A1 = 0
A2 = 0
A3 = 0
"""


class TestMetricManifest:
    def test_metric_manifest_carries_no_coframe(self, tmp_path):
        path = tmp_path / "diagonal.manifest"
        path.write_text(_DIAGONAL_METRIC_MANIFEST)
        model, _ = load_manifest(str(path))
        assert model.coframe is None

    def test_verify_prints_a_report(self, tmp_path, capsys):
        path = tmp_path / "diagonal.manifest"
        path.write_text(_DIAGONAL_METRIC_MANIFEST)
        cli.main(["verify", "--manifest", str(path)])
        captured = capsys.readouterr()
        assert captured.out.startswith("model custom")
        assert "[FAIL] killing equations, generator 3 (symbolic)" in captured.out
        assert "result: FAIL" in captured.out
        assert captured.err == ""


# a metric whose g11 overflows a double on part of the sampled range, and one
# with g11 missing, which is singular everywhere
_OVERFLOW_METRIC_MANIFEST = """[model]
name = overflow
[frame]
xi1 = 0, 1, 0, 0
xi2 = 0, 0, 1, 0
xi3 = 0, 0, 0, 1
[metric]
g00 = -1
g11 = 10^300*exp(30*u0)
g22 = 1
g33 = 1
[potential]
A0 = 0
A1 = alpha0
A2 = beta0
A3 = gamma0
"""


class TestSecondOrderCheck:
    @pytest.mark.parametrize(
        "text",
        [
            _OVERFLOW_METRIC_MANIFEST,
            _OVERFLOW_METRIC_MANIFEST.replace("g11 = 10^300*exp(30*u0)\n", ""),
        ],
        ids=["overflow", "singular"],
    )
    def test_unevaluable_pairs_fail(self, capsys, tmp_path, text):
        path = tmp_path / "m.manifest"
        path.write_text(text)
        rc = cli.main(["verify", "--manifest", str(path), "--samples", "20"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[FAIL] second-order scalar conditions (numeric): nan" in captured.out
        assert "of 60 point-generator pairs non-finite or not evaluable" in captured.out
        assert "Traceback" not in captured.err
        failing = [ln for ln in captured.out.splitlines() if "[FAIL]" in ln]
        assert len(failing) == 1

    def test_overflow_raises_no_numpy_warning(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text(_OVERFLOW_METRIC_MANIFEST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["verify", "--manifest", str(path), "--samples", "20"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[FAIL] second-order scalar conditions (numeric): nan" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("samples", [0, -1])
    def test_run_verification_rejects_vacuous_samples(self, models, samples):
        with pytest.raises(ValueError):
            run_verification(models["I"], samples=samples)


class TestSecondOrderAccuracyAndPower:
    """The exact derivative leaves only rounding error on the catalog, and
    the check still rejects each non-admissible A2 of the mutation table."""

    def test_catalog_reports_at_rounding_level(self, models):
        # the nine reports of `verify --group all` at seed 0
        worst = 0.0
        for i, tag in enumerate(catalog.TAGS):
            rep = run_verification(models[tag], samples=100, seed=i)
            (check,) = [c for c in rep.checks if c.name == "second-order scalar conditions"]
            assert check.verdict == "pass", tag
            worst = max(worst, float(check.residual))
        assert worst < 1e-11

    @pytest.mark.parametrize("extra", ["u1^2", "u1", "sin(u2)"])
    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_mutation_table_fails(self, models, tag, extra):
        m = models[tag]
        A = Potential.make(0, m.potential[1], m.potential[2] + ex.parse(extra), m.potential[3])
        mutated = catalog.build_model(tag, m.params, m.frame, m.coframe, m.metric, A, m.errata)
        rep = run_verification(mutated, samples=2, seed=0)
        (check,) = [c for c in rep.checks if c.name == "second-order scalar conditions"]
        assert check.verdict == "fail", (tag, extra, check.residual)


def _mutated(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, byte in edits:
        if kind == "insert":
            out.insert(pos % (len(out) + 1), byte)
        elif out and kind == "delete":
            del out[pos % len(out)]
        elif out:
            out[pos % len(out)] = byte
    return bytes(out)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["substitute", "delete", "insert"]),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def exported_manifests():
    return [export_manifest(catalog.get_model(tag)).encode() for tag in catalog.TAGS]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(index=st.integers(0, 8), edits=_EDITS)
def test_load_manifest_fuzz_raises_only_manifest_error(exported_manifests, tmp_path_factory, index, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz.manifest"
    path.write_bytes(_mutated(exported_manifests[index], edits))
    try:
        load_manifest(str(path))
    except ManifestError:
        pass


# sha256 of the exact symbolic outputs, `solve`/`errata --group G --format
# json` and `export --group G` stdout; the same under PYTHONHASHSEED 1, 2 and
# 3.  Float residuals (`verify`) are left out: they may differ across numpy
# builds.
_OUTPUT_SHA256 = {
    ("solve", "I"): "1c0b1bd8b98fc4794cfca5b3ed80483aea46e4a8988a04badcf931e0fb8b9e21",
    ("solve", "II"): "cbe12e92b3aeac94d25ed95a3b2af35fed50bcc19c9fa248bc5c19cc0f055230",
    ("solve", "III"): "f417de4b0779560b1e020da7be0810e68f610f07bf7b781a6f10cef2a73f7fa0",
    ("solve", "IV"): "853d54c7dfcb48c64004ff7fefd956864d0a098aff1b876f0cd6826739d6d64b",
    ("solve", "V"): "65846b4af6c69340efd215f903e2281fc5361502748ca759786cb5f1969e70b0",
    ("solve", "VI"): "baa317926ebddfc6e3cfa8199141b270746e3ac0211ca07096e3dcee89a58d4c",
    ("solve", "VII"): "9b009310b7770c35d76282e4c89d19a48b472f0e8ad8742bfeb99e655b7f8b68",
    ("solve", "VIII"): "7bf00cea8c21eb5d9db6caf5d5479a674afdf5914916512a0a23ecab4c4d99ce",
    ("solve", "IX"): "a05b606ce5a346f2f63917c5e104931e284803a250b7b926bae38b4afbb2f897",
    ("errata", "I"): "95df765fac43e96e06844d917720ff0ae3ded63773181f1540abbbc385469d09",
    ("errata", "II"): "7c6c92a3cc33d52dbe272d1ffa7bca9e8f17d528d09c9140ae0f6fdf788a2dd2",
    ("errata", "III"): "88e1f68163f7ccb14c54fa512c92f95a354d85b13a339eec2ed461d195dcea13",
    ("errata", "IV"): "6b6c94d79aea4974048d17deba852edbf3150ca11bf2082e92d6067230da9f6a",
    ("errata", "V"): "db16bf4f605405415d5941dd824251e4436839e2d7ff2cc2ee482a61166e8d00",
    ("errata", "VI"): "e8b298916803a8f3a76248e6148d045cc4b54c511c61d6078f76ede2f5bd8d96",
    ("errata", "VII"): "38c0abd08e2f77e774ca6c25dda423c2095f3390a5d25019ca162d095f69d950",
    ("errata", "VIII"): "3231c9af8f6e90bfa03f2a7170853b7b74dd0212c200a929cad91d2749d05950",
    ("errata", "IX"): "8849d3f7f1d3ee06eb07f8f7a137333ce46dd020a3ea84617cf26756da804edf",
    ("export", "I"): "d60d5fd2d2b17a0a646ed1c8c1aaec0f89d14b8caec3abedf1fd731c59c8b442",
    ("export", "II"): "e81e17d87a3f88aab1c28e473cc7cae1aaef6b715f92e1eced0aab4086eae97f",
    ("export", "III"): "b5235f3a6e5a672e24f3333a46f0367e7fe907fa864890106f07b37b8a8da8fb",
    ("export", "IV"): "0d59aa671c2b11a1987ec56d7b5e940c9cfb1c34e913ec3650d287ccc14db3d2",
    ("export", "V"): "49fba29aa3b70d6b6b56661ebd7e50b4374345b44c9848cc8d8b755d2a3540cf",
    ("export", "VI"): "7654a07183d017b214f4ad2f4a6a4d7e79c82f01563b56a9dff5c2e806e49e3e",
    ("export", "VII"): "78831d23d4261bfc6ad42442d23e24609ed4d6de3421d5eb955593f4522d10ef",
    ("export", "VIII"): "7389a9f761e85d6cd561bd21832a1c8c709de1ab96fc866815245f3fb4eee9ed",
    ("export", "IX"): "9f927b4b1af8775c8381317ba908582e3240517d717402890431859785f54fed",
}


@pytest.mark.parametrize("command,group", list(_OUTPUT_SHA256), ids=lambda v: v)
def test_exact_output_is_pinned(capsys, command, group):
    fmt = [] if command == "export" else ["--format", "json"]
    assert cli.main([command, "--group", group, *fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _OUTPUT_SHA256[(command, group)]


# sha256 of `solve --group VI --q=Q` stdout, as text and as JSON, for four
# values of type VI's free constant; at q = -1 the algebraic constraints
# eliminate the constant ta
_VI_Q_SHA256 = {
    ("3", "text"): "ee607adfa6af51793898958a86f2a115324d0260134692c2de6da823f8183b8a",
    ("3", "json"): "e19d96246293e7e64f82918a2a08eb64c1790ef27c820dd0cd637d353501d32f",
    ("-1", "text"): "4ca765572ddbdc2d64d12be3ec7a51e63742c14fe3127d2e12e9f8703c52717c",
    ("-1", "json"): "ef55f8e291567c3936fdbd5f4177f4c699f423f77e038d89fee3166edcefa441",
    ("1/2", "text"): "e34e9eb26b83be9b6e6d5ec66a9f660ddb492ed65e0768609024041f4d6b776c",
    ("1/2", "json"): "f967e2e129780184074adc07683c26dd9ff7ed5e4f93cc1ca06f13cd9c6cb7ac",
    ("-3/7", "text"): "4376bee777e26da502eddfcb9f1446af1afde9275932b2f6cd211d63bab26aa6",
    ("-3/7", "json"): "882cc40a9d20940df178e81a3fd45d7bae4573eb9199591fc02adbb704fcbdc8",
}


@pytest.mark.parametrize("q,fmt", list(_VI_Q_SHA256), ids=lambda v: v)
def test_vi_q_exact_output_is_pinned(capsys, q, fmt):
    assert cli.main(["solve", "--group", "VI", f"--q={q}", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _VI_Q_SHA256[(q, fmt)]


# sha256 of `verify --group G --samples 5 --format json` stdout, the same
# under PYTHONHASHSEED 1, 2 and 3.  The value of the one float residual, that
# of the sampled second-order scalar conditions, is masked first: it may
# differ across numpy builds.  Its verdict stays in the hashed text.
_VERIFY_SHA256 = {
    "I": "e6aa1133adc1af0b10972df5011d1c40dc0991c40002f732e4ed6dbec9800370",
    "II": "153323919f9d4188f1f4db68b5fa1eaa404eaae26164942b43b22f1546e9da5d",
    "III": "a98b04f06dbe9ce756a9544f8766b23cc0309c61f103f0f7666ebdaa73b7a525",
    "IV": "0db7172b0c1629d669ec97781fd5cca7faba798a7a126cfb6b22395dad1bd1a0",
    "V": "77f52f8456a3800a0412ad9e340dc1d8d8c74b0eab801b08dec6b65343b60a7d",
    "VI": "c090628c223bd51016f0850a014915ebefc787cdd4508fd9fa195f3297be48ee",
    "VII": "a21cf44159437797cef8de08738fa658926bacd233bc3e903815fac97f7c254c",
    "VIII": "05bd73911f6e74872e213ecb8e6c65598bef2d8ff1639bb3bac2eee9ee0177bd",
    "IX": "0f88b1dbeeb29f72e551392d33f3440d95d707be2b15ee80a31b2d246364eee6",
}
_FLOAT_RESIDUAL = re.compile(
    r'("name": "second-order scalar conditions",\s*"mode": "numeric",\s*"residual": )"[^"]*"'
)


@pytest.mark.parametrize("group", list(_VERIFY_SHA256))
def test_verify_output_is_pinned(capsys, group):
    assert cli.main(["verify", "--group", group, "--samples", "5", "--format", "json"]) == 0
    out, masked = _FLOAT_RESIDUAL.subn(r'\1"masked"', capsys.readouterr().out)
    assert masked == 1
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[group]


def _run_module(*args, timeout=120):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "symlab", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_module_entry_point_exit_status():
    done = _run_module("solve", "--group", "IX", "--format", "json")
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == _OUTPUT_SHA256[("solve", "IX")]
    done = _run_module("verify", "--group", "I", "--samples", "0")
    assert done.returncode == 2
    printed = done.stdout + done.stderr
    assert printed.startswith("error:") and printed.count("\n") == 1, printed


def test_high_trig_power_in_frame_is_rejected_in_seconds(tmp_path):
    # xi3's last IX component with sin(u1)^(-51): the bracket's products then
    # hold dozens of trig units, and reducing them must stay polynomial
    text = export_manifest(catalog.get_model("IX"))
    old = "cos(u2)*sin(u1)^(-1)\n"
    assert text.count(old) == 1
    path = tmp_path / "power.manifest"
    path.write_text(text.replace(old, "cos(u2)*sin(u1)^(-51)\n"))
    done = _run_module("verify", "--manifest", str(path), "--samples", "5", timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1, done.stderr
    assert done.stderr.startswith(
        "error: frame does not define an algebra: bracket [1,2] has non-constant coefficient"
    ), done.stderr
