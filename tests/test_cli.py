"""End-to-end CLI behavior: output shapes, formats, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import nilwords
from nilwords.cli import EXIT_DOMAIN, _build_parser, _profile_rows, _profile_to_csv, main
from nilwords.dynamics import XYPoint
from nilwords.search import SearchConfig, coarse_length_profile
from nilwords.verify import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """`json.loads` that rejects NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def subcommands():
    """The subcommand parsers of the real parser, by name."""
    (action,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every public attribute read."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestEval:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "eval", "X^1 Y^1", "--arith", "exact")
        assert code == 0
        assert "element: (1, 1, 1, 1, 1)" in out
        assert "uvw: (1, 1, 1)" in out
        assert "xy: (1, 0)" in out
        assert "length: 2" in out
        assert "coarse_length: 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "eval", "X^1/2 Y^1 X^1/2", "--arith", "exact",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["element"] == ["1", "1", "0", "-1/2", "1"]
        assert payload["uvw"] == ["0", "-1/2", "1"]
        assert payload["xy"] == ["1/4", "1/2"]
        assert payload["length"] == "2"
        assert payload["coarse_length"] == 3
        assert payload["abelianization_lower_bound"] == "2"

    def test_non_unit_masses(self, capsys):
        code, out, _ = run(
            capsys, "eval", "X^2", "--arith", "exact", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["uvw"] is None and payload["xy"] is None

    @pytest.mark.parametrize("arith, zero", [("exact", "0"), ("float", "0.0")])
    def test_empty_word_length_in_the_requested_mode(self, capsys, arith, zero):
        # The empty word takes the requested mode.
        code, out, _ = run(capsys, "eval", "", "--arith", arith)
        assert code == 0
        assert f"length: {zero}\n" in out
        code, out, _ = run(capsys, "eval", "", "--arith", arith, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == payload["abelianization_lower_bound"] == zero
        assert payload["element"] == [zero] * 5

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "Z^1")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("arith", ["exact", "float"])
    def test_zero_denominator(self, capsys, arith):
        for argv in (("eval", "X^1/0"), ("member", "1/0", "0.5")):
            code, out, err = run(capsys, *argv, "--arith", arith)
            assert code == 2
            assert out == ""
            assert "zero denominator" in err and "Fraction(1, 0)" not in err

    @pytest.mark.parametrize("word", ["X^nan", "X^1 Y^inf", "Y^-1e400"])
    def test_non_finite_exponent(self, capsys, word):
        code, out, err = run(capsys, "eval", word)
        assert code == 2
        assert out == ""
        assert "not a finite number" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("word", ["X^1e200 Y^1e200 X^-1e200", "X^1e308 Y^1e308"])
    def test_float_overflow_is_a_usage_error(self, capsys, word, fmt):
        code, out, err = run(capsys, "eval", word, "--format", fmt)
        assert code == 2
        assert out == ""
        assert "--arith exact" in err
        code, out, _ = run(capsys, "eval", word, "--arith", "exact")
        assert code == 0
        assert "inf" not in out and "nan" not in out

    def test_csv_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "X^1 Y^1", "--format", "csv"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "eval.json"
        code, out, _ = run(
            capsys, "eval", "X^1 Y^1", "--arith", "exact",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["coarse_length"] == 2


class TestMember:
    def test_interior(self, capsys):
        code, out, _ = run(capsys, "member", "0.36", "0.36")
        assert code == 0
        assert "status: InteriorMember" in out

    def test_endpoint(self, capsys):
        code, out, _ = run(capsys, "member", "1", "0", "--arith", "exact")
        assert code == 0
        assert "status: EndpointMember" in out

    def test_excluded_limit_point(self, capsys):
        code, out, _ = run(capsys, "member", "1/3", "1/3", "--arith", "exact")
        assert code == 1
        assert "status: Outside" in out
        assert "failed_condition: 4x>3(1-y)^2 (exact equality)" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "member", "0.5", "0.5", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "Outside"
        assert payload["failed_condition"] == "or-clause"
        assert payload["boundary_equality"] is False

    def test_eps_margin(self, capsys):
        code, out, _ = run(capsys, "member", "0.345", "0.345", "--eps", "0.1")
        assert code == 1
        code, out, _ = run(capsys, "member", "0.345", "0.345")
        assert code == 0

    def test_eps_rejected_in_exact_mode(self, capsys):
        code, _, err = run(
            capsys, "member", "1/3", "1/3", "--arith", "exact", "--eps", "0.1"
        )
        assert code == 2
        assert "usage error" in err

    def test_bad_coordinate(self, capsys):
        code, _, err = run(capsys, "member", "abc", "0.5")
        assert code == 2

    @pytest.mark.parametrize("x", ["-1/3", "-1e-3", "-.5", "-0.5"])
    def test_negative_coordinate_reads_as_a_number(self, capsys, x):
        plain = run(capsys, "member", x, "0.5")
        assert plain == run(capsys, "member", "--", x, "0.5")
        code, out, _ = plain
        assert code == 1
        assert "status: Outside" in out

    def test_negative_eps_is_a_margin_error(self, capsys):
        # -1e-3 reaches --eps as its value, which is then rejected as a
        # negative margin, not read as an unknown flag.
        for argv in (("--eps", "-1e-3"), ("--eps=-1e-3",)):
            code, out, err = run(capsys, "member", "0.2", "0.3", *argv)
            assert code == 2
            assert out == ""
            assert "usage error: margin must be a finite nonnegative number" in err

    def test_unknown_flag_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["member", "-x", "0.5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps(self, capsys, eps):
        code, out, err = run(capsys, "member", "0.36", "0.36", "--eps", eps)
        assert code == 2
        assert out == ""
        assert "usage error" in err


class TestPlot:
    def test_svg(self, capsys, tmp_path):
        path = tmp_path / "region.svg"
        code, out, _ = run(
            capsys, "plot", "--out", str(path), "--count", "16",
            "--resolution", "32",
        )
        assert code == 0
        assert f"wrote svg to {path}" in out
        assert path.read_text().startswith("<?xml")

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "region.csv"
        code, out, _ = run(
            capsys, "plot", "--format", "csv", "--out", str(path),
            "--count", "8",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "curve_label,x,y"
        assert len(lines) == 1 + 6 * 8

    def test_bad_resolution(self, capsys, tmp_path):
        path = tmp_path / "region.svg"
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", "--out", str(path), "--resolution", "0"])
        assert excinfo.value.code == 2
        assert "--resolution" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--resolution", "4097"), ("--resolution", "100000000"),
         ("--count", "1"), ("--count", "65537"), ("--count", "100000000")],
    )
    def test_work_flags_are_bounded(self, capsys, tmp_path, monkeypatch, flag, value):
        def render_region(*args, **kwargs):
            raise AssertionError("rendered despite an out-of-range flag")

        monkeypatch.setattr("nilwords.cli.render_region", render_region)
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", "--out", str(tmp_path / "region.svg"), flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be at" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "-5"])
    def test_bad_eps(self, capsys, tmp_path, eps):
        path = tmp_path / "region.svg"
        code, out, err = run(capsys, "plot", "--out", str(path), "--eps", eps)
        assert code == 2
        assert out == ""
        assert "usage error" in err
        assert not path.exists()


class TestProfile:
    def test_planar_csv(self, capsys):
        code, out, _ = run(capsys, "profile", "0.38", "0.36", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,distance,pattern,t_vector"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_planar_json(self, capsys):
        code, out, _ = run(
            capsys, "profile", "0.38", "0.36", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == "xy"
        assert len(payload["rows"]) == 2
        assert "upper bounds" in payload["note"]
        first = payload["rows"][0]
        assert set(first) == {"k", "distance", "pattern", "t_vector", "converged"}
        assert all(row["converged"] is True for row in payload["rows"])

    def test_uvw_objective(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--objective", "uvw", "1", "1", "1", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "profile", "0.4", "2")
        assert code == 2
        code, _, err = run(
            capsys, "profile", "0.4", "0.3", "0.2", "2"
        )
        assert code == 2
        code, _, err = run(
            capsys, "profile", "0.4", "0.3", "2", "--objective", "uvw"
        )
        assert code == 2

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    @pytest.mark.parametrize("values", [("0.4", "0.3"), ("--objective", "uvw", "0", "0", "0")])
    def test_k_max_below_one_is_a_usage_error(self, capsys, values, k_max):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", *values, k_max])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument k_max: must be at least 1, got {k_max}" in err

    @pytest.mark.parametrize("values", [("nan", "nan"), ("0.38", "inf")])
    def test_non_finite_target(self, capsys, values):
        code, out, err = run(capsys, "profile", *values, "2")
        assert code == 2
        assert out == ""
        assert "not a finite number" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_distance_is_a_usage_error(self, capsys, fmt):
        # each residual is finite, but their norm overflows to inf, which
        # JSON cannot hold
        code, out, err = run(capsys, "profile", "1.7e308", "1.7e308", "2", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "overflows" in err

    def test_csv_form(self):
        fast = SearchConfig(max_iterations=300)
        rows = coarse_length_profile(XYPoint.of_floats(0.38, 0.36), 2, fast)
        lines = _profile_to_csv(_profile_rows(rows)).splitlines()
        assert lines[0] == "k,distance,pattern,t_vector"
        assert len(lines) == 3
        k, distance, pattern, ts = lines[2].split(",")
        assert k == "2"
        float(distance)
        assert set(pattern) <= {"A", "B"}
        assert len(ts.split(";")) == 2

    # The CSV of two default profiles, bit for bit; the JSON output holds the
    # same rows, every one converged.
    PINNED = {
        "xy": (
            ("0.38", "0.36"),
            "k,distance,pattern,t_vector\n"
            "1,0.015406757038321155,B,0.3919005038324476\n"
            "2,0.0,AB,0.9264078583440909;0.3766239177481818\n"
            "3,0.0,AAB,0.9264078583440909;0.0;0.3766239177481818\n",
        ),
        "uvw": (
            ("--objective", "uvw", "0", "0", "0"),
            "k,distance,pattern,t_vector\n"
            "1,1.1055415967851334,A,0.3333333432674408\n"
            "2,0.16757378670365314,AB,0.6961098686227647;0.30389013140531856\n"
            "3,0.10261422683771369,ABA,"
            "0.7605610618761585;0.49999999934747774;0.19318332771495944\n",
        ),
    }

    @pytest.mark.parametrize("objective", sorted(PINNED))
    def test_pinned_csv(self, capsys, objective):
        values, csv = self.PINNED[objective]
        assert run(capsys, "profile", *values, "3") == (0, csv, "")

    @pytest.mark.parametrize("objective", sorted(PINNED))
    def test_pinned_json(self, capsys, objective):
        values, csv = self.PINNED[objective]
        target = values[2:] if objective == "uvw" else values
        payload = {
            "objective": objective,
            "target": [float(v) for v in target],
            "note": (
                "distances are optimizer upper bounds; the planar objective "
                "lower-bounds full-element difficulty"
            ),
            "rows": [
                {
                    "k": int(k),
                    "distance": float(distance),
                    "pattern": pattern,
                    "t_vector": [float(t) for t in ts.split(";")],
                    "converged": True,
                }
                for k, distance, pattern, ts in (line.split(",") for line in csv.splitlines()[1:])
            ],
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(capsys, "profile", *values, "3", "--format", "json") == (0, expected, "")

    @pytest.mark.parametrize("value", ["-1e-3", "-1/1000"])
    def test_negative_coordinate_reads_as_a_number(self, capsys, value):
        plain = run(capsys, "profile", "--objective", "uvw", value, "1", "1", "1")
        dashed = run(capsys, "profile", "--objective", "uvw", "--", value, "1", "1", "1")
        assert plain == dashed
        assert plain[0] == 0
        assert plain[1].startswith("k,distance,pattern,t_vector\n1,")


class TestSynth:
    def test_seed_orbit_target(self, capsys):
        code, out, _ = run(capsys, "synth", "0.25", "0.5")
        assert code == 0
        assert "word: X^0.5 Y^1 X^0.5" in out
        assert "stage: seed-orbit" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "synth", "0.6", "0.2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["success"] is True
        assert payload["residual"] <= 1e-9
        assert payload["sequence"]["seed"] in ("XY", "YX")
        assert payload["word_text"]
        assert len(payload["achieved"]) == 2

    def test_outside_target(self, capsys):
        code, _, err = run(capsys, "synth", "0.5", "0.5")
        assert code == 1
        assert "not synthesized" in err

    def test_pattern_cap_bounds_the_word(self, capsys):
        # the shortest word reaching this target has 2 steps
        code, out, _ = run(
            capsys, "synth", "0.5152680043143939", "0.22323688358029925",
            "--pattern-cap", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stage"] == "direct"
        assert [kind for kind, _ in payload["sequence"]["steps"]] == ["A", "B"]

    def test_budget_exhaustion(self, capsys):
        near = repr(1 / 3 + 1e-6)
        code, out, _ = run(
            capsys, "synth", near, near, "--pattern-cap", "3"
        )
        assert code == 1
        assert "not synthesized" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_near_limit_target_is_proven_out_of_reach(self, capsys, fmt):
        # x + y - 2/3 = 1.0e-3, below the floor 1/(3 * 13^2) of 12 steps
        code, out, _ = run(
            capsys, "synth", "0.3338333333", "0.3338333333", "--format", fmt
        )
        assert code == EXIT_DOMAIN == 1
        message = json.loads(out)["message"] if fmt == "json" else out
        assert "the staircase floor proves that no sequence of <= 12 steps" in message
        assert "the floor is 0.000687581 from the target" in message
        if fmt == "json":
            assert json.loads(out)["stage"] == "exhausted"

    @pytest.mark.parametrize(
        "argv",
        [("0.3338333333", "0.3338333333"), ("0.6", "0.2", "--pattern-cap", "1")],
        ids=["proven", "budget-limited"],
    )
    def test_exhausted_json_is_strict_json(self, capsys, argv):
        # a failed synthesis has residual inf, which JSON cannot hold: null
        code, out, _ = run(capsys, "synth", *argv, "--format", "json")
        assert code == EXIT_DOMAIN
        payload = strict_json(out)
        assert (payload["stage"], payload["success"], payload["residual"]) == (
            "exhausted", False, None,
        )

    def test_csv_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "0.6", "0.2", "--format", "csv"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance(self, capsys, tol):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "0.6", "0.2", "--tol", tol])
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_bad_step_budget(self, capsys, cap):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "0.6", "0.2", "--pattern-cap", cap])
        assert excinfo.value.code == 2
        assert "--pattern-cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("synth", "0.6", "0.2"), ("profile", "0.4", "0.4", "2")])
    def test_negative_seed_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--seed", "-1")
        assert code == 0
        assert out

    @pytest.mark.parametrize("x, y", [("nan", "0.5"), ("0.5", "inf"), ("1e400", "0.2")])
    def test_non_finite_target(self, capsys, x, y):
        code, out, err = run(capsys, "synth", x, y)
        assert code == 2
        assert out == ""
        assert "not a finite number" in err


class TestVerify:
    def test_algebra_text(self, capsys):
        code, out, _ = run(
            capsys, "verify", "algebra", "--arith", "exact", "--trials", "50"
        )
        assert code == 0
        assert "[PASS]" in out
        assert "FAIL" not in out

    def test_convergence_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "convergence", "--trials", "16",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "convergence"
        assert payload["passed"] is True
        assert payload["trials"] == 16
        assert payload["checks"]

    def test_long_exact_convergence_json(self, capsys):
        # Exact words extend one state by two letters each, so 20 000 words
        # run in a fraction of a second; re-evaluating every word would
        # take about a minute.
        code, out, _ = run(
            capsys, "verify", "convergence", "--arith", "exact", "--trials", "20000",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert payload["trials"] == 20000
        assert payload["passed"] is True
        assert len(payload["checks"]) == 4
        assert all(check["passed"] for check in payload["checks"])

    @pytest.mark.parametrize("arith", [(), ("--arith", "exact")], ids=["float", "exact"])
    def test_invariance_json(self, capsys, arith):
        code, out, _ = run(
            capsys, "verify", "invariance", *arith, "--trials", "20000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == ("exact" if arith else "float")
        assert payload["trials"] == 20000
        assert payload["passed"] is True
        assert [check["name"] for check in payload["checks"]] == ["invariance-a", "invariance-b"]
        assert all(check["passed"] for check in payload["checks"])

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_bad_trials(self, capsys, trials):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "algebra", "--trials", trials])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--trials" in captured.err

    def test_negative_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "algebra", "--trials", "5", "--seed", "-1")
        assert code == 0
        assert "[PASS]" in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "nonsense"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestUnwritableOut:
    """An --out path that cannot be written is a usage error, not a traceback."""

    @staticmethod
    def assert_usage_error(code, out, err, path):
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot write {str(path)!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "X^1 Y^1"),
            ("profile", "0.4", "0.3", "2"),
            ("plot", "--count", "4", "--resolution", "4"),
        ],
        ids=["eval", "profile", "plot"],
    )
    def test_missing_directory(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        self.assert_usage_error(*run(capsys, *argv, "--out", str(path)), path)
        assert not path.parent.exists()

    def test_directory(self, capsys, tmp_path):
        result = run(capsys, "member", "0.4", "0.4", "--out", str(tmp_path))
        self.assert_usage_error(*result, tmp_path)


class TestParser:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("profile", "1/3", "1/3", "2", "--arith", "exact"),
        ("synth", "0.25", "0.5", "--arith", "exact"),
        ("verify", "convergence", "--eps", "0.5"),
        ("eval", "X^1", "--tol", "1"),
        ("member", "0.4", "0.4", "--seed", "1"),
        ("plot", "--pattern-cap", "3"),
    ], ids=lambda argv: argv[0])
    def test_foreign_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("argv", [
        ("eval", "X^1"),
        ("member", "0.4", "0.4"),
        ("plot", "--resolution", "4", "--count", "2"),
        ("profile", "0.4", "0.4", "1"),
        ("synth", "0.25", "0.5"),
        ("verify", "convergence", "--trials", "2"),
    ], ids=lambda argv: argv[0])
    def test_every_flag_is_read(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # plot writes region.svg here
        args = _build_parser().parse_args(argv, namespace=RecordingNamespace())
        args._reads.clear()
        args.func(args)
        dests = {
            action.dest for action in subcommands()[argv[0]]._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert dests - args._reads == set()

    def test_cli_runs_without_numpy_or_scipy(self, tmp_path):
        # numpy is a test and benchmark dependency only, and only the
        # benchmark's tracer reads `search.optimize`: neither importing the
        # CLI nor running a plot, a profile or a synthesis may load either.
        src = str(Path(nilwords.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (
            "import sys, nilwords.cli\n"
            "def loaded():\n"
            "    return sorted({'numpy', 'scipy'} & set(sys.modules))\n"
            "print(loaded())\n"
            f"nilwords.cli.main(['plot', '--out', {str(tmp_path / 'region.svg')!r}])\n"
            "nilwords.cli.main(['profile', '0.4', '0.3', '2'])\n"
            "nilwords.cli.main(['synth', '0.6', '0.2'])\n"
            "print(loaded())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")

    def test_flags_accepted_after_subcommand(self, capsys):
        code, _, _ = run(
            capsys, "synth", "0.6", "0.2", "--tol", "1e-6",
            "--seed", "7", "--pattern-cap", "8",
        )
        assert code == 0


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    @staticmethod
    def flag_cell(parser):
        """A subcommand's flags as the README table writes them: its own flags
        in parser order, then `--format{choices}` and `--out`."""
        flags, formats = [], ""
        for action in parser._actions:
            if not action.option_strings or action.dest in ("help", "out"):
                continue
            if action.dest == "format":
                formats = "--format{" + ",".join(action.choices) + "}"
            else:
                flags.append(action.option_strings[0])
        return " ".join([*flags, formats, "--out"])

    def test_flag_table_matches_the_parser(self):
        lines = self.README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| Subcommand | Flags |") + 2
        documented = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            name, cell = (part.strip() for part in line.strip("|").split("|"))
            documented[name] = cell.strip("`")
        derived = {name: self.flag_cell(parser) for name, parser in subcommands().items()}
        assert documented == derived


# Arbitrary command lines: every one ends in a documented exit code.  The
# flags come from the parser itself, and now and then a command draws a flag
# that only another command takes.  Flags that set the amount of work
# (`--trials`, `--resolution`, `--count`, `--pattern-cap`) draw only small
# values, and the largest integer in the token pool is 2, so `profile` runs
# with k_max <= 2.  Every command line ends in `--out`, so it is not drawn.
TOKENS = ("0.5", "1", "0", "2", "-1", "X^1 Y^1", "X^2", "nan", "inf", "1e400",
          "1/0", "junk", "")


def _flag_table():
    """Each subcommand's flags but `--out`, and for each flag with choices
    every choice any subcommand offers, read from the parser."""
    flags, choices = {}, {}
    for command, parser in subcommands().items():
        actions = [
            action for action in parser._actions
            if action.option_strings and action.dest not in ("help", "out")
        ]
        flags[command] = tuple(action.option_strings[0] for action in actions)
        for action in actions:
            if action.choices:
                choices.setdefault(action.option_strings[0], set()).update(action.choices)
    return flags, {flag: tuple(sorted(values)) for flag, values in choices.items()}


COMMAND_FLAGS, CHOICES = _flag_table()
ALL_FLAGS = tuple(sorted({flag for flags in COMMAND_FLAGS.values() for flag in flags}))
COMMAND_FLAGS["junk"] = ALL_FLAGS
# Each flag mostly draws a value it accepts, sometimes one from the pool.
FLAG_VALUES = {
    "--eps": ("0", "0.01"),
    "--tol": ("1e-9", "1e-6"),
    "--seed": ("1", "7"),
    "--trials": ("1", "2"),
    "--resolution": ("1", "2"),
    "--count": ("1", "2"),
    "--pattern-cap": ("1", "2"),
    **CHOICES,
}
COORDINATES = ("0.5", "0.25", "0.6", "0.2", "1", "0")
OPERANDS = {
    "eval": (("X^1 Y^1", "X^1/2 Y^1 X^1/2", "X^2"),),
    "member": (COORDINATES,) * 2,
    "plot": (),
    "profile": (COORDINATES,) * 2 + (("1", "2"),),
    "synth": (COORDINATES,) * 2,
    "verify": (SUITE_NAMES,),
    "junk": (TOKENS,),
}
WORK_FLAGS = {
    "verify": ("--trials",),
    "plot": ("--resolution", "--count"),
    "synth": ("--pattern-cap",),
}


def _value(draw, accepted):
    if draw(st.integers(0, 3)) < 3:
        return draw(st.sampled_from(accepted))
    return draw(st.sampled_from(TOKENS))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPERANDS)))
    operands = OPERANDS[command]
    if command == "profile" and draw(st.booleans()):
        operands = (COORDINATES,) + operands  # U V W K_MAX for --objective uvw
    argv = [command] + [_value(draw, accepted) for accepted in operands]
    extra = draw(st.sampled_from((0, 0, 0, 1, -1)))  # one operand too many or few
    if extra > 0:
        argv.append(draw(st.sampled_from(TOKENS)))
    elif extra < 0 and operands:
        argv.pop()
    flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=3, unique=True))
    foreign = sorted(set(ALL_FLAGS) - set(COMMAND_FLAGS[command]))
    if foreign and draw(st.integers(0, 4)) == 4:
        flags.append(draw(st.sampled_from(foreign)))
    for flag in flags:
        argv += [flag, _value(draw, FLAG_VALUES[flag])]
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(ALL_FLAGS)))  # flag without a value
    # Work-setting flags come last, so a repeated flag cannot override them.
    for flag in WORK_FLAGS.get(command, ()):
        argv += [flag, _value(draw, ("1", "2"))]
    return argv


@given(argv=command_lines())
@settings(max_examples=150, deadline=None)
def test_any_command_line_exits_with_a_documented_code(argv, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "argv-out"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), argv
    # the command line parsed if it wrote its output
    if out.exists() and _build_parser().parse_args(argv).format == "json":
        strict_json(out.read_text(encoding="utf-8"))
