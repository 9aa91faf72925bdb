import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from isoresidual import verification
from isoresidual.cli import main


# A number past the interpreter's limit for converting text to int.
LONG = "1" * 5000
TOO_LONG = f"a number has more than {sys.get_int_max_str_digits()} digits"

# Multipliers of 2200 digits whose residues 1/(1 - lambda), or their sum,
# have parts of about 4400 digits.
THREES, SEVENS = "3" * 2200, "7" * 2200

# Residues with parts of 4200 digits, over coprime denominators, whose
# nonzero sum has parts of about 8400 digits.
UNBALANCED = ["1" * 4200 + f"/{10**4199}", "1" * 4200 + f"/{10**4199 + 1}", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCount:
    def test_generic_residues(self, capsys):
        report = run_json(capsys, "count", "--mu", "2,1,1,2", "--rho", "2,-1,-1", "--json")
        assert report["total"] == "2"
        assert report["rank"] == 0

    def test_vanishings_input(self, capsys):
        report = run_json(
            capsys, "count", "--mu", "4,2,2,1,1", "--vanishings", "1,2", "--json"
        )
        assert report["total"] == "9"
        assert [t["value"] for t in report["terms"]] == ["12", "-3"]

    def test_zero_tuple(self, capsys):
        report = run_json(capsys, "count", "--mu", "2,1,1,2", "--rho", "0,0,0", "--json")
        assert report["total"] == "0"
        assert report["warnings"]

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "count", "--mu", "4,2,2,1,1", "--vanishings", "1,2")
        assert code == 0
        assert "total N = 9" in out

    def test_table_output_lists_no_partitions(self, capsys, monkeypatch):
        # all-but-two-zero at n = 12: 678,570 partitions that a text report
        # only counts; the digest is of the bytes printed when they were listed
        def refuse(*args):
            raise AssertionError("the text report listed partitions")

        monkeypatch.setattr("isoresidual.cli._listing_text", refuse)
        monkeypatch.setattr("isoresidual.partitions.enumerate_partitions", refuse)
        monkeypatch.setattr("isoresidual.partitions._partitions_by_size", refuse)
        code, out, _ = run(
            capsys, "count", "--b", "2,2,2,2,2,2,2,2,2,2,1,1",
            "--vanishings", "1;2;3;4;5;6;7;8;9;10",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "783dfa874bf021545c59e189474e9cc28ce3c37617db341daf7f9484b7c77605"
        )

    def test_rho_and_vanishings_agree(self, capsys):
        by_rho = run_json(capsys, "count", "--mu", "2,1,1,2", "--rho", "1,-1,0", "--json")
        by_structure = run_json(
            capsys, "count", "--mu", "2,1,1,2", "--vanishings", "3", "--json"
        )
        assert by_rho["total"] == by_structure["total"]
        assert by_rho["terms"] == by_structure["terms"]
        assert by_rho["closure"] == by_structure["closure"]

    def test_empty_vanishings_is_trivial(self, capsys):
        report = run_json(capsys, "count", "--b", "1,1,2", "--vanishings", "", "--json")
        assert report["total"] == "2"

    def test_cross_checks(self, capsys):
        report = run_json(
            capsys, "count", "--mu", "4,2,2,1,1", "--vanishings", "1,2;1,3",
            "--recursive", "--json",
        )
        assert report["recursive"]["match"] is True
        assert report["recursive"]["total"] == "5"

    def test_recursive_trace(self, capsys):
        report = run_json(
            capsys, "count", "--mu", "4,2,2,1,1", "--vanishings", "1,2",
            "--recursive", "--trace", "--json",
        )
        assert report["recursive"]["trace"]

    def test_trace_without_recursive_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "count", "--mu", "4,2,2,1,1", "--vanishings", "1,2", "--trace"
        )
        assert code == 2 and out == ""
        assert "--trace needs --recursive" in err

    def test_trace_without_json_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "count", "--mu", "4,2,2,1,1", "--vanishings", "1,2",
            "--recursive", "--trace",
        )
        assert code == 2 and out == ""
        assert "--trace needs --json" in err

    def test_oracle_flag(self, capsys):
        report = run_json(
            capsys, "count", "--mu", "2,1,1,2", "--rho", "2,-1,-1", "--oracle", "--json"
        )
        assert report["oracle"]["match"] is True

    def test_oracle_flag_on_zero_tuple(self, capsys):
        report = run_json(capsys, "count", "--b", "2,2", "--rho", "0,0", "--oracle", "--json")
        assert report["total"] == "0"
        assert report["oracle"] == {"count": "0", "rho": ["0", "0"], "match": True}

    def test_json_round_trip_determinism(self, capsys):
        first = run_json(
            capsys, "count", "--mu", "2,1,1,2", "--vanishings", "3", "--oracle",
            "--recursive", "--json",
        )
        echo = first["input"]
        again = run_json(
            capsys,
            "count",
            "--mu", ",".join(str(x) for x in echo["mu"]),
            "--vanishings", echo["vanishings"],
            "--seed", str(echo["seed"]),
            "--oracle", "--recursive", "--json",
        )
        assert first == again

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--mu", "3,1,1,2", "--rho", "2,-1,-1"),  # wrong zero order
            ("count", "--mu", "2,1,1,2"),  # neither rho nor vanishings
            ("count", "--mu", "2,1,1,2", "--rho", "1,-1,0", "--vanishings", "3"),
            ("count", "--mu", "2,1,1,2", "--rho", "2,-1"),  # wrong length
            ("count", "--mu", "2,1,1,2", "--rho", "1,-1,1"),  # nonzero sum
            ("count", "--mu", "2,1,1,2", "--rho", "2,-1,-1", "--oracle", "--b", "1,1"),
            ("count", "--b", "1,x", "--vanishings", ""),
            ("count", "--mu", "4,2,2,1,1", "--rho", "2,-1,-1", "--oracle"),  # n > 3
        ],
    )
    def test_validation_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err


class TestBatch:
    def test_stream(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        lines = [
            {"mu": [2, 1, 1, 2], "rho": ["2", "-1", "-1"]},
            {"mu": [4, 2, 2, 1, 1], "vanishings": "1,2"},
            {"mu": [2, 1, 1, 2], "rho": ["0", "0", "0"]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["total"] for r in reports] == ["2", "9", "0"]
        assert [r["line"] for r in reports] == [1, 2, 3]

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0 and out == ""

    def test_malformed_line_does_not_abort(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"mu": [2, 1, 1, 2], "rho": ["2", "-1", "-1"]})
            + "\nnot json\n"
            + json.dumps({"b": [2, 2, 1, 1], "vanishings": "1,2"})
            + "\n"
        )
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports[0]["total"] == "2"
        assert "error" in reports[1] and reports[1]["line"] == 2
        assert reports[2]["total"] == "9"

    @pytest.mark.parametrize(
        "bad",
        [
            {"b": [2, 2, 2], "vanishings": 5},
            {"b": [2, 2, 2], "rho": 5},
            {"b": [2, 2, 2], "rho": [2, -1, -1]},
            {"b": [True, 2], "rho": ["1", "-1"]},
            {"mu": [1, True, 2], "rho": ["1", "-1"]},
            {"mu": [True, 1, 2], "rho": ["1", "-1"]},
            {"b": [2, 2, 2], "vanishings": "1", "seed": 1.5},
            {"b": [2, 2, 2], "vanishings": "1", "seed": "abc"},
            {"b": [2, 2, 2], "vanishings": "1", "seed": True},
            {"b": [2, 1, 1], "vanishings": "3", "oracle": "no"},
            {"b": [2, 2, 2], "vanishings": "1", "recursive": 1},
            {"mu": 5, "vanishings": "1"},
            {"mu": [], "vanishings": "1"},
            {"b": [2, "x"], "vanishings": "1"},
            {"b": "222", "vanishings": "1"},
        ],
    )
    def test_bad_field_type_is_a_line_error(self, tmp_path, capsys, bad):
        path = tmp_path / "typed.jsonl"
        good = {"b": [2, 2, 2], "vanishings": "1"}
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1 and "Traceback" not in err
        reports = [json.loads(line) for line in out.splitlines()]
        assert set(reports[0]) == {"line", "error"} and reports[0]["line"] == 1
        assert reports[1]["line"] == 2 and reports[1]["total"] == "1"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"mu": 5}, "mu must be a list of integers"),
            ({"mu": [1.5, 1, 2]}, "mu must be a list of integers"),
            ({"mu": []}, "mu needs the zero order and at least two pole orders"),
            ({"b": [2, "x"]}, "b must be a list of integers"),
        ],
    )
    def test_bad_pole_orders_are_named(self, tmp_path, capsys, bad, message):
        path = tmp_path / "orders.jsonl"
        path.write_text(json.dumps({**bad, "vanishings": "1"}) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 1
        assert json.loads(out) == {"line": 1, "error": message}

    def test_oracle_on_zero_tuple(self, tmp_path, capsys):
        path = tmp_path / "zero.jsonl"
        path.write_text(json.dumps({"b": [2, 2, 2], "vanishings": "1;2", "oracle": True}) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["total"] == "0"
        assert report["oracle"]["count"] == "0" and report["oracle"]["match"] is True

    def test_oracle_past_three_poles_fails_before_counting(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the closed form ran")

        monkeypatch.setattr("isoresidual.cli.count_closed_form", refuse)
        monkeypatch.setattr("isoresidual.cli._listing_text", refuse)
        monkeypatch.setattr("isoresidual.partitions.enumerate_partitions", refuse)
        path = tmp_path / "oracle.jsonl"
        line = {"b": [2] * 8 + [1, 1], "vanishings": "1;2;3;4;5;6;7;8", "oracle": True}
        path.write_text(json.dumps(line) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 1
        assert json.loads(out) == {
            "line": 1, "error": "the elimination oracle handles at most three poles"
        }

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"mu": [4, 2, 2, 2], "b": [2, 2, 2], "vanishings": "1"},
             "exactly one of mu or b is required"),
            ({"b": [2, 2, 2], "vanishings": "1", "recursve": True}, "unknown field 'recursve'"),
            ({"b": [2, 2, 2], "vanishings": "1", "trace": True}, "unknown field 'trace'"),
            ({"b": [2, 2, 2], "vanishings": "a"}, "bad vanishings: 'a' is not an integer"),
            ({"b": [2, 2, 2], "rho": ["1/0", "-1", "0"]}, "bad rho: zero denominator in '1/0'"),
            ({"b": [2, 2, 2]}, "exactly one of rho or vanishings is required"),
            ({"b": [2, 2, 2], "vanishings": "1,2,3"},
             "bad vanishings: subset must be nonempty and proper"),
            ({"b": [2, 2, 2], "rho": [LONG, "-1", "0"]},
             f"bad rho: a number has more than {sys.get_int_max_str_digits()} digits"),
            ({"b": [2, 2, 2], "vanishings": f"1,{LONG}"}, f"bad vanishings: {TOO_LONG}"),
        ],
    )
    def test_line_error_names_the_field(self, tmp_path, capsys, bad, message):
        path = tmp_path / "fields.jsonl"
        path.write_text(json.dumps(bad) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 1
        assert json.loads(out) == {"line": 1, "error": message}
        assert not any(text in out for text in ("--", "invalid literal", "Fraction("))

    def test_oracle_pole_limit_is_one_message(self, tmp_path, capsys):
        errors = [
            run(capsys, *argv)
            for argv in (
                ("count", "--b", "2,2,1,1", "--vanishings", "1,2", "--oracle"),
                ("oracle", "--b", "2,2,1,1", "--vanishings", "1,2"),
            )
        ]
        path = tmp_path / "oracle.jsonl"
        line = {"b": [2, 2, 1, 1], "vanishings": "1,2", "oracle": True}
        path.write_text(json.dumps(line) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 1
        message = json.loads(out)["error"]
        assert errors == [(2, "", f"error: {message}\n")] * 2

    def test_deeply_nested_line_does_not_abort(self, tmp_path, capsys):
        path = tmp_path / "nested.jsonl"
        good = json.dumps({"b": [2, 2, 2], "vanishings": "1"})
        path.write_text("[" * 100_000 + "\n" + good + "\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1 and "Traceback" not in err
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports[0] == {"line": 1, "error": "the line nests too deeply to read"}
        assert reports[1]["line"] == 2 and reports[1]["total"] == "1"

    def test_undecodable_line_does_not_abort(self, tmp_path, capsys):
        path = tmp_path / "bytes.jsonl"
        good = json.dumps({"b": [2, 2, 2], "vanishings": "1"}).encode()
        path.write_bytes(good + b'\n{"b": [2, 2, 2], "rho": ["\xff"]}\n' + good + b"\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1 and err == ""
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports[1] == {"line": 2, "error": "the line is not valid UTF-8"}
        assert [(r["line"], r["total"]) for r in (reports[0], reports[2])] == [(1, "1"), (3, "1")]

    def test_lines_end_as_in_a_text_file(self, tmp_path, capsys):
        path = tmp_path / "endings.jsonl"
        good = json.dumps({"b": [2, 2, 2], "vanishings": "1"})
        path.write_bytes(f"{good}\r{good}\r\n\n\u00a0\n{good}".encode())
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        assert [json.loads(line)["line"] for line in out.splitlines()] == [1, 2, 5]

    def test_long_json_integer_is_a_line_error(self, tmp_path, capsys):
        path = tmp_path / "long.jsonl"
        path.write_text(f'{{"b": [2, 2, {LONG}], "vanishings": "1"}}\n')
        code, out, _ = run(capsys, "batch", str(path))
        limit = sys.get_int_max_str_digits()
        assert code == 1
        assert json.loads(out) == {"line": 1, "error": f"a number has more than {limit} digits"}

    def test_long_residue_sum_is_a_line_error(self, tmp_path, capsys):
        path = tmp_path / "sum.jsonl"
        good = {"b": [2, 2, 2], "vanishings": "1"}
        path.write_text(json.dumps({"b": [2, 2, 2], "rho": UNBALANCED}) + "\n" + json.dumps(good) + "\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1 and err == ""
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports[0] == {"line": 1, "error": f"residues must sum to zero ({TOO_LONG})"}
        assert (reports[1]["line"], reports[1]["total"]) == (2, "1")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "batch", "/nonexistent/path.jsonl")
        assert code == 2


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _well_formed(draw):
    """A request at n <= 6 in any of the shapes the README allows."""
    b = draw(st.lists(st.integers(1, 3), min_size=2, max_size=6))
    n = len(b)
    line = {"mu": [sum(b) - 2, *b]} if draw(st.booleans()) else {"b": b}
    if draw(st.booleans()):
        subsets = st.lists(st.integers(1, n), min_size=1, max_size=n)
        line["vanishings"] = ";".join(
            ",".join(map(str, subset)) for subset in draw(st.lists(subsets, max_size=n - 1))
        )
    else:
        values = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rho = [*map(str, values), str(-sum(values))]
        line["rho"] = rho if draw(st.booleans()) else ",".join(rho)
    if draw(st.booleans()):
        line["seed"] = draw(st.integers(-5, 5))
    for key in ("recursive", "oracle"):
        if draw(st.booleans()):
            line[key] = draw(st.booleans())
    return line


@st.composite
def _malformed(draw):
    """A request with fields dropped or of the wrong type, and extra keys."""
    line = draw(_well_formed())
    for key in draw(st.sets(st.sampled_from(sorted(line)))):
        if draw(st.booleans()):
            del line[key]
        else:
            line[key] = draw(_JSON_VALUES)
    keys = st.sampled_from(["mu", "b", "rho", "vanishings", "seed", "recursve", "trace"])
    line.update(draw(st.dictionaries(keys | st.text(max_size=4), _JSON_VALUES, max_size=1)))
    return json.dumps(line)


_BATCH_LINES = st.lists(
    st.one_of(
        _well_formed().map(json.dumps),
        _malformed(),
        _JSON_VALUES.filter(lambda value: not isinstance(value, dict)).map(json.dumps),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                max_size=20),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(lines=_BATCH_LINES)
def test_batch_fuzz_gives_one_object_per_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "requests.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["batch", str(path)])
    objects = [json.loads(text) for text in out.getvalue().splitlines()]
    assert [obj["line"] for obj in objects] == [
        number for number, text in enumerate(lines, start=1) if text.strip()
    ]
    errors = [obj for obj in objects if "error" in obj]
    assert all(set(obj) == {"line", "error"} for obj in errors)
    assert all({"input", "total"} <= set(obj) for obj in objects if "error" not in obj)
    assert code in (0, 1, 3) and (code == 1) == bool(errors)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--b", "2,2,2", "--rho", "1/0,-1,0"),
        ("oracle", "--b", "2,2,2", "--rho", "1/0,-1,0"),
        ("multipliers", "--lambdas", "0,1/0,3"),
    ],
)
def test_zero_denominator_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "zero denominator in '1/0'" in err and "Fraction(" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--b", "2,2,2", "--rho", f"{LONG},-1,0"),
         f"bad rho: a number has more than {sys.get_int_max_str_digits()} digits"),
        (("multipliers", "--lambdas", f"0,{LONG},3"),
         f"bad lambdas: a number has more than {sys.get_int_max_str_digits()} digits"),
        (("count", "--b", "2,2,2", "--vanishings", "1,2,3"),
         "bad vanishings: subset must be nonempty and proper"),
        (("count", "--b", f"2,2,{LONG}", "--vanishings", ""), f"bad b: {TOO_LONG}"),
        (("count", "--mu", f"{LONG},2,2"), f"bad mu: {TOO_LONG}"),
        (("count", "--b", "2,2,2", "--vanishings", f"1,{LONG}"),
         f"bad vanishings: {TOO_LONG}"),
        # str() of a residue past the limit
        (("multipliers",
          f"--lambdas={THREES}+{SEVENS}i,-{int(THREES) - 2}-{SEVENS}i,0,2"),
         f"bad lambdas: {TOO_LONG}"),
        # the index constraint's message, which prints the residue sum
        (("multipliers", f"--lambdas={THREES},{SEVENS},0"), f"bad lambdas: {TOO_LONG}"),
        # the zero-sum message, which prints the residue sum
        (("count", "--b", "2,2,2", "--rho", ",".join(UNBALANCED)),
         f"residues must sum to zero ({TOO_LONG})"),
    ],
)
def test_flag_error_names_the_field(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestMultipliers:
    def test_generic_triple(self, capsys):
        report = run_json(capsys, "multipliers", "--lambdas", "0,1/2,4/3", "--json")
        assert report["total"] == "1"
        assert report["input"]["lambdas"] == ["0", "1/2", "4/3"]
        assert report["input"]["rho"] == ["1", "2", "-3"]

    def test_zero_sum_pair(self, capsys):
        report = run_json(capsys, "multipliers", "--lambdas", "0,2,1/2,3/2", "--json")
        assert report["total"] == "1"

    def test_parabolic_exit(self, capsys):
        code, _, err = run(capsys, "multipliers", "--lambdas", "1,2,3")
        assert code == 2 and "multiplier" in err

    def test_index_constraint_exit(self, capsys):
        # values starting with a dash need the = form
        code, _, err = run(capsys, "multipliers", "--lambdas=-1,-1,3")
        assert code == 2


class TestOracleCommand:
    def test_with_residues(self, capsys):
        report = run_json(
            capsys, "oracle", "--mu", "2,1,1,2", "--rho", "2,-1,-1", "--json"
        )
        assert report["oracle_count"] == "2"
        assert report["match"] is True

    def test_with_structure(self, capsys):
        report = run_json(
            capsys, "oracle", "--b", "1,1,2", "--vanishings", "3", "--json"
        )
        assert report["match"] is True

    def test_zero_tuple(self, capsys):
        report = run_json(capsys, "oracle", "--b", "2,2,2", "--vanishings", "1;2", "--json")
        assert report["oracle_count"] == "0" and report["closed_form"] == "0"
        assert report["match"] is True

    def test_too_many_poles(self, capsys):
        code, _, _ = run(capsys, "oracle", "--mu", "4,2,2,1,1", "--vanishings", "1,2")
        assert code == 2


class TestVerify:
    def test_small_identity_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "identities", "--n-max", "4", "--b-max", "3"
        )
        assert code == 0
        assert "pass" in out

    def test_small_recursion_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "recursion", "--n-max", "4", "--b-max", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["failures"] == 0

    @pytest.mark.parametrize("suite", ["recursion", "monotonic"])
    def test_structure_sweeps_stop_at_six_poles(self, capsys, monkeypatch, suite):
        # Every structure on seven poles took ten minutes and 7 GB without
        # finishing, so n_max past six is refused before any enumeration.
        def refuse(n):
            raise AssertionError(f"enumerated the structures on {n} poles")

        monkeypatch.setattr(verification, "all_vanishing_structures", refuse)
        code, out, err = run(capsys, "verify", suite, "--n-max", "7")
        assert code == 2 and out == ""
        assert "at most 6" in err and "got 7" in err

    def test_degree_sweep_stops_at_seven_poles(self, capsys, monkeypatch):
        # Eight poles would evaluate 7^8 counts per structure, so n_max past
        # seven is refused before any degree check.
        def refuse(structure, b_range):
            raise AssertionError(f"checked the degree on {structure.n} poles")

        monkeypatch.setattr(verification, "check_polynomial_degree", refuse)
        code, out, err = run(capsys, "verify", "degree", "--n-max", "8")
        assert code == 2 and out == ""
        assert "at most 7" in err and "got 8" in err

    @pytest.fixture
    def sweep_calls(self, monkeypatch):
        """Stands in for the recursion sweep and records its arguments."""
        calls = []

        def fake(**kwargs):
            calls.append(kwargs)
            return verification.SuiteResult("fake", checked=1)

        monkeypatch.setattr(verification, "check_recursion_equivalence", fake)
        return calls

    @pytest.mark.parametrize("flag", ["--n-max", "--b-max", "--sum-b-max", "--seeds"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bounds_below_one_rejected(self, capsys, sweep_calls, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "recursion", f"{flag}={value}"])
        assert exc.value.code == 2 and sweep_calls == []

    def test_only_given_bounds_are_passed(self, capsys, sweep_calls):
        assert main(["verify", "recursion"]) == 0
        assert main(["verify", "recursion", "--b-max", "2"]) == 0
        assert sweep_calls == [{}, {"b_max": 2}]

    @pytest.mark.parametrize(
        "suite, flag",
        [("recursion", "--seeds"), ("degree", "--b-max"), ("identities", "--sum-b-max")],
    )
    def test_flag_the_suite_does_not_take_is_rejected(self, capsys, sweep_calls, suite, flag):
        code, _, err = run(capsys, "verify", suite, flag, "3")
        assert code == 2 and flag in err and sweep_calls == []

    # Which bounds each suite's sweeps take, written out here so that the
    # table the CLI reads from the sweeps' signatures cannot drift unseen.
    SWEEP_BOUNDS = {
        "identities": {
            "check_zero_identity": ("n_max", "b_max"),
            "check_two_nonzero_identity": ("n_max", "b_max"),
        },
        "special-cases": {
            "check_general_residue_law": ("n_max", "b_max"),
            "check_one_vanishing_law": ("n_max", "b_max"),
        },
        "recursion": {"check_recursion_equivalence": ("n_max", "b_max")},
        "oracle": {
            "check_oracle_equivalence": ("sum_b_max", "seeds"),
            "check_multiplier_bridge": (),
        },
        "monotonic": {"check_monotonic_vanishing": ("n_max", "b_max")},
        "degree": {"check_degree_interpolation": ("n_max",)},
    }

    @pytest.mark.parametrize("suite", sorted(SWEEP_BOUNDS))
    @pytest.mark.parametrize("bound", ["n_max", "b_max", "sum_b_max", "seeds"])
    def test_suite_takes_exactly_its_sweeps_bounds(self, capsys, monkeypatch, suite, bound):
        calls = []
        for sweeps in self.SWEEP_BOUNDS.values():
            for name in sweeps:
                def fake(_name=name, **kwargs):
                    calls.append((_name, kwargs))
                    return verification.SuiteResult(_name, checked=1)

                monkeypatch.setattr(verification, name, fake)
        flag = "--" + bound.replace("_", "-")
        code, _, err = run(capsys, "verify", suite, flag, "3")
        sweeps = self.SWEEP_BOUNDS[suite]
        if any(bound in bounds for bounds in sweeps.values()):
            assert code == 0
            assert calls == [
                (name, {bound: 3} if bound in bounds else {}) for name, bounds in sweeps.items()
            ]
        else:
            assert code == 2 and f"does not take {flag}" in err and calls == []

    @pytest.mark.parametrize(
        "suite, bound", [("recursion", "1"), ("identities", "1"), ("degree", "2")]
    )
    def test_empty_sweep_fails(self, capsys, suite, bound):
        code, out, _ = run(capsys, "verify", suite, "--n-max", bound)
        assert code == 1
        assert "FAIL" in out and " 0 checks" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])
