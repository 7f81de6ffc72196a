"""Construction-script parsing diagnostics, the pipeline runner, DAG
emission, and the command-line entry point."""

import json

import pytest

from m4calc.cli import (
    ConstructionScript,
    Step,
    emit_dag,
    main,
    model_from_json,
    parse,
    run,
)
from m4calc.errors import ScriptError
from m4calc.manifold import EXOTIC_PAIR
from m4calc.surgery import log_transform, seed

ONE_SEED = '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"x"}]}'

EXOTIC_SCRIPT = {
    "steps": [
        {"op": "seed", "args": {"name": "E(2)"}, "bind": "x"},
        {
            "op": "knot_surgery",
            "args": {"on": "x", "T": "fiber", "torus": [2, 3]},
            "bind": "y",
        },
    ],
    "compare": [["x", "y"]],
}


class TestParse:
    def test_one_step(self):
        script = parse(ONE_SEED)
        assert script.steps == (Step("seed", {"name": "E(2)"}, "x"),)

    def test_knot_surgery_step_schema(self):
        script = parse(json.dumps(EXOTIC_SCRIPT))
        assert script.steps[1].op == "knot_surgery"
        assert script.compare == (("x", "y"),)

    def test_syntax_error_position(self):
        with pytest.raises(ScriptError) as exc:
            parse('{"steps": [\n  {"op": }\n]}')
        diag = exc.value.diagnostics[0]
        assert "syntax error" in diag.message
        assert diag.line == 2 and diag.column is not None

    def test_unknown_op(self):
        with pytest.raises(ScriptError) as exc:
            parse('{"steps":[{"op":"summorph","args":{},"bind":"x"}]}')
        assert "unknown op" in str(exc.value.diagnostics[0])

    def test_bad_args(self):
        with pytest.raises(ScriptError) as exc:
            parse('{"steps":[{"op":"seed","args":{"nom":"E(2)"},"bind":"x"}]}')
        assert "bad args" in str(exc.value.diagnostics[0])

    def test_missing_args(self):
        with pytest.raises(ScriptError) as exc:
            parse('{"steps":[{"op":"blowup","args":{},"bind":"x"}]}')
        assert "missing args" in str(exc.value.diagnostics[0])

    def test_dangling_reference_with_step_index(self):
        with pytest.raises(ScriptError) as exc:
            parse(
                '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"x"},'
                '{"op":"blowup","args":{"on":"y"},"bind":"z"}]}'
            )
        diag = exc.value.diagnostics[0]
        assert "dangling reference 'y'" in diag.message
        assert diag.step == 1

    def test_duplicate_binding(self):
        with pytest.raises(ScriptError) as exc:
            parse(
                '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"x"},'
                '{"op":"seed","args":{"name":"E(3)"},"bind":"x"}]}'
            )
        assert "redefined" in str(exc.value.diagnostics[0])

    def test_bad_compare_pair(self):
        with pytest.raises(ScriptError) as exc:
            parse(
                '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"x"}],'
                '"compare":[["x","ghost"]]}'
            )
        assert "bad compare pair" in str(exc.value.diagnostics[0])

    def test_knot_surgery_needs_knot(self):
        with pytest.raises(ScriptError) as exc:
            parse(
                '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"x"},'
                '{"op":"knot_surgery","args":{"on":"x","T":"fiber"},"bind":"y"}]}'
            )
        assert "knot description" in str(exc.value.diagnostics[0])

    def test_roundtrip(self):
        script = parse(json.dumps(EXOTIC_SCRIPT))
        assert parse(json.dumps(script.to_json())) == script


class TestRun:
    def test_empty_script(self):
        result = run(ConstructionScript(()))
        assert result.report == {"models": {}, "comparisons": []}

    def test_exotic_pipeline(self):
        result = run(parse(json.dumps(EXOTIC_SCRIPT)))
        assert result.report["comparisons"] == [
            {"pair": ["x", "y"], "verdict": EXOTIC_PAIR}
        ]
        assert result.report["models"]["y"]["basic_class_count"] == 3
        assert result.report["models"]["x"]["violations"] == []

    def test_double_blowup_count(self):
        script = parse(
            '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"x"},'
            '{"op":"blowup","args":{"on":"x"},"bind":"y"},'
            '{"op":"blowup","args":{"on":"y"},"bind":"z"}]}'
        )
        result = run(script)
        assert result.report["models"]["z"]["basic_class_count"] == 4

    def test_deterministic_reports(self):
        a = run(parse(json.dumps(EXOTIC_SCRIPT))).report
        b = run(parse(json.dumps(EXOTIC_SCRIPT))).report
        assert json.dumps(a) == json.dumps(b)

    def test_operation_error_attributed_to_step(self):
        script = parse(
            '{"steps":[{"op":"seed","args":{"name":"Fake(7)"},"bind":"x"}]}'
        )
        with pytest.raises(ScriptError) as exc:
            run(script)
        assert exc.value.diagnostics[0].step == 0


class TestEmitDag:
    def test_single_node(self):
        script = parse(ONE_SEED)
        text = emit_dag(script, run(script))
        assert text.count("->") == 0
        assert '"x"' in text and "chi_h=2" in text

    def test_chain(self):
        script = parse(
            '{"steps":[{"op":"seed","args":{"name":"E(2)"},"bind":"a"},'
            '{"op":"blowup","args":{"on":"a"},"bind":"b"},'
            '{"op":"blowup","args":{"on":"b"},"bind":"c"}]}'
        )
        text = emit_dag(script, run(script))
        assert text.count("->") == 2
        assert '"a" -> "b"' in text and '"b" -> "c"' in text

    def test_fiber_sum_in_degree_two(self):
        script = parse(
            '{"steps":[{"op":"seed","args":{"name":"E(1)"},"bind":"a"},'
            '{"op":"seed","args":{"name":"E(1)"},"bind":"b"},'
            '{"op":"fiber_sum","args":{"on":["a","b"],"genus":1},"bind":"c"}]}'
        )
        text = emit_dag(script, run(script))
        assert '"a" -> "c"' in text and '"b" -> "c"' in text


class TestMain:
    def test_run_text_report(self, tmp_path, capsys):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(EXOTIC_SCRIPT))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compare x vs y: ExoticPair" in out

    def test_run_json_report_and_dag(self, tmp_path, capsys):
        path = tmp_path / "script.json"
        dag = tmp_path / "out.dot"
        path.write_text(json.dumps(EXOTIC_SCRIPT))
        assert main(["run", str(path), "--report", "json", "--dag", str(dag)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["comparisons"][0]["verdict"] == EXOTIC_PAIR
        assert dag.read_text().startswith("digraph construction")

    def test_run_diagnostics_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"steps":[{"op":"nope","args":{},"bind":"x"}]}')
        assert main(["run", str(path)]) == 1
        assert "unknown op" in capsys.readouterr().err

    def test_geography_tsv(self, capsys):
        assert main(["geography", "--chi-max", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("chi_h\tc\tregion")

    def test_geography_svg_file(self, tmp_path):
        out = tmp_path / "chart.svg"
        assert main(
            ["geography", "--chi-max", "2", "--format", "svg", "-o", str(out)]
        ) == 0
        assert out.read_text().startswith("<svg")

    def test_knot_alexander_torus(self, capsys):
        assert main(["knot", "alexander", "--torus", "2", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "+1*t^(1) -1 +1*t^(-1)"

    def test_knot_alexander_seifert_file(self, tmp_path, capsys):
        path = tmp_path / "seifert.json"
        path.write_text("[[-1, 1], [0, -1]]")
        assert main(["knot", "alexander", "--seifert", str(path)]) == 0
        assert "t^(1)" in capsys.readouterr().out

    def test_knot_alexander_bad_torus(self, capsys):
        assert main(["knot", "alexander", "--torus", "2", "4"]) == 1
        assert "coprime" in capsys.readouterr().err

    def test_compare_command(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(seed("E(2)").to_json()))
        b.write_text(json.dumps(seed("E(3)").to_json()))
        assert main(["compare", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "NotHomeomorphic"

    def test_model_json_roundtrip(self):
        x = seed("E(3)")
        back = model_from_json(x.to_json())
        assert back.homeo.triple() == x.homeo.triple()
        assert back.sw.equal(x.sw)


class TestLosslessModelsAndDiagnostics:
    def test_log_transformed_parity_round_trips(self, tmp_path, capsys):
        x = log_transform(seed("E(2)"), "fiber", 2)
        data = x.to_json()
        assert data["parity_override"] == 1
        back = model_from_json(data)
        assert back.homeo.triple() == x.homeo.triple() and back.homeo.t == 1
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(data))
        b.write_text(json.dumps(seed("E(2)").to_json()))
        assert main(["compare", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "NotHomeomorphic"

    @pytest.mark.parametrize("args", [
        {"p": 0}, {"p": "two"}, {"p": 2, "T": "no_such_torus"},
    ])
    def test_bad_log_transform_arguments_exit_1(self, tmp_path, capsys, args):
        script = {"steps": [
            {"op": "seed", "args": {"name": "E(2)"}, "bind": "x"},
            {"op": "log_transform", "args": {"on": "x", "T": "fiber", **args}, "bind": "y"},
        ]}
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(step 1)" in err
