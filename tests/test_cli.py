import csv
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from electre_score import refsets
from electre_score.cli import (
    EXIT_COMPARABILITY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    main,
)

from oracle import engine_criterion_to_dict, strict_side

THIRD = 100.0 / 3.0
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def hotel_files(data_dir, tmp_path):
    model = tmp_path / "model.json"
    perf = tmp_path / "perf.csv"
    target = tmp_path / "target.csv"
    shutil.copy(data_dir / "hotel_model.json", model)
    shutil.copy(data_dir / "hotel_performances.csv", perf)
    shutil.copy(data_dir / "hotel_target_relations.csv", target)
    return model, perf, target


class TestEvaluate:
    def test_hotel_at_065(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out = tmp_path / "report.json"
        code = main([
            "evaluate", str(model), "--performances", str(perf),
            "--lambda", "0.65", "--output", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        ranges = {a["action"]: a for a in report["actions"]}
        assert ranges["a1"]["lower"] == pytest.approx(THIRD, abs=1e-5)
        assert ranges["a1"]["upper"] == pytest.approx(250 / 3, abs=1e-5)
        assert ranges["a1"]["range"] == "]33.333333, 83.333333["
        assert ranges["a1"]["lower_level"] == 3
        assert ranges["a1"]["upper_level"] == 6
        assert ranges["a4"]["upper"] == pytest.approx(175 / 3, abs=1e-5)
        assert report["comparability"] == {f"a{i}": True for i in range(1, 6)}
        classes = ranges["a1"]["classifications"]
        assert classes["B3"] == "action_preferred"
        assert classes["B6"] == "set_preferred"

    def test_missing_cell_is_parse_error(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        rows = list(csv.reader(open(perf)))
        rows[2] = rows[2][:-1]  # drop one cell
        with open(perf, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("cell", ["1_3000", "13_000", "3_000.5"])
    def test_digit_group_underscore_is_parse_error(self, hotel_files, tmp_path,
                                                    capsys, cell):
        # float() reads "1_3000" as 13000.0
        model, perf, _ = hotel_files
        with open(perf, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][1] = cell  # a1, ICOST
        with open(perf, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{perf}:2: column 'ICOST': not a number: {cell!r}" in err

    def test_lambda_required(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE

    def test_lambda_out_of_band(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.5", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE

    def test_comparability_failure_lists_actions(self, hotel_files, tmp_path, capsys):
        model, perf, _ = hotel_files
        # raise the bottom set above every action: nothing outranks it
        raw = json.loads(model.read_text())
        raw["reference_sets"][0]["profiles"] = [[9000, 1500, 7, 7, 7]]
        model.write_text(json.dumps(raw))
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--force",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_COMPARABILITY
        err = capsys.readouterr().err
        for action in ("a1", "a2", "a3", "a4", "a5"):
            assert action in err

    def test_condition1_gate_and_force(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.8", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_VALIDATION
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.8", "--force",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert any("basic-assumption" in f for f in report["findings"])

    def test_deterministic_reports(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["evaluate", str(model), "--performances", str(perf),
                         "--lambda", "0.65", "--output", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_embedded_performances(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        rows = list(csv.reader(open(perf)))
        raw["performances"] = {
            row[0]: [float(x) for x in row[1:]] for row in rows[1:]
        }
        raw["lambda"] = 0.65
        model.write_text(json.dumps(raw))
        out = tmp_path / "r.json"
        assert main(["evaluate", str(model), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lambda"] == 0.65


class TestValidate:
    def test_hotel_report(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out = tmp_path / "v.json"
        code = main(["validate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["model_errors"] == []
        assert report["basic_assumptions"]["violations"] == []
        pair23 = [p for p in report["separability"]["pairs"]
                  if (p["lower_level"], p["higher_level"]) == (2, 3)]
        assert pair23[0]["soft_dominance_primal"] is False
        assert report["separability"]["all_soft_dominance_primal"] is False
        assert report["comparability"]["a1"] is True

    def test_condition1_violation_sets_exit_code(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        code = main(["validate", str(model), "--lambda", "0.8",
                     "--output", str(tmp_path / "v.json")])
        assert code == EXIT_VALIDATION
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["basic_assumptions"]["violations"]

    def test_banded_report_without_lambda(self, hotel_files, tmp_path):
        model, _, _ = hotel_files
        out = tmp_path / "v.json"
        code = main(["validate", str(model), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        bands = report["basic_assumptions_bands"]
        # the collection is clean up to 7/9 and violated beyond
        clean_upper = max(b["upper"] for b in bands if not b["violations"])
        assert clean_upper == pytest.approx(7 / 9, abs=1e-6)
        assert any(b["violations"] for b in bands)

    def test_lower_profile_dominating_upper_is_flagged(self, hotel_files, tmp_path):
        model, _, _ = hotel_files
        raw = json.loads(model.read_text())
        # swap the bottom and top sets' profiles: scores stay increasing
        sets = raw["reference_sets"]
        sets[0]["profiles"], sets[6]["profiles"] = (
            sets[6]["profiles"], sets[0]["profiles"],
        )
        model.write_text(json.dumps(raw))
        out = tmp_path / "v.json"
        code = main(["validate", str(model), "--lambda", "0.65",
                     "--output", str(out)])
        assert code == EXIT_VALIDATION
        report = json.loads(out.read_text())
        assert any(
            "lower-set profile preferred" in v
            for v in report["basic_assumptions"]["violations"]
        )


class TestSigma:
    def test_matrix_dump(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out = tmp_path / "sigma.csv"
        code = main(["sigma", str(model), "--performances", str(perf),
                     "--output", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader(open(out)))
        header = rows[0]
        assert header[0] == "sigma"
        entities = header[1:]
        assert entities[:5] == ["a1", "a2", "a3", "a4", "a5"]
        assert "b71" in entities
        matrix = {
            (row[0], col): float(cell)
            for row in rows[1:]
            for col, cell in zip(entities, row[1:])
        }
        assert matrix[("b31", "a1")] == pytest.approx(7 / 18, abs=1e-6)
        assert matrix[("b41", "a1")] == pytest.approx(13 / 18, abs=1e-6)
        for e in entities:
            assert matrix[(e, e)] == 1.0

    def test_lambda_is_usage_error(self, hotel_files, capsys):
        # sigma reads no cutting level, so an out-of-range one must not
        # pass silently
        model, perf, _ = hotel_files
        with pytest.raises(SystemExit) as exc:
            main(["sigma", str(model), "--performances", str(perf), "--lambda", "7"])
        assert exc.value.code == EXIT_PARSE
        assert "--lambda" in capsys.readouterr().err


class TestSweepLambda:
    def test_hotel_target_is_infeasible(self, hotel_files, tmp_path, capsys):
        model, perf, target = hotel_files
        out = tmp_path / "sweep.json"
        code = main(["sweep-lambda", str(model), str(target),
                     "--performances", str(perf), "--output", str(out)])
        assert code == EXIT_VERIFY
        report = json.loads(out.read_text())
        assert report["intervals"] == []
        assert report["closest_band"]["mismatched_pairs"] == [["b41", "a4"], ["b51", "a4"]]
        assert "no cutting level" in capsys.readouterr().err

    def test_lambda_is_usage_error(self, hotel_files, capsys):
        # the sweep finds every cutting level itself
        model, perf, target = hotel_files
        with pytest.raises(SystemExit) as exc:
            main(["sweep-lambda", str(model), str(target), "--performances", str(perf),
                  "--lambda", "0.1"])
        assert exc.value.code == EXIT_PARSE
        assert "--lambda" in capsys.readouterr().err

    def test_self_consistent_target(self, hotel_files, tmp_path):
        model, perf, target = hotel_files
        # build the target from the relations computed at 0.75
        out = tmp_path / "sweep.json"
        sigma_out = tmp_path / "sigma.csv"
        main(["sigma", str(model), "--performances", str(perf),
              "--output", str(sigma_out)])
        rows = list(csv.reader(open(sigma_out)))
        entities = rows[0][1:]
        sigma = {
            (row[0], col): float(cell)
            for row in rows[1:]
            for col, cell in zip(entities, row[1:])
        }
        actions = [e for e in entities if e.startswith("a")]
        profiles = [e for e in entities if e.startswith("b")]
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["profile"] + actions)
            for p in profiles:
                row = [p]
                for a in actions:
                    sab, sba = sigma[(a, p)] >= 0.75, sigma[(p, a)] >= 0.75
                    row.append("a" if sab and not sba else
                               "b" if sba and not sab else "")
                writer.writerow(row)
        code = main(["sweep-lambda", str(model), str(target),
                     "--performances", str(perf), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert any(
            iv["lower"] < 0.75 <= iv["upper"] for iv in report["intervals"]
        )

    def test_bad_cell_rejected(self, hotel_files, tmp_path):
        model, perf, target = hotel_files
        text = target.read_text().replace("b,b", "x,b", 1)
        target.write_text(text)
        code = main(["sweep-lambda", str(model), str(target),
                     "--performances", str(perf),
                     "--output", str(tmp_path / "s.json")])
        assert code == EXIT_PARSE

    def _sweep_err(self, hotel_files, tmp_path, capsys):
        model, perf, target = hotel_files
        code = main(["sweep-lambda", str(model), str(target),
                     "--performances", str(perf),
                     "--output", str(tmp_path / "s.json")])
        assert code == EXIT_PARSE
        assert not (tmp_path / "s.json").exists()
        return capsys.readouterr().err

    def test_repeated_action_column_rejected(self, hotel_files, tmp_path, capsys):
        _, _, target = hotel_files
        # a second a4 column whose marks differ from the first
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[0].append("a4")
        for row, mark in zip(rows[1:], "aaaaaabbbb"):
            row.append(mark)
        with open(target, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        err = self._sweep_err(hotel_files, tmp_path, capsys)
        assert f"{target}:1:" in err and "duplicate action column 'a4'" in err

    def test_repeated_profile_row_rejected(self, hotel_files, tmp_path, capsys):
        _, _, target = hotel_files
        with open(target, "a") as fh:
            fh.write("b41,a,a,a,a,a\n")
        err = self._sweep_err(hotel_files, tmp_path, capsys)
        assert f"{target}:12:" in err and "duplicate profile row 'b41'" in err


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["verify", "--trials", "15", "--seed", "3",
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # five suites plus the deck notice
        assert all("PASS" in line for line in lines)
        for name in ("dominance-implications", "sigma-invariants", "propositions",
                     "conformity", "stability", "deck-example"):
            payload = json.loads((out / f"{name}.json").read_text())
            assert payload["passed"] is True

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "trials": 5, "seed": 11, "suites": ["dominance-implications", "deck-example"],
        }))
        code = main(["verify", "--config", str(cfg),
                     "--output", str(tmp_path / "reports")])
        assert code == EXIT_OK
        assert (tmp_path / "reports" / "dominance-implications.json").exists()
        assert not (tmp_path / "reports" / "stability.json").exists()

    def test_deck_example_is_notice_not_failure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["deck-example"]}))
        code = main(["verify", "--config", str(cfg),
                     "--output", str(tmp_path / "reports")])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "reports" / "deck-example.json").read_text())
        assert payload["passed"] is True
        assert any("discrepancy" in n for n in payload["notes"])
        assert any("formula-consistent: False" in n for n in payload["notes"])

    def test_config_only_suites(self, tmp_path, capsys):
        # the two suites the default run leaves out, named in a config
        names = ("sigma-invariants-veto", "variable-thresholds")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 4, "seed": 2, "suites": list(names)}))
        out = tmp_path / "reports"
        code = main(["verify", "--config", str(cfg), "--output", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"{name}: PASS (4 trials, 0 failures, 0 skipped)" for name in names
        ]
        assert sorted(p.name for p in out.iterdir()) == [f"{name}.json" for name in names]
        for name in names:
            payload = json.loads((out / f"{name}.json").read_text())
            assert payload["name"] == name
            assert payload["trials"] == 4 and payload["passed"] is True

    def test_unknown_suite_is_parse_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["nope"]}))
        assert main(["verify", "--config", str(cfg)]) == EXIT_PARSE

    def test_zero_trials_vacuous_pass(self, tmp_path, capsys):
        code = main(["verify", "--trials", "0", "--seed", "1"])
        assert code == EXIT_OK


class TestModelFileParsing:
    def test_deck_scores_used_when_no_explicit_scores(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        for s in raw["reference_sets"]:
            del s["score"]
        model.write_text(json.dumps(raw))
        out = tmp_path / "r.json"
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        # cumulative formula scores, not the elicited list
        assert report["reference_scores"][1] == pytest.approx(200 / 12, abs=1e-6)

    def test_explicit_scores_win_with_warning(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out = tmp_path / "r.json"
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["reference_scores"][1] == 25.0
        assert any("deck-of-cards" in w for w in report["validation_warnings"])

    def test_broken_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", str(bad), "--lambda", "0.7"]) == EXIT_PARSE

    def test_scoreless_sets_without_deck_rejected(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        del raw["deck_of_cards"]
        for s in raw["reference_sets"]:
            del s["score"]
        model.write_text(json.dumps(raw))
        assert main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65"]) == EXIT_PARSE

    def test_partial_scores_with_deck_rejected(self, hotel_files, tmp_path, capsys):
        # the deck would otherwise replace every given score without a warning
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        del raw["reference_sets"][2]["score"]
        del raw["reference_sets"][4]["score"]
        model.write_text(json.dumps(raw))
        code = main(["validate", str(model), "--performances", str(perf),
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "reference_sets[2]: no 'score'" in err
        assert "reference_sets[4]" not in err and "Traceback" not in err

    @pytest.mark.parametrize("action", ["", "  "], ids=["empty", "blank"])
    def test_empty_embedded_action_id_rejected(self, hotel_files, tmp_path, capsys,
                                               action):
        model, _, _ = hotel_files
        raw = json.loads(model.read_text())
        raw["performances"] = {"a1": [13000, 3000, 4, 4, 4],
                               action: [15000, 2500, 6, 2, 7]}
        model.write_text(json.dumps(raw))
        code = main(["evaluate", str(model), "--lambda", "0.65",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        assert f"performances: empty action id {action!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_empty_csv_action_id_rejected(self, hotel_files, tmp_path, capsys):
        model, perf, _ = hotel_files
        with open(perf, "a") as fh:
            fh.write(",1,2,3,4,5\n")
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        assert f"{perf}:7: empty action id" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("old, new, key", [
        # a second row for a1: json alone would score only the last one
        ('\n}', ', "performances": {"a1": [13000, 3000, 4, 4, 4], '
                '"a1": [9000, 1500, 7, 7, 7]}}', "'a1'"),
        ('"weight": 5.0', '"weight": 9.0, "weight": 5.0', "'weight'"),
    ], ids=["performances", "criterion-field"])
    def test_repeated_key_rejected(self, hotel_files, tmp_path, capsys, old, new, key):
        model, perf, _ = hotel_files
        text = model.read_text().rstrip()
        assert text.count(old) == 1
        model.write_text(text.replace(old, new))
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert str(model) in err and f"repeated key {key}" in err

    def test_blank_card_counts_must_be_integers(self, hotel_files, tmp_path, capsys):
        # int() would read these as the hotel deck's own 1, 2, 0, 1, 0, 2
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        for i, bad in ((0, 1.5), (3, True), (5, "2")):
            raw["deck_of_cards"]["blank_cards"] = [1, 2, 0, 1, 0, 2]
            raw["deck_of_cards"]["blank_cards"][i] = bad
            model.write_text(json.dumps(raw))
            code = main(["evaluate", str(model), "--performances", str(perf),
                         "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
            assert code == EXIT_PARSE, bad
            err = capsys.readouterr().err
            assert f"deck_of_cards.blank_cards[{i}]" in err and repr(bad) in err

    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    @pytest.mark.parametrize("scores", [False, True], ids=["deck-scores", "explicit-scores"])
    def test_anchor_span_beyond_float_range_rejected(self, hotel_files, tmp_path, capsys,
                                                     command, scores):
        # high - low is inf, which no exact rational can hold
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        raw["deck_of_cards"]["anchors"] = [-1e308, 1e308]
        if not scores:
            for s in raw["reference_sets"]:
                del s["score"]
        model.write_text(json.dumps(raw))
        code = main([command, str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{model}: deck_of_cards block: anchor span" in err
        assert "beyond the float range" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("path, bad", [
        ((0, "weight"), True),
        ((1, "weight"), "4"),
        ((0, "indifference"), True),
        ((1, "preference", "intercept"), "100"),
    ], ids=["weight-true", "weight-str", "threshold-true", "intercept-str"])
    def test_json_number_must_be_a_json_number(self, hotel_files, tmp_path, capsys,
                                               path, bad):
        # float() would read true as 1.0 and "4" as 4.0
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        node = raw["criteria"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        model.write_text(json.dumps(raw))
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        field = f"criteria[{path[0]}]." + ".".join(path[1:])
        assert f"{field}: not a number: {bad!r}" in err

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None, []],
                             ids=["str-false", "str-true", "0", "1", "null", "array"])
    def test_ordinal_must_be_a_json_boolean(self, hotel_files, tmp_path, capsys, bad):
        # bool() would make "false", 1 and [] ordinal or not by truthiness
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        raw["criteria"][0]["ordinal"] = bad
        model.write_text(json.dumps(raw))
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert str(model) in err and f"criteria[0].ordinal: not a boolean: {bad!r}" in err

    @pytest.mark.parametrize("bad", [None, 5, 1.5, True, ["ICOST"], {}],
                             ids=["null", "int", "float", "true", "array", "object"])
    @pytest.mark.parametrize("edit, field", [
        (lambda raw, bad: raw["criteria"][1].__setitem__("name", bad), "criteria[1].name"),
        (lambda raw, bad: raw["reference_sets"][1]["names"].__setitem__(1, bad),
         "reference_sets[1].names[1]"),
    ], ids=["criterion", "profile"])
    def test_names_must_be_json_strings(self, hotel_files, tmp_path, capsys, edit, field, bad):
        # str() would name a criterion or a profile "None" or "5"
        model, _, _ = hotel_files
        raw = json.loads(model.read_text())
        edit(raw, bad)
        model.write_text(json.dumps(raw))
        code = main(["validate", str(model), "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert str(model) in err and f"{field}: not a string: {bad!r}" in err


class TestSyntheticModelValidation:
    def test_strong_dominance_model_is_all_green(self, tmp_path):
        from electre_score.properties import GeneratorConfig, generate_instance

        inst = generate_instance(31, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=2, n_actions=3))
        model = {
            "criteria": [
                {
                    "name": c.name,
                    "direction": c.direction.value,
                    "weight": c.weight,
                    "indifference": {"intercept": c.indifference.intercept,
                                     "slope": c.indifference.slope,
                                     "mode": c.indifference.mode.value},
                    "preference": {"intercept": c.preference.intercept,
                                   "slope": c.preference.slope,
                                   "mode": c.preference.mode.value},
                }
                for c in inst.criteria
            ],
            "reference_sets": [
                {"score": s.score, "profiles": [list(p) for p in s.profiles]}
                for s in inst.refs.sets
            ],
            "performances": {
                a: list(inst.table.vector(a)) for a in inst.table.actions
            },
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "v.json"
        code = main(["validate", str(path), "--lambda", "0.75",
                     "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["model_errors"] == []
        assert report["basic_assumptions"]["violations"] == []
        assert report["separability"]["all_soft_dominance_primal"] is True
        assert report["separability"]["all_soft_dominance_dual"] is True
        assert all(report["comparability"].values())


class TestReportsUnchanged:
    """Hotel reports byte for byte as the scalar pairwise engine wrote them.

    The files under tests/golden were written by the implementation that
    called the scalar credibility() (now tests/criterion_reference.py)
    for every pair, before the pair kernel; the kernel must not change a
    byte of any report.
    """

    def test_evaluate(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out = tmp_path / "r.json"
        assert main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "hotel_evaluate_0.65.json").read_bytes()

    def test_banded_validate(self, hotel_files, tmp_path):
        model, _, _ = hotel_files
        out = tmp_path / "v.json"
        assert main(["validate", str(model), "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "hotel_validate_bands.json").read_bytes()

    def test_sweep_lambda(self, hotel_files, tmp_path):
        model, perf, target = hotel_files
        out = tmp_path / "s.json"
        assert main(["sweep-lambda", str(model), str(target), "--performances",
                     str(perf), "--output", str(out)]) == EXIT_VERIFY
        assert out.read_bytes() == (GOLDEN / "hotel_sweep_lambda.json").read_bytes()

    def test_sigma(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        out = tmp_path / "sigma.csv"
        assert main(["sigma", str(model), "--performances", str(perf),
                     "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "hotel_sigma.csv").read_bytes()


class TestVerifyUnchanged:
    """verify with all eight suites, byte for byte as it ran when the four
    credibility suites still called the per-criterion engine, one
    direction per call."""

    SUITES = ["dominance-implications", "sigma-invariants", "sigma-invariants-veto",
              "variable-thresholds", "propositions", "conformity", "stability",
              "deck-example"]

    def test_all_suites(self, tmp_path, capsys):
        golden = GOLDEN / "verify_all_suites"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": self.SUITES, "trials": 20, "seed": 1}))
        out = tmp_path / "reports"
        assert main(["verify", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.encode() == (golden / "stdout.txt").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{name}.json" for name in self.SUITES
        )
        for name in self.SUITES:
            assert (out / f"{name}.json").read_bytes() == (
                golden / f"{name}.json"
            ).read_bytes(), name


class TestScriptsUnchanged:
    """The script runs as written in the README and prints what it printed
    when its golden was written; nothing else exercises it."""

    ROOT = Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize("script", ["lambda_band_analysis"])
    def test_stdout(self, script, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, str(self.ROOT / "scripts" / f"{script}.py")],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (GOLDEN / f"{script}.txt").read_bytes()


def _pair(pa, pb):
    return tuple(sorted((tuple(pa), tuple(pb))))


def _expected_pairs(criteria, table, refs):
    """Every profile pair once, and every action-profile pair once unless
    the action is strictly better than every profile of the level on every
    criterion, or strictly worse (the oracle's ``strict_side``): such a
    level is certified and needs no kernel call. Also the certified count."""
    crits = [engine_criterion_to_dict(c) for c in criteria]
    profiles = [vec for _, _, _, vec in refs.flat_profiles()]
    expected = Counter(_pair(a, b) for i, a in enumerate(profiles) for b in profiles[i + 1:])
    certified = 0
    for action in table.rows.values():
        for ref in refs.sets:
            if {strict_side(crits, action, b) for b in ref.profiles} in ({"a"}, {"b"}):
                certified += 1
            else:
                expected.update(_pair(action, b) for b in ref.profiles)
    return expected, certified


@pytest.fixture()
def kernel_calls(monkeypatch):
    calls = Counter()
    kernel = refsets.sigma_pair

    def counting(compiled, pa, pb):
        calls[_pair(pa, pb)] += 1
        return kernel(compiled, pa, pb)

    monkeypatch.setattr(refsets, "sigma_pair", counting)
    return calls


class TestPairsComputedOnce:
    """Each distinct pair is computed at most once: certified levels never."""

    def test_evaluate_calls_kernel_once_per_uncertified_pair(
        self, hotel, hotel_files, tmp_path, kernel_calls
    ):
        model, perf, _ = hotel_files
        assert main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")]) == EXIT_OK
        expected, certified = _expected_pairs(hotel["criteria"], hotel["table"], hotel["refs"])
        assert certified > 0
        assert kernel_calls == expected

    def test_strong_dominance_instance_is_mostly_certified(self, kernel_calls):
        from electre_score.properties import GeneratorConfig, generate_instance
        from electre_score.scoring import score_ranges

        inst = generate_instance(1, GeneratorConfig(
            n_criteria=3, n_levels=8, max_profiles_per_level=3, n_actions=20,
            threshold_mode="variable", veto=True))
        score_ranges(inst.table, inst.refs, inst.criteria, 0.65)
        expected, certified = _expected_pairs(inst.criteria, inst.table, inst.refs)
        assert certified > len(inst.table.rows) * len(inst.refs.sets) / 2
        assert kernel_calls == expected


def _set_weight(raw, value):
    raw["criteria"][0]["weight"] = value


def _set_threshold(raw, value):
    raw["criteria"][2]["preference"] = value


def _set_profile_value(raw, value):
    raw["reference_sets"][3]["profiles"][0][1] = value


def _set_embedded(raw, value):
    raw["performances"] = {"x": [value, 3000, 4, 4, 4]}


class TestNonFiniteInput:
    """NaN and infinities fail at parse time, naming the file and the field."""

    # 10**400 is a JSON integer too large for a float
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int-1e400"])
    @pytest.mark.parametrize("edit, field", [
        (_set_weight, "criteria[0].weight"),
        (_set_threshold, "criteria[2].preference"),
        (_set_profile_value, "reference_sets[3].profiles[0][1]"),
        (_set_embedded, "performances['x'][0]"),
    ])
    def test_model_file(self, hotel_files, tmp_path, capsys, edit, field, value):
        model, _, _ = hotel_files
        raw = json.loads(model.read_text())
        edit(raw, value)
        model.write_text(json.dumps(raw))  # json writes NaN / Infinity tokens
        code = main(["evaluate", str(model), "--lambda", "0.65",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert str(model) in err and field in err and "non-finite" in err

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_performance_cell(self, hotel_files, tmp_path, capsys, cell):
        model, perf, _ = hotel_files
        with open(perf, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][2] = cell  # a3, ACOST
        with open(perf, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{perf}:4" in err and "'ACOST'" in err and "non-finite" in err

    def test_report_writer_refuses_nan(self):
        from electre_score.files import write_report

        with pytest.raises(ValueError):
            write_report({"value": float("nan")})


def _zero_weights(raw):
    for criterion in raw["criteria"]:
        criterion["weight"] = 0.0


def _q_above_p(raw):
    raw["criteria"][2]["indifference"] = 3.0  # p = 2


def _veto_at_p(raw):
    raw["criteria"][2]["veto"] = 2.0  # p = 2


def _overflowing_weights(raw):
    # each weight is finite, their sum is not
    raw["criteria"][0]["weight"] = 1e308
    raw["criteria"][1]["weight"] = 1e308


class TestValidateInvalidModel:
    """An invalid model gives a report listing its errors and exit 3."""

    OPTIONS = pytest.mark.parametrize("lam", [None, "0.65"], ids=["bands", "lambda"])
    TABLE = pytest.mark.parametrize("with_perf", [False, True], ids=["no-csv", "csv"])

    def _validate(self, hotel_files, tmp_path, edit, lam, with_perf):
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        edit(raw)
        model.write_text(json.dumps(raw))
        out = tmp_path / "v.json"
        argv = ["validate", str(model), "--output", str(out)]
        argv += ["--lambda", lam] if lam else []
        argv += ["--performances", str(perf)] if with_perf else []
        assert main(argv) == EXIT_VALIDATION
        report = json.loads(out.read_text())
        assert "basic_assumptions" not in report and "separability" not in report
        return report["model_errors"]

    @OPTIONS
    @TABLE
    def test_all_zero_weights(self, hotel_files, tmp_path, lam, with_perf):
        errors = self._validate(hotel_files, tmp_path, _zero_weights, lam, with_perf)
        assert "no criterion has positive weight" in errors

    @OPTIONS
    @TABLE
    def test_q_above_p(self, hotel_files, tmp_path, lam, with_perf):
        errors = self._validate(hotel_files, tmp_path, _q_above_p, lam, with_perf)
        assert any("RECRU" in e and "exceeds p" in e for e in errors)

    @OPTIONS
    @TABLE
    def test_veto_not_above_p(self, hotel_files, tmp_path, lam, with_perf):
        errors = self._validate(hotel_files, tmp_path, _veto_at_p, lam, with_perf)
        assert any("RECRU" in e and "must exceed" in e for e in errors)

    @OPTIONS
    @TABLE
    def test_weight_sum_overflows(self, hotel_files, tmp_path, lam, with_perf):
        errors = self._validate(hotel_files, tmp_path, _overflowing_weights, lam, with_perf)
        assert "criterion weights sum to inf, beyond the float range" in errors

    def test_evaluate_rejects_overflowing_weights(self, hotel_files, tmp_path, capsys):
        # an infinite total made every credibility NaN, which read as
        # spurious within-set preferences (b41 > b42, b61 > b62)
        model, perf, _ = hotel_files
        raw = json.loads(model.read_text())
        _overflowing_weights(raw)
        model.write_text(json.dumps(raw))
        code = main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "criterion weights sum to inf" in err and "within-set" not in err


class TestThresholdFailsAtPair:
    """A threshold that passes validate_model's single-value checks but
    fails at a pair of values ends with exit 3 and the kernel's message."""

    @pytest.fixture()
    def files(self, tmp_path):
        def spec(intercept, slope, mode):
            return {"intercept": intercept, "slope": slope, "mode": mode}

        criteria = [
            {"name": "g1", "direction": "max", "weight": 1.0,
             "indifference": spec(1.0, 0.0, "constant"),
             "preference": spec(2.0, 0.0, "constant")},
            # q reads the better value of a pair, p the worse one: at
            # (0, 7), q = 3.5 exceeds p = 3.0, though q <= p at each value
            {"name": "g2", "direction": "max", "weight": 1.0,
             "indifference": spec(0.0, 0.5, "inverse"),
             "preference": spec(3.0, 0.1, "direct")},
        ]
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"criteria": criteria, "reference_sets": [
            {"score": 0.0, "profiles": [[-9, 5]]},
            {"score": 100.0, "profiles": [[-7, 7]]},
        ]}))
        perf = tmp_path / "perf.csv"
        perf.write_text("action,g1,g2\nx,-20,0\n")
        target = tmp_path / "target.csv"
        target.write_text("profile,x\nb11,\nb21,\n")
        return model, perf, target

    @pytest.mark.parametrize("command", [
        ["evaluate", "--lambda", "0.65"],
        ["validate", "--lambda", "0.65"],
        ["sigma"],
        ["sweep-lambda", "TARGET"],
    ], ids=lambda c: c[0])
    def test_exit_3_without_traceback(self, files, tmp_path, command):
        model, perf, target = files
        argv = [command[0], str(model), "--performances", str(perf),
                "--output", str(tmp_path / "out")]
        argv += [str(target) if a == "TARGET" else a for a in command[1:]]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "electre_score.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: criterion g2: q=3.5 > p=3.0 for pair (0.0, 7.0)\n"


class TestVerifyConfigValues:
    @pytest.mark.parametrize("config", [
        {"trials": "many"},
        {"seed": "x"},
        [1, 2],
        {"trials": 1.5},
        {"trials": -1},
        {"trials": True},
        {"suites": "stability"},
        {"suites": ["stability", 3]},
        {"suites": ["conformity", "nope"]},
        {"suites": ["deck-example"], "trails": 3},
    ], ids=["trials-str", "seed-str", "list", "trials-float", "trials-negative",
            "trials-bool", "suites-str", "suites-non-str", "suites-unknown-late",
            "unknown-key"])
    def test_bad_value_is_parse_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["verify", "--config", str(cfg)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any suite runs
        assert "error:" in captured.err

    def test_repeated_key_is_parse_error(self, tmp_path, capsys):
        # json alone keeps the last value and would run one trial
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 3, "trials": 1, "suites": ["conformity"]}')
        assert main(["verify", "--config", str(cfg)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cfg) in captured.err and "repeated key 'trials'" in captured.err

    def test_unknown_key_is_named(self, tmp_path, capsys):
        # a misspelt "trials" would otherwise run the default 500 trials
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["deck-example"], "trails": 3}))
        assert main(["verify", "--config", str(cfg)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: unknown config key 'trails'\n"

    def test_deeply_nested_config_is_parse_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        assert main(["verify", "--config", str(cfg)]) == EXIT_PARSE

    def test_negative_trials_flag_is_parse_error(self):
        assert main(["verify", "--trials", "-1"]) == EXIT_PARSE


class TestUnwritableOutput:
    """An --output that cannot be written ends with exit 2 and one
    ``error: cannot write`` line, for every command that writes a report."""

    @pytest.mark.parametrize("command, output", [
        (["evaluate", "MODEL", "--performances", "PERF", "--lambda", "0.65"], "missing/r.json"),
        (["validate", "MODEL"], "missing/r.json"),
        (["sigma", "MODEL", "--performances", "PERF"], "missing/s.csv"),
        (["sweep-lambda", "MODEL", "TARGET", "--performances", "PERF"], "missing/r.json"),
        (["verify", "--trials", "1"], "MODEL"),  # an existing file, not a directory
        (["verify", "--trials", "1"], "BLOCKED"),  # a suite report path is a directory
    ], ids=["evaluate", "validate", "sigma", "sweep-lambda", "verify-mkdir",
            "verify-report"])
    def test_exit_2_without_traceback(self, hotel_files, tmp_path, command, output):
        model, perf, target = hotel_files
        (tmp_path / "blocked" / "dominance-implications.json").mkdir(parents=True)
        paths = {"MODEL": model, "PERF": perf, "TARGET": target,
                 "BLOCKED": tmp_path / "blocked"}
        output = paths.get(output, tmp_path / output)
        argv = [str(paths.get(a, a)) for a in command] + ["--output", str(output)]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "electre_score.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write ")
        assert str(output.name) in proc.stderr


class TestNonUtf8Input:
    BAD = b"\xff\xfe{}"

    def test_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(self.BAD)
        assert main(["validate", str(model)]) == EXIT_PARSE
        assert str(model) in capsys.readouterr().err

    def test_performance_csv(self, hotel_files, capsys):
        model, perf, _ = hotel_files
        perf.write_bytes(perf.read_bytes() + self.BAD)
        assert main(["evaluate", str(model), "--performances", str(perf),
                     "--lambda", "0.65"]) == EXIT_PARSE
        assert str(perf) in capsys.readouterr().err

    def test_target_csv(self, hotel_files, capsys):
        model, perf, target = hotel_files
        target.write_bytes(self.BAD)
        assert main(["sweep-lambda", str(model), str(target),
                     "--performances", str(perf)]) == EXIT_PARSE
        assert str(target) in capsys.readouterr().err

    def test_verify_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(self.BAD)
        assert main(["verify", "--config", str(cfg)]) == EXIT_PARSE
        assert str(cfg) in capsys.readouterr().err


class TestLazyImports:
    """Importing the CLI loads only what evaluate, validate and sigma run;
    refsets, scoring, the sweep and the verify suites load with their
    command, and dataclasses (with inspect) and fractions stay off the
    path of every command but verify and a deck conversion."""

    ROOT = Path(__file__).resolve().parent.parent
    OFF_PATH = ("dataclasses", "inspect", "fractions")

    def _loaded(self, *argv):
        """(exit code, loaded module names) of ``cli.main(argv)`` in a
        fresh interpreter; -S keeps the environment's .pth hooks from
        preloading modules."""
        probe = (
            "import sys\n"
            "from electre_score.cli import main\n"
            "code = main(sys.argv[1:]) if len(sys.argv) > 1 else None\n"
            "print(code, *sorted(sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, *map(str, argv)],
            env={**os.environ, "PYTHONPATH": str(self.ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.split()
        return code, set(loaded)

    @pytest.fixture()
    def deckless(self, hotel_files):
        """The hotel model with its explicit scores and no deck block."""
        model, perf, target = hotel_files
        raw = json.loads(model.read_text())
        del raw["deck_of_cards"]
        model.write_text(json.dumps(raw))
        return model, perf, target

    def test_cli_import_leaves_command_modules_unloaded(self):
        code, loaded = self._loaded()
        assert code == "None" and "electre_score.cli" in loaded
        for module in ("refsets", "scoring", "suites", "properties", "sweep"):
            assert f"electre_score.{module}" not in loaded
        for module in self.OFF_PATH:
            assert module not in loaded

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--lambda", "0.65"),
        ("validate", "--lambda", "0.65"),
        ("validate",),
        ("sigma",),
    ], ids=["evaluate", "validate-lambda", "validate-bands", "sigma"])
    def test_command_loads_no_dataclasses_or_fractions(self, deckless, tmp_path, argv):
        model, perf, _ = deckless
        code, loaded = self._loaded(argv[0], model, "--performances", perf, *argv[1:],
                                    "--output", tmp_path / "r.out")
        assert code == str(EXIT_OK)
        for module in self.OFF_PATH:
            assert module not in loaded

    def test_sweep_lambda_loads_no_refsets_or_scoring(self, deckless, tmp_path):
        model, perf, target = deckless
        code, loaded = self._loaded("sweep-lambda", model, target, "--performances", perf,
                                    "--output", tmp_path / "r.json")
        assert code == str(EXIT_VERIFY)  # the hotel target is infeasible
        assert "electre_score.sweep" in loaded
        for module in ("electre_score.refsets", "electre_score.scoring", *self.OFF_PATH):
            assert module not in loaded

    def test_deck_conversion_loads_fractions(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        code, loaded = self._loaded("validate", model, "--performances", perf,
                                    "--output", tmp_path / "r.json")
        assert code == str(EXIT_OK)
        assert "fractions" in loaded and "dataclasses" not in loaded


class TestTracedEntry:
    """The benchmark's traced entry wraps functions by name; renaming one
    that it lists must fail here, not only in a traced benchmark run."""

    ROOT = Path(__file__).resolve().parent.parent

    def _trace(self, tmp_path, *cli_args, exit_code=0):
        trace = tmp_path / "trace.json"
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, str(self.ROOT / "perfbench" / "trace_cli.py"), str(trace),
             *cli_args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == exit_code, proc.stderr
        report = json.loads(trace.read_text())
        assert report["exit"] == exit_code
        return report["totals"]

    def test_evaluate(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        totals = self._trace(tmp_path, "evaluate", str(model), "--performances", str(perf),
                             "--lambda", "0.65", "--output", str(tmp_path / "r.json"))
        assert totals["scoring.score_ranges"]["count"] == 1

    def test_validate(self, hotel_files, tmp_path):
        model, perf, _ = hotel_files
        totals = self._trace(tmp_path, "validate", str(model), "--lambda", "0.65",
                             "--performances", str(perf), "--output", str(tmp_path / "r.json"))
        assert totals["cli.validate"]["count"] == 1
        assert totals["refsets.comparability"]["count"] == 1

    def test_sweep_lambda(self, hotel_files, tmp_path):
        model, perf, target = hotel_files
        totals = self._trace(tmp_path, "sweep-lambda", str(model), str(target),
                             "--performances", str(perf), "--output", str(tmp_path / "r.json"),
                             exit_code=EXIT_VERIFY)  # the hotel target is infeasible
        assert totals["sweep.sweep_lambda"]["count"] == 1
        assert totals["files.load"]["count"] == 3  # model, performances, target

    def test_verify(self, tmp_path):
        totals = self._trace(tmp_path, "verify", "--trials", "2",
                             "--output", str(tmp_path / "reports"))
        assert totals["properties.check"]["count"] >= 6  # three checked suites x 2
