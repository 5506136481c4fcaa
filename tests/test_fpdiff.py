"""tools/fpdiff.py, the comparison of two fingerprints."""

import pytest

import fpdiff


class TestLineDifferences:
    def test_oracle_lines_byte_for_byte(self):
        line = "sw-queue/1 oracle 7.563118024585214"
        assert fpdiff.line_differences(line, line) == []
        assert fpdiff.line_differences(line, line[:-1] + "5") == [
            "oracle line differs", "7.563118024585214 vs 7.563118024585215 (1.2e-16 relative)"]
        assert fpdiff.line_differences(line, line + " ") == ["oracle line differs", "'' != ' '"]
        before = "sw-queue/1 oracle (58.69850838840792, 11, np.float64(1.59e-05))"
        after = "sw-queue/1 oracle (58.69850838651436, 12, np.float64(1.59e-05))"
        assert fpdiff.line_differences(before, after) == [
            "oracle line differs", "58.69850838840792 vs 58.69850838651436 (3.2e-11 relative)",
            "'11' != '12'"]

    @pytest.mark.parametrize("before, after, same", [
        ("T 1000.0", "T 1000.0000000009", True),          # 9e-13 relative
        ("T 1000.0", "T 1000.000000002", False),          # 2e-12 relative
        ("gap 1e-13", "gap 9e-13", True),                 # floor of 1
        ("gap 0.5", "gap 0.500000000002", False),
        ("T [1.0, -2.5e-14]", "T [1.0, 2.5e-14]", True),
        ("T inf", "T inf", True),
        ("T inf", "T 1e308", False),
    ])
    def test_floats_agree_to_1e12_relative_with_floor_1(self, before, after, same):
        assert (fpdiff.line_differences(before, after) == []) is same

    def test_integer_and_flag_mismatches(self):
        assert fpdiff.line_differences("gp slots 76", "gp slots 77") == ["'76' != '77'"]
        assert fpdiff.line_differences("check holds True", "check holds False") != []
        assert fpdiff.line_differences("T 1.0 converged", "T 1.0 stalled") != []
        assert fpdiff.line_differences("T 1.0", "T 1.0 2.0") == ["different number of values"]

    def test_nan_equals_nan(self):
        assert fpdiff.floats_agree("nan", "nan")
        assert fpdiff.line_differences("gap [nan, 1.0]", "gap [nan, 1.0]") == []
        assert not fpdiff.floats_agree("nan", "1.0")


class TestMain:
    def _run(self, tmp_path, before, after):
        (tmp_path / "a.txt").write_text("\n".join(before) + "\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("\n".join(after) + "\n", encoding="utf-8")
        return fpdiff.main(tmp_path / "a.txt", tmp_path / "b.txt")

    def test_equal_files_exit_0(self, tmp_path, capsys):
        lines = ["x oracle 1.5", "x gp 2.0000000000001"]
        assert self._run(tmp_path, lines, ["x oracle 1.5", "x gp 2.0"]) == 0
        assert "2 lines compared, 0 differ" in capsys.readouterr().out

    def test_differing_line_counts_exit_1(self, tmp_path, capsys):
        assert self._run(tmp_path, ["x gp 1.0", "x gp 2.0"], ["x gp 1.0"]) == 1
        assert "2 lines before, 1 after" in capsys.readouterr().out

    def test_differing_line_exits_1(self, tmp_path, capsys):
        assert self._run(tmp_path, ["x gp slots 3"], ["x gp slots 4"]) == 1
        assert "line 1 (x gp slots)" in capsys.readouterr().out
