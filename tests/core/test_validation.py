"""Reproduction self-check tests."""

from repro.core.validation import Check, ValidationReport, validate_reproduction


class TestValidateReproduction:
    def test_all_checks_pass_on_shipped_calibration(self):
        report = validate_reproduction()
        assert report.passed, str(report)

    def test_every_paper_shape_criterion_present(self):
        names = {c.name for c in validate_reproduction().checks}
        for fragment in ("T1", "T2", "T3", "T4", "R1"):
            assert any(fragment in n for n in names), fragment

    def test_render_includes_verdict(self):
        text = str(validate_reproduction())
        assert "all checks passed" in text
        assert text.count("[PASS]") >= 7


class TestReportStructure:
    def test_failures_listed(self):
        report = ValidationReport(
            checks=(
                Check(name="ok", passed=True, detail="fine"),
                Check(name="bad", passed=False, detail="broken"),
            )
        )
        assert not report.passed
        assert [c.name for c in report.failures] == ["bad"]
        assert "1 check(s) FAILED" in str(report)

    def test_cli_validate_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "--validate"]) == 0
        assert "all checks passed" in capsys.readouterr().out
