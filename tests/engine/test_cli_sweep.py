"""``repro sweep`` subcommand: plan, run, resume, invalidate, exports."""

from repro.cli import main
from repro.engine.cli import sweep_main
from repro.engine.plan import SweepSpec

GRID = ["--ci", "25,190", "--utilisations", "0.5,0.9", "--nodes", "1000"]


class TestPlan:
    def test_plan_prints_hash_and_count(self, capsys):
        assert sweep_main(["plan", *GRID]) == 0
        out = capsys.readouterr().out
        assert "spec hash" in out
        assert "scenarios     : 24" in out

    def test_plan_writes_loadable_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        assert sweep_main(["plan", *GRID, "--spec-out", str(spec_file)]) == 0
        spec = SweepSpec.from_json(spec_file.read_text())
        assert spec.n_scenarios == 24

    def test_spec_and_grid_flags_conflict(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        sweep_main(["plan", *GRID, "--spec-out", str(spec_file)])
        capsys.readouterr()
        assert sweep_main(["plan", "--spec", str(spec_file), "--ci", "55"]) == 2
        assert "one or the other" in capsys.readouterr().err

    def test_bad_decarb_syntax_fails_cleanly(self, capsys):
        assert sweep_main(["plan", "--decarb", "190"]) == 2
        assert "START:RATE" in capsys.readouterr().err


class TestRunResumeRoundTrip:
    def test_run_kill_resume_exports_byte_identical(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert sweep_main(["plan", *GRID, "--spec-out", str(spec_file)]) == 0
        spec = SweepSpec.from_json(spec_file.read_text())
        args = ["--spec", str(spec_file), "--cache", str(cache), "--chunk-size", "5"]
        assert sweep_main(["run", *args, "--export", str(out1)]) == 0

        # Simulate a kill: throw away some completed chunks.
        chunks = sorted(cache.glob(f"{spec.spec_hash}-*/rows-*.cols"))
        assert len(chunks) == 5
        for chunk in chunks[:2]:
            chunk.unlink()

        assert sweep_main(["resume", *args, "--export", str(out2)]) == 0
        assert "already cached" in capsys.readouterr().err
        for produced in sorted(out1.iterdir()):
            assert (out2 / produced.name).read_bytes() == produced.read_bytes()

    def test_run_reports_cache_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert sweep_main(["run", *GRID, "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert sweep_main(["run", *GRID, "--cache", str(cache)]) == 0
        assert "1 cached chunk(s), 0 computed" in capsys.readouterr().out

    def test_invalidate_by_hash(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        sweep_main(["run", *GRID, "--cache", str(cache)])
        capsys.readouterr()
        spec_hash = SweepSpec.from_json(
            next(cache.glob("*/spec.json")).read_text()
        ).spec_hash
        assert sweep_main(
            ["invalidate", "--hash", spec_hash, "--cache", str(cache)]
        ) == 0
        assert "removed" in capsys.readouterr().out


class TestDispatch:
    def test_main_dispatches_sweep(self, capsys):
        assert main(["sweep", "plan", *GRID]) == 0
        assert "spec hash" in capsys.readouterr().out

    def test_run_subcommand_lists(self, capsys):
        assert main(["run", "--list"]) == 0
        assert "T1" in capsys.readouterr().out.split()

    def test_bare_experiment_form_is_refused(self, capsys):
        assert main(["T1"]) == 2
        assert "repro run T1" in capsys.readouterr().err
