import hashlib
import os

import numpy as np
import pytest

from gbgp.cli import main
from gbgp.datagen import read_truth


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def run(argv):
    return main(argv)


def _die_in_worker(task, graphs=None):
    """Stand-in projection task that kills the pool worker running it."""
    os._exit(1)


@pytest.fixture
def temporal_bundle(tmp_path):
    out = tmp_path / "runA"
    code = run([
        "synth", "--n", "80", "--m", "3", "--mu", "5", "--T", "3",
        "--overlap", "0.5", "--size", "10", "--seed", "7",
        "--kind", "temporal", "--out", str(out),
    ])
    assert code == 0
    return out / "instance"


class TestSynth:
    def test_bundle_files_exist(self, temporal_bundle):
        names = sorted(os.listdir(temporal_bundle))
        assert "graph.txt" in names
        assert "signal_t0.txt" in names and "signal_t2.txt" in names
        assert "truth.txt" in names and "metadata.txt" in names

    def test_reference_edge_count(self, tmp_path):
        out = tmp_path / "big"
        code = run(["synth", "--n", "3000", "--m", "4", "--seed", "1",
                    "--kind", "non", "--blocks", "4", "--out", str(out)])
        assert code == 0
        edge_lines = [
            line for line in (out / "instance" / "graph.txt").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(edge_lines) == 11_984

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["synth", "--m", "4"])
        assert err.value.code == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = ["synth", "--n", "60", "--m", "3", "--T", "2", "--size", "8",
                "--seed", "3", "--kind", "temporal"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in os.listdir(tmp_path / "a" / "instance"):
            assert file_hash(tmp_path / "a" / "instance" / name) == \
                file_hash(tmp_path / "b" / "instance" / name)


class TestDetect:
    def test_detect_on_bundle_round_trip(self, temporal_bundle, tmp_path):
        out = tmp_path / "det"
        code = run(["detect", "--bundle", str(temporal_bundle), "--budget", "11",
                    "--lambda", "0.02", "--seed", "1", "--out", str(out)])
        assert code in (0, 3)
        detected = read_truth(str(out / "detect" / "supports.txt"))
        assert detected, "support file should not be empty"
        # every detected pair indexes a valid (t, node)
        assert all(0 <= t < 3 and 0 <= v < 80 for t, v in detected)
        trace = (out / "detect" / "trace.txt").read_text().splitlines()
        assert len(trace) >= 1
        assert all(len(line.split("\t")) == 4 for line in trace)

    def test_quality_on_easy_bundle(self, temporal_bundle, tmp_path):
        out = tmp_path / "det"
        run(["detect", "--bundle", str(temporal_bundle), "--budget", "11",
             "--lambda", "0.02", "--seed", "1", "--out", str(out)])
        detected = read_truth(str(out / "detect" / "supports.txt"))
        truth = read_truth(str(temporal_bundle / "truth.txt"))
        hits = len(detected & truth)
        f1 = 2 * hits / (len(detected) + len(truth))
        assert f1 > 0.8

    def test_determinism_excluding_trace(self, temporal_bundle, tmp_path):
        args = ["detect", "--bundle", str(temporal_bundle), "--budget", "11",
                "--lambda", "0.02", "--seed", "5"]
        run(args + ["--out", str(tmp_path / "d1")])
        run(args + ["--out", str(tmp_path / "d2")])
        for name in ("supports.txt", "x.txt"):
            assert file_hash(tmp_path / "d1" / "detect" / name) == \
                file_hash(tmp_path / "d2" / "detect" / name)

    def test_parallel_deterministic(self, tmp_path):
        synth = ["synth", "--n", "120", "--m", "3", "--size", "12", "--seed", "2",
                 "--kind", "non", "--blocks", "4", "--out", str(tmp_path / "inst")]
        assert run(synth) == 0
        bundle = str(tmp_path / "inst" / "instance")
        args = ["detect", "--bundle", bundle, "--budget", "8", "--lambda", "0.01",
                "--seed", "9", "--parallel", "2"]
        run(args + ["--out", str(tmp_path / "p1")])
        run(args + ["--out", str(tmp_path / "p2")])
        for name in ("supports.txt", "x.txt"):
            assert file_hash(tmp_path / "p1" / "detect" / name) == \
                file_hash(tmp_path / "p2" / "detect" / name)

    def test_missing_inputs_exit_2(self):
        assert run(["detect", "--budget", "5"]) == 2

    def test_bad_bundle_exit_4(self, tmp_path):
        assert run(["detect", "--bundle", str(tmp_path / "nope"), "--budget", "5"]) == 4

    def test_solver_failure_exit_5(self, tmp_path, capsys):
        # (1e200)^2 overflows, so the objective is non-finite at once
        graph = tmp_path / "path.txt"
        graph.write_text("# nodes 6\n" + "".join(f"{i}\t{i + 1}\n" for i in range(5)))
        signal = tmp_path / "signal.txt"
        signal.write_text("".join(f"{i}\t1e200\n" for i in range(6)))
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--objective", "ems", "--blocks", "1", "--budget", "2",
                    "--out", str(tmp_path / "o")])
        assert code == 5
        assert "non-finite" in capsys.readouterr().err

    def test_backtracking_underflow_exit_5(self, tmp_path, capsys, monkeypatch):
        # an uphill gradient can never meet the sufficient-decrease test,
        # so backtracking halves the step below its floor
        from gbgp.objectives import ObjectiveSpec

        true_gradient = ObjectiveSpec.block_gradient
        monkeypatch.setattr(ObjectiveSpec, "block_gradient",
                            lambda self, *args: -true_gradient(self, *args))
        graph = tmp_path / "path.txt"
        graph.write_text("# nodes 6\n" + "".join(f"{i}\t{i + 1}\n" for i in range(5)))
        signal = tmp_path / "signal.txt"
        signal.write_text("".join(f"{i}\t{v}\n" for i, v in enumerate([0, 1, 5, 5, 1, 0])))
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "1", "--budget", "2", "--out", str(tmp_path / "o")])
        assert code == 5
        assert "backtracking underflow" in capsys.readouterr().err

    def test_dead_pool_worker_exit_5(self, tmp_path, capfd, monkeypatch):
        import gbgp.solver as solver

        synth = ["synth", "--n", "120", "--m", "3", "--size", "12", "--seed", "2",
                 "--kind", "non", "--blocks", "4", "--out", str(tmp_path / "inst")]
        assert run(synth) == 0
        capfd.readouterr()
        # two workers even on a one-CPU host, each dying on its first task
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(solver, "_pool_project", _die_in_worker)
        code = run(["detect", "--bundle", str(tmp_path / "inst" / "instance"),
                    "--budget", "8", "--parallel", "2", "--out", str(tmp_path / "o")])
        err = capfd.readouterr().err
        assert code == 5
        assert "solver failed" in err
        assert "Traceback" not in err

    def test_default_cut_budget_names_blocks_flag(self, tmp_path, capsys):
        # without --partition a 6-node path is cut into 4 blocks, two of
        # them single nodes, so budget 2 cannot fit
        graph = tmp_path / "path.txt"
        graph.write_text("# nodes 6\n" + "".join(f"{i}\t{i + 1}\n" for i in range(5)))
        signal = tmp_path / "signal.txt"
        signal.write_text("".join(f"{i}\t{v}\n" for i, v in enumerate([0, 1, 5, 5, 1, 0])))
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--budget", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--blocks 4" in capsys.readouterr().err
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "1", "--budget", "2", "--out", str(tmp_path / "o")])
        assert code in (0, 3)

    def test_iteration_cap_exit_3(self, temporal_bundle, tmp_path):
        code = run(["detect", "--bundle", str(temporal_bundle), "--budget", "11",
                    "--max-outer-iters", "1", "--seed", "1",
                    "--out", str(tmp_path / "cap")])
        assert code == 3
        # outputs are still written on a capped run
        assert (tmp_path / "cap" / "detect" / "supports.txt").exists()

    def test_explicit_partition_file(self, tmp_path):
        run(["synth", "--n", "60", "--m", "3", "--size", "8", "--kind", "non",
             "--blocks", "3", "--seed", "2", "--out", str(tmp_path / "i")])
        bundle = tmp_path / "i" / "instance"
        out = tmp_path / "exp"
        code = run([
            "detect",
            "--graph", str(bundle / "graph.txt"),
            "--signal", str(bundle / "signal_t0.txt"),
            "--partition", str(bundle / "partition.txt"),
            "--blocks", "3", "--objective", "non",
            "--budget", "6", "--seed", "2", "--out", str(out),
        ])
        assert code in (0, 3)
        detected = read_truth(str(out / "detect" / "supports.txt"))
        assert detected and all(t == 0 for t, _ in detected)

    def test_explicit_files_temporal(self, temporal_bundle, tmp_path):
        out = tmp_path / "manual"
        code = run([
            "detect",
            "--graph", str(temporal_bundle / "graph.txt"),
            "--signal", str(temporal_bundle / "signal_t0.txt"),
            "--signal", str(temporal_bundle / "signal_t1.txt"),
            "--signal", str(temporal_bundle / "signal_t2.txt"),
            "--objective", "temporal",
            "--budget", "11", "--seed", "1", "--out", str(out),
        ])
        assert code in (0, 3)
        assert (out / "detect" / "supports.txt").exists()


class TestEval:
    def test_eval_command(self, temporal_bundle, tmp_path, capsys):
        det = tmp_path / "det"
        run(["detect", "--bundle", str(temporal_bundle), "--budget", "11",
             "--lambda", "0.02", "--seed", "1", "--out", str(det)])
        code = run(["eval", "--detected", str(det / "detect" / "supports.txt"),
                    "--truth", str(temporal_bundle / "truth.txt"),
                    "--out", str(tmp_path / "ev")])
        assert code == 0
        summary = (tmp_path / "ev" / "eval" / "summary.txt").read_text()
        assert "precision=" in summary and "f1=" in summary

    def test_eval_perfect_detection(self, temporal_bundle, tmp_path, capsys):
        code = run(["eval", "--detected", str(temporal_bundle / "truth.txt"),
                    "--truth", str(temporal_bundle / "truth.txt"),
                    "--out", str(tmp_path / "ev")])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=1.000000" in out


class TestBench:
    def test_single_size_table(self, tmp_path, capsys):
        code = run(["bench", "--sizes", "300", "--repeats", "1",
                    "--seed", "0", "--out", str(tmp_path / "b")])
        assert code == 0
        tsv = (tmp_path / "b" / "eval" / "scaling.tsv").read_text().splitlines()
        assert tsv[0].startswith("n\tedges")
        assert len(tsv) == 2


class TestGridsearch:
    def test_single_cell(self, tmp_path, capsys):
        run(["synth", "--n", "80", "--m", "3", "--T", "2", "--size", "10",
             "--seed", "4", "--kind", "temporal", "--out", str(tmp_path / "i")])
        code = run(["gridsearch", "--bundle", str(tmp_path / "i" / "instance"),
                    "--budgets", "11", "--lambdas", "0.01",
                    "--out", str(tmp_path / "g")])
        assert code == 0
        table = (tmp_path / "g" / "eval" / "gridsearch.tsv").read_text().splitlines()
        assert len(table) == 2
        best = (tmp_path / "g" / "eval" / "best.txt").read_text()
        assert "budget=11" in best

    def test_default_lambda_grid_has_six_cells(self, tmp_path):
        run(["synth", "--n", "60", "--m", "3", "--T", "1", "--size", "8",
             "--seed", "4", "--kind", "temporal", "--out", str(tmp_path / "i")])
        code = run(["gridsearch", "--bundle", str(tmp_path / "i" / "instance"),
                    "--budgets", "9", "--out", str(tmp_path / "g")])
        assert code == 0
        table = (tmp_path / "g" / "eval" / "gridsearch.tsv").read_text().splitlines()
        assert len(table) == 1 + 6

    def test_best_budget_tracks_planted_size(self, tmp_path):
        # planted size 10: the best-F cell's budget should be within +-50%
        hits = 0
        for seed in range(5):
            inst_dir = tmp_path / f"i{seed}"
            run(["synth", "--n", "90", "--m", "3", "--T", "2", "--size", "10",
                 "--seed", str(seed), "--kind", "temporal", "--out", str(inst_dir)])
            out = tmp_path / f"g{seed}"
            code = run(["gridsearch", "--bundle", str(inst_dir / "instance"),
                        "--budgets", "3,6,11,20,35", "--lambdas", "0.01",
                        "--out", str(out)])
            assert code == 0
            best = dict(
                line.split("=") for line in
                (out / "eval" / "best.txt").read_text().splitlines()
            )
            if 5 <= int(best["budget"]) <= 15:
                hits += 1
        assert hits >= 4  # 70% of seeds, rounded up


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, temporal_bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget=11\nlambda=0.02\nseed=3\n")
        out = tmp_path / "c1"
        code = run(["--config", str(cfg), "detect", "--bundle", str(temporal_bundle),
                    "--budget", "12", "--out", str(out)])
        assert code in (0, 3)
        # the flag (12) must win over the config (11)
        detected = read_truth(str(out / "detect" / "supports.txt"))
        per_block = {}
        for t, v in detected:
            per_block.setdefault(t, set()).add(v)
        assert max(len(s) for s in per_block.values()) <= 12

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n")
        assert run(["--config", str(cfg), "synth", "--n", "10"]) == 2
