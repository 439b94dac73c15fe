import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import gbgp
from gbgp.cli import main
from gbgp.datagen import read_truth


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(argv):
    return main(argv)


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--mu", "nan", "mu must be finite and nonnegative, got nan"),
        ("--mu", "inf", "mu must be finite and nonnegative, got inf"),
        ("--size", "nan", "subgraph_size must be finite, got nan"),
        ("--size", "inf", "subgraph_size must be finite, got inf"),
    ])
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, flag, value, message):
        code = run(["synth", "--n", "60", "--m", "3", flag, value, "--kind", "non",
                    "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "instance").exists()

    @pytest.mark.parametrize("size", ["2.5", "1.5", "12.000001"])
    def test_size_not_a_whole_number_exit_2(self, tmp_path, capsys, size):
        code = run(["synth", "--n", "60", "--m", "3", "--size", size, "--kind", "non",
                    "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"error: subgraph_size must be a fraction below 1 or a whole number, "
                f"got {float(size)}") in err
        assert not (tmp_path / "instance").exists()

    @pytest.mark.parametrize("flags, config, message", [
        (["--kind", "non", "--T", "3"], "", "--T 3 does not apply to --kind non"),
        (["--kind", "temporal", "--blocks", "4"], "",
         "--blocks does not apply to --kind temporal"),
        (["--kind", "non"], "T=2\n", "--T 2 does not apply to --kind non"),
        (["--T", "2"], "kind=non\n", "--T 2 does not apply to --kind non"),
        (["--kind", "temporal"], "blocks=2\n", "--blocks does not apply to --kind temporal"),
    ], ids=["non-T", "temporal-blocks", "config-T", "config-kind", "config-blocks"])
    def test_a_parameter_the_kind_does_not_use_exit_2(self, tmp_path, capsys, flags, config,
                                                      message):
        # a --config value counts as given, as it would land in metadata.txt
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code = run(["--config", str(cfg), "synth", "--n", "60", "--m", "3", "--size", "8",
                    *flags, "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "instance").exists()

    def test_non_takes_T_1_and_its_default_blocks(self, tmp_path):
        for T, out in ((["--T", "1"], "a"), ([], "b")):
            assert run(["synth", "--n", "60", "--m", "3", "--size", "8", "--kind", "non",
                        *T, "--out", str(tmp_path / out)]) == 0
        for out in ("a", "b"):
            meta = (tmp_path / out / "instance" / "metadata.txt").read_text().splitlines()
            assert "T=1" in meta and "num_blocks=4" in meta
        assert file_hash(tmp_path / "a" / "instance" / "metadata.txt") == \
            file_hash(tmp_path / "b" / "instance" / "metadata.txt")

    @pytest.mark.parametrize("kind", ["temporal", "non"])
    def test_a_graph_past_the_32_bit_draw_exit_2(self, tmp_path, capsys, kind):
        # refused before anything of 2**40 nodes is allocated
        code = run(["synth", "--n", str(2**40), "--m", "2", "--size", "8", "--kind", kind,
                    "--out", str(tmp_path)])
        assert code == 2
        assert "error: need 2*m*(n-1-m) <= 2**32" in capsys.readouterr().err
        assert not (tmp_path / "instance").exists()

    def test_rerun_into_the_same_out_rewrites_the_bundle(self, tmp_path):
        # the manifest names the bundle's files, not itself; the earlier
        # run's signal_t2.txt, which this bundle does not write, is deleted
        args = ["synth", "--n", "60", "--m", "3", "--size", "8", "--seed", "3",
                "--kind", "temporal"]
        for T, out in (("3", "a"), ("2", "a"), ("2", "a"), ("2", "b")):
            assert run(args + ["--T", T, "--out", str(tmp_path / out)]) == 0
        again, fresh = tmp_path / "a" / "instance", tmp_path / "b" / "instance"
        names = sorted(os.listdir(fresh))
        assert (fresh / "manifest.txt").read_text().split() == [
            "graph.txt", "metadata.txt", "signal_t0.txt", "signal_t1.txt", "truth.txt"]
        assert sorted(os.listdir(again)) == names
        for name in names:
            assert file_hash(again / name) == file_hash(fresh / name), name

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

    def test_objective_keeps_the_bundle_layout(self, temporal_bundle, tmp_path):
        # at lambda 0 no coupling is left, so --objective ems must write what
        # the default temporal objective writes: (t, node) rows of the bundle
        args = ["detect", "--bundle", str(temporal_bundle), "--budget", "11",
                "--lambda", "0", "--seed", "1"]
        run(args + ["--out", str(tmp_path / "default")])
        run(args + ["--objective", "ems", "--out", str(tmp_path / "ems")])
        detected = read_truth(str(tmp_path / "ems" / "detect" / "supports.txt"))
        assert {t for t, _ in detected} == {0, 1, 2}
        assert all(0 <= v < 80 for _, v in detected)
        for name in ("supports.txt", "x.txt"):
            assert file_hash(tmp_path / "default" / "detect" / name) == \
                file_hash(tmp_path / "ems" / "detect" / name)

    def test_objective_keeps_every_signal(self, temporal_bundle, tmp_path):
        # three --signal files stack three snapshots whatever the coupling
        args = ["detect", "--graph", str(temporal_bundle / "graph.txt"),
                "--budget", "11", "--lambda", "0", "--seed", "1"]
        for t in range(3):
            args += ["--signal", str(temporal_bundle / f"signal_t{t}.txt")]
        run(args + ["--out", str(tmp_path / "default")])
        run(args + ["--objective", "ems", "--out", str(tmp_path / "ems")])
        x_rows = (tmp_path / "ems" / "detect" / "x.txt").read_text().splitlines()
        assert len(x_rows) == 3 * 80
        for name in ("supports.txt", "x.txt"):
            assert file_hash(tmp_path / "default" / "detect" / name) == \
                file_hash(tmp_path / "ems" / "detect" / name)

    def test_temporal_coupling_needs_stacked_snapshots(self, temporal_bundle, tmp_path, capsys):
        # one signal is one graph cut into BFS blocks, which are not
        # timestamps even when their sizes are equal (80 nodes, 4 blocks)
        one_signal = ["detect", "--graph", str(temporal_bundle / "graph.txt"),
                      "--signal", str(temporal_bundle / "signal_t0.txt"),
                      "--objective", "temporal", "--budget", "5", "--seed", "1"]
        assert run(one_signal + ["--out", str(tmp_path / "a")]) == 2
        assert "stacked snapshots" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        run(["synth", "--n", "60", "--m", "3", "--size", "8", "--kind", "non",
             "--blocks", "4", "--seed", "2", "--out", str(tmp_path / "i")])
        code = run(["detect", "--bundle", str(tmp_path / "i" / "instance"),
                    "--objective", "temporal", "--budget", "5", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "stacked snapshots" in capsys.readouterr().err

    def test_partition_flags_need_one_signal(self, temporal_bundle, tmp_path, capsys):
        args = ["detect", "--graph", str(temporal_bundle / "graph.txt"),
                "--budget", "5", "--out", str(tmp_path / "o")]
        for t in range(2):
            args += ["--signal", str(temporal_bundle / f"signal_t{t}.txt")]
        partition = tmp_path / "p.txt"
        partition.write_text("".join(f"{i % 2}\n" for i in range(80)))
        for extra in (["--blocks", "2"], ["--partition", str(partition), "--blocks", "2"]):
            assert run(args + extra) == 2
            assert "one --signal only" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--blocks", "3"], ["--partition", "p.txt"],
                                       ["--partition", "p.txt", "--blocks", "2"]],
                             ids=["blocks", "partition", "both"])
    def test_partition_flags_refused_with_a_bundle(self, temporal_bundle, tmp_path, capsys,
                                                   flags):
        (tmp_path / "p.txt").write_text("".join(f"{i % 2}\n" for i in range(240)))
        flags = [str(tmp_path / flag) if flag == "p.txt" else flag for flag in flags]
        code = run(["detect", "--bundle", str(temporal_bundle), "--budget", "5",
                    "--out", str(tmp_path / "o")] + flags)
        assert code == 2
        assert "--partition/--blocks do not apply to --bundle" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("layout", ["cut", "partition", "several-signals"])
    def test_blocks_below_one_exit_2(self, temporal_bundle, tmp_path, capsys, layout):
        partition = tmp_path / "p.txt"
        partition.write_text("".join(f"{i % 2}\n" for i in range(80)))
        extra = {"cut": [], "partition": ["--partition", str(partition)],
                 "several-signals": ["--signal", str(temporal_bundle / "signal_t1.txt")]}
        code = run(["detect", "--graph", str(temporal_bundle / "graph.txt"),
                    "--signal", str(temporal_bundle / "signal_t0.txt"), "--blocks", "0",
                    "--budget", "5", "--out", str(tmp_path / "o")] + extra[layout])
        assert code == 2
        assert "--blocks must be >= 1, got 0" in capsys.readouterr().err

    def test_id_too_large_for_a_float_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("# nodes 3\n0\t1\n1\t" + "9" * 400 + "\n")
        signal = tmp_path / "s.txt"
        signal.write_text("0\t1\n1\t1\n2\t0\n")
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "1", "--budget", "2", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "out of [0,3)" in err
        assert "g.txt:3: edge (1," in err

    @pytest.mark.parametrize("count", ["9" * 400, str(2 ** 63), "-1"],
                             ids=["400-digits", "2**63", "-1"])
    def test_node_count_out_of_range_exit_2(self, tmp_path, capfd, count):
        graph = tmp_path / "g.txt"
        graph.write_text(f"# nodes {count}\n0\t1\n")
        signal = tmp_path / "s.txt"
        signal.write_text("0\t1\n1\t1\n")
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "1", "--budget", "1", "--out", str(tmp_path / "o")])
        err = capfd.readouterr().err
        assert code == 2
        assert "g.txt:1: node count out of [0, 2**63)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", [str(2 ** 63 - 1), "3"], ids=["2**63-1", "signal+1"])
    def test_node_count_other_than_the_signal_length_exit_2(self, tmp_path, capfd, count):
        # checked before the graph allocates anything: 2**63 - 1 nodes would
        # otherwise ask NumPy for an index of 2**63 entries
        graph = tmp_path / "g.txt"
        graph.write_text(f"# nodes {count}\n0\t1\n")
        signal = tmp_path / "s.txt"
        signal.write_text("0\t1\n1\t1\n")
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "1", "--budget", "1", "--out", str(tmp_path / "o")])
        err = capfd.readouterr().err
        assert code == 2
        assert f"g.txt:1: node count {count} differs from the signal length 2" in err
        assert "Traceback" not in err

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

    def test_backtracking_underflow_exit_5(self, tmp_path, capsys):
        # a cut penalty of 1e12 makes the objective's curvature across the
        # cut 2e12, so backtracking halves the step below its 1e-12 floor
        graph = tmp_path / "path.txt"
        graph.write_text("# nodes 6\n" + "".join(f"{i}\t{i + 1}\n" for i in range(5)))
        signal = tmp_path / "signal.txt"
        signal.write_text("".join(f"{i}\t{v}\n" for i, v in enumerate([0, 1, 5, 1, 0, 5])))
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "2", "--budget", "2", "--lambda", "1e12",
                    "--out", str(tmp_path / "o")])
        assert code == 5
        assert "backtracking underflow" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_iteration_cap_below_one_exit_2(self, temporal_bundle, tmp_path, capsys, cap):
        code = run(["detect", "--bundle", str(temporal_bundle), "--budget", "11",
                    "--max-outer-iters", cap, "--out", str(tmp_path / "cap")])
        assert code == 2
        assert "max_outer_iters" in capsys.readouterr().err
        assert not (tmp_path / "cap" / "detect" / "supports.txt").exists()

    def test_failing_search_under_parallel_exit_5(self, tmp_path, capfd, monkeypatch):
        import gbgp.solver as solver

        synth = ["synth", "--n", "120", "--m", "3", "--size", "12", "--seed", "2",
                 "--kind", "non", "--blocks", "4", "--out", str(tmp_path / "inst")]
        assert run(synth) == 0
        capfd.readouterr()
        def fail(*args, **kwargs):
            raise RuntimeError("search failed")

        monkeypatch.setattr(solver, "search_phase", fail)
        code = run(["detect", "--bundle", str(tmp_path / "inst" / "instance"),
                    "--budget", "8", "--parallel", "2", "--out", str(tmp_path / "o")])
        err = capfd.readouterr().err
        assert code == 5
        assert "solver failed: search failed" in err
        assert "Traceback" not in err

    def test_kernel_out_of_memory_exit_5(self, tmp_path, capfd, monkeypatch):
        import gbgp.pcst

        class OutOfMemory:
            """The kernel, but every search of a phase reports no memory."""

            def __getattr__(self, name):
                return getattr(kernel, name)

            def gbgp_pcst_phase(self, tasks, *args):
                for task in tasks:
                    task.size = -1

        kernel = gbgp.pcst._kernel
        monkeypatch.setattr(gbgp.pcst, "_kernel", OutOfMemory())
        graph = tmp_path / "path.txt"
        graph.write_text("# nodes 6\n" + "".join(f"{i}\t{i + 1}\n" for i in range(5)))
        signal = tmp_path / "signal.txt"
        signal.write_text("".join(f"{i}\t{v}\n" for i, v in enumerate([0, 1, 5, 5, 1, 0])))
        code = run(["detect", "--graph", str(graph), "--signal", str(signal),
                    "--blocks", "1", "--budget", "2", "--out", str(tmp_path / "o")])
        err = capfd.readouterr().err
        assert code == 5
        assert "solver failed: the PCST kernel ran out of memory" in err
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


def _drop_line(prefix):
    return lambda text: "".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith(prefix))


# (bundle kind, file, edit of its text, line named, message); each edit
# leaves the other lines as synth wrote them
MALFORMED = {
    "signal-id-x": ("temporal", "signal_t0.txt", lambda t: t.replace("3\t", "x\t", 1), 4,
                    "invalid literal for int() with base 10: 'x'"),
    "signal-value-oops": ("temporal", "signal_t1.txt",
                          lambda t: t.replace("\n4\t", "\n4\toops\n#", 1), 5,
                          "could not convert string to float: 'oops'"),
    "signal-value-nan": ("temporal", "signal_t0.txt",
                         lambda t: t.replace("\n4\t", "\n4\tnan\n#", 1), 5,
                         "non-finite value nan"),
    "partition-id-7": ("non", "partition.txt", lambda t: t.replace("0\n", "7\n", 1), 1,
                       "block id 7 out of range [0,2)"),
    "partition-id-minus-1": ("non", "partition.txt", lambda t: t.replace("0\n", "-1\n", 1), 1,
                             "block id -1 out of range [0,2)"),
    "truth-three-fields": ("temporal", "truth.txt", lambda t: t.replace("\n", "\t3\n", 1), 1,
                           "expected 2 fields, got 3"),
    "truth-id-not-integer": ("temporal", "truth.txt", lambda t: t.replace("\n", "\n1\ty\n", 1),
                             2, "invalid literal for int() with base 10: 'y'"),
    # missing keys are named at the file's last line
    "metadata-without-n": ("temporal", "metadata.txt", _drop_line("n="), 8, "missing key n"),
    "metadata-without-kind": ("non", "metadata.txt", _drop_line("kind="), 9,
                              "missing key kind"),
    "metadata-mu-abc": ("temporal", "metadata.txt", lambda t: t.replace("mu=5.0", "mu=abc"), 4,
                        "could not convert string to float: 'abc'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_bundle_file_names_its_line(tmp_path, capfd, case):
    kind, name, edit, line, message = MALFORMED[case]
    synth = ["synth", "--n", "40", "--m", "2", "--size", "5", "--seed", "1",
             "--kind", kind, "--out", str(tmp_path)]
    assert run(synth + (["--T", "2"] if kind == "temporal" else ["--blocks", "2"])) == 0
    path = tmp_path / "instance" / name
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    if name == "truth.txt":
        argv = ["eval", "--detected", str(path), "--truth", str(path)]
    else:
        argv = ["detect", "--bundle", str(tmp_path / "instance"), "--budget", "3"]
    capfd.readouterr()
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert f"{name}:{line}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--budgets", "--lambdas"])
@pytest.mark.parametrize("grid", [",", ""])
def test_gridsearch_empty_grid_exit_2(temporal_bundle, tmp_path, capfd, flag, grid):
    argv = ["gridsearch", "--bundle", str(temporal_bundle), "--budgets", "10",
            "--out", str(tmp_path / "o"), flag, grid]
    capfd.readouterr()
    assert run(argv) == 2
    err = capfd.readouterr().err
    assert f"{flag} names no value" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--sizes", ",", "--sizes names no value"),
    ("--taus", ",", "--taus names no value"),
    ("--repeats", "0", "--repeats must be >= 1"),
])
def test_bench_rejects_an_empty_grid_or_no_repeats(tmp_path, capfd, flag, value, message):
    argv = ["bench", "--sizes", "300", "--repeats", "1", "--out", str(tmp_path / "o"),
            flag, value]
    capfd.readouterr()
    assert run(argv) == 2
    err = capfd.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, grid, repeated", [
    ("gridsearch", "--budgets", "33,33", "33"),
    ("gridsearch", "--lambdas", "0.02,0.01,0.020", "0.02"),
    ("bench", "--sizes", "300,300", "300"),
    ("bench", "--taus", "0,2,0", "0"),
])
def test_a_grid_repeating_a_value_exit_2(temporal_bundle, tmp_path, capfd, command, flag, grid,
                                         repeated):
    argv = {"gridsearch": ["gridsearch", "--bundle", str(temporal_bundle), "--budgets", "10"],
            "bench": ["bench", "--sizes", "300", "--repeats", "1"]}[command]
    capfd.readouterr()
    assert run(argv + ["--out", str(tmp_path / "o"), flag, grid]) == 2
    err = capfd.readouterr().err
    assert f"{flag} repeats {repeated}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_detect_names_the_line_of_a_byte_not_utf8(tmp_path, capfd):
    (tmp_path / "g.txt").write_text("0 1\n1 2\n")
    (tmp_path / "bad.txt").write_bytes(b"0\t1.0\n1\t\xff\n2\t0.5\n")
    capfd.readouterr()
    code = run(["detect", "--graph", str(tmp_path / "g.txt"), "--signal",
                str(tmp_path / "bad.txt"), "--budget", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capfd.readouterr().err
    assert "bad.txt:2: not UTF-8 text" in err
    assert "Traceback" not in err


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n")
        assert run(["--config", str(cfg), "synth", "--n", "10"]) == 2
        assert "run.cfg:1: unknown config key 'bogus_key'" in capsys.readouterr().err

    def test_config_values_reach_the_subcommand(self, temporal_bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-outer-iters=1\n")
        for i, form in enumerate((["--config", str(cfg)], [f"--config={cfg}"])):
            out = tmp_path / f"run{i}"
            code = run(form + ["detect", "--bundle", str(temporal_bundle),
                               "--budget", "10", "--out", str(out)])
            assert code in (0, 3)
            assert len((out / "detect" / "trace.txt").read_text().splitlines()) == 1
        # a flag wins over the file
        code = run(["--config", str(cfg), "detect", "--bundle", str(temporal_bundle),
                    "--budget", "10", "--max-outer-iters", "2", "--out", str(tmp_path / "flag")])
        assert code in (0, 3)
        assert len((tmp_path / "flag" / "detect" / "trace.txt").read_text().splitlines()) == 2

    def test_config_matches_the_same_flags(self, temporal_bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=0.05\nmax-outer-iters=7\nstep-mode=fixed\n"
                       "normalize-signal=true\n")
        base = ["detect", "--bundle", str(temporal_bundle), "--budget", "10"]
        assert run(["--config", str(cfg)] + base + ["--out", str(tmp_path / "cfg")]) in (0, 3)
        assert run(base + ["--lambda", "0.05", "--max-outer-iters", "7", "--step-mode", "fixed",
                           "--normalize-signal", "--out", str(tmp_path / "flags")]) in (0, 3)
        assert run(base + ["--out", str(tmp_path / "plain")]) in (0, 3)
        for name in ("supports.txt", "x.txt"):
            cfg_hash = file_hash(tmp_path / "cfg" / "detect" / name)
            assert cfg_hash == file_hash(tmp_path / "flags" / "detect" / name)
        assert file_hash(tmp_path / "cfg" / "detect" / "x.txt") != file_hash(
            tmp_path / "plain" / "detect" / "x.txt")

    @pytest.mark.parametrize("line", ["step-mode=sideways", "head-capacity=3s",
                                      "normalize-signal=yes", "signal=s.txt"])
    def test_bad_config_value_exit_2(self, temporal_bundle, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\n" + line + "\n")
        assert run(["--config", str(cfg), "detect", "--bundle", str(temporal_bundle),
                    "--budget", "10", "--out", str(tmp_path / "o")]) == 2
        assert "run.cfg:2: " in capsys.readouterr().err

    def test_config_value_of_the_wrong_type_exit_2(self, temporal_bundle, tmp_path, capsys):
        # the value goes through the option's type as the file is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-outer-iters=many\n")
        assert run(["--config", str(cfg), "detect", "--bundle", str(temporal_bundle),
                    "--budget", "10", "--out", str(tmp_path / "o")]) == 2
        assert "run.cfg:1: invalid literal for int()" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # SciPy's import alone adds about 20 MB to a process's peak RSS
    src = os.path.dirname(os.path.dirname(gbgp.__file__))
    code = ("import sys, gbgp, gbgp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
