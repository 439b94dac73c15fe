"""``detect`` options that change how the solve runs: signal normalization and step mode."""
import numpy as np

from gbgp.cli import main


def write_path_inputs(tmp_path, values, assignment):
    """A 6-node path with the given signal and block assignment."""
    (tmp_path / "g.txt").write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
    (tmp_path / "s.txt").write_text("".join(f"{i} {v}\n" for i, v in enumerate(values)))
    (tmp_path / "p.txt").write_text("".join(f"{k}\n" for k in assignment))
    return ["detect", "--graph", str(tmp_path / "g.txt"), "--signal", str(tmp_path / "s.txt"),
            "--partition", str(tmp_path / "p.txt"), "--budget", "2", "--lambda", "0"]


def read_x(out):
    rows = (out / "detect" / "x.txt").read_text().split("\n")
    return np.array([float(row.split("\t")[1]) for row in rows if row])


class TestNormalizeSignal:
    def test_constant_block_maps_to_zero(self, tmp_path):
        argv = write_path_inputs(tmp_path, [2.0, 2.0, 2.0, 0.1, 3.0, 0.2], [0, 0, 0, 1, 1, 1])
        assert main(argv + ["--blocks", "2", "--out", str(tmp_path / "raw")]) == 0
        assert read_x(tmp_path / "raw")[:3].any()
        code = main(argv + ["--blocks", "2", "--normalize-signal",
                            "--out", str(tmp_path / "norm")])
        assert code == 0
        x = read_x(tmp_path / "norm")
        # a constant block carries no signal once mapped into [0, 1]
        assert not x[:3].any()
        assert x[4] == 1.0

    def test_empty_block_is_skipped(self, tmp_path, capsys):
        argv = write_path_inputs(tmp_path, [0.5, 1.0, 3.0, 0.1, 4.0, 0.2], [0, 0, 0, 0, 2, 2])
        code = main(argv + ["--blocks", "3", "--normalize-signal", "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        x = read_x(tmp_path)
        assert np.all((x >= 0.0) & (x <= 1.0))


def test_fixed_step_mode_runs(tmp_path):
    code = main(["synth", "--n", "80", "--m", "3", "--T", "3", "--size", "10",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    code = main(["detect", "--bundle", str(tmp_path / "instance"), "--budget", "10",
                 "--lambda", "0.02", "--step-mode", "fixed", "--out", str(tmp_path)])
    assert code in (0, 3)
    x = read_x(tmp_path)
    assert np.all(np.isfinite(x)) and x.min() >= 0.0 and x.max() <= 1.0
