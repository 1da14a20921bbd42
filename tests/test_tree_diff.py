import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tree_diff.py"
spec = importlib.util.spec_from_file_location("tree_diff", TOOL)
tree_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tree_diff)


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_tree_diff_reports_each_kind_of_file(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    common = {"run/run.log": "poling period 6.93 um\n"}
    write_tree(a, {**common, "run/trace.csv": "tau_fs,rate_arb,case\n-1,2.0,x\n1,4.0,y\n",
                   "run/metrics.txt": "peak=4\nfwhm=23.98\n", "only_a.txt": "a\n"})
    write_tree(b, {**common, "run/trace.csv": "tau_fs,rate_arb,case\n-1,2.0,x\n1,4.002,z\n",
                   "run/metrics.txt": "peak=4\nfwhm=23.99\n", "only_b.txt": "b\n"})
    assert tree_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ONLY-A only_a.txt",
        "ONLY-B only_b.txt",
        "TEXT run/metrics.txt",
        "  -fwhm=23.98",
        "  +fwhm=23.99",
        "SAME run/run.log",
        "CSV run/trace.csv",
        "  tau_fs 0.000e+00",
        "  rate_arb 5.000e-04",
        "  case (1 text cells differ)",
        "SUMMARY same=1 differ=2 only=2 largest_csv_change=5.000e-04 run/trace.csv rate_arb",
    ]
    assert tree_diff.main([str(a), str(a)]) == 0


def test_tree_diff_summary_names_the_largest_csv_change(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"x/spectrum.csv": "re_S,im_S\n1.0,2.0\n-4.0,1.0\n",
                   "y/trace.csv": "rate_arb\n10.0\n", "y/metrics.txt": "fwhm=24\n"})
    write_tree(b, {"x/spectrum.csv": "re_S,im_S\n1.0,2.0\n-4.0,1.1\n",
                   "y/trace.csv": "rate_arb\n10.1\n", "y/metrics.txt": "fwhm=24\n"})
    assert tree_diff.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # im_S moves by 0.1 of its column maximum 2, rate_arb by 0.1 of 10
    assert lines[-1] == (
        "SUMMARY same=1 differ=2 only=0 largest_csv_change=5.000e-02 x/spectrum.csv im_S"
    )
    assert [line for line in lines if line.startswith("SUMMARY")] == lines[-1:]
    assert tree_diff.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "SUMMARY same=3 differ=0 only=0 largest_csv_change=none"
    )
    assert tree_diff.main([str(a)]) == 2
