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
    ]
    assert tree_diff.main([str(a), str(a)]) == 0
