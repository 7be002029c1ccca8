import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_outputs.py"
spec = importlib.util.spec_from_file_location("check_outputs", SCRIPT)
check_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_outputs)


def _write(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_classifies_each_differing_file(tmp_path):
    log = "frame,s_eff,true_error\n0,2-2,0.25\n1,2-2,0.5\n"
    summary = "scenario = demo\nmean_error = 0.375\n"
    ref = _write(
        tmp_path / "ref",
        {"a/run_log.csv": log, "a/summary.txt": summary, "same.txt": "x\n", "gone.txt": "1\n"},
    )
    out = _write(
        tmp_path / "out",
        {
            # Two numeric cells move, by 1.1e-15 and 4.4e-16 relative.
            "a/run_log.csv": log.replace("0.25", "0.2500000000000003").replace(
                "0.5\n", "0.5000000000000002\n"
            ),
            # A configuration string and a number change.
            "a/summary.txt": summary.replace("demo", "mini").replace("0.375", "0.5"),
            "same.txt": "x\n",
            "new.txt": "1\n",
        },
    )
    problems = check_outputs.compare(out, ref)
    assert len(problems) == 4
    assert problems[0].startswith(
        "a/run_log.csv: 2 cells differ (all numbers), worst relative difference 1.1e-15; line 2: "
    )
    assert problems[1].startswith(
        "a/summary.txt: 2 cells differ (some not numbers), worst relative difference 0.25; line 1: "
    )
    assert problems[2] == f"gone.txt: only in {ref}"
    assert problems[3] == f"new.txt: only in {out}"
    assert check_outputs.compare(ref, ref) == []


def test_cell_differences_counts_cells_present_on_one_side():
    assert check_outputs.cell_differences(b"1,2\n", b"1,2\n3\n") == (
        "1 cells differ (some not numbers), worst relative difference 0"
    )
    assert check_outputs.cell_differences(b"1,2\n", b"1,2,3\n") == (
        "1 cells differ (some not numbers), worst relative difference 0"
    )
