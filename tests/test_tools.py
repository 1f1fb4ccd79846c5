import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TOOLS = _ROOT / "tools"

# Bindings that perfbench/tracer.py still names though their functions were
# deleted or moved; the tracer records them as absent. Every other binding
# must resolve, so a change that deletes or moves a traced function fails here.
_DEAD_TRACER_BINDINGS = {
    "mfachest.mfa.factorize",
    "mfachest.estimator.factorize",
    "mfachest.gaussians.woodbury_inverse",
    "mfachest.estimator.woodbury_inverse",
    "mfachest.estimator.build_filter_bank",
    "mfachest.estimator.estimate_with_bank",
    "mfachest.baselines.sample_lmmse_estimate",
}


def _load(name, folder=_TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs, as dataclasses need, with its folder first on
    # the path, as when it runs as a script; no bytecode cache is left beside
    # the loaded file or the siblings it imports.
    with patch.dict(sys.modules, {name: module}), patch.object(sys, "dont_write_bytecode", True), \
            patch.object(sys, "path", [str(folder), *sys.path]):
        spec.loader.exec_module(module)
    return module


src_lines = _load("src_lines")
bench_pairs = _load("bench_pairs")

_SOURCE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os  # a trailing comment keeps the line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_all_lines_and_code_lines():
    # Code: import, class, def, the two-line string, the two-line return.
    assert src_lines.count(_SOURCE) == (len(_SOURCE.splitlines()), 7)


def test_main_prints_both_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{len(_SOURCE.splitlines()) + 2} 8\n"


def test_main_rejects_a_directory_without_modules(tmp_path, capsys):
    assert src_lines.main([str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err


def _result(run_s, rss, correct=True, attempted=1, failed=0):
    """A canned perfbench result line."""
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "run_s": {"value": run_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_parse_result_takes_the_last_line():
    stdout = '{"details": {"workload": "fit-k64"}}\n' + json.dumps(_result(1.5, 130.0)) + "\n\n"
    assert bench_pairs.parse_result(stdout) == _result(1.5, 130.0)
    with pytest.raises(ValueError, match="no result line"):
        bench_pairs.parse_result("\n")


def test_summarize_reports_medians_ratios_and_wins():
    base = [_result(2.0, 100.0), _result(1.0, 100.0), _result(1.5, 100.0)]
    new = [_result(1.0, 110.0), _result(1.5, 90.0), _result(1.2, 100.0)]
    lines = bench_pairs.summarize(base, new, {"run_s": "lower"})
    assert lines == [
        "correct: base 3/3, new 3/3; failed: base 0/3, new 0/3",
        "run_s: base 1.5 [1.25, 1.75] new 1.2 [1.1, 1.35] ratio 0.8000 "
        "pairs [0.500 1.500 0.800] better in 2/3",
        "peak_rss_mb: base 100 [100, 100] new 100 [95, 105] ratio 1.0000 "
        "pairs [1.100 0.900 1.000]",
    ]


def test_summarize_marks_a_gain():
    # Better in every pair, and the medians 0.5 apart against a base spread of 0.2.
    base = [_result(value, 100.0) for value in (1.8, 2.0, 2.2, 1.9, 2.1)]
    new = [_result(value - 0.5, 100.0) for value in (1.8, 2.0, 2.2, 1.9, 2.1)]
    assert bench_pairs.summarize(base, new, {"run_s": "lower"})[1].endswith("better in 5/5 gain")
    # Better in every pair, but by less than the base runs' spread.
    new = [_result(value - 0.1, 100.0) for value in (1.8, 2.0, 2.2, 1.9, 2.1)]
    assert bench_pairs.summarize(base, new, {"run_s": "lower"})[1].endswith("better in 5/5")


@pytest.mark.parametrize(
    "better, base_value, new_value, verdict",
    [
        ("lower", 2.0, 2.4, "within"),  # 20 % slower against a 25 % bound
        ("lower", 2.0, 2.6, "worse than"),
        ("lower", 2.0, 1.0, "within"),  # better is never beyond the bound
        ("higher", 100.0, 80.0, "within"),
        ("higher", 100.0, 70.0, "worse than"),
        ("lower", -14.0, -10.0, "worse than"),  # dB: the bound is relative to |base|
        ("lower", -14.0, -13.0, "within"),
    ],
)
def test_summarize_checks_the_bound(better, base_value, new_value, verdict):
    base = [_result(base_value, 100.0)] * 3
    new = [_result(new_value, 100.0)] * 3
    lines = bench_pairs.summarize(base, new, {"run_s": better}, {"run_s": 0.25})
    assert lines[1].endswith(f" {verdict} bound 0.25")
    # A metric without a bound gets no verdict.
    assert "bound" not in lines[2]


def test_main_reads_the_bound_from_the_base_checkout(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    for checkout, bound in ((base, 0.1), (new, 0.5)):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower", "bound": bound},
            {"name": "peak_rss_mb", "better": "lower"},
        ]}))

    def fake_run(checkout, workload, seed, seconds):
        return _result(1.0 if checkout == base else 1.2, 100.0)

    assert bench_pairs.main([str(base), str(new), "--workload", "w", "--pairs", "2"],
                            run=fake_run) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("better in 0/2 worse than bound 0.1")
    assert out[2].endswith("better in 0/2")


def test_main_alternates_the_order_of_each_pair(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "run_s", "better": "lower"}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return _result(1.0 if checkout == base else 0.5, 100.0)

    argv = [str(base), str(new), "--workload", "fit-k64", "--pairs", "3", "--seconds", "2"]
    assert bench_pairs.main(argv, run=fake_run) == 0
    assert [c[0] for c in calls] == ["base", "new", "new", "base", "base", "new"]
    assert {c[1:] for c in calls} == {("fit-k64", 7, 2.0)}
    assert "better in 3/3" in capsys.readouterr().out


def test_main_runs_ten_pairs_by_default(tmp_path, capsys):
    # Ten pairs is the fewest that the claim rule (better in nine tenths) accepts.
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "run_s", "better": "lower"}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(workload)
        return _result(1.0, 100.0)

    argv = [str(base), str(new), "--workload", "fit-k64", "--workload", "paper-sweep"]
    assert bench_pairs.main(argv, run=fake_run) == 0
    assert calls == ["fit-k64"] * 20 + ["paper-sweep"] * 20
    assert "better in 0/10" in capsys.readouterr().out


def test_main_fails_on_an_incorrect_run(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"

    def fake_run(checkout, workload, seed, seconds):
        return _result(1.0, 100.0, correct=checkout == base)

    assert bench_pairs.main([str(base), str(new), "--workload", "w", "--pairs", "1"],
                            run=fake_run) == 1
    assert "new 0/1" in capsys.readouterr().out


def test_main_reports_failed_operations_per_side(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"

    def fake_run(checkout, workload, seed, seconds):
        # The new checkout fails one of five operations in its second run only.
        failed = int(checkout == new and len(runs[checkout]) == 1)
        runs[checkout].append(failed)
        return _result(1.0, 100.0, correct=not failed, attempted=5, failed=failed)

    runs = {base: [], new: []}
    assert bench_pairs.main([str(base), str(new), "--workload", "w", "--pairs", "3"],
                            run=fake_run) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "w: correct: base 3/3, new 2/3; failed: base 0/15, new 1/15")


def test_main_runs_each_workload_in_its_own_block(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "run_s", "better": "lower"}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        # Only the second workload's new checkout reads incorrect.
        correct = checkout == base or workload == "fit-k64"
        return _result(1.0 if workload == "fit-k64" else 2.0, 100.0, correct=correct)

    argv = [str(base), str(new), "--workload", "fit-k64", "--workload", "paper-sweep",
            "--pairs", "2"]
    assert bench_pairs.main(argv, run=fake_run) == 1
    assert calls == [("base", "fit-k64"), ("new", "fit-k64"), ("new", "fit-k64"),
                     ("base", "fit-k64"), ("base", "paper-sweep"), ("new", "paper-sweep"),
                     ("new", "paper-sweep"), ("base", "paper-sweep")]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fit-k64: correct: base 2/2, new 2/2; failed: base 0/2, new 0/2"
    assert out[1].startswith("run_s: base 1 ")
    assert out[3] == "paper-sweep: correct: base 2/2, new 0/2; failed: base 0/2, new 0/2"
    assert out[4].startswith("run_s: base 2 ")
    assert len(out) == 6


def test_main_prints_each_checkouts_source_lines(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    (base / "src" / "mfachest").mkdir(parents=True)
    (base / "src" / "mfachest" / "a.py").write_text(_SOURCE)
    (new / "src" / "mfachest" / "sub").mkdir(parents=True)
    (new / "src" / "mfachest" / "sub" / "b.py").write_text("x = 1\n\n")

    def fake_run(checkout, workload, seed, seconds):
        return _result(1.0, 100.0)

    assert bench_pairs.main([str(base), str(new), "--workload", "w", "--pairs", "1"],
                            run=fake_run) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"src/mfachest lines (all / code): base {len(_SOURCE.splitlines())} / 7, new 2 / 1"
    assert out[1].startswith("w: correct: base 1/1")


def test_main_prints_no_count_for_a_checkout_without_the_package(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    (new / "src" / "mfachest").mkdir(parents=True)
    (new / "src" / "mfachest" / "b.py").write_text("x = 1\n\n")
    base.mkdir()

    def fake_run(checkout, workload, seed, seconds):
        return _result(1.0, 100.0)

    assert bench_pairs.main([str(base), str(new), "--workload", "w", "--pairs", "1"],
                            run=fake_run) == 0
    assert capsys.readouterr().out.splitlines()[0] == "src/mfachest lines (all / code): new 2 / 1"
    # Neither checkout has the package: no line.
    assert bench_pairs.source_lines(base, tmp_path / "missing") is None


def test_tracer_bindings_resolve():
    unresolved = set()
    for _, bindings, _, _ in _load("tracer", _ROOT / "perfbench").TARGETS:
        for dotted in bindings:
            module_name, attr = dotted.rsplit(".", 1)
            if not callable(getattr(importlib.import_module(module_name), attr, None)):
                unresolved.add(dotted)
    assert unresolved <= _DEAD_TRACER_BINDINGS


def test_chunk_budgets_are_the_two_of_gaussians():
    # Every chunked pass sizes its chunks with gaussians.row_chunks under one of
    # two byte budgets; a module-level budget of its own fails here.
    budgets = set()
    for path in sorted((_ROOT / "src" / "mfachest").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                name = getattr(target, "id", "")
                if name.endswith(("_BUDGET", "_BYTES")):
                    budgets.add(f"{path.stem}.{name}")
    assert budgets == {"gaussians._CHUNK_BYTES", "gaussians._FILL_BYTES"}
