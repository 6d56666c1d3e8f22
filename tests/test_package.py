"""The package's import surface: exported names, and what a scan job loads."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nonresidues

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter on the source tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scan_job_leaves_lemmas_and_cli_unimported(tmp_path):
    out = run_fresh(f"""
        import json
        import sys
        from nonresidues import OrderPolicy, ScanTask, run_scan

        task = ScanTask.make(10**7, 10**7 + 2000, policy=OrderPolicy.divisors_up_to(6),
                             n_max=2, shard_width=500)
        summary = run_scan(task, out_path={str(tmp_path / "records.jsonl")!r},
                           checkpoint_path={str(tmp_path / "ckpt.json")!r})
        assert summary.aggregate.records > 0 and not summary.aggregate.violations
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("nonresidues."))))
    """)
    loaded = json.loads(out)
    assert "nonresidues.scan" in loaded
    assert "nonresidues.lemmas" not in loaded and "nonresidues.cli" not in loaded


def test_cli_scan_leaves_lemmas_unimported(tmp_path):
    out = run_fresh(f"""
        import sys
        from nonresidues import cli

        code = cli.main(["scan", "--p-lo", "1e7", "--p-hi", "1.0002e7", "--orders", "upto:6",
                         "--n-max", "2", "--out", {str(tmp_path / "records.jsonl")!r},
                         "--summary", {str(tmp_path / "summary.json")!r}])
        print(code, "nonresidues.lemmas" in sys.modules)
    """)
    assert out.split() == ["0", "False"]
    assert json.loads((tmp_path / "summary.json").read_text())["records"] > 0


def test_every_exported_name_resolves():
    from nonresidues import lemmas as lm

    namespace = {}
    exec("from nonresidues import *", namespace)
    for name in nonresidues.__all__:
        value = getattr(nonresidues, name)
        assert namespace[name] is value, name
        if name in lm.__all__:
            assert value is getattr(lm, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nonresidues.no_such_name
    # each module's own exports too, so that a rename cannot leave a stale one
    for module in ("bounds", "characters", "lemmas", "scan"):
        namespace = {}
        exec(f"from nonresidues.{module} import *", namespace)
        mod = getattr(nonresidues, module)
        assert mod.__all__ and all(namespace[name] is getattr(mod, name)
                                   for name in mod.__all__), module


def test_lemmas_load_on_first_use():
    out = run_fresh("""
        import sys
        import nonresidues
        print("nonresidues.lemmas" in sys.modules)
        from nonresidues import check_totient_inequality
        print(check_totient_inequality(2).passed,
              nonresidues.lemmas.SumStats is nonresidues.SumStats)
    """)
    assert out.split() == ["False", "True", "True"]
