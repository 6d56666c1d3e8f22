"""The package's import surface: exported names, and what a scan job loads."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
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


# Module-level functions of the package that nothing in it calls, as
# "<module>.<name>", each with the reason it stays.
UNCALLED_HELPERS = {
    "primes.euler_phi": "the tests' reference for totient_sieve",
    "cli.schema_path": "the tests' locator for the JSON schemas",
    "__init__.__getattr__": "the PEP 562 hook that loads exports lazily",
}


def _named(node):
    """Every identifier that node names: variables, attributes, imported
    names, and string constants such as the entries of __all__."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_module_level_helpers_have_a_caller():
    # a helper that only its own def names is dead code; the allowlist must
    # name uncalled helpers only, so that it cannot go stale
    trees = {path.stem: ast.parse(path.read_text())
             for path in (SRC / "nonresidues").glob("*.py")}
    named = Counter(name for tree in trees.values() for name in _named(tree))
    uncalled = {f"{module}.{node.name}" for module, tree in trees.items()
                for node in tree.body if isinstance(node, ast.FunctionDef)
                and named[node.name] == Counter(_named(node))[node.name]}
    assert uncalled == set(UNCALLED_HELPERS)
