"""The obs hygiene lint (``tools/check_obs_hygiene.py``) on temporary trees:
unlisted timing, growth, shrinkage and stale allowlist entries all fail;
exact ceilings and the ``repro.obs`` package pass."""

import importlib.util
from pathlib import Path

import pytest

_LINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "check_obs_hygiene.py"


@pytest.fixture()
def lint(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_obs_hygiene", _LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ALLOWED", {"src/repro/timed.py": 2})
    return module


def _write(root: Path, rel: str, calls: int) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(f"t{i} = time.perf_counter()\n" for i in range(calls))
    path.write_text("import time\n" + body, encoding="utf-8")


def test_exact_ceiling_passes(lint, tmp_path, capsys):
    _write(tmp_path, "src/repro/timed.py", 2)
    _write(tmp_path, "src/repro/untimed.py", 0)
    assert lint.check(tmp_path) == 0
    assert "obs hygiene OK" in capsys.readouterr().out


def test_obs_package_is_exempt(lint, tmp_path):
    _write(tmp_path, "src/repro/timed.py", 2)
    _write(tmp_path, "src/repro/obs/trace.py", 5)
    assert lint.check(tmp_path) == 0


def test_unlisted_file_fails(lint, tmp_path, capsys):
    _write(tmp_path, "src/repro/timed.py", 2)
    _write(tmp_path, "src/repro/fresh.py", 1)
    assert lint.check(tmp_path) == 1
    assert "src/repro/fresh.py: 1 perf_counter call(s) in a file outside the " \
        "allowlist" in capsys.readouterr().err


def test_growth_fails(lint, tmp_path, capsys):
    _write(tmp_path, "src/repro/timed.py", 3)
    assert lint.check(tmp_path) == 1
    assert "perf_counter calls grew 2 -> 3" in capsys.readouterr().err


def test_shrink_fails(lint, tmp_path, capsys):
    _write(tmp_path, "src/repro/timed.py", 1)
    assert lint.check(tmp_path) == 1
    err = capsys.readouterr().err
    assert "perf_counter calls shrank 2 -> 1" in err
    assert "tighten ALLOWED" in err


@pytest.mark.parametrize("calls", [0, None])
def test_stale_entry_fails(lint, tmp_path, capsys, calls):
    if calls is not None:  # the file is still there, its timing is gone
        _write(tmp_path, "src/repro/timed.py", calls)
    (tmp_path / "src").mkdir(exist_ok=True)
    assert lint.check(tmp_path) == 1
    err = capsys.readouterr().err
    assert "src/repro/timed.py: allowlisted but has no perf_counter calls" in err
    assert "tighten ALLOWED" in err
