"""repro.settings: one table, one vocabulary, one place that reads the env."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs, settings
from repro.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name,value",
    [
        ("REPRO_OBS", "flase"),
        # names not in the table fail whatever their value: a misspelt
        # name, and variables the program no longer reads
        ("REPRO_PLAN_CAHCE", "off"),
        ("REPRO_VALIDATE", "paranoid"),
        ("REPRO_EXEC_WORKERS", "two"),
        ("REPRO_EXEC_WORKERS", "-2"),
        ("REPRO_EXEC_WORKERS", "4"),
        ("REPRO_TUNE", "learned"),
        ("REPRO_TUNE_MODEL", "m.npz"),
        ("REPRO_SERVE_BATCHING", "flase"),
        # a stale serve variable fails even with a well-formed value:
        # only the ServeConfig constructor configures the service
        ("REPRO_SERVE_MAX_BATCH", "8"),
        ("REPRO_SERVE_MAX_BATCH", "lots"),
        ("REPRO_SERVE_DEFAULT_PRIORITY", "urgent"),
        ("REPRO_FAULT_SEED", "abc"),
    ],
)
def test_malformed_value_raises_naming_the_variable(repro_env, name, value):
    with pytest.raises(ConfigError, match=name):
        repro_env(**{name: value})


@pytest.mark.parametrize("value", ["0", "false", "off", "no", "NO", " Off "])
def test_every_false_spelling_disables_obs(repro_env, value):
    repro_env(REPRO_OBS=value)
    obs.set_obs_enabled(None)
    try:
        assert not obs.obs_enabled()
    finally:
        repro_env(REPRO_OBS=None)
        obs.set_obs_enabled(None)
    assert obs.obs_enabled()


def test_blank_means_default_and_settings_are_cached(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "  ")
    assert settings.reload().fault_seed is None
    monkeypatch.setenv("REPRO_FAULT_SEED", "8")
    assert settings.get().fault_seed is None  # parsed once ...
    assert settings.reload().fault_seed == 8  # ... until reloaded


def test_failed_reload_keeps_the_previous_settings(monkeypatch):
    before = settings.reload()
    monkeypatch.setenv("REPRO_FAULT_SEED", "two")
    with pytest.raises(ConfigError):
        settings.reload()
    assert settings.get() is before


def test_cli_prints_every_variable_and_rejects_bad_values():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_FAULT_SEED="3")
    run = [sys.executable, "-m", "repro.settings"]
    out = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [row[0] for row in rows] == settings.names()
    assert ["REPRO_FAULT_SEED", "3", "env"] in rows
    assert ["REPRO_OBS", "true", "default"] in rows

    env["REPRO_FAULT_SEED"] = "abc"
    out = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "REPRO_FAULT_SEED must be an integer" in out.stderr

    env["REPRO_FAULT_SEED"] = "3"
    env["REPRO_SERVE_MAX_BATCH"] = "8"
    out = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "REPRO_SERVE_MAX_BATCH is not a repro setting" in out.stderr

    del env["REPRO_FAULT_SEED"], env["REPRO_SERVE_MAX_BATCH"]
    env["REPRO_FAULT_SEDE"] = "3"
    out = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "REPRO_FAULT_SEDE is not a repro setting" in out.stderr
    assert "did you mean REPRO_FAULT_SEED?" in out.stderr


@pytest.mark.parametrize("script", ["chaos_check.py", "chaos_serve.py"])
def test_chaos_scripts_reject_a_junk_seed_by_name(script):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_FAULT_SEED="abc")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert "REPRO_FAULT_SEED must be an integer, got 'abc'" in out.stderr
    assert "Traceback" not in out.stderr


def _env_key_text(node: ast.AST, consts: dict[str, str]) -> str:
    """Best-effort text of an environment key expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id, "")
    if isinstance(node, ast.BinOp):
        return _env_key_text(node.left, consts) + _env_key_text(node.right, consts)
    if isinstance(node, ast.JoinedStr):
        return "".join(_env_key_text(v, consts) for v in node.values)
    if isinstance(node, ast.FormattedValue):
        return _env_key_text(node.value, consts)
    return ""


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def repro_env_reads(source: str) -> list[int]:
    """Lines reading ``os.environ``/``getenv`` by a ``REPRO_*`` or computed key.

    A key that is neither a literal nor a module string constant (a
    helper's ``name`` parameter, say) counts too: that is how private
    ``_env_*`` helpers read their variables.
    """
    tree = ast.parse(source)
    consts = {
        target.id: node.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        keys: list[ast.AST] = []
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute):
                is_read = func.attr == "getenv" or (
                    func.attr == "get" and _is_environ(func.value))
            else:
                is_read = getattr(func, "id", "") == "getenv"
            if is_read:
                keys.append(node.args[0])
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _is_environ(node.value):
                keys.append(node.slice)
        elif isinstance(node, ast.Compare) and any(map(_is_environ, node.comparators)):
            keys.append(node.left)
        for key in keys:
            text = _env_key_text(key, consts)
            if text == "" or "REPRO_" in text:
                lines.append(node.lineno)
    return lines


def test_env_read_detector_catches_every_spelling():
    source = (
        "import os\n"
        "_P = 'REPRO_SERVE_'\n"
        "_N = 'REPRO_OBS'\n"
        "a = os.environ.get('REPRO_VALIDATE')\n"
        "b = os.environ[_N]\n"
        "c = os.getenv(_P + 'MAX_BATCH')\n"
        "d = 'REPRO_X' in os.environ\n"
        "e = os.environ.get(f'{_P}RETRIES')\n"
        "f = os.environ.get('HOME')\n"
        "def g(name):\n"
        "    return os.environ.get(name)\n"
    )
    assert repro_env_reads(source) == [4, 5, 6, 7, 8, 11]


def test_only_settings_reads_repro_variables_from_the_environment():
    allowed = ROOT / "src" / "repro" / "settings.py"
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != allowed
        for line in repro_env_reads(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_readme_env_table_matches_the_settings_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\|\s*`(REPRO_\w+)`", readme, flags=re.MULTILINE)
    assert sorted(listed) == sorted(settings.names())
