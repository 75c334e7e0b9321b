"""Process settings: every ``REPRO_*`` environment variable, in one table.

Each field of :class:`Settings` is one variable, with its type, default
and allowed values.  The environment is parsed lazily, once per process
on the first :func:`get`, into a frozen :class:`Settings`;
:func:`reload` re-reads it (tests, long-lived tools).  One vocabulary
per type:

* booleans accept ``1/true/on/yes`` and ``0/false/off/no`` (any case);
* integers must parse;
* an unset or blank variable takes its default.

Anything else raises :class:`~repro.errors.ConfigError` naming the
variable, so a typo fails at first use instead of silently falling
back.  So does any ``REPRO_*`` variable that is not in the table (a
misspelt name, or one the program no longer reads), whatever its
value.  ``REPRO_FAULT_PROFILE`` is kept as text here; its grammar lives
in :func:`repro.resilience.faults.parse_profile`.

``python -m repro.settings`` prints every variable with its resolved
value and whether it came from the environment or the default, and
exits 2 with the error message on a malformed value or unknown name.
"""

from __future__ import annotations

import difflib
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import ConfigError

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


@dataclass(frozen=True)
class Var:
    """One row of the settings table."""

    env: str
    #: ``bool`` / ``int`` / ``text``
    kind: str

    def parse(self, raw: str) -> Any:
        """The typed value of a non-blank raw string (``ConfigError`` if bad)."""
        text = raw.strip()
        if self.kind == "text":
            return text
        if self.kind == "bool":
            if text.lower() in _TRUE:
                return True
            if text.lower() in _FALSE:
                return False
            raise ConfigError(
                f"{self.env} must be one of {'/'.join(_TRUE)} or "
                f"{'/'.join(_FALSE)}, got {raw!r}"
            )
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{self.env} must be an integer, got {raw!r}") from None


def _var(env: str, kind: str, default: Any) -> Any:
    return field(default=default, metadata={"var": Var(env, kind)})


@dataclass(frozen=True)
class Settings:
    """The resolved value of every ``REPRO_*`` variable."""

    #: observability kill switch: off = spans and events are no-ops
    obs: bool = _var("REPRO_OBS", "bool", True)
    #: fault injection: chaos, storm, none or ``site=rate,...`` pairs
    fault_profile: str | None = _var("REPRO_FAULT_PROFILE", "text", None)
    #: fault schedule seed (unset: 0, or 1337 in the chaos scripts)
    fault_seed: int | None = _var("REPRO_FAULT_SEED", "int", None)


#: (field name, row) for every variable, in declaration order
TABLE: tuple[tuple[str, Var], ...] = tuple(
    (f.name, f.metadata["var"]) for f in fields(Settings)
)


def names() -> list[str]:
    """Every ``REPRO_*`` variable the program reads."""
    return [var.env for _, var in TABLE]


def _raw(var: Var) -> str | None:
    raw = os.environ.get(var.env)
    return None if raw is None or raw.strip() == "" else raw


def _check_names() -> None:
    """``ConfigError`` naming the first set ``REPRO_*`` variable not in the table."""
    known = names()
    for env in sorted(os.environ):
        if env.startswith("REPRO_") and env not in known:
            close = difflib.get_close_matches(env, known, n=1)
            hint = f"; did you mean {close[0]}?" if close else ""
            raise ConfigError(f"{env} is not a repro setting{hint}")


def _load() -> Settings:
    _check_names()
    values = {}
    for name, var in TABLE:
        raw = _raw(var)
        if raw is not None:
            values[name] = var.parse(raw)
    return Settings(**values)


_current: Settings | None = None


def get() -> Settings:
    """The process settings, parsed from the environment on first use."""
    return _current if _current is not None else reload()


def reload() -> Settings:
    """Re-read the environment; the previous settings stay on error."""
    global _current
    _current = _load()
    return _current


def describe() -> list[tuple[str, Any, str]]:
    """``(variable, resolved value, "env" | "default")`` for every row."""
    resolved = _load()
    return [
        (var.env, getattr(resolved, name), "default" if _raw(var) is None else "env")
        for name, var in TABLE
    ]


def _show(value: Any) -> str:
    if value is None:
        return "(unset)"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def main() -> int:
    try:
        rows = describe()
    except ConfigError as e:
        print(f"repro.settings: {e}", file=sys.stderr)
        return 2
    width = max(len(env) for env, _, _ in rows)
    for env, value, source in rows:
        print(f"{env:<{width}}  {_show(value):<12}  {source}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
