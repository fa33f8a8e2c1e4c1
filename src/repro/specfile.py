"""Reading TOML/JSON spec files: campaigns and serving scenarios.

Both loaders accept a file whose format follows its suffix (``.toml`` /
``.json``); any other suffix is tried as TOML first, then JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


def load_spec_file(
    path: Path,
    build: Callable[[dict], T],
    error: type[ValueError],
    fail: Callable[[str], ValueError],
) -> T:
    """Parse the file at *path* and return ``build(data)``.

    *build* validates the parsed document.  An *error* it raises
    propagates unchanged; any other ``ValueError`` counts as a failed
    parse, so a suffixless file falls through to the next format.  An
    unreadable or unparsable file raises ``fail(message)``.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise fail(f"cannot read {path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".json":
        parsers = (_parse_json,)
    elif suffix == ".toml":
        parsers = (_parse_toml,)
    else:
        parsers = (_parse_toml, _parse_json)
    errors = []
    for parse in parsers:
        try:
            return build(parse(text))
        except error:
            raise
        except ValueError as exc:
            errors.append(str(exc))
    raise fail(f"cannot parse {path}: {'; '.join(errors)}")


def _parse_toml(text: str) -> dict:
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValueError(f"TOML: {exc}") from exc


def _parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"JSON: {exc}") from exc
