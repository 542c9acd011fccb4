#!/usr/bin/env python
"""Generate docs/api.md — a compact API reference from docstrings.

Walks the installed ``repro`` package and emits, per module, the public
classes (with public methods) and functions with their signatures and
first docstring paragraph.  Run after API changes:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

OUT = Path(__file__).parent.parent / "docs" / "api.md"


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def document_module(module) -> list[str]:
    lines: list[str] = []
    members = [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
        # unwrap: a memoised function (functools.lru_cache) is one too
        and (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)))
    ]
    if not members:
        return lines
    lines.append(f"## `{module.__name__}`")
    lines.append("")
    lines.append(first_paragraph(module))
    lines.append("")
    for name, obj in members:
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj))
            lines.append("")
            for mname, member in vars(obj).items():
                if mname.startswith("_") or not inspect.isfunction(member):
                    continue
                lines.append(
                    f"- `{mname}{signature_of(member)}` — {first_paragraph(member)}"
                )
            lines.append("")
        else:
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj))
            lines.append("")
    return lines


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated from docstrings by `scripts/gen_api_docs.py`; regenerate",
        "after API changes.  Module docstrings carry the design discussion —",
        "this file is the signature index.",
        "",
    ]
    for module in walk_modules():
        lines.extend(document_module(module))
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
