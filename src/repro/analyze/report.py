"""Text and JSON reporters for analyzer results."""

from __future__ import annotations

import json
import os
from typing import TextIO

from repro.analyze.rules import REGISTRY


def _rel(path: str) -> str:
    return os.path.relpath(path).replace(os.sep, "/")


def render_sites(result, out: TextIO) -> None:
    """One line per classified finish site."""
    for c in result.sites:
        ann = ""
        if c.dynamic:
            ann = " [annotated: dynamic]"
        elif c.annotation is not None:
            ann = f" [annotated: {c.annotation.value}]"
        conf = "" if c.confident else " (low confidence)"
        out.write(
            f"{_rel(c.path)}:{c.lineno}: {c.qualname}: "
            f"suggests {c.suggestion.value}{conf} -- {c.reason}{ann}\n"
        )


def render_text(result, out: TextIO, show_sites: bool = False) -> None:
    if show_sites:
        render_sites(result, out)
        if result.sites:
            out.write("\n")
    for f in result.findings:
        info = REGISTRY.get(f.rule)
        name = f" [{info.name}]" if info else ""
        out.write(
            f"{_rel(f.path)}:{f.lineno}: {f.rule} {f.severity.label}: "
            f"{f.message}{name}\n"
        )
    out.write(
        f"{len(result.sites)} finish site(s) analyzed, "
        f"{len(result.findings)} finding(s)\n"
    )
    if not result.findings:
        out.write("analyze: clean\n")


def render_json(result) -> dict:
    return {
        "files": sorted(_rel(m.path) for m in result.program.modules),
        "sites": [
            {
                "path": _rel(c.path),
                "line": c.lineno,
                "function": c.qualname,
                "suggestion": c.suggestion.value,
                "reason": c.reason,
                "confident": c.confident,
                "annotation": None
                if c.annotation is None
                else c.annotation.value,
                "dynamic": c.dynamic,
            }
            for c in result.sites
        ],
        "findings": [f.to_dict() for f in result.findings],
    }


def write_json(result, out: TextIO) -> None:
    json.dump(render_json(result), out, indent=2, sort_keys=True)
    out.write("\n")
