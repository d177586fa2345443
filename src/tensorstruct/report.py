"""Structured pass/fail reports shared by all validators and the CLI.

``Report.to_json`` writes the ``--json`` report in one pass, and its layout
is the contract, byte for byte.  Top-level keys are ``command``,
``entries``, ``exit_status``, ``inputs_digest``, ``notes``, ``passed``;
entry keys are ``location``, ``name``, ``passed``, ``residual``; the indent
is two spaces and an empty list is ``[]``.  Strings are ASCII-escaped as
``json`` escapes them, and finite residuals are written by ``float.__repr__``,
so re-parsing gives back every residual exactly.  For finite residuals these
are the bytes ``json.dumps(..., indent=2, sort_keys=True)`` writes for the
same report.  A non-finite residual is written as the JSON string
``"Infinity"``, ``"-Infinity"`` or ``"NaN"``, which ``float()`` reads back,
so the output is strict JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string

_ENTRY = ('    {\n      "location": %s,\n      "name": %s,\n'
          '      "passed": %s,\n      "residual": %s\n    }')


def _number(value):
    """A residual as a JSON value: its repr when finite, else a string."""
    value = float(value)
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return '"NaN"'
    return '"Infinity"' if value > 0 else '"-Infinity"'


def _array(items):
    """A JSON array of already-encoded items at the second indent level."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


@dataclass
class CheckEntry:
    """One verified condition: a name, a measured residual, a verdict."""

    name: str
    passed: bool
    residual: float
    location: str = ""


@dataclass
class Report:
    """An ordered list of check entries plus optional provenance.

    ``command`` and ``digest`` are filled in by the CLI; library callers
    usually leave them empty and only look at ``passed`` / ``entries``.
    """

    command: str = ""
    digest: str = ""
    entries: list[CheckEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name, passed, residual, location=""):
        entry = CheckEntry(name, bool(passed), float(residual), location)
        self.entries.append(entry)
        return entry

    def note(self, text):
        self.notes.append(text)

    def extend(self, other: "Report", prefix=""):
        for entry in other.entries:
            name = f"{prefix}{entry.name}" if prefix else entry.name
            self.entries.append(CheckEntry(name, entry.passed, entry.residual, entry.location))
        self.notes.extend(other.notes)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def worst_residual(self) -> float:
        """The largest residual, 0.0 for none; a NaN residual is the worst."""
        residuals = [entry.residual for entry in self.entries]
        if any(math.isnan(r) for r in residuals):
            return math.nan
        return max(residuals, default=0.0)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def failures(self):
        return [entry for entry in self.entries if not entry.passed]

    def to_json(self):
        """The ``--json`` report (no trailing newline); see the module
        docstring for the layout."""
        entries = [_ENTRY % (_string(e.location), _string(e.name),
                             "true" if e.passed else "false", _number(e.residual))
                   for e in self.entries]
        status = self.exit_status
        return ("{\n"
                f'  "command": {_string(self.command)},\n'
                f'  "entries": {_array(entries)},\n'
                f'  "exit_status": {status},\n'
                f'  "inputs_digest": {_string(self.digest)},\n'
                f'  "notes": {_array(["    " + _string(n) for n in self.notes])},\n'
                f'  "passed": {"false" if status else "true"}\n'
                "}")
