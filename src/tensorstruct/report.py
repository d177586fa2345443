"""Structured pass/fail reports shared by all validators and the CLI.

A report is an ordered list of blocks.  A block holds the entries of one
check that share a name: a ``%``-format template such as
``composition[%d,%d,%d]``, one tuple of integer indices per entry (the
entry's name is ``template % index``), the verdicts, the residuals and one
location for all of them.  The tower checks fill one block per law from a
list of residuals; ``Report.add`` appends a one-entry block whose template
is its name with every ``%`` doubled, so the name comes out verbatim.
``Report.extend`` shares the other report's blocks and only prefixes their
templates.  Names are formatted only where entries are written out:
``Report.to_json`` builds one pre-escaped entry format per block, and
``entries``, which the CLI's text output and library callers read, is a
read-only tuple of ``CheckEntry`` built from the blocks on each access.

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
    """An ordered list of check entries, held as blocks, plus optional
    provenance.

    Each block is a tuple ``(template, indices, passed, residuals,
    location)``: entry k of the block is named ``template % indices[k]``
    and has verdict ``passed[k]`` and residual ``residuals[k]``.
    ``command`` and ``digest`` are filled in by the CLI; library callers
    usually leave them empty and only look at ``passed`` / ``entries``.
    """

    command: str = ""
    digest: str = ""
    blocks: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name, passed, residual, location=""):
        """Append one entry: a block with the one, empty, index tuple."""
        self.blocks.append((name.replace("%", "%%"), ((),), [bool(passed)],
                            [float(residual)], location))

    def block(self, template, indices, passed, residuals):
        """Append one entry per index tuple, named ``template % index``;
        ``passed`` and ``residuals`` are bool and float arrays in the same
        order."""
        self.blocks.append((template, indices, passed.tolist(), residuals.tolist(), ""))

    def note(self, text):
        self.notes.append(text)

    def extend(self, other: "Report", prefix=""):
        prefix = prefix.replace("%", "%%")
        self.blocks.extend((prefix + template, *rest) for template, *rest in other.blocks)
        self.notes.extend(other.notes)

    @property
    def entries(self) -> tuple[CheckEntry, ...]:
        """Every entry in order, built from the blocks on each access."""
        return tuple(CheckEntry(template % index, passed, residual, location)
                     for template, indices, verdicts, residuals, location in self.blocks
                     for index, passed, residual in zip(indices, verdicts, residuals))

    @property
    def passed(self) -> bool:
        return all(all(verdicts) for _, _, verdicts, _, _ in self.blocks)

    @property
    def worst_residual(self) -> float:
        """The largest residual, 0.0 for none; a NaN residual is the worst."""
        residuals = [r for _, _, _, rs, _ in self.blocks for r in rs]
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
        entries = []
        for template, indices, verdicts, residuals, location in self.blocks:
            if len(indices) == 1:  # as from ``add``: one format, no template
                entries.append(_ENTRY % (_string(location), _string(template % indices[0]),
                                         "true" if verdicts[0] else "false",
                                         _number(residuals[0])))
                continue
            # the name escaped as a template: escaping leaves every % alone,
            # and the integers formatted into it need no escaping
            entry = _ENTRY % (_string(location).replace("%", "%%"), _string(template),
                              "%s", "%s")
            entries += [entry % (*index, "true" if passed else "false", _number(residual))
                        for index, passed, residual in zip(indices, verdicts, residuals)]
        status = self.exit_status
        return ("{\n"
                f'  "command": {_string(self.command)},\n'
                f'  "entries": {_array(entries)},\n'
                f'  "exit_status": {status},\n'
                f'  "inputs_digest": {_string(self.digest)},\n'
                f'  "notes": {_array(["    " + _string(n) for n in self.notes])},\n'
                f'  "passed": {"false" if status else "true"}\n'
                "}")
