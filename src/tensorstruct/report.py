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
``to_json`` writes a block of several entries in chunks of ``_CHUNK``: the
entry format joined once per entry of the chunk, filled by one ``%`` from
one flat tuple of each entry's indices, verdict and number.  A block whose
residuals are all finite has its numbers written by ``float.__repr__``
alone; an empty block writes nothing.

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

One rule decides every measured entry: a report holds the ``Tolerance``
its check runs under (``tol``, ``DEFAULT_TOL`` unless given), and
``Report.measured(name, residual, scale)`` appends an entry that passes
when ``tol.accepts(residual, scale)``; with arrays of per-sample residuals
and scales, it passes when every sample is accepted and reads the worst
residual.  ``Report.measured_block`` decides a block element by element.
Discrete verdicts (a rank, a signature, a dimension) are added as they are,
by ``add``.  Only constructions that decide their own preconditions, and
public predicates such as ``bundle.in_isotropy``, call ``accepts`` outside
this module.

One rule picks the worst of a list of residuals, for every check that
reports one residual for many samples, grid points or trials: a NaN beats
every number, and among equals the first wins (``worst_index``, which is
``np.argmax``; ``last=True`` lets the last win instead).  ``worst`` gives
that residual, 0.0 for none, and ``Report.worst_residual`` applies it to
all entries.  ``location`` writes a sample point as an entry's location,
and ``worst_at`` gives the worst residual with its location.  Each check
keeps its own choice of location: grids and ``cocycle`` report the first
sample attaining the worst residual, and "" when it is 0; ``isotropy``
reports the last such sample, and ``modelled`` the last such failing
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance

_ENTRY = ('    {\n      "location": %s,\n      "name": %s,\n'
          '      "passed": %s,\n      "residual": %s\n    }')
# entries of a block written by one ``%`` format; over 40 rounds of the
# benchmark's towers workload in one process (tools/peak_rss.py, seed 11),
# one format per whole block raised the peak RSS from 57.0 to 59.9 MB
_CHUNK = 64
_VERDICT = ("false", "true")


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


def worst_index(residuals, last=False):
    """The index of the worst of ``residuals``, which must not be empty:
    the first NaN, else the first of the largest; the last of them when
    ``last``."""
    if last:
        return len(residuals) - 1 - int(np.argmax(np.asarray(residuals)[::-1]))
    return int(np.argmax(residuals))


def worst(residuals):
    """The worst of ``residuals`` by ``worst_index``, 0.0 for none."""
    return float(residuals[worst_index(residuals)]) if len(residuals) else 0.0


# numpy's default print options that ``_positional`` writes a row under
_DEFAULT_PRINT = {"floatmode": "maxprec", "suppress": False, "linewidth": 75, "sign": "-",
                  "formatter": None, "legacy": False}


def location(point):
    """A sample point as an entry's location: its coordinates to 3 digits,
    the text of ``np.array2string(point, precision=3)``.  Under numpy's
    default print options, a row of floats that it writes in positional
    notation on one line is written by ``_positional``; every other point,
    and every point under other options, by ``array2string``."""
    x = np.asarray(point)
    text = None
    if x.ndim == 1 and x.dtype == np.float64:
        options = np.get_printoptions()
        if {key: options[key] for key in _DEFAULT_PRINT} == _DEFAULT_PRINT:
            text = _positional(x.tolist())
    return text or np.array2string(x, precision=3)


def _positional(values):
    """The coordinates as ``array2string`` writes them when they are all
    finite, the largest nonzero magnitude is below 1e8, the smallest at
    least 1e-4 and their ratio at most 1e3, and the text fits in 75
    columns: each to at most 3 unique fractional digits, padded to the
    widest integer part and the widest fractional part.  None otherwise."""
    if not values or not all(map(math.isfinite, values)):
        return None
    magnitudes = [abs(v) for v in values if v]
    if magnitudes:
        top, low = max(magnitudes), min(magnitudes)
        if top >= 1e8 or low < 1e-4 or top / low > 1e3:
            return None
    parts = [np.format_float_positional(v, precision=3, unique=True, fractional=True,
                                        trim=".").split(".") for v in values]
    left = max(len(whole) for whole, _ in parts)
    right = max(len(fraction) for _, fraction in parts)
    text = "[" + " ".join(f"{whole:>{left}}.{fraction:<{right}}" for whole, fraction in parts) + "]"
    return text if len(text) <= 75 else None


def worst_at(residuals, points, last=False):
    """The worst residual and the location of the first of ``points`` that
    attains it, ``(0.0, "")`` when it is 0; with ``last``, the location of
    the last of them, 0 or not.  ``(0.0, "")`` for no residuals."""
    if not len(residuals):
        return 0.0, ""
    k = worst_index(residuals, last)
    if not (last or residuals[k]):
        return 0.0, ""
    return float(residuals[k]), location(points[k])


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
    provenance and the tolerance its measured entries are decided by.

    Each block is a tuple ``(template, indices, passed, residuals,
    location)``: entry k of the block is named ``template % indices[k]``
    and has verdict ``passed[k]`` and residual ``residuals[k]``.
    ``command`` and ``digest`` are filled in by the CLI; library callers
    usually leave them empty and only look at ``passed`` / ``entries``.
    ``tol`` decides every entry added by ``measured`` or ``measured_block``.
    """

    command: str = ""
    digest: str = ""
    blocks: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tol: Tolerance = DEFAULT_TOL

    def add(self, name, passed, residual, location=""):
        """Append one entry: a block with the one, empty, index tuple."""
        self.blocks.append((name.replace("%", "%%"), ((),), [bool(passed)],
                            [float(residual)], location))

    def block(self, template, indices, passed, residuals):
        """Append one entry per index tuple, named ``template % index``;
        ``passed`` and ``residuals`` are bool and float arrays in the same
        order."""
        self.blocks.append((template, indices, passed.tolist(), residuals.tolist(), ""))

    def measured(self, name, residual, scale=1.0, location=""):
        """Append one entry that passes when ``tol`` accepts ``residual`` at
        ``scale``.  Given arrays of per-sample residuals and scales, it
        passes when every sample is accepted and reads the worst residual."""
        passed = self.tol.accepts(residual, scale)
        if isinstance(passed, np.ndarray):
            passed, residual = passed.all(), worst(residual)
        self.add(name, passed, residual, location)

    def measured_block(self, template, indices, residuals, scales=1.0):
        """``block`` with each entry decided by ``tol`` at its scale:
        ``residuals`` is a float array and ``scales`` a number or an array
        in the same order."""
        self.block(template, indices, self.tol.accepts(residuals, scales), residuals)

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
        """The worst residual of all entries by ``worst``, 0.0 for none."""
        return worst([r for _, _, _, rs, _ in self.blocks for r in rs])

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
            if not indices:
                continue
            # the name escaped as a template: escaping leaves every % alone,
            # and the integers formatted into it need no escaping
            entry = _ENTRY % (_string(location).replace("%", "%%"), _string(template),
                              "%s", "%s")
            # a sum is finite only when every residual is
            numbers = map(float.__repr__ if math.isfinite(sum(residuals)) else _number,
                          residuals)
            # (index..., verdict, number) of each entry, in one flat list
            width = len(indices[0]) + 2
            values = [None] * (width * len(indices))
            for k, column in enumerate(zip(*indices)):
                values[k::width] = column
            values[width - 2::width] = map(_VERDICT.__getitem__, verdicts)
            values[width - 1::width] = numbers
            chunk = ",\n".join([entry] * _CHUNK)
            for first in range(0, len(indices), _CHUNK):
                count = min(_CHUNK, len(indices) - first)
                text = chunk if count == _CHUNK else ",\n".join([entry] * count)
                entries.append(text % tuple(values[first * width:(first + count) * width]))
        status = self.exit_status
        return ("{\n"
                f'  "command": {_string(self.command)},\n'
                f'  "entries": {_array(entries)},\n'
                f'  "exit_status": {status},\n'
                f'  "inputs_digest": {_string(self.digest)},\n'
                f'  "notes": {_array(["    " + _string(n) for n in self.notes])},\n'
                f'  "passed": {"false" if status else "true"}\n'
                "}")
