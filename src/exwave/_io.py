"""Input and output of the command-line front end: CSV and JSON text, the
atomic file writer and the CSV column reader, shared by ``cli`` and the
simulate subcommand (``_cli_simulate``).  They cannot live in ``cli``:
``python -m exwave.cli`` runs ``cli`` as ``__main__``, so a ``_cli_simulate``
that imported ``exwave.cli`` would run cli.py a second time, as a second
module.  The module docstring of ``cli`` says how output files are written.
"""

from __future__ import annotations

import math
import os
import stat
import sys
import tempfile


def _chunks(text):
    """A str is one chunk; anything else is an iterable of str chunks."""
    return (text,) if isinstance(text, str) else text


def _atomic_write(path: str, text) -> None:
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or FIFO: renaming over it would replace it with a file
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_chunks(text))
        return
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:  # a new file gets what open() gives under the umask
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-exwave-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.writelines(_chunks(text))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, out: str | None) -> None:
    """Write text (a str or an iterable of str chunks) to out or stdout;
    stdout always gets a final newline."""
    if out is not None:
        _atomic_write(out, text)
        return
    last = ""
    for chunk in _chunks(text):
        sys.stdout.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()  # a closed reader shows here, before the summary


def _format_column(values) -> list[str]:
    """Each float of a list as 12-significant-digit text, formatted once."""
    return [f"{v:.12g}" for v in values]


def _csv_rows(*columns) -> str:
    """One CSV line per row of equally long columns of text."""
    return "".join(",".join(row) + "\n" for row in zip(*columns))


def _json_dumps(obj) -> str:
    import json   # here, so that the CSV-only subcommands never load it

    return json.dumps(obj, indent=2)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_csv_columns(path, n_cols):
    """The n_cols float columns of a CSV file with one header line; blank
    lines and '#' comments are skipped.  ValueError, naming the file and
    line, for a file with no data, a row of another width, a cell that is no
    number and a non-finite value."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh, None)  # the header
        for lineno, line in enumerate(fh, start=2):
            cells = line.split("#", 1)[0].split(",")
            if len(cells) == 1 and not cells[0].strip():
                continue
            if len(cells) != n_cols:
                raise ValueError(f"{path}:{lineno}: expected {n_cols} columns, got {len(cells)}")
            try:
                row = list(map(float, cells))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number in {line.strip()!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows below the header")
    return [list(column) for column in zip(*rows)]
