"""Text file helpers: strict UTF-8 reads and atomic writes.

Every file the package writes goes through write-then-rename so that an
interrupted run leaves either the previous file or no file, never a torn one.
"""

import os

from .errors import DataFormatError


def read_text(path, error=DataFormatError, newline=None):
    """The contents of a UTF-8 text file; a byte that does not decode raises `error`."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error("%s is not UTF-8 text (%s)" % (path, exc)) from None


def atomic_write_text(path, text):
    """Write `text` to `path` atomically (temp file in the same directory, then rename).

    The file gets the mode a plain open() would give it: 0o666 less the umask.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    # A fresh random name opened with O_EXCL and mode 0o666, so the kernel
    # applies the umask as for any new file (tempfile.mkstemp fixes 0o600).
    tmp = os.path.join(directory, ".tmp-%s~" % os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_float(value):
    """Render a float with enough digits to round-trip exactly."""
    return "%.17g" % float(value)
