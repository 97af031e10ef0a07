"""Atomic text output: contents, replacement, and the mode of the written file."""

import os
import stat

import pytest

from iwot.fileio import atomic_write_text


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_file_mode_follows_umask(tmp_path, umask):
    path = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(path, "one\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


def test_replaces_contents_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]
