"""Text input lines, and atomic replacement of every file the package writes."""
from __future__ import annotations

import contextlib
import os
from typing import Iterable, Iterator

from .errors import DataError


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Each line of the UTF-8 text file at ``path``, newline included, and
    its number from 1; undecodable bytes raise DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def replace_file(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` so that readers see the old file or the
    whole new one, never a part.

    The bytes go to a temporary file in ``path``'s directory (one filesystem,
    so ``os.replace`` is atomic), are synced to disk, and then take its place.
    If anything fails first, including the ``chunks`` iterable itself, the
    temporary file is removed and ``path`` keeps its previous contents.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
