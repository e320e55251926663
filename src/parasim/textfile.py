"""The one reader of input files, as experiments.write_atomic is the one writer."""
from pathlib import Path


def text_lines(text: str) -> list:
    return [line for line in map(str.strip, text.splitlines()) if line]


def read_file(path, what: str, parse):
    """parse(the file's text_lines); a ValueError, a decode error included,
    becomes one line naming what the file is and its path."""
    try:
        return parse(text_lines(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def keyed(lines, name="key {!r}", keys=None) -> dict:
    """{key: rest} of `key rest` lines split at the first run of whitespace, of
    every key or only those in keys; a key given twice is a ValueError."""
    found = {}
    for line in lines:
        key, *rest = line.split(maxsplit=1) or [""]
        if keys is None or key in keys:
            if key in found:
                raise ValueError(f"{name.format(key)} given twice")
            found[key] = "".join(rest)
    return found
