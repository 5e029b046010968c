"""No block of code lines occurs twice in the package's source.

A code line is a stripped line that is neither blank nor starts with "#" or
a triple quote.  A block is BLOCK_LINES consecutive code lines (the lines
between them that are no code lines skipped) of at least MIN_BLOCK_CHARS
characters together.  A block found twice, in one file or in two, is a
transcription to share instead of to copy.
"""
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chowstab"
BLOCK_LINES = 4
MIN_BLOCK_CHARS = 80


def code_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each code line of text."""
    return [(number, line.strip()) for number, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith(("#", '"""'))]


def repeated_blocks(paths) -> dict[tuple[str, ...], list[tuple[str, int]]]:
    """Each block found more than once in the files, with the (file name,
    first line number) of every place it occurs."""
    places = {}
    for path in paths:
        lines = code_lines(path.read_text())
        for start in range(len(lines) - BLOCK_LINES + 1):
            window = lines[start:start + BLOCK_LINES]
            block = tuple(line for _, line in window)
            if sum(map(len, block)) >= MIN_BLOCK_CHARS:
                places.setdefault(block, []).append((path.name, window[0][0]))
    return {block: where for block, where in places.items() if len(where) > 1}


def test_the_source_has_no_repeated_block():
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) >= 9
    assert repeated_blocks(paths) == {}


def test_the_scan_finds_a_repeated_block(tmp_path):
    body = ["    if isinstance(other, (int, Fraction)):",
            "        other = Poly((other,))",
            "    # a comment between code lines is skipped",
            "",
            "    if not isinstance(other, Poly):",
            "        return NotImplemented"]
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text("\n".join(["def add(self, other):", *body, "    return other"]))
    two.write_text("\n".join(["def sub(self, other):", '    """Docstring."""', *body]))
    block = tuple(line for _, line in code_lines("\n".join(body)))
    assert repeated_blocks([one, two]) == {block: [("one.py", 2), ("two.py", 3)]}
    # Under MIN_BLOCK_CHARS together, four repeated short lines are no block.
    short = tmp_path / "short.py"
    short.write_text("\n".join(["a = 1", "b = 2", "c = 3", "d = 4"] * 2))
    assert repeated_blocks([short]) == {}
