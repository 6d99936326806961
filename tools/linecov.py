"""List the lines of ``src/nsmml`` that a pytest run never executes.

Usage, from the repository root::

    python tools/linecov.py [pytest arguments]

Runs ``pytest.main`` with the given arguments in this process, tracing
only frames whose code lives in ``src/nsmml``, then prints ``file:line``
for every line of the package's compiled code objects (``co_lines``) that
never ran.  With pytest arguments it exits with pytest's exit code.  With
none, a full-suite run that passes exits 1 when a line that never ran is
not in ``ALLOWED``, and 0 otherwise.  Standard library only; a traced run
takes about twice as long as an untraced one.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nsmml"
# Lines the suite cannot run, by their source text: the CLI's script entry
# (tests call main in-process), and the count-vector DP's refusal of an
# upper bound that prunes every state, which a consistent bound never does.
ALLOWED = {
    "sys.exit(main())",
    'raise SizeLimitError("count-vector DP pruned every state; upper bound inconsistent")',
}


def code_lines(code) -> set[int]:
    """Every line that ``code`` and the code objects nested in it map to."""
    lines = {line for _, _, line in code.co_lines() if line is not None and line > 0}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        exit_code = pytest.main(list(args))  # pytest prepends addopts to the list it is given
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unexpected = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec")
        for line in sorted(code_lines(code) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
            unexpected += source.splitlines()[line - 1].strip() not in ALLOWED
    if args or exit_code:
        return int(exit_code)
    if unexpected:
        print(f"{unexpected} line(s) never ran that are not in ALLOWED", file=sys.stderr)
    return int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
