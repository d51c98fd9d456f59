"""Line coverage of ``src/``: run the suite and list every line of the
package that no test runs.

    python tests/linecov.py                  # the whole suite
    python tests/linecov.py tests/test_graph.py -k refuses   # pytest args

The runner registers a ``sys.monitoring`` (PEP 669) LINE callback before
``crowdtier`` is imported, then runs pytest in this process.  The
callback records each line of ``src/crowdtier`` and returns ``DISABLE``,
so every line costs one call, at its first hit.  A line is executable
when a code object compiled from its file maps an instruction to it.

It exits 1 when pytest fails, when a line that never ran is not in
``EXEMPT``, or when an ``EXEMPT`` entry names a line that ran or does not
exist.  Line coverage is a floor, not a measure of the suite: what the
suite catches is what ``tests/mutants.py`` checks.  Needs Python 3.12 or
later (3.11 has no ``sys.monitoring``); standard library only, besides
the pytest that runs the suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crowdtier"

# (file under src/crowdtier, the line's text, stripped) -> why no test runs it.
EXEMPT = {
    ("__main__.py", "from .cli import main"):
        "runs only as `python -m crowdtier`, which test_python_m_crowdtier starts as a process",
    ("__main__.py", 'if __name__ == "__main__":'):
        "runs only as `python -m crowdtier`, as above",
    ("__main__.py", "raise SystemExit(main())"):
        "runs only as `python -m crowdtier`, as above",
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m crowdtier.cli`; the suite calls cli.main in process",
}


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of ``path``'s code objects maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # A module's first instruction sits on line 0, which no source line is.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("linecov needs sys.monitoring, new in Python 3.12")
        return 1
    if "crowdtier" in sys.modules:
        print("crowdtier was imported before monitoring started")
        return 1
    # As ``python -m pytest`` does, so that ``tests`` imports as a package.
    sys.path.insert(0, str(ROOT))

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    hits: set[tuple[str, int]] = set()

    def on_line(code, line):
        if "crowdtier" in code.co_filename:
            hits.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "linecov")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.free_tool_id(tool)
    if status != 0:
        print(f"pytest exited {int(status)}; no coverage is reported")
        return 1

    ran = {(Path(name).resolve(), line) for name, line in hits}
    problems = []
    exempt_seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {line for p, line in ran if p == path}):
            key = (path.name, source[line - 1].strip())
            if key in EXEMPT:
                exempt_seen.add(key)
            else:
                problems.append(f"src/crowdtier/{path.name}:{line} never ran: {key[1]}")
    for key in EXEMPT.keys() - exempt_seen:
        problems.append(f"exempt line ran or is gone: src/crowdtier/{key[0]}: {key[1]}")
    for key in sorted(exempt_seen):
        print(f"exempt   src/crowdtier/{key[0]}: {key[1]} ({EXEMPT[key]})")
    print("\n".join(problems) or "every other line of src/ ran")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
