"""Output checks on what ``repro-rla`` printed, and the result digest.

Every check is one entry in a :class:`Checks` ledger; ``failed / attempted``
is the benchmark's ``failed_share``.  The checks read only stdout, stderr
and the exit code — what a user of the CLI sees.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from workloads import Command

#: ``--metrics`` footer: "8 runs (0 cached, 0 failed); simulated work: ..."
_FOOTER = re.compile(r"^(\d+) runs \((\d+) cached, (\d+) failed\); "
                     r"simulated work: .*$", re.MULTILINE)
#: One row of the runtime summary: label, wall s, events, ev/s, drops,
#: peakQ, viol, tries, src.  Wall time and ev/s are host timings.
_SUMMARY_ROW = re.compile(
    r"^(?P<label>.{40}) +(?P<wall>[\d.]+) +(?P<events>\d+) +(?P<evps>\d+) +"
    r"(?P<drops>\d+) +(?P<peak>\d+) +(?P<viol>\S+) +(?P<tries>\d+) +"
    r"(?P<src>\S+)$", re.MULTILINE)
#: Host wall-clock cell of the ``fluid scale`` table ("  0.23s").
_WALL_CELL = re.compile(r"\d+\.\d+s$", re.MULTILINE)
_NON_FINITE = re.compile(r"(?<![\w.])[+-]?(nan|inf|infinity)(?![\w.])",
                         re.IGNORECASE)


@dataclass
class Checks:
    """Ledger of output checks: how many ran, which failed and why."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def stable_text(stdout: str, replay: bool = False) -> str:
    """``stdout`` with host-timing cells blanked, for byte comparison.

    With ``replay`` the provenance cells (tries, src, cached count) go
    too, so a cold run and its replay from the cache compare equal.
    """
    def row(m: "re.Match[str]") -> str:
        kept = f"{m['label']} {m['events']} {m['drops']} {m['peak']} {m['viol']}"
        return kept if replay else f"{kept} {m['tries']} {m['src']}"

    def footer(m: "re.Match[str]") -> str:
        cached = "" if replay else f"{m[2]} cached, "
        return f"{m[1]} runs ({cached}{m[3]} failed)"

    text = _FOOTER.sub(footer, _SUMMARY_ROW.sub(row, stdout))
    return _WALL_CELL.sub("#s", text)


def digest(texts: Sequence[str]) -> str:
    """SHA-256 over the commands' texts in command (not issue) order."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()


def _table_part(stdout: str) -> str:
    return stdout.split("\nruntime summary\n", 1)[0]


def _number(token: str) -> Optional[float]:
    try:
        return float(token)
    except ValueError:
        return None


def throughputs(command: Command, stdout: str) -> List[List[float]]:
    """The throughput cells of each data row (see ``Command.positive``)."""
    rows: List[List[float]] = []
    for line in _table_part(stdout).splitlines():
        tokens = line.split()
        if command.positive is None:
            # figure table: "RLA  thrput (pkt/s)  36.8 [144.1]  51.2 [94.6]"
            if "thrput" in tokens:
                cells = tokens[tokens.index("(pkt/s)") + 1:]
                rows.append([float(cell) for cell in cells
                             if not cell.startswith("[")])
            continue
        try:
            cells = [_number(tokens[index]) for index in command.positive]
        except IndexError:
            continue
        if None not in cells:
            rows.append(cells)
    return rows


def check_command(
    checks: Checks,
    command: Command,
    where: str,
    returncode: int,
    stdout: str,
    stderr: str,
    expect_cached: int,
) -> None:
    """Run every per-command output check into ``checks``."""
    checks.expect(returncode == 0, f"{where}: exit code {returncode}")
    checks.expect("Traceback (most recent call last)" not in stderr + stdout,
                  f"{where}: traceback in output")
    checks.expect(_NON_FINITE.search(_table_part(stdout)) is None,
                  f"{where}: non-finite table cell")

    rows = throughputs(command, stdout)
    if command.positive is None:
        # RLA, WTCP and BTCP rows, one measured value per case
        shape_ok = len(rows) == 3 and all(len(r) == command.runs for r in rows)
    else:
        shape_ok = len(rows) == command.runs
    checks.expect(shape_ok, f"{where}: expected {command.runs} result rows, "
                            f"parsed {rows}")
    checks.expect(bool(rows) and all(v > 0 for row in rows for v in row),
                  f"{where}: throughput not > 0 in {rows}")

    if command.pooled:
        footer = _FOOTER.search(stdout)
        found = tuple(int(g) for g in footer.groups()) if footer else None
        checks.expect(found == (command.runs, expect_cached, 0),
                      f"{where}: runtime footer {found}, expected "
                      f"{(command.runs, expect_cached, 0)}")
    if command.audited:
        # the table's last column is the violation count of each row
        verdicts = [line.split()[-1]
                    for line in _table_part(stdout).splitlines()[2:]
                    if line.split()]
        checks.expect(len(verdicts) == command.runs
                      and all(v == "0" for v in verdicts),
                      f"{where}: audit violations column reads {verdicts}")


def check_identical(checks: Checks, where: str,
                    texts: Dict[str, str]) -> None:
    """All of ``texts`` (label -> text) must be byte-identical."""
    distinct = {text for text in texts.values()}
    checks.expect(len(distinct) <= 1,
                  f"{where}: output differs between {sorted(texts)}")
