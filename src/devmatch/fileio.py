"""Text formats for instances and matchings.

Instance files:

    dsm 1
    agents <n>
    deviators <id>*          (optional; omitted when empty)
    sides <0|1>{n}           (optional; one compact token, agent 1 first)
    prefs <id>: <id>*        (n lines, most-preferred first)

`#` starts a comment to end of line; tokens are whitespace-separated; ids
run 1..n.  parse and serialize are inverse on canonical form (deviators
sorted, prefs lines ascending).  Matching files hold one `i j` pair per
line with i < j, sorted lexicographically.

parse_instance reads canonical text, as serialize_instance writes it, in
bulk: one pattern check of the whole text, then one JSON decode of the
deviators and prefs.  Canonical text has the lines above in that order,
prefs 1..n ascending, single spaces, ids without sign or leading zero, no
comment or blank line, and `\n` after every line.  Any other text, and
canonical-looking text that fails a check, is parsed line by line, which
alone reads comments, free whitespace, any prefs order and other integer
spellings, and alone names an error's line.  Both give the same instance.
"""

from __future__ import annotations

import re
from itertools import chain

from .core import Instance, Matching, validate_instance

# Canonical instance text.  No group and no repeated group inside the
# repetition, as each would add to the regex state kept per prefs line; the
# entries' spelling is left to the JSON decode.
_CANONICAL = re.compile(
    r"dsm 1\nagents (?:0|[1-9][0-9]*)\n(?:deviators [ 0-9]+\n)?(?:sides [01]*\n)?"
    r"(?:prefs [1-9][0-9]*:[ 0-9]*\n)*"
)


class SyntaxError(ValueError):  # noqa: A001 - file-format error, line-addressed
    """A line does not match the instance or matching grammar."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokens(text: str) -> list[tuple[int, list[str]]]:
    """(line_number, tokens) for each non-blank, comment-stripped line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    # split() drops the edges' whitespace too
    return [(lineno, toks) for lineno, toks in enumerate(map(str.split, lines), start=1) if toks]


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SyntaxError(lineno, f"expected an integer, got {tok!r}") from None


def parse_instance(text: str) -> tuple[Instance, frozenset[int]]:
    """Parse instance text into (validated instance, deviator set).

    Grammar errors are fileio.SyntaxError at their line; the semantic
    checks are validate_instance's, which builds no rank table, so the
    returned instance.ranks is empty until a solver reads it.  The lists
    are range-checked here, so the instance is built by Instance._trusted.
    """
    parsed = _parse_canonical(text) or _parse_lines(text)
    validate_instance(parsed[0])
    return parsed


def _parse_canonical(text: str) -> tuple[Instance, frozenset[int]] | None:
    """The unvalidated parse of canonical text; None for any text it refuses."""
    if _CANONICAL.fullmatch(text) is None:
        return None
    _, agents_line, block = text.split("\n", 2)
    ids, bits = "", None
    if block.startswith("deviators "):
        ids, block = block[10:].split("\n", 1)
    if block.startswith("sides "):
        bits, block = block[6:].split("\n", 1)
    # The count is compared as text before anything is sized by it, so a
    # huge count is never converted.
    n = block.count("\n")
    if agents_line != f"agents {n}" or (bits is not None and len(bits) != n):
        return None
    import json  # here, so that importing the CLI does not load it

    # Each "\nprefs i: a b" becomes "],i,[a,b", so the text decodes as the
    # one list [deviators, 1, prefs of 1, 2, prefs of 2, ...].  A colon not
    # followed by a space or the line's end is left in, and refused.
    rows = (("\n" + block).replace(": ", ",[").replace(":\n", ",[\n")
            .replace("\nprefs ", "],").replace(" ", ","))
    try:
        decoded = json.loads("[[" + ids.replace(" ", ",") + rows + "]]")
    except ValueError:  # a doubled or stray space, a leading zero, a huge integer
        return None
    deviators, lists = decoded[0], decoded[2::2]
    agents = set(range(1, n + 1))
    if (decoded[1::2] != list(range(1, n + 1)) or not agents.issuperset(deviators)
            or not agents.issuperset(chain.from_iterable(lists))):
        return None
    sides = None if bits is None else (0,) + tuple(map(int, bits))
    prefs = ((),) + tuple(map(tuple, lists))
    return Instance._trusted(n, prefs, sides), frozenset(deviators)


def _parse_lines(text: str) -> tuple[Instance, frozenset[int]]:
    """The unvalidated parse of any instance text, line by line."""
    lines = _tokens(text)
    if not lines:
        raise SyntaxError(1, "empty input")
    pos = 0

    lineno, toks = lines[pos]
    if toks != ["dsm", "1"]:
        raise SyntaxError(lineno, "expected header 'dsm 1'")
    pos += 1

    if pos >= len(lines):
        raise SyntaxError(lineno, "missing 'agents' line")
    lineno, toks = lines[pos]
    if len(toks) != 2 or toks[0] != "agents":
        raise SyntaxError(lineno, "expected 'agents <n>'")
    n = _int(toks[1], lineno)
    if n < 0:
        raise SyntaxError(lineno, "agent count must be non-negative")
    pos += 1

    deviators: frozenset[int] = frozenset()
    if pos < len(lines) and lines[pos][1][0] == "deviators":
        lineno, toks = lines[pos]
        ids = [_int(t, lineno) for t in toks[1:]]
        for i in ids:
            if not 1 <= i <= n:
                raise SyntaxError(lineno, f"deviator id {i} out of range 1..{n}")
        deviators = frozenset(ids)
        pos += 1

    sides = None
    if pos < len(lines) and lines[pos][1][0] == "sides":
        lineno, toks = lines[pos]
        bits = toks[1] if len(toks) == 2 else ""  # a 0-agent file's line is "sides "
        if len(toks) > 2 or len(bits) != n or set(bits) - {"0", "1"}:
            raise SyntaxError(lineno, f"expected 'sides' with {n} characters of 0/1")
        sides = (0,) + tuple(int(ch) for ch in bits)
        pos += 1

    # Checked before anything is sized by n, so a huge count fails here.
    if len(lines) - pos < n:
        raise SyntaxError(lines[-1][0], f"expected {n} prefs lines, found {len(lines) - pos}")
    prefs: list[tuple[int, ...] | None] = [None] * (n + 1)
    for lineno, toks in lines[pos:]:
        if toks[0] != "prefs" or len(toks) < 2 or not toks[1].endswith(":"):
            raise SyntaxError(lineno, "expected 'prefs <id>: <id>*'")
        try:
            agent, entries = int(toks[1][:-1]), tuple(map(int, toks[2:]))
        except ValueError:  # _int names the first bad token, once the agent's checks pass
            agent, entries = _int(toks[1][:-1], lineno), None
        if not 1 <= agent <= n:
            raise SyntaxError(lineno, f"agent id {agent} out of range 1..{n}")
        if prefs[agent] is not None:
            raise SyntaxError(lineno, f"duplicate prefs line for agent {agent}")
        if entries is None:
            entries = tuple(_int(t, lineno) for t in toks[2:])
        for e in entries:
            if not 1 <= e <= n:
                raise SyntaxError(lineno, f"ranked id {e} out of range 1..{n}")
        prefs[agent] = entries
    # at least n lines, each naming a distinct agent in 1..n: every agent has one
    prefs[0] = ()

    return Instance._trusted(n, tuple(prefs), sides), deviators


def serialize_instance(instance: Instance, deviators: frozenset[int] = frozenset()) -> str:
    """Canonical instance text (inverse of parse_instance)."""
    out = ["dsm 1", f"agents {instance.num_agents}"]
    if deviators:
        out.append("deviators " + " ".join(str(i) for i in sorted(deviators)))
    if instance.sides is not None:
        out.append("sides " + "".join(str(s) for s in instance.sides[1:]))
    for i in instance.agents():
        out.append(f"prefs {i}: " + " ".join(str(j) for j in instance.prefs[i]))
    return "\n".join(out) + "\n"


def parse_matching(text: str, n: int | None = None) -> Matching:
    """Parse matching text; an agent on a second line is a SyntaxError there.

    With n given, so is a pair outside 1..n.  Any other validation against
    an instance is the caller's.
    """
    pairs = []
    partner: dict[int, int] = {}
    for lineno, toks in _tokens(text):
        if len(toks) != 2:
            raise SyntaxError(lineno, "expected '<i> <j>'")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:  # _int names the first bad token
            i, j = _int(toks[0], lineno), _int(toks[1], lineno)
        if not i < j:
            raise SyntaxError(lineno, "pairs must satisfy i < j")
        if n is not None and not (1 <= i and j <= n):
            raise SyntaxError(lineno, f"pair ({i}, {j}) out of range 1..{n}")
        for a in (i, j):
            if a in partner:
                raise SyntaxError(lineno, f"agent {a} appears in two pairs")
        partner[i], partner[j] = j, i
        pairs.append((i, j))
    # The loop proved each pair normalised and agent-disjoint.  The set is
    # re-added in the order Matching(pairs) adds it, so it iterates in the
    # same order, and checked_value names the same first bad pair.
    return Matching._trusted(frozenset(set(iter(frozenset(pairs)))), partner)


def serialize_matching(matching: Matching) -> str:
    lines = [f"{i} {j}" for i, j in sorted(matching.pairs)]
    return "\n".join(lines) + ("\n" if lines else "")
