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
"""

from __future__ import annotations

from .core import Instance, Matching, validate_instance


class SyntaxError(ValueError):  # noqa: A001 - file-format error, line-addressed
    """A line does not match the instance or matching grammar."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokens(text: str):
    """Yield (line_number, tokens) for non-blank, comment-stripped lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SyntaxError(lineno, f"expected an integer, got {tok!r}") from None


def parse_instance(text: str) -> tuple[Instance, frozenset[int]]:
    """Parse instance text into (validated instance, deviator set).

    Grammar errors are fileio.SyntaxError at their line; the semantic
    checks are validate_instance's, which builds no rank table, so the
    returned instance.ranks is empty until a solver reads it.
    """
    lines = list(_tokens(text))
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
        if len(toks) != 2 or len(toks[1]) != n or set(toks[1]) - {"0", "1"}:
            raise SyntaxError(lineno, f"expected 'sides' with {n} characters of 0/1")
        sides = tuple(int(ch) for ch in toks[1])
        pos += 1

    # Checked before anything is sized by n, so a huge count fails here.
    if len(lines) - pos < n:
        raise SyntaxError(lines[-1][0], f"expected {n} prefs lines, found {len(lines) - pos}")
    prefs: list[tuple[int, ...] | None] = [None] * (n + 1)
    for lineno, toks in lines[pos:]:
        if toks[0] != "prefs" or len(toks) < 2 or not toks[1].endswith(":"):
            raise SyntaxError(lineno, "expected 'prefs <id>: <id>*'")
        agent = _int(toks[1][:-1], lineno)
        if not 1 <= agent <= n:
            raise SyntaxError(lineno, f"agent id {agent} out of range 1..{n}")
        if prefs[agent] is not None:
            raise SyntaxError(lineno, f"duplicate prefs line for agent {agent}")
        try:
            entries = tuple(map(int, toks[2:]))
        except ValueError:  # _int names the line and the first bad token
            entries = tuple(_int(t, lineno) for t in toks[2:])
        for e in entries:
            if not 1 <= e <= n:
                raise SyntaxError(lineno, f"ranked id {e} out of range 1..{n}")
        prefs[agent] = entries
    # at least n lines, each naming a distinct agent in 1..n: every agent has one

    instance = Instance(n, ((),) + tuple(prefs[1:]), sides)
    validate_instance(instance)
    return instance, deviators


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
    matched = set()
    for lineno, toks in _tokens(text):
        if len(toks) != 2:
            raise SyntaxError(lineno, "expected '<i> <j>'")
        i, j = _int(toks[0], lineno), _int(toks[1], lineno)
        if not i < j:
            raise SyntaxError(lineno, "pairs must satisfy i < j")
        if n is not None and not (1 <= i and j <= n):
            raise SyntaxError(lineno, f"pair ({i}, {j}) out of range 1..{n}")
        for a in (i, j):
            if a in matched:
                raise SyntaxError(lineno, f"agent {a} appears in two pairs")
            matched.add(a)
        pairs.append((i, j))
    return Matching(frozenset(pairs))


def serialize_matching(matching: Matching) -> str:
    lines = [f"{i} {j}" for i, j in sorted(matching.pairs)]
    return "\n".join(lines) + ("\n" if lines else "")
