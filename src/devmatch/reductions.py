"""Constructive reductions between satisfiability and deviator matching.

sat_to_perfect_smi turns a (2,2)-E3-SAT formula into a sided instance whose
perfect matchings with zero deviator blocking pairs correspond exactly to
satisfying assignments: variable gadgets encode truth values, clause gadgets
pick a satisfied literal, and twelve-agent connector cycles transmit the
choice between them.  witness_matching realises the forward direction
explicitly.  smi_to_sri, complete_lists, and minba_complete are the
follow-up transformations that remove sides, remove list gaps, and reduce
minimum-blocking-agent questions to complete lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DeviatorProblem, Instance, Matching, Objective, SizeRegime


class CnfError(ValueError):
    """A formula violates the (2,2)-E3 structure."""


class BadArity(CnfError):
    """A clause does not have exactly three literals."""

    def __init__(self, clause: int):
        super().__init__(f"clause {clause} does not have exactly 3 literals")
        self.clause = clause


class BadOccurrence(CnfError):
    """A variable does not occur exactly twice per polarity."""

    def __init__(self, var: int, polarity: bool, count: int):
        word = "unnegated" if polarity else "negated"
        super().__init__(f"variable {var} occurs {word} {count} times (need 2)")
        self.var = var
        self.polarity = polarity
        self.count = count


class DuplicateLiteral(CnfError):
    """A clause repeats a literal."""

    def __init__(self, clause: int):
        super().__init__(f"clause {clause} repeats a literal")
        self.clause = clause


class UnsatisfiedAssignment(ValueError):
    """The assignment does not satisfy the formula."""


class RegimeUnsupported(ValueError):
    """The transformation applies to perfect-regime zero-budget problems only."""


class BudgetTooLarge(ValueError):
    """The budget exceeds the agent count, which bounds every blocking-agent count."""


class OutputTooLarge(ValueError):
    """The completed lists would hold more than MAX_LIST_ENTRIES entries."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula where every clause has exactly three distinct literals.

    Literals are nonzero ints: +v / -v for variable v in 1..num_vars.  The
    (2,2)-E3 occurrence condition (each variable exactly twice per polarity)
    is enforced by parse_cnf_22e3 and by the reduction, not here.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for idx, clause in enumerate(self.clauses, start=1):
            if len(clause) != 3:
                raise BadArity(idx)
            if len(set(clause)) != 3:
                raise DuplicateLiteral(idx)
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfError(f"literal {lit} in clause {idx} is out of range")


def _occurrence_counts(f: CnfFormula) -> None:
    pos = [0] * (f.num_vars + 1)
    neg = [0] * (f.num_vars + 1)
    for clause in f.clauses:
        for lit in clause:
            if lit > 0:
                pos[lit] += 1
            else:
                neg[-lit] += 1
    for v in range(1, f.num_vars + 1):
        if pos[v] != 2:
            raise BadOccurrence(v, True, pos[v])
        if neg[v] != 2:
            raise BadOccurrence(v, False, neg[v])


def parse_cnf_22e3(text: str) -> CnfFormula:
    """Parse DIMACS CNF text and validate the (2,2)-E3 occurrence structure."""
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not all(
                t.isdecimal() for t in parts[2:]
            ):
                raise CnfError(f"bad problem line: {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        try:
            literals.extend(int(tok) for tok in line.split())
        except ValueError:
            raise CnfError(f"unreadable clause line: {line!r}") from None
    if num_vars is None:
        raise CnfError("missing 'p cnf' problem line")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise BadArity(len(clauses) + 1)
    if num_clauses is not None and len(clauses) != num_clauses:
        raise CnfError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    f = CnfFormula(num_vars, tuple(clauses))
    _occurrence_counts(f)
    return f


MAX_SEARCH_VARS = 24  # beyond it, one truth table takes more than 2 MB
MAX_LIST_ENTRIES = 4_000_000  # 2,000 agents' complete lists; building them peaks near 200 MB


def _refuse_complete_lists_of(agents: int) -> None:
    """Raise OutputTooLarge, before building, if complete lists of this many agents are too big."""
    if agents * (agents - 1) > MAX_LIST_ENTRIES:
        raise OutputTooLarge(
            f"complete lists of {agents} agents exceed {MAX_LIST_ENTRIES} preference-list entries"
        )


def literal_masks(num_vars: int) -> tuple[list[int], int]:
    """Truth tables of variables 1..num_vars over all assignments, and all ones.

    Bit a stands for the assignment that sets variable v true exactly when
    bit num_vars - v of a is set: ascending a is itertools.product order.
    """
    if num_vars > MAX_SEARCH_VARS:
        raise CnfError(f"witness search is exhaustive; needs at most {MAX_SEARCH_VARS} variables")
    masks, size = [], 1
    for _ in range(num_vars):  # prepend a slowest variable, doubling the table
        masks = [((1 << size) - 1) << size] + [m | m << size for m in masks]
        size *= 2
    return masks, (1 << size) - 1


def clause_mask(clause, masks: list[int], full: int) -> int:
    """The assignments satisfying one clause, in literal_masks' bit order."""
    m = 0
    for lit in clause:
        m |= masks[lit - 1] if lit > 0 else full ^ masks[-lit - 1]
    return m


def satisfying_mask(f: CnfFormula) -> int:
    """Every satisfying assignment of f at once, in literal_masks' bit order."""
    masks, full = literal_masks(f.num_vars)
    acc = full
    for clause in f.clauses:
        acc &= clause_mask(clause, masks, full)
        if not acc:
            break
    return acc


def first_satisfying_assignment(f: CnfFormula) -> tuple[bool, ...] | None:
    """The first satisfying assignment in itertools.product order, or None."""
    acc = satisfying_mask(f)
    if not acc:
        return None
    a = (acc & -acc).bit_length() - 1
    return tuple(bool(a >> (f.num_vars - v) & 1) for v in range(1, f.num_vars + 1))


@dataclass(frozen=True)
class GadgetIndex:
    """Global agent ids for every gadget role, plus the connector wiring.

    x/y are keyed by (variable, occurrence slot 1..4); c/p by (clause,
    literal position 1..3); q/z by clause; t by (variable, slot, position
    1..12).  occurrence_of maps each (variable, slot) to the (clause,
    position) it realises: slots 1 and 2 are the variable's first and
    second unnegated occurrences in reading order, slots 3 and 4 the
    negated ones.
    """

    x: dict
    y: dict
    c: dict
    p: dict
    q: dict
    z: dict
    t: dict
    occurrence_of: dict


def sat_to_perfect_smi(f: CnfFormula) -> tuple[DeviatorProblem, GadgetIndex]:
    """Build the perfect-matching instance whose solutions are satisfying assignments.

    Eight agents per variable, eight per clause, and twelve per variable
    occurrence; each occurrence's connector cycle touches the occurrence's
    x-agent at position 7 and its clause slot's c-agent at position 1.  The
    deviators are exactly the connector agents at positions 1 and 7.  The
    question posed is: perfect matching, zero deviator blocking pairs.
    """
    _occurrence_counts(f)
    n, m = f.num_vars, len(f.clauses)
    num_agents = 56 * n + 8 * m

    x = {(i, r): (i - 1) * 8 + r for i in range(1, n + 1) for r in range(1, 5)}
    y = {(i, r): (i - 1) * 8 + 4 + r for i in range(1, n + 1) for r in range(1, 5)}
    c = {(j, s): 8 * n + (j - 1) * 8 + s for j in range(1, m + 1) for s in range(1, 4)}
    p = {(j, s): 8 * n + (j - 1) * 8 + 3 + s for j in range(1, m + 1) for s in range(1, 4)}
    q = {j: 8 * n + (j - 1) * 8 + 7 for j in range(1, m + 1)}
    z = {j: 8 * n + (j - 1) * 8 + 8 for j in range(1, m + 1)}
    t = {
        (i, r, kappa): 8 * n + 8 * m + ((i - 1) * 4 + (r - 1)) * 12 + kappa
        for i in range(1, n + 1)
        for r in range(1, 5)
        for kappa in range(1, 13)
    }

    occurrence_of: dict[tuple[int, int], tuple[int, int]] = {}
    seen_pos = [0] * (n + 1)
    seen_neg = [0] * (n + 1)
    for j, clause in enumerate(f.clauses, start=1):
        for s, lit in enumerate(clause, start=1):
            v = abs(lit)
            if lit > 0:
                seen_pos[v] += 1
                occurrence_of[(v, seen_pos[v])] = (j, s)
            else:
                seen_neg[v] += 1
                occurrence_of[(v, 2 + seen_neg[v])] = (j, s)

    prefs: list[tuple[int, ...]] = [()] * (num_agents + 1)
    sides = [0] * (num_agents + 1)

    for i in range(1, n + 1):
        xi = {r: x[(i, r)] for r in range(1, 5)}
        yi = {r: y[(i, r)] for r in range(1, 5)}
        ti = {r: t[(i, r, 7)] for r in range(1, 5)}
        prefs[xi[1]] = (yi[1], ti[1], yi[2])
        prefs[xi[2]] = (yi[2], ti[2], yi[3])
        prefs[xi[3]] = (yi[4], ti[3], yi[3])
        prefs[xi[4]] = (yi[1], ti[4], yi[4])
        prefs[yi[1]] = (xi[1], xi[4])
        prefs[yi[2]] = (xi[1], xi[2])
        prefs[yi[3]] = (xi[2], xi[3])
        prefs[yi[4]] = (xi[3], xi[4])
        for r in range(1, 5):
            sides[yi[r]] = 1

    back = {js: ir for ir, js in occurrence_of.items()}
    for j in range(1, m + 1):
        for s in range(1, 4):
            i, r = back[(j, s)]
            prefs[c[(j, s)]] = (p[(j, s)], t[(i, r, 1)], q[j])
            prefs[p[(j, s)]] = (c[(j, s)], z[j])
            sides[p[(j, s)]] = 1
        prefs[q[j]] = (c[(j, 1)], c[(j, 2)], c[(j, 3)])
        sides[q[j]] = 1
        prefs[z[j]] = (p[(j, 1)], p[(j, 2)], p[(j, 3)])

    for (i, r), (j, s) in occurrence_of.items():
        tk = {kappa: t[(i, r, kappa)] for kappa in range(1, 13)}
        prefs[tk[1]] = (tk[2], c[(j, s)], tk[12])
        prefs[tk[7]] = (tk[6], x[(i, r)], tk[8])
        for kappa in (2, 3, 4, 5):
            prefs[tk[kappa]] = (tk[kappa + 1], tk[kappa - 1])
        prefs[tk[6]] = (tk[5], tk[7])
        for kappa in (8, 9, 10, 11):
            prefs[tk[kappa]] = (tk[kappa - 1], tk[kappa + 1])
        prefs[tk[12]] = (tk[11], tk[1])
        for kappa in range(1, 13, 2):
            sides[tk[kappa]] = 1

    instance = Instance(num_agents, tuple(prefs), tuple(sides[1:]))
    deviators = frozenset(
        t[(i, r, kappa)] for i in range(1, n + 1) for r in range(1, 5) for kappa in (1, 7)
    )
    problem = DeviatorProblem(
        instance,
        deviators,
        objective=Objective.BLOCKING_PAIRS,
        size_regime=SizeRegime.PERFECT,
        budget=0,
    )
    return problem, GadgetIndex(x, y, c, p, q, z, t, occurrence_of)


def _clause_satisfied(clause: tuple[int, int, int], assignment) -> int | None:
    """Position (1..3) of the first true literal, or None."""
    for s, lit in enumerate(clause, start=1):
        value = assignment[abs(lit) - 1]
        if (lit > 0) == bool(value):
            return s
    return None


def witness_matching(f: CnfFormula, assignment, idx: GadgetIndex) -> Matching:
    """The perfect matching encoding a satisfying assignment.

    assignment is a sequence of booleans, variable i at index i-1.  Variable
    gadgets take their true/false matching; each clause matches its q-agent
    to the first satisfied literal's c-agent; each connector cycle aligns
    with whether its x-agent got its first choice.  Raises
    UnsatisfiedAssignment when some clause has no true literal.
    """
    n = f.num_vars
    chosen: dict[int, int] = {}
    for j, clause in enumerate(f.clauses, start=1):
        s = _clause_satisfied(clause, assignment)
        if s is None:
            raise UnsatisfiedAssignment(f"clause {j} is not satisfied")
        chosen[j] = s

    pairs: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        xi = {r: idx.x[(i, r)] for r in range(1, 5)}
        yi = {r: idx.y[(i, r)] for r in range(1, 5)}
        if assignment[i - 1]:
            pairs += [(xi[r], yi[r]) for r in range(1, 5)]
        else:
            pairs += [(xi[1], yi[2]), (xi[2], yi[3]), (xi[3], yi[4]), (xi[4], yi[1])]

    for j in range(1, len(f.clauses) + 1):
        s = chosen[j]
        pairs.append((idx.q[j], idx.c[(j, s)]))
        pairs.append((idx.z[j], idx.p[(j, s)]))
        for other in range(1, 4):
            if other != s:
                pairs.append((idx.c[(j, other)], idx.p[(j, other)]))

    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    first_slot = {1: 1, 2: 2, 3: 4, 4: 1}  # y-slot each x-agent ranks first
    for (i, r) in idx.occurrence_of:
        first_choice = partner[idx.x[(i, r)]] == idx.y[(i, first_slot[r])]
        tk = {kappa: idx.t[(i, r, kappa)] for kappa in range(1, 13)}
        if first_choice:
            pairs += [(tk[1], tk[2]), (tk[3], tk[4]), (tk[5], tk[6]),
                      (tk[7], tk[8]), (tk[9], tk[10]), (tk[11], tk[12])]
        else:
            pairs += [(tk[1], tk[12]), (tk[2], tk[3]), (tk[4], tk[5]),
                      (tk[6], tk[7]), (tk[8], tk[9]), (tk[10], tk[11])]
    return Matching(frozenset(pairs))


def smi_to_sri(p: DeviatorProblem) -> DeviatorProblem:
    """Trade the perfect-matching requirement for two companions per agent.

    Each agent gains companions it ranks last; a companion triangle forces
    any zero-deviator matching to use {companion, companion} exactly when
    the agent is matched elsewhere.  Requires a perfect-regime zero-budget
    problem; the result is an unsided any-regime problem, same budget, with
    all companions added to the deviator set and 3x the agents.
    """
    if p.size_regime is not SizeRegime.PERFECT or p.budget != 0:
        raise RegimeUnsupported("needs the perfect regime at budget 0")
    inst = p.instance
    n = inst.num_agents
    prefs: list[tuple[int, ...]] = [()] * (3 * n + 1)
    for i in inst.agents():
        b1 = n + 2 * i - 1
        b2 = n + 2 * i
        prefs[i] = inst.prefs[i] + (b1, b2)
        prefs[b1] = (b2, i)
        prefs[b2] = (i, b1)
    new_inst = Instance(3 * n, tuple(prefs), None)
    deviators = p.deviators | frozenset(range(n + 1, 3 * n + 1))
    return DeviatorProblem(new_inst, deviators, p.objective, SizeRegime.ANY, p.budget)


def complete_lists(p: DeviatorProblem) -> DeviatorProblem:
    """Append every unranked agent (ascending id) to every preference list.

    Raises OutputTooLarge when the output would exceed MAX_LIST_ENTRIES entries.
    """
    inst = p.instance
    n = inst.num_agents
    _refuse_complete_lists_of(n)
    prefs: list[tuple[int, ...]] = [()]
    for i in inst.agents():
        have = set(inst.prefs[i]) | {i}
        prefs.append(inst.prefs[i] + tuple(j for j in inst.agents() if j not in have))
    new_inst = Instance(n, tuple(prefs), None)
    return DeviatorProblem(new_inst, p.deviators, p.objective, p.size_regime, p.budget)


def minba_complete(inst: Instance, k: int) -> Instance:
    """Pad an instance so lists can be completed without changing min blocking agents.

    Every agent gains k dummies it ranks right after its original list; each
    dummy ranks its owner first.  All lists are then completed following the
    global ranking that interleaves owners and their dummies in id order.
    Whether at most k agents must be blocking is preserved in both
    directions.  At most n agents can block, so a k above n asks nothing
    and raises BudgetTooLarge rather than building (k + 1) * n agents; an
    output above MAX_LIST_ENTRIES entries raises OutputTooLarge.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = inst.num_agents
    if k > n:
        raise BudgetTooLarge(f"k = {k} exceeds the {n} agents, and at most {n} can block")
    step = k + 1
    total = step * n
    _refuse_complete_lists_of(total)

    def owner_id(i: int) -> int:
        return (i - 1) * step + 1

    prefs: list[tuple[int, ...]] = [()] * (total + 1)
    for i in inst.agents():
        new_i = owner_id(i)
        head = [owner_id(j) for j in inst.prefs[i]]
        head += [new_i + s for s in range(1, k + 1)]
        have = set(head) | {new_i}
        tail = [a for a in range(1, total + 1) if a not in have]
        prefs[new_i] = tuple(head + tail)
        for s in range(1, k + 1):
            dummy = new_i + s
            have_d = {dummy, new_i}
            prefs[dummy] = (new_i,) + tuple(
                a for a in range(1, total + 1) if a not in have_d
            )
    return Instance(total, tuple(prefs), None)
