#!/usr/bin/env python3
"""Search for unsatisfiable (2,2)-E3 CNF formulas by simulated annealing.

Random sampling essentially never lands on an unsatisfiable balanced formula,
so this walks the space of valid formulas (every variable exactly twice
positive, twice negative; clauses of three distinct variables) with moves
that preserve the occurrence counts, minimizing the number of satisfying
assignments computed exactly over all 2^n assignments via bitmasks.

Usage: search_unsat_balanced.py <n> <count> <out.json> [<seconds>] [<seed>]
"""

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from devmatch.reductions import clause_mask, literal_masks  # noqa: E402


def sat_count(masks, full):
    acc = full
    for m in masks:
        acc &= m
        if acc == 0:
            return 0
    return acc.bit_count()


def random_formula(n, rng):
    lits = [v for v in range(1, n + 1) for _ in range(2)]
    lits += [-v for v in range(1, n + 1) for _ in range(2)]
    while True:
        rng.shuffle(lits)
        clauses = [tuple(lits[i:i + 3]) for i in range(0, len(lits), 3)]
        if all(len({abs(l) for l in c}) == 3 for c in clauses):
            return clauses


def neighbors(clauses, rng):
    """One random occurrence-count-preserving move, or None if invalid."""
    m = len(clauses)
    c1, c2 = rng.randrange(m), rng.randrange(m)
    if c1 == c2:
        return None
    k1, k2 = rng.randrange(3), rng.randrange(3)
    l1, l2 = clauses[c1][k1], clauses[c2][k2]
    if rng.random() < 0.5:
        # swap two same-sign literals between clauses
        if (l1 > 0) != (l2 > 0) or abs(l1) == abs(l2):
            return None
        a = list(clauses[c1]); b = list(clauses[c2])
        a[k1], b[k2] = l2, l1
    else:
        # flip the polarity of one variable's occurrences in two clauses
        if l1 != -l2:
            return None
        a = list(clauses[c1]); b = list(clauses[c2])
        a[k1], b[k2] = -l1, -l2
    if len({abs(l) for l in a}) != 3 or len({abs(l) for l in b}) != 3:
        return None
    out = list(clauses)
    out[c1], out[c2] = tuple(a), tuple(b)
    return out, (c1, c2)


def anneal(n, rng, pos, full, max_steps=400_000):
    clauses = random_formula(n, rng)
    masks = [clause_mask(c, pos, full) for c in clauses]
    cur = sat_count(masks, full)
    best = cur
    temp = 8.0
    for step in range(max_steps):
        if cur == 0:
            return clauses
        move = neighbors(clauses, rng)
        if move is None:
            continue
        cand, (c1, c2) = move
        new_masks = list(masks)
        new_masks[c1] = clause_mask(cand[c1], pos, full)
        new_masks[c2] = clause_mask(cand[c2], pos, full)
        val = sat_count(new_masks, full)
        temp = max(0.02, temp * 0.99997)
        if val <= cur or rng.random() < pow(2.718, -(val - cur) / temp):
            clauses, masks, cur = cand, new_masks, val
            best = min(best, cur)
    return None


def main():
    n = int(sys.argv[1])
    want = int(sys.argv[2])
    out_path = sys.argv[3]
    budget = float(sys.argv[4]) if len(sys.argv) > 4 else 600.0
    seed = int(sys.argv[5]) if len(sys.argv) > 5 else 20260819
    if n % 3 != 0:
        sys.exit("n must be divisible by 3")
    rng = random.Random(seed)
    pos, full = literal_masks(n)
    found = []
    seen = set()
    deadline = time.time() + budget
    attempt = 0
    while len(found) < want and time.time() < deadline:
        attempt += 1
        result = anneal(n, rng, pos, full)
        if result is not None:
            key = tuple(sorted(tuple(sorted(c)) for c in result))
            if key not in seen:
                seen.add(key)
                found.append([list(c) for c in result])
                print(f"n={n}: unsat #{len(found)} after {attempt} restarts", flush=True)
                # flush progress so an interrupted run still leaves its finds
                with open(out_path, "w") as fh:
                    json.dump({"n": n, "seed": seed, "formulas": found}, fh)
        else:
            print(f"n={n}: restart {attempt} exhausted, none found", flush=True)
    with open(out_path, "w") as fh:
        json.dump({"n": n, "seed": seed, "formulas": found}, fh)
    print(f"wrote {len(found)} formulas to {out_path}", flush=True)


if __name__ == "__main__":
    main()
