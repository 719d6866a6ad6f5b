"""File formats and the command-line interface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmatch import fileio, solve
from devmatch.cli import main
from devmatch.core import (
    AsymmetricAcceptability,
    DeviatorProblem,
    DuplicateEntry,
    Instance,
    Matching,
    Objective,
    SelfRank,
    SidedPairViolation,
    SizeRegime,
)
from devmatch.generators import GenSpec, GenModel, generate
from devmatch.reductions import CnfFormula, sat_to_perfect_smi

from conftest import ordered_cycle, record_list_reads

FORMULA_B = CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))

CYCLE_TEXT = """dsm 1
agents 3
deviators 1 2 3
prefs 1: 2 3
prefs 2: 3 1
prefs 3: 1 2
"""

SIDED_TEXT = """dsm 1
agents 4
deviators 2
sides 0011
prefs 1: 3 4
prefs 2: 3
prefs 3: 2 1
prefs 4: 1
"""


class TestParseInstance:
    def test_reads_the_cycle(self):
        inst, devs = fileio.parse_instance(CYCLE_TEXT)
        assert inst == ordered_cycle(3)
        assert devs == frozenset({1, 2, 3})

    def test_reads_sides_and_comments(self):
        inst, devs = fileio.parse_instance(
            "# heading comment\n" + SIDED_TEXT.replace("prefs 2: 3", "prefs 2: 3  # tail")
        )
        assert inst.sides == (0, 0, 0, 1, 1)
        assert devs == frozenset({2})

    def test_prefs_lines_in_any_order(self):
        shuffled = CYCLE_TEXT.replace(
            "prefs 1: 2 3\nprefs 2: 3 1\nprefs 3: 1 2",
            "prefs 3: 1 2\nprefs 1: 2 3\nprefs 2: 3 1",
        )
        inst, _ = fileio.parse_instance(shuffled)
        assert inst == ordered_cycle(3)

    def test_error_lines_are_reported(self):
        cases = [
            ("", 1),
            ("dsm 2\nagents 0\n", 1),
            ("dsm 1\n", 1),
            ("dsm 1\nagents -3\n", 2),
            ("dsm 1\nagents 2\ndeviators 9\nprefs 1: 2\nprefs 2: 1\n", 3),
            ("dsm 1\nagents 2\nsides 01 0\nprefs 1: 2\nprefs 2: 1\n", 3),
            ("dsm 1\nagents 2\nprefs 1: 2\nprefs x: 1\n", 4),
            ("dsm 1\nagents 2\nprefs 1: 2\nprefs 1: 2\n", 4),
            ("dsm 1\nagents 2\nprefs 1: 2\nprefs 2: 9\n", 4),
            ("dsm 1\nagents 2\nprefs 1: 2\n", 3),
        ]
        for text, line in cases:
            with pytest.raises(fileio.SyntaxError) as exc:
                fileio.parse_instance(text)
            assert exc.value.line == line, text

    def test_asymmetric_lists_fail_validation(self):
        text = "dsm 1\nagents 2\nprefs 1: 2\nprefs 2:\n"
        with pytest.raises(ValueError):
            fileio.parse_instance(text)


class TestRoundTrip:
    def test_cycle(self):
        inst, devs = fileio.parse_instance(CYCLE_TEXT)
        assert fileio.serialize_instance(inst, devs) == CYCLE_TEXT

    def test_reduction_output_survives(self):
        p, _ = sat_to_perfect_smi(FORMULA_B)
        text = fileio.serialize_instance(p.instance, p.deviators)
        inst, devs = fileio.parse_instance(text)
        assert inst == p.instance
        assert devs == p.deviators
        assert fileio.serialize_instance(inst, devs) == text

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 20),
        model=st.sampled_from(GenModel),
    )
    def test_random_instances_survive(self, seed, n, model):
        if model is GenModel.SMI_UNIFORM:
            n = max(n, 2)
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else 3
        p = generate(GenSpec(n=n, model=model, list_cap=cap,
                             deviator_fraction=0.3, seed=seed))
        text = fileio.serialize_instance(p.instance, p.deviators)
        inst, devs = fileio.parse_instance(text)
        assert inst == p.instance
        assert devs == p.deviators


class TestMatchingFormat:
    def test_round_trip(self):
        m = Matching(frozenset({(1, 2), (5, 9)}))
        text = fileio.serialize_matching(m)
        assert text == "1 2\n5 9\n"
        assert fileio.parse_matching(text) == m
        assert fileio.parse_matching("") == Matching(frozenset())
        assert fileio.serialize_matching(Matching(frozenset())) == ""

    def test_bad_lines(self):
        with pytest.raises(fileio.SyntaxError) as exc:
            fileio.parse_matching("1 2\n2 1\n")
        assert exc.value.line == 2
        with pytest.raises(fileio.SyntaxError):
            fileio.parse_matching("1 2 3\n")

    def test_agent_in_two_pairs_is_a_syntax_error(self):
        with pytest.raises(fileio.SyntaxError) as exc:
            fileio.parse_matching("1 2\n1 3\n")
        assert exc.value.line == 2
        assert "agent 1 appears in two pairs" in str(exc.value)
        with pytest.raises(fileio.SyntaxError) as exc:
            fileio.parse_matching("# header\n1 2\n4 5\n3 5\n")
        assert exc.value.line == 4


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.dsm"
    path.write_text(CYCLE_TEXT)
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "b.cnf"
    path.write_text("p cnf 3 4\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2 -3 0\n")
    return str(path)


class TestCli:
    def test_validate(self, cycle_file, capsys):
        assert main(["validate", cycle_file]) == 0
        assert capsys.readouterr().out == "ok agents=3 deviators=3 d_max=2\n"

    def test_validate_reports_syntax_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.dsm"
        bad.write_text("dsm 1\nagents 2\nprefs 1: 2\n")
        assert main(["validate", str(bad)]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_oversized_agent_count_is_an_input_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.dsm"
        huge.write_text("dsm 1\nagents 1000000000\n")
        assert main(["validate", str(huge)]) == 3
        assert main(["solve", str(huge), "--optimize"]) == 3
        assert "expected 1000000000 prefs lines" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.dsm")]) == 3

    def test_solve_optimize(self, cycle_file, capsys):
        assert main(["solve", cycle_file, "--optimize"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "value 1"
        assert out[-1].startswith("algorithm shortlist-any")

    def test_solve_budget_infeasible(self, cycle_file, capsys):
        assert main(["solve", cycle_file, "--k", "0"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "infeasible"

    def test_solve_agent_objective(self, cycle_file, capsys):
        assert main(["solve", cycle_file, "--objective", "ba", "--optimize"]) == 0
        assert "value 2" in capsys.readouterr().out

    def test_solve_engine_fpt_writes_matching(self, cycle_file, tmp_path, capsys):
        out_path = tmp_path / "m.txt"
        code = main(["solve", cycle_file, "--engine", "fpt", "--k", "1",
                     "--out", str(out_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "algorithm fpt-bp-any#" in text
        written = fileio.parse_matching(out_path.read_text())
        assert len(written.pairs) == 1

    def test_solve_perfect_regime_infeasible(self, cycle_file, capsys):
        assert main(["solve", cycle_file, "--regime", "perfect", "--optimize"]) == 1

    def test_oracle_report(self, cycle_file, capsys):
        assert main(["oracle", cycle_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "max_size 1"
        assert lines[1] == "perfect_exists false"
        assert lines[2] == "optimum_bp 1"
        assert lines[3] == "optimum_ba 2"
        assert lines[4] == "stable_exists false"
        assert lines[5].startswith("witness_bp ")
        assert lines[6].startswith("witness_ba ")

    def test_oracle_cap_guard(self, tmp_path, capsys):
        p = generate(GenSpec(n=16, seed=1))
        path = tmp_path / "big.dsm"
        path.write_text(fileio.serialize_instance(p.instance, p.deviators))
        assert main(["oracle", str(path)]) == 3
        assert main(["oracle", str(path), "--max-oracle", "16"]) == 0

    def test_verify_roundtrips_solver_output(self, cycle_file, tmp_path, capsys):
        match_path = tmp_path / "m.txt"
        main(["solve", cycle_file, "--optimize", "--out", str(match_path)])
        capsys.readouterr()
        assert main(["verify", cycle_file, "--matching", str(match_path),
                     "--value", "1"]) == 0
        assert capsys.readouterr().out == "ok value 1\n"
        assert main(["verify", cycle_file, "--matching", str(match_path),
                     "--value", "0"]) == 1
        assert "verification failed" in capsys.readouterr().out

    def test_verify_names_the_line_of_an_out_of_range_pair(self, cycle_file, tmp_path, capsys):
        match_path = tmp_path / "m.txt"
        match_path.write_text("# a comment line\n1 9\n")
        assert main(["verify", cycle_file, "--matching", str(match_path)]) == 3
        assert capsys.readouterr().err == "error: line 2: pair (1, 9) out of range 1..3\n"

    def test_gen_is_deterministic(self, tmp_path, capsys):
        args = ["gen", "--n", "8", "--seed", "5", "--deviator-fraction", "0.5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        inst, _ = fileio.parse_instance(first)
        assert inst.num_agents == 8

    def test_gen_rejects_bad_spec(self, capsys):
        assert main(["gen", "--n", "4", "--model", "pathcycle",
                     "--list-cap", "3"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_reduce_sat2smi_with_witness(self, cnf_file, tmp_path, capsys):
        inst_path = tmp_path / "j.dsm"
        wit_path = tmp_path / "w.txt"
        code = main(["reduce", "sat2smi", cnf_file, "--out", str(inst_path),
                     "--witness", str(wit_path)])
        assert code == 0
        inst, devs = fileio.parse_instance(inst_path.read_text())
        assert inst.num_agents == 200
        assert len(devs) == 24
        witness = fileio.parse_matching(wit_path.read_text())
        assert len(witness.pairs) == 100
        assert main(["verify", str(inst_path), "--matching", str(wit_path),
                     "--regime", "perfect", "--value", "0"]) == 0

    def test_reduce_rejects_malformed_cnf(self, tmp_path, capsys):
        bad = tmp_path / "u.cnf"
        bad.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
        assert main(["reduce", "sat2smi", str(bad)]) == 3

    @pytest.mark.parametrize("header", ["p cnf x 2", "p cnf 2 y", "p cnf -1 0", "p cnf 0 -1"])
    def test_reduce_rejects_a_bad_problem_line(self, tmp_path, capsys, header):
        bad = tmp_path / "h.cnf"
        bad.write_text(header + "\n")
        assert main(["reduce", "sat2smi", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad problem line: {header!r}\n"

    def test_reduce_witness_on_unsatisfiable_formula(self, tmp_path, capsys):
        import json
        import pathlib

        data = json.loads(
            (pathlib.Path(__file__).parent / "data" / "unsat_22e3_n15.json").read_text()
        )
        clauses = data["formulas"][0]
        lines = [f"p cnf {data['n']} {len(clauses)}"]
        lines += [" ".join(str(l) for l in c) + " 0" for c in clauses]
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("\n".join(lines) + "\n")
        code = main(["reduce", "sat2smi", str(cnf), "--out",
                     str(tmp_path / "j.dsm"), "--witness", str(tmp_path / "w.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert "unsatisfiable" in captured.err
        # the instance itself is still emitted
        inst, _ = fileio.parse_instance((tmp_path / "j.dsm").read_text())
        assert inst.num_agents == 56 * 15 + 8 * 20

    def test_reduce_chain_smi2sri_complete(self, cnf_file, tmp_path, capsys):
        j_path = tmp_path / "j.dsm"
        main(["reduce", "sat2smi", cnf_file, "--out", str(j_path)])
        capsys.readouterr()
        sri_path = tmp_path / "sri.dsm"
        assert main(["reduce", "smi2sri", str(j_path), "--out", str(sri_path)]) == 0
        inst, devs = fileio.parse_instance(sri_path.read_text())
        assert inst.num_agents == 600
        assert len(devs) == 424
        full_path = tmp_path / "full.dsm"
        assert main(["reduce", "complete", str(sri_path), "--out", str(full_path)]) == 0
        inst2, devs2 = fileio.parse_instance(full_path.read_text())
        assert devs2 == devs
        assert all(len(inst2.prefs[a]) == 599 for a in inst2.agents())

    @pytest.mark.parametrize("command", [
        ["solve", "{inst}", "--k"],
        ["verify", "{inst}", "--matching", "{matching}", "--k"],
        ["reduce", "minba-complete", "{inst}", "--k"],
        ["verify", "{inst}", "--matching", "{matching}", "--value"],
    ])
    @pytest.mark.parametrize("k", ["-1", "x"])
    def test_bad_budget_is_a_usage_error(self, cycle_file, tmp_path, capsys, command, k):
        matching = tmp_path / "m.txt"
        matching.write_text("1 2\n")
        argv = [a.format(inst=cycle_file, matching=matching) for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [k])
        assert exc.value.code == 2
        assert f"argument {command[-1]}: expected a non-negative integer, got '{k}'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", [
        ["validate", "{bad}"],
        ["solve", "{bad}", "--k", "0"],
        ["verify", "{inst}", "--matching", "{bad}"],
        ["reduce", "sat2smi", "{bad}"],
    ])
    def test_non_utf8_input_is_an_input_error(self, cycle_file, tmp_path, capsys, command):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        assert main([a.format(inst=cycle_file, bad=bad) for a in command]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("cap", ["-1", "x"])
    def test_bad_oracle_cap_is_a_usage_error(self, cycle_file, capsys, command, cap):
        with pytest.raises(SystemExit) as exc:
            main([command, cycle_file, "--max-oracle", cap])
        assert exc.value.code == 2
        assert f"argument --max-oracle: expected a non-negative integer, got '{cap}'" in (
            capsys.readouterr().err
        )

    def test_verify_reports_an_agent_in_two_pairs(self, cycle_file, tmp_path, capsys):
        matching = tmp_path / "m.txt"
        matching.write_text("1 2\n1 3\n")
        assert main(["verify", cycle_file, "--matching", str(matching)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: agent 1 appears in two pairs\n"

    def test_reduce_minba(self, tmp_path, capsys):
        src = tmp_path / "inst.dsm"
        src.write_text("dsm 1\nagents 3\nprefs 1: 3\nprefs 2: 3\nprefs 3: 1 2\n")
        out = tmp_path / "out.dsm"
        assert main(["reduce", "minba-complete", str(src), "--k", "1",
                     "--out", str(out)]) == 0
        inst, devs = fileio.parse_instance(out.read_text())
        assert inst.num_agents == 6
        assert devs == frozenset(range(1, 7))
        assert inst.prefs[1] == (5, 2, 3, 4, 6)

    def test_reduce_minba_refuses_a_budget_above_the_agent_count(self, tmp_path, capsys):
        src = tmp_path / "inst.dsm"
        src.write_text("dsm 1\nagents 2\nprefs 1: 2\nprefs 2: 1\n")
        assert main(["reduce", "minba-complete", str(src), "--k", "100000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k = 100000000000 exceeds the 2 agents")

    @pytest.mark.parametrize("kind, n, extra", [
        ("complete", 30_000, []),
        ("minba-complete", 100, ["--k", "100"]),
    ])
    def test_reduce_refuses_an_output_above_the_entry_ceiling(self, tmp_path, capsys,
                                                              kind, n, extra):
        src = tmp_path / "ring.dsm"
        src.write_text(fileio.serialize_instance(ordered_cycle(n), frozenset({1})))
        assert main(["reduce", kind, str(src)] + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: complete lists of ")
        assert "exceed 4000000 preference-list entries" in captured.err


@pytest.mark.parametrize("model", ["sri", "smi", "pathcycle"])
def test_cli_solve_prints_what_the_library_returns(tmp_path, capsys, model):
    """devmatch solve on generated files prints devmatch.solve's pairs, value and algorithm."""
    for seed in range(8):
        path = tmp_path / f"{model}-{seed}.dsm"
        assert main(["gen", "--n", str(8 + seed), "--model", model, "--seed", str(seed),
                     "--list-cap", "2" if model == "pathcycle" else "4",
                     "--deviator-fraction", "0.6", "--out", str(path)]) == 0
        for regime in ("any", "max"):
            for objective in ("bp", "ba"):
                for flags, budget in ((["--k", "0"], 0), (["--optimize"], None)):
                    code = main(["solve", str(path), "--regime", regime,
                                 "--objective", objective, *flags])
                    printed = capsys.readouterr().out.splitlines()
                    inst, devs = fileio.parse_instance(path.read_text())
                    out = solve(DeviatorProblem(inst, devs, Objective(objective),
                                                SizeRegime(regime), budget))
                    if out.feasible:
                        want = [f"{i} {j}" for i, j in sorted(out.matching.pairs)]
                        want.append(f"value {out.value}")
                    else:
                        want = ["infeasible"]
                    want.append(f"algorithm {out.certificate_note}")
                    assert (code, printed) == (0 if out.feasible else 1, want), (
                        seed, regime, objective, budget)


@pytest.mark.parametrize("regime", ["any", "max"])
def test_verify_without_value_scans_once(tmp_path, capsys, monkeypatch, regime):
    """devmatch verify takes the claimed value from the one scan that checks it."""
    from devmatch import classic, cli, core

    p = generate(GenSpec(n=40, list_cap=4, deviator_fraction=0.3, seed=7))
    matching = classic.max_cardinality_matching(p.instance)
    value = core.objective_value(
        core.blocking_report(p.instance, matching, p.deviators), p.objective
    )
    inst_path = tmp_path / "inst.dsm"
    inst_path.write_text(fileio.serialize_instance(p.instance, p.deviators))
    match_path = tmp_path / "m.txt"
    match_path.write_text(fileio.serialize_matching(matching))

    scans = []
    scan = core.blocking_report

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(core, "blocking_report", counted)
    monkeypatch.setattr(cli, "blocking_report", counted, raising=False)
    assert main(["verify", str(inst_path), "--matching", str(match_path),
                 "--regime", regime]) == 0
    assert capsys.readouterr().out == f"ok value {value}\n"
    assert len(scans) == 1


def reference_validate_instance(instance):
    """validate_instance as it was, reading every agent's rank table.

    Kept here as the reference for the set-based checks.
    """
    for i in instance.agents():
        lst = instance.prefs[i]
        if i in lst:
            raise SelfRank(f"agent {i} ranks itself")
        if len(set(lst)) != len(lst):
            raise DuplicateEntry(f"agent {i} lists a partner twice")
    ranks = instance.ranks
    for i in instance.agents():
        for j in instance.prefs[i]:
            if i not in ranks[j]:
                raise AsymmetricAcceptability(i, j)
    if instance.sides is not None:
        for i in instance.agents():
            for j in instance.prefs[i]:
                if instance.sides[i] == instance.sides[j]:
                    raise SidedPairViolation(
                        f"agents {i} and {j} are acceptable but share side {instance.sides[i]}"
                    )


def reference_parse_instance(text):
    """parse_instance as it was: _int per prefs entry, then the reference validation."""
    lines = list(fileio._tokens(text))
    if not lines:
        raise fileio.SyntaxError(1, "empty input")
    pos = 0

    lineno, toks = lines[pos]
    if toks != ["dsm", "1"]:
        raise fileio.SyntaxError(lineno, "expected header 'dsm 1'")
    pos += 1

    if pos >= len(lines):
        raise fileio.SyntaxError(lineno, "missing 'agents' line")
    lineno, toks = lines[pos]
    if len(toks) != 2 or toks[0] != "agents":
        raise fileio.SyntaxError(lineno, "expected 'agents <n>'")
    n = fileio._int(toks[1], lineno)
    if n < 0:
        raise fileio.SyntaxError(lineno, "agent count must be non-negative")
    pos += 1

    deviators = frozenset()
    if pos < len(lines) and lines[pos][1][0] == "deviators":
        lineno, toks = lines[pos]
        ids = [fileio._int(t, lineno) for t in toks[1:]]
        for i in ids:
            if not 1 <= i <= n:
                raise fileio.SyntaxError(lineno, f"deviator id {i} out of range 1..{n}")
        deviators = frozenset(ids)
        pos += 1

    sides = None
    if pos < len(lines) and lines[pos][1][0] == "sides":
        lineno, toks = lines[pos]
        if len(toks) != 2 or len(toks[1]) != n or set(toks[1]) - {"0", "1"}:
            raise fileio.SyntaxError(lineno, f"expected 'sides' with {n} characters of 0/1")
        sides = tuple(int(ch) for ch in toks[1])
        pos += 1

    if len(lines) - pos < n:
        raise fileio.SyntaxError(
            lines[-1][0], f"expected {n} prefs lines, found {len(lines) - pos}"
        )
    prefs = [None] * (n + 1)
    for lineno, toks in lines[pos:]:
        if toks[0] != "prefs" or len(toks) < 2 or not toks[1].endswith(":"):
            raise fileio.SyntaxError(lineno, "expected 'prefs <id>: <id>*'")
        agent = fileio._int(toks[1][:-1], lineno)
        if not 1 <= agent <= n:
            raise fileio.SyntaxError(lineno, f"agent id {agent} out of range 1..{n}")
        if prefs[agent] is not None:
            raise fileio.SyntaxError(lineno, f"duplicate prefs line for agent {agent}")
        entries = [fileio._int(t, lineno) for t in toks[2:]]
        for e in entries:
            if not 1 <= e <= n:
                raise fileio.SyntaxError(lineno, f"ranked id {e} out of range 1..{n}")
        prefs[agent] = tuple(entries)
    missing = [i for i in range(1, n + 1) if prefs[i] is None]
    if missing:
        raise fileio.SyntaxError(lines[-1][0], f"missing prefs line for agent {missing[0]}")

    instance = Instance(n, ((),) + tuple(prefs[1:]), sides)
    reference_validate_instance(instance)
    return instance, deviators


CORRUPTIONS = (
    "bad int", "out of range", "one-sided entry", "self rank", "duplicate entry",
    "dropped back-entry", "duplicate line", "missing line", "same side",
)


def corrupt(lines, kind, n, draw):
    """Apply one corruption of the named kind to one line of an instance file.

    The entry kinds touch one to three tokens of a prefs line, so the order
    in which a line's errors are reported shows.
    """
    first = next(i for i, line in enumerate(lines) if line.startswith("prefs "))
    row = draw(st.integers(first, len(lines) - 1))
    if kind == "duplicate line":
        lines.insert(draw(st.integers(first, len(lines))), lines[row])
        return
    if kind == "missing line":
        del lines[row]
        return
    if kind == "same side":
        sides_row = next((i for i, line in enumerate(lines) if line.startswith("sides ")), None)
        if sides_row is None:
            bits = "".join(draw(st.sampled_from("01")) for _ in range(n))
            lines.insert(first, f"sides {bits}")
        else:
            bits = list(lines[sides_row].split()[1])
            flip = draw(st.integers(0, n - 1))
            bits[flip] = "1" if bits[flip] == "0" else "0"
            lines[sides_row] = "sides " + "".join(bits)
        return
    toks = lines[row].split()
    head, entries = toks[:2], toks[2:]
    for _ in range(draw(st.integers(1, 3))):
        if kind == "bad int":
            token = draw(st.sampled_from(["x", "1.5", "0x3", "--2", "٣x"]))
            at = draw(st.integers(-1, len(entries)))  # -1: the agent token
            if at < 0:
                head[1] = token + ":"
            else:
                entries.insert(at, token)
            continue
        at = draw(st.integers(0, len(entries)))
        if kind == "out of range":
            entries.insert(at, str(draw(st.sampled_from([0, -1, n + 1, n + 7]))))
        elif kind == "one-sided entry":
            entries.insert(at, str(draw(st.integers(1, n))))
        elif kind == "self rank":
            entries.insert(at, head[1][:-1])
        elif kind == "duplicate entry" and entries:
            entries.insert(at, draw(st.sampled_from(entries)))
        elif kind == "dropped back-entry" and entries:
            del entries[min(at, len(entries) - 1)]
    lines[row] = " ".join(head + entries)


def outcome(parse, text):
    """What parse does with text: its result, or the error's class, message and line."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    model=st.sampled_from(GenModel),
    kinds=st.lists(st.sampled_from(CORRUPTIONS), max_size=2),
    shuffled=st.booleans(),
    data=st.data(),
)
def test_parse_instance_matches_the_reference(seed, n, model, kinds, shuffled, data):
    """Clean and corrupted files parse to the same instance, or fail the same way."""
    cap = 2 if model is GenModel.PATH_CYCLE_ONLY else 3
    p = generate(GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=0.3, seed=seed))
    lines = fileio.serialize_instance(p.instance, p.deviators).splitlines()
    if shuffled:
        first = next(i for i, line in enumerate(lines) if line.startswith("prefs "))
        lines[first:] = data.draw(st.permutations(lines[first:]))
    for kind in kinds:
        corrupt(lines, kind, n, data.draw)
    text = "\n".join(lines) + "\n"
    got, want = outcome(fileio.parse_instance, text), outcome(reference_parse_instance, text)
    assert got == want, text
    if not kinds:
        assert got == (p.instance, p.deviators)


def test_parsing_builds_no_rank_table():
    p = generate(GenSpec(n=200, list_cap=4, deviator_fraction=0.1, seed=3))
    inst, _ = fileio.parse_instance(fileio.serialize_instance(p.instance, p.deviators))
    assert len(inst.ranks) == 0


@pytest.mark.parametrize("engine", ["fpt", "bipartite"])
@pytest.mark.parametrize("objective", ["bp", "ba"])
@pytest.mark.parametrize("flags", [["--k", "0"], ["--optimize"]])
def test_cli_any_regime_solve_reads_only_lists_near_the_deviators(
    tmp_path, capsys, monkeypatch, engine, objective, flags
):
    """A CLI solve reads no list past distance two from a deviator.

    The file is a 2,000-agent path with the deviators at one end.  auto
    would send it to the shortlist solver, which covers every agent, so the
    test names the local engines.
    """
    n = 2000
    prefs = [()] + [tuple(j for j in (i - 1, i + 1) if 1 <= j <= n) for i in range(1, n + 1)]
    path = tmp_path / "path.dsm"
    path.write_text(fileio.serialize_instance(Instance(n, tuple(prefs)), frozenset({1, 2, 3})))
    reads = []
    parse = fileio.parse_instance

    def captured(text):
        result = parse(text)
        reads.append(record_list_reads(result[0]))
        return result

    monkeypatch.setattr(fileio, "parse_instance", captured)
    assert main(["solve", str(path), "--regime", "any", "--objective", objective,
                 "--engine", engine, *flags]) == 0
    note = "bipartite-restriction" if engine == "bipartite" else f"fpt-{objective}-any#0"
    assert capsys.readouterr().out.splitlines()[-2:] == ["value 0", f"algorithm {note}"]
    [read] = reads
    assert read <= set(range(1, 6))


def test_the_parser_is_built_once():
    from devmatch import cli

    assert cli._build_parser() is cli._build_parser()


def test_a_cached_parser_answers_each_call_as_a_fresh_one(tmp_path, capsys):
    """A sequence of calls on one parser prints what each call prints when made first."""
    from devmatch import cli

    p = generate(GenSpec(n=30, list_cap=4, deviator_fraction=0.3, seed=11))
    inst = tmp_path / "inst.dsm"
    inst.write_text(fileio.serialize_instance(p.instance, p.deviators))
    out = str(tmp_path / "m.txt")
    calls = [
        ["solve", str(inst), "--k", "0"],
        ["solve", str(inst), "--optimize", "--out", out],
        ["verify", str(inst), "--matching", out],
        ["solve", str(inst), "--k", "x"],
        ["solve", str(inst), "--k", "0"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        cli._build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _, _ in first] == [first[0][0], 0, 0, 2, first[0][0]]
    assert [run(argv) for argv in calls] == first
