"""The command-line front end, driven through main(argv)."""

import json
import random
from pathlib import Path

import pytest

import ecidpda.automata as automata_module
import ecidpda.cli as cli_module
from ecidpda import (CallRule, DETERMINISTIC, Ecidpda, ReturnRule, TRUE,
                     embed_untimed, is_deterministic, parse_guard)
from ecidpda.cli import EXIT_ACCEPT, EXIT_ERROR, EXIT_REJECT, main
from ecidpda.generate import random_automaton
from ecidpda.timed import ClockKind, PartitionedAlphabet


@pytest.fixture
def alphabet():
    return PartitionedAlphabet({"<"}, {">"}, {"c", "d"})


@pytest.fixture
def bracket_files(tmp_path, alphabet):
    """A one-pair bracket acceptor plus accepted/rejected/broken strings."""
    a = embed_untimed(["q0", "q1"], ["q0"], ["q1"], ["g"], alphabet,
                      calls=[("q0", "<", "q0", "g")],
                      returns=[("q0", ">", "g", "q1")])
    automaton = tmp_path / "a.json"
    a.save(str(automaton))

    def string_file(name: str, lines: list[str]) -> str:
        path = tmp_path / name
        header = ["calls: <", "returns: >", "internals: c d"]
        path.write_text("\n".join(header + lines) + "\n")
        return str(path)

    return {
        "automaton": str(automaton),
        "accepted": string_file("ok.txt", ["< 0.5", "> 1.5"]),
        "rejected": string_file("no.txt", ["c 1"]),
        "broken": string_file("bad.txt", ["< 2", "> 1"]),
    }


class TestRun:
    def test_accept(self, bracket_files, capsys):
        code = main(["run", bracket_files["automaton"],
                     bracket_files["accepted"]])
        out = capsys.readouterr().out
        assert code == EXIT_ACCEPT
        assert "ACCEPT" in out
        assert out.count("step") == 3  # initial configuration plus 2 events

    def test_reject(self, bracket_files, capsys):
        code = main(["run", bracket_files["automaton"],
                     bracket_files["rejected"]])
        assert code == EXIT_REJECT
        assert "REJECT" in capsys.readouterr().out

    def test_non_increasing_timestamps(self, bracket_files, capsys):
        code = main(["run", bracket_files["automaton"],
                     bracket_files["broken"]])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, bracket_files, capsys):
        code = main(["run", bracket_files["automaton"], "/nonexistent"])
        assert code == EXIT_ERROR

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_ERROR

    @pytest.mark.parametrize("header, code", [
        (["calls: <", "returns: >", "internals: c"], EXIT_ACCEPT),
        (["internals: < > c"], EXIT_ERROR),
    ])
    def test_string_classes_must_match_the_automaton(self, header, code,
                                                     tmp_path, capsys):
        alphabet = PartitionedAlphabet({"<"}, {">"}, {"c"})
        a = Ecidpda(alphabet, ["q0", "q1", "q2"], ["q0"], ["q2"], ["g"], [
            CallRule("q0", "<", parse_guard("stackpred <= 1"), "q1", "g"),
            ReturnRule("q1", ">", "g", TRUE, "q2")])
        automaton, string = tmp_path / "a.json", tmp_path / "w.txt"
        a.save(str(automaton))
        string.write_text("\n".join(header + ["< 1", "> 1.5"]) + "\n")
        assert main(["run", str(automaton), str(string)]) == code
        if code == EXIT_ERROR:
            assert "classed differently" in capsys.readouterr().err


class TestDeterminize:
    @pytest.mark.parametrize("mode", ["untimed", "direct", "nostackpred"])
    def test_output_is_deterministic(self, mode, tmp_path, capsys):
        rng = random.Random(600)
        a = random_automaton(rng, timed=(mode != "untimed"))
        src = tmp_path / "src.json"
        out = tmp_path / "det.json"
        a.save(str(src))
        code = main(["determinize", str(src), "--mode", mode,
                     "-o", str(out)])
        assert code == EXIT_ACCEPT
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["within"] is True
        det = Ecidpda.load(str(out))
        assert is_deterministic(det) == DETERMINISTIC
        assert report["output"]["states"] == len(det.states)
        if mode == "nostackpred":
            assert all(at.clock.kind is not ClockKind.STACK_PREDICTION
                       for at in det.atom_set())


class TestCheckDet:
    def test_deterministic(self, bracket_files, capsys):
        code = main(["check-det", bracket_files["automaton"]])
        assert code == EXIT_ACCEPT
        assert "deterministic" in capsys.readouterr().out

    def test_nondeterministic(self, tmp_path, alphabet, capsys):
        a = embed_untimed(["q0", "q1"], ["q0"], [], [], alphabet,
                          internal=[("q0", "c", "q0"), ("q0", "c", "q1")])
        path = tmp_path / "n.json"
        a.save(str(path))
        code = main(["check-det", str(path)])
        assert code == EXIT_REJECT
        assert "nondeterministic" in capsys.readouterr().out


class TestDeepGuard:
    @pytest.fixture
    def deep_automaton(self, bracket_files, tmp_path):
        """The one-pair acceptor with a 1,200-conjunct guard on every rule."""
        data = json.loads(Path(bracket_files["automaton"]).read_text())
        for rule in data["transitions"]:
            rule["guard"] = " and ".join(["hist(c) >= 0"] * 1200)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_check_det_fails_fast(self, deep_automaton, capsys):
        assert main(["check-det", deep_automaton]) == EXIT_ERROR
        assert "deeper than" in capsys.readouterr().err

    def test_run_fails_fast(self, deep_automaton, bracket_files, capsys):
        code = main(["run", deep_automaton, bracket_files["accepted"]])
        assert code == EXIT_ERROR
        assert "deeper than" in capsys.readouterr().err


class TestBadInput:
    def test_bad_guard_bound(self, bracket_files, tmp_path, capsys):
        data = json.loads(Path(bracket_files["automaton"]).read_text())
        data["transitions"][0]["guard"] = "hist(c) <= x"
        path = tmp_path / "bad_bound.json"
        path.write_text(json.dumps(data))
        assert main(["check-det", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("event", [["c", 1], ["c", "abc"], ["c"], 5])
    def test_bad_json_event(self, event, bracket_files, tmp_path, capsys):
        path = tmp_path / "bad_event.json"
        path.write_text(json.dumps({
            "alphabet": {"calls": ["<"], "returns": [">"],
                         "internals": ["c", "d"]},
            "events": [event]}))
        assert main(["run", bracket_files["automaton"], str(path)]) \
            == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_exponent_in_json_event(self, bracket_files, tmp_path, capsys):
        # Fraction would expand the exponent into a 10^999999999 integer.
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps({
            "alphabet": {"calls": ["<"], "returns": [">"],
                         "internals": ["c", "d"]},
            "events": [["c", "1e999999999"]]}))
        assert main(["run", bracket_files["automaton"], str(path)]) \
            == EXIT_ERROR
        assert "not a rational literal" in capsys.readouterr().err

    def test_exponent_in_text_event(self, bracket_files, tmp_path, capsys):
        path = tmp_path / "exponent.txt"
        path.write_text("calls: <\nreturns: >\ninternals: c d\n"
                        "c 1e999999999\n")
        assert main(["run", bracket_files["automaton"], str(path)]) \
            == EXIT_ERROR
        assert "not a rational literal" in capsys.readouterr().err

    def test_directory_as_automaton(self, bracket_files, tmp_path, capsys):
        assert main(["check-det", str(tmp_path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [
        {"events": 5},
        {"alphabet": []},
        {"alphabet": {"calls": "<", "returns": [">"], "internals": ["c"]}},
    ], ids=["events", "alphabet", "class-as-string"])
    def test_bad_json_string_shape(self, patch, bracket_files, tmp_path,
                                   capsys):
        path = tmp_path / "bad_string.json"
        path.write_text(json.dumps({
            "alphabet": {"calls": ["<"], "returns": [">"],
                         "internals": ["c", "d"]},
            "events": [["<", "1/2"], [">", "3/2"]], **patch}))
        assert main(["run", bracket_files["automaton"], str(path)]) \
            == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        lambda a: {**a, "states": 5},
        lambda a: {**a, "transitions": [5]},
        lambda a: {**a, "transitions": [{**a["transitions"][0], "guard": 3}]},
        lambda a: {**a, "transitions": [{**a["transitions"][0], "to": [1]}]},
        lambda a: {**a, "alphabet": {**a["alphabet"], "internals": "cd"}},
        lambda a: [],
    ], ids=["states", "transition", "guard", "target", "class-as-string",
            "top-level"])
    def test_bad_json_automaton_shape(self, damage, bracket_files, tmp_path,
                                      capsys):
        data = json.loads(Path(bracket_files["automaton"]).read_text())
        path = tmp_path / "bad_automaton.json"
        path.write_text(json.dumps(damage(data)))
        assert main(["check-det", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [
        {"n": "2"}, {"X": [5]}, {"X": [[5]]}, {"R": [[0]]},
        {"R": [[[0, 1, 1]]]}, {"s": "01"}, {"X": [["e\u00b2"]]},
    ], ids=["n", "X", "X-member", "R", "R-triple", "s", "X-superscript"])
    def test_bad_witness_spec_shape(self, patch, tmp_path, capsys):
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps({
            "n": 2, "k": 1, "m": 1, "s": [0, 1],
            "R": [[[0, 1]]], "X": [["e1"]], "Y": [["e1"]], **patch}))
        code = main(["witness", "--n", "2", "--k", "1", "--spec", str(path)])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{\x00}\x00",
        b'{"events": ' + b"[" * 50_000 + b"]" * 50_000 + b"}",
    ], ids=["utf16-bom", "deep"])
    @pytest.mark.parametrize("loader", ["automaton", "string", "spec"])
    def test_unreadable_json(self, loader, content, bracket_files, tmp_path,
                             capsys):
        # Undecodable bytes and nesting too deep for the JSON decoder.
        path = str(tmp_path / "unreadable.json")
        Path(path).write_bytes(content)
        argv = {"automaton": ["check-det", path],
                "string": ["run", bracket_files["automaton"], path],
                "spec": ["witness", "--n", "2", "--k", "1", "--spec", path]}
        assert main(argv[loader]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("input_kind", ["line", "timestamp", "guard"])
    def test_long_input_gives_short_error(self, input_kind, bracket_files,
                                          tmp_path, capsys):
        # The error quotes the offending input; the CLI caps its length.
        long_token = "x" * 100_000
        path = tmp_path / "long.txt"
        if input_kind == "line":
            path.write_text("[" * 50_000 + "]" * 50_000 + "\n")
        elif input_kind == "timestamp":
            path.write_text(f"calls: <\nreturns: >\ninternals: c d\n"
                            f"c {long_token}\n")
        else:
            data = json.loads(Path(bracket_files["automaton"]).read_text())
            data["transitions"][0]["guard"] = long_token
            path.write_text(json.dumps(data))
        argv = (["check-det", str(path)] if input_kind == "guard"
                else ["run", bracket_files["automaton"], str(path)])
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.encode()) < 1024

class TestDiff:
    def test_no_mismatches_and_reproducible(self, capsys):
        argv = ["diff", "--mode", "direct", "--trials", "5",
                "--strings", "5", "--seed", "7"]
        assert main(argv) == EXIT_ACCEPT
        first = capsys.readouterr().out
        assert main(argv) == EXIT_ACCEPT
        assert capsys.readouterr().out == first
        assert json.loads(first)["mismatches"] == []

    def test_bad_trials(self, capsys):
        assert main(["diff", "--mode", "direct", "--trials", "0"]) \
            == EXIT_ERROR

    @pytest.mark.parametrize("flag, value", [
        ("--strings", "-3"), ("--strings", "0"), ("--max-states", "0"),
        ("--max-stack", "0"), ("--max-atoms", "-1"), ("--max-len", "-1"),
    ])
    def test_bad_counts(self, flag, value, capsys):
        code = main(["diff", "--mode", "direct", "--trials", "2",
                     flag, value])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


class TestWitness:
    def test_single_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n": 2, "k": 1, "m": 1, "s": [0, 1],
            "R": [[[0, 1]]], "X": [["e1"]], "Y": [["e1"]],
        }))
        nfa_path = tmp_path / "nfa.json"
        code = main(["witness", "--n", "2", "--k", "1",
                     "--spec", str(spec_path), "--nfa-out", str(nfa_path)])
        out = capsys.readouterr().out
        assert code == EXIT_ACCEPT
        assert "0 disagreements" in out
        assert "True" in out  # the spec above is valid
        nfa = Ecidpda.load(str(nfa_path))
        assert len(nfa.stack) == 2  # n * k

    def test_exhaustive_tiny(self, capsys):
        code = main(["witness", "--n", "1", "--k", "1", "--m", "1",
                     "--exhaustive"])
        out = capsys.readouterr().out
        assert code == EXIT_ACCEPT
        assert "checked 8 specs, 0 disagreements" in out

    def test_exhaustive_limits(self, capsys):
        code = main(["witness", "--n", "4", "--k", "1", "--exhaustive"])
        assert code == EXIT_ERROR

    def test_requires_spec_or_exhaustive(self, capsys):
        assert main(["witness", "--n", "2", "--k", "1"]) == EXIT_ERROR

    @pytest.fixture
    def no_compile(self, monkeypatch):
        """Bad flags must be refused before the unbounded compile."""
        def compile_called(_nfa):
            raise AssertionError("determinized before checking the flags")
        monkeypatch.setattr(cli_module, "determinize_direct", compile_called)

    def test_missing_mode_fails_before_compiling(self, no_compile, capsys):
        assert main(["witness", "--n", "4", "--k", "1"]) == EXIT_ERROR
        assert "--spec" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n", "--k", "--m"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_parameter(self, flag, value, no_compile, capsys):
        argv = ["witness", "--n", "1", "--k", "1", "--m", "1", "--exhaustive"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_builds_each_rule_index_once(self, monkeypatch, capsys):
        built = []

        class CountedIndex(cli_module.RuleIndex):
            def __init__(self, a):
                built.append(a)
                super().__init__(a)

        # simulate() builds its own index when given none.
        monkeypatch.setattr(cli_module, "RuleIndex", CountedIndex)
        monkeypatch.setattr(automata_module, "RuleIndex", CountedIndex)
        code = main(["witness", "--n", "1", "--k", "2", "--m", "1",
                     "--exhaustive"])
        out = capsys.readouterr().out
        assert code == EXIT_ACCEPT
        assert "checked 32 specs, 0 disagreements" in out
        assert len(built) == 2

    @pytest.mark.parametrize("mode", ["exhaustive", "spec"])
    def test_n_3_is_refused_before_building(self, mode, no_compile,
                                            tmp_path, monkeypatch, capsys):
        # The n = 3 compile runs out of memory instead of finishing.
        def built(*_args):
            raise AssertionError("built a witness automaton")
        monkeypatch.setattr(cli_module, "build_witness_nfa", built)
        argv = ["witness", "--n", "3", "--k", "1", "--m", "1"]
        if mode == "spec":
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({
                "n": 3, "k": 1, "m": 1, "s": [0, 2],
                "R": [[[0, 2]]], "X": [["e1"]], "Y": [["e1"]],
            }))
            argv += ["--spec", str(spec_path)]
        else:
            argv += ["--exhaustive"]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "n <= 2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n, k", [("1", "1"), ("3", "1"), ("2", "2")])
    def test_spec_parameters_must_match_flags(self, n, k, tmp_path,
                                              monkeypatch, capsys):
        # A valid n=2, k=1 spec checked against another family would be a
        # false disagreement, and a larger family an unbounded compile.
        def built(*_args):
            raise AssertionError("built a witness automaton")
        monkeypatch.setattr(cli_module, "build_witness_nfa", built)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n": 2, "k": 1, "m": 1, "s": [1, 0],
            "R": [[[1, 0]]], "X": [["e1"]], "Y": [["e1"]],
        }))
        code = main(["witness", "--n", n, "--k", k, "--spec",
                     str(spec_path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "n=2, k=1" in captured.err
        assert captured.out == ""
