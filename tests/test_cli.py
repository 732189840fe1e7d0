"""The command-line front end, driven through main(argv)."""

import json
import random
from pathlib import Path

import pytest

from ecidpda import (DETERMINISTIC, Ecidpda, TRUE, embed_untimed,
                     is_deterministic)
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
