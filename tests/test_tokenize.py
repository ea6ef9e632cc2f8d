"""parser.tokenize gives what the match-per-position loop of
tokenize_oracle gives: the same tokens, all six fields, and the same
ParseError, message and position, on the repository's scripts, on the
pinned parse-error corpus, on generated and mutated texts and on hand
cases at the edges of the blank and comment rules.
"""

import json
import random
import time
from pathlib import Path

import pytest

import tokenize_oracle
from generators import _SEEDS, mutate, rand_concrete
from opptypes import ParseError
from opptypes.parser import Token, tokenize

REPO = Path(__file__).resolve().parent.parent

HAND_CASES = (
    "", " ", "\t", "atom a;  \t ", "atom a;\n \t", "atom a;\r\natom b;\r\n",
    "atom a;\ratom b;", "\r", "atom a;\f", "a\fb", "atom é;", "xé",
    "atom a; -- the end", "-- only a comment", "a--b", "-->", "a -->b",
    "1a", "a1_b2 12 ->a<~b=>c", "a -b", "a - b", "a -", "-", "\n\n  x\n",
    "atom a;\n\n-- c\n  \t\n", "<~~(a)", "a\n\fb", "é", "a b",
    # the edges of one split of the whole text
    "a", "atom a;", "(", "->", "12", "a -- c", "a -- c\n", "a --", "--",
    "--\n", "-- c\n-- d", " \t\n-- c\n\r\n  -- d\n ", "\n\n",
    "a -- c\n$", "a -- c; d\n\t@ b", "-- c\n-- d\n  é", "a\n-- c\n-",
)


def _outcome(fn, text):
    try:
        tokens = fn(text)
    except ParseError as e:
        return "error", str(e), e.line, e.col, e.expected
    return "ok", [(type(t), *t) for t in tokens]


def _assert_agrees(text):
    want = _outcome(tokenize_oracle.tokenize, text)
    assert _outcome(tokenize, text) == want, text
    return want[0]


def _corpus_texts():
    paths = sorted((REPO / "scripts").glob("*.ptt"))
    paths += sorted((REPO / "tests" / "golden").glob("*.ptt"))
    assert len(paths) >= 4
    texts = [p.read_text() for p in paths]
    corpus = json.loads((REPO / "tests" / "golden"
                         / "parse_errors.json").read_text())
    return texts + [text for _, text, _ in corpus]


@pytest.mark.parametrize("text", HAND_CASES)
def test_hand_cases(text):
    _assert_agrees(text)


def test_scripts_and_the_parse_error_corpus():
    for text in _corpus_texts():
        _assert_agrees(text)


def test_scripts_with_their_blanks_changed():
    rng = random.Random(61)
    for text in _corpus_texts():
        for blank in ("\t", " \r", "\r\n", "\f", "  "):
            _assert_agrees(text.replace("\n", blank + "\n"))
            _assert_agrees(text + blank)
        _assert_agrees(mutate(rng, text))


def test_generated_and_mutated_texts():
    rng = random.Random(4417)
    kinds = set()
    for _, text in _SEEDS:
        for _ in range(20):
            text = mutate(rng, text)
            kinds.add(_assert_agrees(text))
    for _ in range(3000):
        kinds.add(_assert_agrees(rand_concrete(rng)[1]))
    assert kinds == {"ok", "error"}


def test_every_character_is_a_token_an_error_or_a_blank():
    # both tokenizers on every single character, alone and after a token
    for code in range(0x250):
        ch = chr(code)
        for text in (ch, "a" + ch, "a " + ch + " b"):
            _assert_agrees(text)


def test_tokens_are_tokens():
    tokens = tokenize("pred p(a);  -- c\n  nnf ~p(x);")
    assert all(type(t) is Token for t in tokens)
    assert tokens[-1] == Token("eof", "", 2, 13, 29, 29)
    assert tokens[6]._replace(value="q").value == "q"


@pytest.mark.parametrize("make", (
    lambda n: (" \t\r\n" * n)[:n] + "@",                # one blank run
    lambda n: "--" + "c" * n + "\n@",                     # one comment
    lambda n: ("-- " + "c" * 60 + "\n") * (n // 64) + "@",  # many comments
))
def test_long_blank_runs_cost_linear_time(make):
    # a run of blanks or comments followed by a bad character: a scanner
    # that searched again from each position of the run would be quadratic
    def best_times(*sizes):
        # the thread's CPU time, which other processes do not inflate; the
        # sizes take turns, so a burst of load on the host slows each alike
        texts = [make(n) for n in sizes]
        best = [float("inf")] * len(texts)
        for _ in range(5):
            for i, text in enumerate(texts):
                start = time.thread_time()
                with pytest.raises(ParseError,
                                   match="unexpected character '@'"):
                    tokenize(text)
                best[i] = min(best[i], time.thread_time() - start)
        return best

    _assert_agrees(make(200))
    small, large = best_times(100_000, 200_000)
    assert large <= 2.5 * small
