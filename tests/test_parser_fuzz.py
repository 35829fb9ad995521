"""Fuzzing of the text parsers: whatever the input, the only exception that
may leave ``parse``, ``parse_stash`` or ``parse_map`` is a StashpeelError.

Inputs are arbitrary text, text built from the formats' own tokens, and
valid files after a few random line and token edits.  Numbers are kept
small so that no mutated header asks for millions of vertices.  Valid
maps with blank lines, comments and surrounding whitespace must parse to
the same map, and a changed number must be reported on its own line.
The three readers share one line reader, so a spelling one refuses is
refused by all of them at the same line.  ``parse`` reads text in the exact
form ``serialize`` writes in bulk, also when blank and comment lines follow
it, and must give what the line reader gives on every text: the same
hypergraph, or the same error at the same line.  ``parse_map`` reads the
header and original of a map as written in bulk, and must give the same
map as for that map padded.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stashpeel import (ParseError, StashpeelError, format_stash, gen_random, parse, parse_stash, reductions,
                       serialize)
from stashpeel.hypergraph import _CHUNK, _parse_serialized, content_lines, parse_lines
from stashpeel.reductions import (
    _written_head,
    parse_map,
    reduce_vc_to_vertex_stash,
    reduce_vertex_to_edge_stash,
    serialize_map,
)

from helpers import hypergraphs, layout, triangle

WORDS = ("h", "e", "S", "v", "M", "G", "vc", "vstash", "g", "n", "orig", "reduced", "end",
         "#", "x", "-1", "1.5", "٣", "﻿")
TOKENS = st.one_of(st.sampled_from(WORDS), st.integers(-3, 40).map(str))
TOKEN_TEXT = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=12).map("\n".join)
ARBITRARY = st.one_of(st.text(max_size=80), TOKEN_TEXT)

MAPS = tuple(
    serialize_map(rmap)
    for rmap in (
        reduce_vc_to_vertex_stash(triangle(), 2, 2)[1],
        reduce_vc_to_vertex_stash(gen_random(4, 3, 2, 1), 3, 2)[1],
        reduce_vertex_to_edge_stash(gen_random(4, 5, 2, 9), 3, 2)[1],
        reduce_vertex_to_edge_stash(gen_random(4, 2, 3, 2), 2, 3)[1],
    )
)
INSTANCES = hypergraphs(max_vertices=6, max_edges=8).map(serialize)
STASHES = st.builds(format_stash, st.sampled_from(("v", "e")), st.sets(st.integers(0, 20), max_size=4))


@st.composite
def mutated(draw, valid):
    """A valid file after one to four random edits of its lines or tokens."""
    lines = draw(valid).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("drop", "copy", "move", "token", "cut")))
        if i == len(lines) or op == "copy":
            lines.insert(i, draw(st.sampled_from(lines)) if lines else "")
        elif op == "drop":
            del lines[i]
        elif op == "move":
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
        elif op == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            fields = lines[i].split()
            j = draw(st.integers(0, len(fields)))
            fields[j:j + draw(st.integers(0, 1))] = draw(st.lists(TOKENS, max_size=2))
            lines[i] = " ".join(fields)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def only_stashpeel_errors(parser, text: str) -> None:
    try:
        parser(text)
    except StashpeelError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(ARBITRARY, mutated(INSTANCES)))
def test_parse_raises_only_stashpeel_errors(text):
    only_stashpeel_errors(parse, text)


def line_reader(text: str):
    return parse_lines(content_lines(text))


def outcome(reader, text: str) -> tuple:
    """The layout reader(text) gives, or its ParseError's text and line."""
    try:
        return layout(reader(text))
    except ParseError as exc:
        return str(exc), exc.line


def _edit_token(text: str, line: int, token: int, edit) -> str:
    lines = text.splitlines()
    fields = lines[line].split(" ")
    fields[token] = edit(fields[token])
    lines[line] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def near_serialized(draw):
    """Serialize text as written, with a tail of comment or blank lines, or
    after one edit that leaves it readable but outside the exact form (all
    but the leading zero and the tails, which the bulk reader takes)."""
    text = draw(INSTANCES)
    line = draw(st.integers(0, text.count("\n") - 1))
    token = draw(st.integers(1, text.splitlines()[line].count(" ")))
    return draw(st.sampled_from((
        text,
        text.replace("\n", "\r\n"),
        text[:-1],
        text + "# map: x\n",
        text + "# peeled: 4 0 1\n# core: 2 3\n",
        text + "\n",
        text + "# map: x\n" + text.splitlines()[line] + "\n",
        text + "# map: x\ne 0 \u0661\n",
        _edit_token(text, line, token, lambda field: " " + field),
        _edit_token(text, line, token, lambda field: "0" + field),
    )))


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_serialized(), mutated(INSTANCES)))
def test_parse_agrees_with_the_line_reader(text):
    assert outcome(parse, text) == outcome(line_reader, text)


@settings(max_examples=100, deadline=None)
@given(hypergraphs(max_vertices=6, max_edges=8))
def test_serialize_text_with_edges_is_read_in_bulk(g):
    bulk = _parse_serialized(serialize(g))
    assert (bulk is not None) == (g.num_edges > 0)
    if bulk is not None:
        assert layout(bulk) == layout(g)


def test_bulk_reader_crosses_chunk_boundaries():
    g = gen_random(6000, 5000, 3, 1)
    text = serialize(g)
    assert len(text) > 2 * _CHUNK
    assert layout(_parse_serialized(text)) == layout(line_reader(text)) == layout(g)
    # a bad edge in the last chunk sends the whole text to the line reader
    lines = text.splitlines()
    lines[-2] = "e 7 3 7"
    bad = "\n".join(lines) + "\n"
    assert _parse_serialized(bad) is None
    with pytest.raises(ParseError) as exc:
        parse(bad)
    assert str(exc.value) == f"line {len(lines) - 1}: edge has a repeated vertex: (7, 3, 7)"


@settings(max_examples=200, deadline=None)
@given(st.one_of(ARBITRARY, mutated(STASHES)))
def test_parse_stash_raises_only_stashpeel_errors(text):
    only_stashpeel_errors(parse_stash, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(ARBITRARY, mutated(st.sampled_from(MAPS))))
def test_parse_map_raises_only_stashpeel_errors(text):
    only_stashpeel_errors(parse_map, text)


def test_mutation_sources_are_valid():
    for text in MAPS:
        parse_map(text)


NOISE = ("", "  ", "\t", "# comment", "  # M v 0 0")
PAD = ("", "", " ", "\t", " \t ")


@st.composite
def padded_maps(draw):
    """A valid map with blank lines, comment lines and whitespace around
    its lines inserted; returns (the valid map, the padded text)."""
    text = draw(st.sampled_from(MAPS))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    lines = []
    for line in text.splitlines():
        lines.extend(rnd.choices(NOISE, k=rnd.choice((0, 0, 0, 1, 2))))
        lines.append(rnd.choice(PAD) + line + rnd.choice(PAD))
    lines.extend(rnd.choices(NOISE, k=rnd.choice((0, 1, 2))))
    return text, "\n".join(lines) + rnd.choice(("", "\n"))


@settings(max_examples=100, deadline=None)
@given(padded_maps())
def test_parse_map_ignores_comments_blank_lines_and_surrounding_whitespace(maps):
    text, noisy = maps
    assert parse_map(noisy) == parse_map(text)


@settings(max_examples=100, deadline=None)
@given(padded_maps(), st.data())
def test_parse_map_reports_a_changed_number_on_its_line(maps, data):
    _, noisy = maps
    lines = noisy.splitlines()
    orig_end = next(i for i, line in enumerate(lines) if line.strip() == "G end")
    numbered = [
        (i, j)
        for i in range(orig_end + 1, len(lines))
        if not lines[i].strip().startswith("#")
        for j, token in enumerate(lines[i].split())
        if token.isdigit()
    ]
    i, j = data.draw(st.sampled_from(numbered))
    fields = lines[i].split()
    changed = int(fields[j]) + data.draw(st.integers(-3, 3).filter(bool))
    fields[j] = str(changed)
    lines[i] = " ".join(fields)
    with pytest.raises(ParseError) as exc:
        parse_map("\n".join(lines))
    assert exc.value.line == i + 1


def map_outcome(text: str, bulk: bool) -> tuple:
    """What parse_map gives for text, with or without its bulk reading of
    a written header and original: the map, or the error and its line."""
    with mock.patch.object(reductions, "_written_head", reductions._written_head if bulk else lambda text: None):
        try:
            return (parse_map(text),)
        except StashpeelError as exc:
            return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def head_mutated_maps(draw):
    """A valid map after one to four edits of its header and original."""
    head, end, rest = draw(st.sampled_from(MAPS)).partition("\nG end\n")
    return draw(mutated(st.just(head))) + end + rest


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated(st.sampled_from(MAPS)), head_mutated_maps(), padded_maps().map(lambda maps: maps[1])))
def test_parse_map_agrees_with_its_line_reader(text):
    assert map_outcome(text, bulk=True) == map_outcome(text, bulk=False)


@pytest.mark.parametrize("text", MAPS)
def test_a_written_map_and_the_same_map_padded_give_equal_maps(text):
    # a map as written is read without the line reader; a comment or a
    # padded line before its original sends it to the line reader
    header, rest = text.split("\n", 1)
    assert _written_head(text) is not None
    rmap = parse_map(text)
    for noisy in ("# a map\n" + text, " " + header + "\t\n" + rest, text + "# end\n"):
        assert parse_map(noisy) == rmap
    assert _written_head("# a map\n" + text) is _written_head(" " + header + "\n" + rest) is None


# spellings that int() reads as the number they replace but the formats
# refuse, each applied to the last number of a line
REFUSED = {
    "trailing-nbsp": lambda line: line + "\xa0",
    "trailing-ideographic-space": lambda line: line + "\u3000",
    "underscore": lambda line: line[:-1] + "0_" + line[-1],
    "plus": lambda line: line[:-1] + "+" + line[-1],
    "non-ascii-digit": lambda line: line[:-1] + chr(0x660 + int(line[-1])),
}
MAP = MAPS[0]


def _after(marker):
    """Index of the first 'e' line after `marker` in MAP's lines."""
    lines = MAP.splitlines()
    return next(i for i in range(lines.index(marker), len(lines)) if lines[i].startswith("e "))


# (reader, valid text, index of the line to spell badly)
READERS = {
    "instance": (parse, serialize(triangle()), 2),
    "stash": (parse_stash, "# stash\nS v 0 2\n", 1),
    "map-header": (parse_map, MAP, 0),
    "map-original": (parse_map, MAP, _after("G orig")),
    "map-reduced": (parse_map, MAP, _after("G reduced")),
}


@pytest.mark.parametrize("spelling", REFUSED)
@pytest.mark.parametrize("reader", READERS)
def test_readers_refuse_the_same_spellings_at_the_same_line(reader, spelling):
    # instance, stash and map text share one line reader, so each refused
    # spelling is refused alike wherever it stands, at the file's own line
    read, text, i = READERS[reader]
    lines = text.splitlines()
    bad = REFUSED[spelling](lines[i])
    at = 20  # pad with comments so the bad line is line 20 in every file
    lines = ["# pad"] * (at - 1 - i) + [*lines[:i], bad, *lines[i + 1:]]
    with pytest.raises(ParseError) as exc:
        read("\n".join(lines) + "\n")
    assert str(exc.value) == f"line {at}: non-ASCII, '_' or '+' character in {bad!r}"


@pytest.mark.parametrize("spelling", REFUSED)
@pytest.mark.parametrize("line", [0, 2, 3])
def test_a_map_as_written_with_one_bad_spelling_is_refused_at_its_line(line, spelling):
    # unpadded, the header and original would be read in bulk, which must
    # refuse what the line reader refuses: line 0 is the header, 2 and 3
    # the original's header and first edge
    lines = MAP.splitlines()
    bad = REFUSED[spelling](lines[line])
    with pytest.raises(ParseError) as exc:
        parse_map("\n".join([*lines[:line], bad, *lines[line + 1:]]) + "\n")
    assert str(exc.value) == f"line {line + 1}: non-ASCII, '_' or '+' character in {bad!r}"


@pytest.mark.parametrize("header", ["M vc 2 +1", "M vc 2 ١", "M vc 2 0_1"])
def test_a_map_header_that_int_reads_but_the_line_reader_refuses_is_refused(header):
    # int() reads these as d = 1, for which the build would fail first
    text = header + MAP[MAP.index("\n"):]
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert str(exc.value) == f"line 1: non-ASCII, '_' or '+' character in {header!r}"
