"""Fuzzing of the text parsers: whatever the input, the only exception that
may leave ``parse``, ``parse_stash`` or ``parse_map`` is a StashpeelError.

Inputs are arbitrary text, text built from the formats' own tokens, and
valid files after a few random line and token edits.  Numbers are kept
small so that no mutated header asks for millions of vertices.  Valid
maps with blank lines, comments and surrounding whitespace must parse to
the same map, and a changed number must be reported on its own line.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stashpeel import ParseError, StashpeelError, format_stash, gen_random, parse, parse_stash, serialize
from stashpeel.reductions import (
    parse_map,
    reduce_vc_to_vertex_stash,
    reduce_vertex_to_edge_stash,
    serialize_map,
)

from helpers import hypergraphs, triangle

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
