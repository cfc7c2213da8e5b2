"""Differential tests of the scenario reader.

``scenario._read_sections`` must read every document as
``configparser.ConfigParser(interpolation=None, strict=True,
delimiters=("=",))`` with ``optionxform = str`` does, and ``load_scenario``
must give what the configparser-based loader it replaced gave: the same
scenario, or the same error. Both references are kept here. The documents
are the shipped and golden scenarios, the pinned renderings and
benchmark-style generated text, mutated line by line.
"""

import configparser
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dronesim import scenario as sc
from dronesim.scenario import (
    DroneSpec,
    LightSpec,
    Scenario,
    ScenarioError,
    WaypointPlan,
    load_scenario,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


# --------------------------------------------------------------------------
# References


def configparser_sections(text):
    """The sections configparser reads, with the errors the loader made of
    its exceptions (the handlers are the former loader's)."""
    parser = configparser.ConfigParser(interpolation=None, strict=True, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ScenarioError(f"syntax error: {exc.message.splitlines()[0]}",
                            f"line {exc.lineno}") from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if getattr(exc, "errors", None) else "?"
        raise ScenarioError("syntax error", f"line {lineno}") from exc
    except configparser.DuplicateSectionError as exc:
        raise ScenarioError(f"duplicate section [{exc.section}]",
                            f"line {exc.lineno}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ScenarioError(f"duplicate key {exc.option!r}",
                            f"line {exc.lineno}") from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}


# The configparser-based loader, verbatim but for the names of its three
# functions and the module prefix on the field tables it reads.

def parent_load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    import configparser  # on first use: most CLI commands load no document

    parser = configparser.ConfigParser(
        interpolation=None, strict=True, delimiters=("=",)
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ScenarioError(f"syntax error: {exc.message.splitlines()[0]}",
                            f"line {exc.lineno}") from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if getattr(exc, "errors", None) else "?"
        raise ScenarioError("syntax error", f"line {lineno}") from exc
    except configparser.DuplicateSectionError as exc:
        raise ScenarioError(f"duplicate section [{exc.section}]",
                            f"line {exc.lineno}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ScenarioError(f"duplicate key {exc.option!r}",
                            f"line {exc.lineno}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"syntax error: {exc}") from exc

    if not parser.has_section("scenario"):
        raise ScenarioError("missing [scenario] section", "[scenario]")
    raw = dict(parser.items("scenario"))
    world = _parent_read_section("[scenario]", raw, sc._SCENARIO_FIELDS).pop(None, {})
    world.pop("format_version", None)  # its codec has checked it

    drones: list[DroneSpec] = []
    lights: list[LightSpec] = []
    scripts: dict[str, tuple] = {}
    waypoints: dict[str, WaypointPlan] = {}
    for section in parser.sections():
        if section == "scenario":
            continue
        kind, _, ident = section.partition(" ")
        ident = ident.strip()
        location = f"[{section}]"
        if not ident:
            raise ScenarioError(f"section [{section}] needs a name", location)
        if kind not in sc._SECTIONS:
            raise ScenarioError(f"unknown section kind {kind!r}", location)
        values = _parent_read_section(location, dict(parser.items(section)), sc._SECTIONS[kind])
        spec = values.pop(None, {})
        if kind == "drone":
            drones.append(_parent_build_drone(location, ident, spec, values))
        elif kind == "light":
            lights.append(LightSpec(id=ident, **spec))
        elif kind == "script":
            scripts[ident] = spec["commands"]
        else:
            waypoints[ident] = WaypointPlan(**spec)

    return Scenario(drones=tuple(drones), lights=tuple(lights), scripts=scripts,
                    waypoints=waypoints, **world)


def _parent_read_section(location: str, raw: dict, fields) -> dict:
    """Parse one section by its field table into {group: {attribute: value}}."""
    values: dict = {}
    for f in fields:
        text = raw.get(f.key)
        if text is None:
            if f.presence == sc._REQUIRED:
                raise ScenarioError("missing required key", f"{location} {f.key}")
            continue
        try:
            if f.codec.block:
                lines = (line.strip() for line in text.splitlines())
                value = tuple(f.codec.parse(line) for line in lines if line)
            else:
                value = f.codec.parse(text)
        except ValueError as exc:
            raise ScenarioError(str(exc), f"{location} {f.key}") from exc
        values.setdefault(f.group, {})[f.attr] = value
    unknown = sorted(set(raw).difference(f.key for f in fields))
    if unknown:
        raise ScenarioError("unknown key", f"{location} {unknown[0]}")
    return values


def _parent_build_drone(location: str, ident: str, spec: dict, groups: dict) -> DroneSpec:
    """A drone spec; a group with no key set keeps the stock default."""
    if spec.pop("camera", False):
        groups.setdefault("camera", {})
    elif "camera" in groups:
        raise ScenarioError("camera keys set but camera is off", f"{location} camera")
    for group, values in groups.items():
        stock, where = sc._GROUPS[group]
        if group == "battery":
            # An unset cutoff is derived from the curve, not kept from the stock.
            values.setdefault("cutoff_charge", None)
        try:
            built = stock._replace(**values)
        except ValueError as exc:
            where = where or next(f.key for f in sc._SECTIONS["drone"] if f.group == group)
            raise ScenarioError(str(exc), f"{location} {where}") from exc
        holder, _, loop = group.partition(".")
        if loop:
            built = spec.get(holder, sc._STOCK["gains"])._replace(**{loop: built})
        spec[holder] = built
    return DroneSpec(id=ident, **spec)


def outcome(read, text):
    """What ``read(text)`` gives: its result's repr, which pins every float
    bit, or its exception's type and message."""
    try:
        return "ok", repr(read(text))
    except Exception as exc:  # noqa: BLE001 (the type is compared)
        return type(exc), str(exc)


# --------------------------------------------------------------------------
# The corpus


def _generated():
    """Benchmark-style documents, three drones each."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [make(seed, drones=3, ticks=5) for make in gen.GENERATORS.values() for seed in (1, 2)]


def _rendered():
    """The pinned renderings, one document per ``### label`` block."""
    text = (GOLDEN / "rendered_scenarios.txt").read_text(encoding="utf-8")
    return ["\n".join(block.split("\n")[1:]) for block in text.split("### ")[1:]]


CORPUS = (
    [path.read_text(encoding="utf-8") for path in sorted((REPO / "scenarios").glob("*.scn"))]
    + [(GOLDEN / "flight_paths.scn").read_text(encoding="utf-8")]
    + _rendered()
    + _generated()
)

# Indents configparser measures with str.isspace: tabs, a form feed, an
# information separator and Unicode spaces among them.
_INDENTS = ["", " ", "  ", "    ", "\t", " \t", "\x0c", "\x1c", "\u00a0", "\u2003", "\u3000"]
_SPACE = st.lists(st.sampled_from(_INDENTS), max_size=3).map("".join)
_BLANK = st.lists(st.sampled_from(_INDENTS + ["\r"]), max_size=3).map("".join)
_KEYS = ["position", "yaw", "charge", "speed", "points", "commands", "name", "dt",
         "led_on", "bogus", ""]
_VALUES = ["0 0 1", "5", "0.5", "on", "1 2", "", "0 velocity world 1 0 0 0", "x = y", "# z"]
_KEY_LINE = st.builds("{} = {}".format, st.sampled_from(_KEYS), st.sampled_from(_VALUES))
_HEADERS = ["[DEFAULT]", "[drone zz]", "[scenario]", "[light l9]", "[drone cf1]", "[]",
            "[drone]", "[waypoints cf1]", "[script cf1]", "[bogus x]"]


def _at(draw, lines, extra=0):
    """A line index, or the end with ``extra``; past the first line, which
    ``_top`` mutates, so that most documents keep their first header."""
    last = len(lines) - 1 + extra
    return draw(st.integers(min_value=min(1, max(last, 0)), max_value=max(last, 0)))


def _top(draw, lines):
    return [draw(st.one_of(_BLANK, _KEY_LINE, st.sampled_from(["# c", "[s]", " [s]"])))] + lines


def _insert(new_lines):
    def mutate(draw, lines):
        i = _at(draw, lines, extra=1)
        return lines[:i] + draw(new_lines) + lines[i:]
    return mutate


def _edit(change):
    def mutate(draw, lines):
        if not lines:
            return lines
        i = _at(draw, lines)
        return lines[:i] + [change(draw, lines[i])] + lines[i + 1:]
    return mutate


def _reindent(draw, line):
    return draw(_SPACE) + line.lstrip()


def _indent_block(draw, lines):
    """The same indent on a run of lines, as on the keys of an indented section."""
    if not lines:
        return lines
    i = _at(draw, lines)
    j = draw(st.integers(min_value=i, max_value=min(i + 6, len(lines))))
    prefix = draw(_SPACE)
    return lines[:i] + [prefix + line for line in lines[i:j]] + lines[j:]


def _lone_cr(draw, line):
    i = draw(st.integers(min_value=0, max_value=len(line)))
    return line[:i] + "\r" + line[i:]


def _header_tail(draw, line):
    if not line.startswith("["):
        return line
    return line + draw(st.sampled_from([" trailing", "]", " ; note", " # note", "x]"]))


def _no_equals(draw, line):
    return line.replace("=", draw(st.sampled_from([" ", ":", ""])), 1)


def _duplicate(draw, lines):
    if not lines:
        return lines
    i = _at(draw, lines)
    j = _at(draw, lines, extra=1)
    return lines[:j] + [lines[i]] + lines[j:]


def _delete(draw, lines):
    if not lines:
        return lines
    i = _at(draw, lines)
    return lines[:i] + lines[i + 1:]


_MUTATIONS = [
    # blank lines inside and after blocks
    _insert(st.lists(_BLANK, min_size=1, max_size=3)),
    # comment lines, indented or not, with what looks like a key in them
    _insert(st.builds(lambda s, c, k: [s + c + k], _SPACE, st.sampled_from(["#", ";"]),
                      st.sampled_from(["", " note", "key = 1", "[drone x]"]))),
    # a key indented after a blank line (a continuation), or at any depth
    _insert(st.builds(lambda s, k: ["", s + k], _SPACE, _KEY_LINE)),
    _insert(st.builds(lambda s, k: [s + k], _SPACE, _KEY_LINE)),
    _edit(_reindent),
    _indent_block,
    # [DEFAULT] and other headers, with and without keys
    _insert(st.builds(lambda h, ks: [h] + ks, st.sampled_from(_HEADERS),
                      st.lists(_KEY_LINE, max_size=2))),
    _edit(_header_tail),
    # duplicate sections and keys, lines without "=", ":" as a delimiter
    _duplicate,
    _edit(_no_equals),
    _insert(st.sampled_from([["oops"], [" = 3"], ["= x"], ["key: 1"], ["["], ["]"],
                             ["[unclosed"], ["a=b=c"]])),
    # line ends: CRLF on one line, a lone CR inside one
    _edit(lambda draw, line: line + "\r"),
    _edit(_lone_cr),
    _delete,
    _top,
]


@st.composite
def documents(draw):
    lines = draw(st.sampled_from(CORPUS)).split("\n")
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines = draw(st.sampled_from(_MUTATIONS))(draw, lines)
    text = "\n".join(lines)
    # Middle values: hypothesis draws the ends of a range more often.
    if draw(st.integers(min_value=0, max_value=9)) == 5:
        text = text.replace("\n", "\r\n")
    if draw(st.integers(min_value=0, max_value=19)) == 11:
        text = "\ufeff" + text
    return text


# --------------------------------------------------------------------------
# Tests


@settings(max_examples=600, deadline=None)
@given(documents())
def test_reader_matches_configparser(text):
    assert outcome(sc._read_sections, text) == outcome(configparser_sections, text)


@settings(max_examples=500, deadline=None)
@given(documents())
def test_load_matches_configparser_loader(text):
    assert outcome(load_scenario, text) == outcome(parent_load_scenario, text)


def test_corpus_loads():
    # The unmutated documents are valid, so the comparisons above reach
    # every section kind and codec, not only the syntax errors.
    for text in CORPUS:
        assert load_scenario(text) == parent_load_scenario(text)


# Hand-made documents for each rule of the grammar.
EDGES = {
    "continuation after blank lines": "[s]\na = 1\n\n\n  b\nc = 2\n",
    "comment inside a block": "[s]\na =\n    x\n# c\n  ; d\n    y\n",
    "blank lines before a continuation": "[s]\na =\n\n    x\n\n",
    "inline hash is part of the value": "[s]\na = 1 # not a comment\nb = ;x\n",
    "default merged": "[DEFAULT]\nk = 1\nj = 0\n[s]\nj = 2\n[t]\n",
    "default twice": "[DEFAULT]\nk = 1\n[s]\n[DEFAULT]\nm = 2\n",
    "default key repeated": "[DEFAULT]\nk = 1\n[DEFAULT]\nk = 2\n",
    "default without keys": "[DEFAULT]\n[s]\na = 1\n",
    "duplicate section beats earlier syntax error": "[s]\nbad\n[s]\n",
    "duplicate key beats earlier syntax error": "[s]\nbad\na = 1\na = 2\n",
    "first syntax error reported": "[s]\nbad\nworse\n = 1\n",
    "empty key": "[s]\n = 1\n",
    "empty key twice": "[s]\n = 1\n = 2\n",
    "empty key continues nothing": "[s]\n = 1\n  [t]\n",
    "colon delimiter": "[s]\na: 1\n",
    "continuation after a malformed line": "[s]\na = 1\nbad\n  more\n",
    "duplicate key inside such a continuation": "[s]\na = 1\nbad\n  a = 2\n",
    "keys at one indent": "[s]\n  a = 1\n  b = 2\n    c\n\td = 4\n",
    "missing header": "\n# c\nx = 1\n[s]\n",
    "bom": "\ufeff[s]\na = 1\n",
    "crlf": "[s]\r\na = 1\r\nb =\r\n    x\r\n\r\n",
    "lone cr": "[s]\na = 1\rb = 2\nc =\n    1\r2\n",
    "header with trailing text": "[s] trailing\n[t]] x\n[]]\n",
    "not headers": "[s]\n[] = 1\n[ = 2\n",
    "unicode indents": "[s]\na =\n\u00a0x\n\u3000\ty\n\x1cz\n",
    "indented header line": "[s]\n  [t]\n  a = 1\n",
    "header continues a value": "[s]\na = 1\n  [t]\n",
    "equals in the value": "[s]\na = b = c\n==\n",
    "empty document": "",
    "only comments": "# a\n; b\n",
}


@pytest.mark.parametrize("text", list(EDGES.values()), ids=list(EDGES))
def test_edge_documents(text):
    assert outcome(sc._read_sections, text) == outcome(configparser_sections, text)
    assert outcome(load_scenario, text) == outcome(parent_load_scenario, text)
