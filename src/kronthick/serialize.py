"""Canonical JSON documents and DOT export for graphs and decompositions.

Documents hold sorted vertices and edges, and vertex references inside
edge lists use the short printable names (x1_3, u_4, p2_1.u_1).
This module has one JSON renderer with two sinks: ``to_json`` joins its
pieces into one string, and ``write_json`` hands them to a write function
one by one, a piece per top-level member and per item of a list of
objects, so ``decompose`` streams a decomposition part by part and never
holds its whole text.  The text is exactly ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a trailing newline for every value built from dicts
with str keys, lists, tuples, str, int, bool, None and float, so write ->
read -> write is byte-identical; tests compare it with ``json.dumps``
directly.  The renderer exists because json falls back to its pure-Python
encoder whenever an indent is given.  It writes strings with json's C
``encode_basestring_ascii``, exact ints with ``int.__repr__``, and every
other leaf with json's own encoder; and it renders the two bulk shapes of a
decomposition document at once, lists of [name, name] edge pairs and the
flat vertex objects that every part repeats.  Both go through memos that
live for one document, per depth: a name is encoded once, as the fragment
that opens a pair with it and the one that closes a pair with it, so a
pair costs two lookups and one join; and a flat object is
rendered once per distinct items.
"""

from __future__ import annotations

import json
import mmap
from itertools import chain, islice
from operator import eq, itemgetter

from .bounds import BoundReport
from .constructions import Decomposition
from .errors import DocumentFormatError, SeedInvalidError
from .graphs import (
    Family,
    Graph,
    ProductVertex,
    VertexLabel,
    make_complete_bipartite,
)
from .verification import VerificationReport

FORMAT_VERSION = "1"

_FAMILY_NAMES = {fam: ("Plain" if fam is Family.PLAIN else fam.name) for fam in Family}
_FAMILIES_BY_NAME = {name: fam for fam, name in _FAMILY_NAMES.items()}


# ============================================================
# Vertices
# ============================================================


def vertex_object(v) -> dict:
    if isinstance(v, ProductVertex):
        return {"left": vertex_object(v.left), "right": vertex_object(v.right)}
    obj: dict = {"family": _FAMILY_NAMES[v.family], "index": v.index}
    if v.layer:
        obj["layer"] = v.layer
    return obj


def vertex_from_object(obj) -> VertexLabel | ProductVertex:
    if not isinstance(obj, dict):
        raise DocumentFormatError(f"vertex entry must be an object, got {obj!r}")
    if "left" in obj or "right" in obj:
        if set(obj) != {"left", "right"}:
            raise DocumentFormatError(f"pair vertex needs exactly left/right: {obj!r}")
        left = vertex_from_object(obj["left"])
        right = vertex_from_object(obj["right"])
        if not isinstance(left, VertexLabel) or not isinstance(right, VertexLabel):
            raise DocumentFormatError("pair vertices cannot nest")
        return ProductVertex(left, right)
    if not obj.keys() <= {"family", "index", "layer"}:
        raise DocumentFormatError(f"vertex object allows only family/index/layer: {obj!r}")
    try:
        family = _FAMILIES_BY_NAME[obj["family"]]
        index = obj["index"]
        layer = obj.get("layer")
    except (KeyError, TypeError) as exc:
        raise DocumentFormatError(f"bad vertex object {obj!r}") from exc
    # type(...) is int, not isinstance: JSON true/false must not pass as 1/0.
    if type(index) is not int or (layer is not None and type(layer) is not int):
        raise DocumentFormatError(f"bad vertex object {obj!r}")
    try:
        return VertexLabel(family, index, layer)
    except Exception as exc:
        raise DocumentFormatError(f"bad vertex object {obj!r}: {exc}") from exc


# ============================================================
# Graphs
# ============================================================


def _graph_objects(graphs) -> list[dict]:
    """The graph objects of graphs; each vertex's name and object made once.

    Edges are named from each graph's index pairs.  Every occurrence of a
    vertex gets its own copy of the object, so no two places in a document
    share a mutable dict; a label's object is flat, so dict copies it.
    """
    vertices = set().union(*(g.vertices for g in graphs))
    name = {v: v.name for v in vertices}
    obj = {v: vertex_object(v) for v in vertices}
    copy = _copy_object if any(isinstance(v, ProductVertex) for v in vertices) else dict
    docs = []
    for g in graphs:
        names = list(map(name.__getitem__, g.vertices))
        docs.append({
            "vertices": list(map(copy, map(obj.__getitem__, g.vertices))),
            "edges": [[names[i], names[j]] for i, j in g.pairs],
        })
    return docs


def _copy_object(obj: dict) -> dict:
    return {k: _copy_object(x) if type(x) is dict else x for k, x in obj.items()}


def graph_document(g: Graph) -> dict:
    [doc] = _graph_objects([g])
    doc["format_version"] = FORMAT_VERSION
    return doc


def _vertex_lists():
    """A reader of vertex lists: (sorted labels, name -> position) per list.

    The first list read, a decomposition's target, is kept.  A later list
    equal to it takes its result without reading an object, when every
    value in it is a str, int or None: 1 == True == 1.0, so equality alone
    would let a part's true or 1.0 pass as the target's 1.  Any other list
    has each of its objects read.
    """
    first = None  # (objects, result) of the first list read

    def index(objs: list) -> tuple:
        nonlocal first
        if first is not None and objs == first[0] and _scalar_values(objs):
            return first[1]
        named = [(v, v.name) for v in map(vertex_from_object, objs)]
        seen: set = set()
        for _, name in named:
            if name in seen:
                raise DocumentFormatError(f"duplicate vertex {name}")
            seen.add(name)
        named.sort(key=itemgetter(0))
        result = tuple([v for v, _ in named]), {name: i for i, (_, name) in enumerate(named)}
        if first is None:
            first = objs, result
        return result

    return index


def _scalar_values(objs: list) -> bool:
    """Whether the values of the dicts objs are all str, int or None."""
    return _MEMO_SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, objs))))


def _graph_from_object(obj, index) -> Graph:
    """The graph of a graph object, its edges as index pairs over sorted vertices."""
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise DocumentFormatError("graph object needs 'vertices' and 'edges'")
    _check_list(obj["vertices"], "vertices")
    _check_list(obj["edges"], "edges")
    labels, by_name = index(obj["vertices"])
    get = by_name.get
    pairs = []
    for entry in obj["edges"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentFormatError(f"edge entry must be a [ref, ref] pair: {entry!r}")
        ra, rb = entry
        try:
            i, j = get(ra), get(rb)
        except TypeError:  # an unhashable reference
            i = j = None
        if i is None or j is None or i == j:
            _reject_edge(entry, by_name, labels)
        pairs.append((i, j) if i < j else (j, i))
    # a document lists its edges sorted, which sort() checks in one pass
    pairs.sort()
    if any(map(eq, pairs, islice(pairs, 1, None))):
        raise DocumentFormatError("an edge is listed twice")
    return Graph._trusted(labels, tuple(pairs))


def _reject_edge(entry: list, by_name: dict, labels: tuple) -> None:
    """Raise the format error of an edge pair that one lookup per end rejected."""
    ra, rb = entry
    if not (isinstance(ra, str) and isinstance(rb, str)):
        raise DocumentFormatError(f"edge references must be vertex names: {entry!r}")
    if ra not in by_name or rb not in by_name:
        raise DocumentFormatError(f"edge references unknown vertex: {entry!r}")
    raise DocumentFormatError(f"bad edge: self-loop at {labels[by_name[ra]]!r}")


def graph_from_document(doc) -> Graph:
    _check_version(doc)
    return _graph_from_object(doc, _vertex_lists())


def _check_list(value, key: str) -> None:
    if not isinstance(value, list):
        raise DocumentFormatError(f"'{key}' must be a list, got {type(value).__name__}")


def _check_version(doc) -> None:
    if not isinstance(doc, dict):
        raise DocumentFormatError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentFormatError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )


# ============================================================
# Decompositions
# ============================================================


def decomposition_document(d: Decomposition) -> dict:
    target, *parts = _graph_objects([d.target, *d.parts])
    return {
        "format_version": FORMAT_VERSION,
        "target": target,
        "parts": parts,
        "guarantee": d.guarantee,
        "provenance": {"theorem": d.provenance, "figure": d.figure},
    }


def decomposition_from_document(doc) -> Decomposition:
    _check_version(doc)
    for key in ("target", "parts", "guarantee", "provenance"):
        if key not in doc:
            raise DocumentFormatError(f"decomposition document missing '{key}'")
    prov = doc["provenance"]
    if not isinstance(prov, dict) or "theorem" not in prov:
        raise DocumentFormatError("provenance must be an object with a 'theorem'")
    if not isinstance(doc["guarantee"], str):
        raise DocumentFormatError("guarantee must be a string")
    if not isinstance(prov["theorem"], str):
        raise DocumentFormatError("provenance theorem must be a string")
    figure = prov.get("figure")
    if figure is not None and not isinstance(figure, str):
        raise DocumentFormatError("provenance figure must be a string or null")
    _check_list(doc["parts"], "parts")
    index = _vertex_lists()
    target = _graph_from_object(doc["target"], index)
    if not target.vertices:
        raise DocumentFormatError("decomposition target has no vertices")
    return Decomposition(
        target=target,
        parts=tuple(_graph_from_object(o, index) for o in doc["parts"]),
        guarantee=doc["guarantee"],
        provenance=prov["theorem"],
        figure=figure,
    )


# ============================================================
# Reports
# ============================================================


def _edge_names(e) -> list[str]:
    return [e[0].name, e[1].name]


def report_document(report: VerificationReport) -> dict:
    """The report as a document; the keys of the defects that only some
    documents can have appear only when there is one."""
    doc = {
        "passed": report.passed,
        "optimality": report.optimality,
        "coverage_missing": [_edge_names(e) for e in report.coverage_missing],
        "coverage_extra": [_edge_names(e) for e in report.coverage_extra],
        "overlap": [
            {"edge": _edge_names(e), "parts": list(parts)}
            for e, parts in report.overlap
        ],
        "nonplanar_parts": list(report.nonplanar_parts),
    }
    if report.foreign_vertices:
        doc["foreign_vertices"] = [v.name for v in report.foreign_vertices]
    if report.uncertified_claim:
        doc["uncertified_claim"] = report.uncertified_claim
    return doc


def bound_report_document(rep: BoundReport) -> dict:
    return {
        "lower": rep.lower,
        "upper": rep.upper,
        "exact": rep.exact,
        "provenance": list(rep.provenance),
    }


# ============================================================
# Seeds
# ============================================================


def seed_from_document(doc) -> Decomposition:
    """Read a seed, a Decomposition of K_{4p+3,4p+3}, from a document.

    Only the target is checked here; constructions.validate_seed checks
    p, the parts and their planarity when the seed is assembled.
    """
    d = decomposition_from_document(doc)
    m, odd = divmod(d.target.num_vertices, 2)
    if odd or m % 4 != 3 or d.target != make_complete_bipartite(m, m):
        raise SeedInvalidError("seed target must be K_{m,m} with m = 4p+3")
    return d


def load_seed_file(path) -> Decomposition:
    return seed_from_document(load_json(path))


# ============================================================
# JSON and DOT I/O
# ============================================================


_encode_str = json.encoder.encode_basestring_ascii
# Value types whose equal values always print alike and never equal a value
# of another of them: 1 == True == 1.0 and -0.0 == 0.0 rule out bool and float.
_MEMO_SCALARS = frozenset((str, int, type(None)))
_PAIR_TYPES = frozenset((list, tuple))
# None, bools, floats, int subclasses and unsupported types: json's own text
# for a leaf, or its TypeError.
_encode_leaf = json.JSONEncoder().encode


def to_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte for byte."""
    return "".join(_chunks(doc))


def write_json(doc, write) -> None:
    """Call write with the text of ``to_json(doc)``, in pieces.

    There is one piece per top-level member, and one per item of a member
    that is a list of objects, so a decomposition's parts are rendered one
    at a time and its whole text is never held.
    """
    for chunk in _chunks(doc):
        write(chunk)


def _chunks(doc):
    """The text of ``to_json(doc)``, piece by piece, from one renderer.

    A flat object, one whose values are all str, int or None, is keyed on
    its items alone, since no two such values of different types are equal;
    an object holding a bool or a float, where 1 == True == 1.0, is not
    memoised.  A list of flat objects is looked up with no Python call per
    object.
    """
    flat: dict = {}  # depth -> {items: text of a flat object}
    ends: dict = {}  # depth -> ({name: opening fragment}, {name: closing fragment})

    def value(o, level: int) -> str:
        if isinstance(o, str):
            return _encode_str(o)
        if type(o) is int:
            return int.__repr__(o)
        if isinstance(o, (list, tuple)):
            return array(o, level)
        if isinstance(o, dict):
            if _MEMO_SCALARS.issuperset(map(type, o.values())):
                return flat_objects([o], level)[0]
            return members(o.items(), level)
        return _encode_leaf(o)

    def array(seq, level: int) -> str:
        if not seq:
            return "[]"
        nl = "\n" + "  " * (level + 1)
        types = set(map(type, seq))
        if (types <= _PAIR_TYPES
                and set(map(len, seq)) == {2}
                and set(map(type, chain.from_iterable(seq))) == {str}):
            opening, closing = ends.setdefault(level, ({}, {}))
            nl2 = nl + "  "
            for name in set(chain.from_iterable(seq)).difference(opening):
                text = _encode_str(name)
                opening[name] = f"[{nl2}{text},"
                closing[name] = f"{nl2}{text}{nl}]"
            items = [opening[a] + closing[b] for a, b in seq]
        elif types == {dict}:
            items = list(objects(seq, level + 1))
        else:
            items = [value(x, level + 1) for x in seq]
        # The brackets go onto the first and last item, so a large text is
        # copied once, by the join, and not again by each concatenation.
        items[0] = "[" + nl + items[0]
        items[-1] += nl[:-2] + "]"
        return ("," + nl).join(items)

    def objects(seq, level: int):
        """The texts of a list of objects: all at once when every object is
        flat, else each rendered when it is reached."""
        if _scalar_values(seq):
            return flat_objects(seq, level)
        return (value(x, level) for x in seq)

    def flat_objects(objs, level: int) -> list[str]:
        memo = flat.setdefault(level, {})
        keys = list(map(tuple, map(dict.items, objs)))
        for key in set(keys).difference(memo):
            memo[key] = members(key, level)
        return list(map(memo.__getitem__, keys))

    def members(items, level: int) -> str:
        if not items:
            return "{}"
        nl = "\n" + "  " * (level + 1)
        texts = [f"{_encode_str(k)}: {value(x, level + 1)}" for k, x in sorted(items)]
        texts[0] = "{" + nl + texts[0]
        texts[-1] += nl[:-2] + "}"
        return ("," + nl).join(texts)

    if not isinstance(doc, dict) or not doc:
        yield value(doc, 0) + "\n"
        return
    # members(doc.items(), 0), with a list of objects opened item by item
    sep, close = "{", ""  # close: the bracket a streamed list leaves open
    for k, x in sorted(doc.items()):
        head = f"{close}{sep}\n  {_encode_str(k)}: "
        if isinstance(x, (list, tuple)) and x and set(map(type, x)) == {dict}:
            lead = head + "[\n    "
            for text in objects(x, 2):
                yield lead + text
                lead = ",\n    "
            close = "\n  ]"
        else:
            yield head + value(x, 1)
            close = ""
        sep = ","
    yield close + "\n}\n"


def load_json(path):
    """Parse a JSON file; undecodable bytes, runaway nesting and integers past
    Python's digit limit are format errors."""
    with open(path, "rb") as fh:
        try:
            return json.loads(_utf8_text(fh))
        except (ValueError, RecursionError) as exc:
            raise DocumentFormatError(f"invalid JSON in {path}: {exc}") from exc


def _utf8_text(fh) -> str:
    """The text that reading fh in text mode as UTF-8 gives, newlines translated.

    A regular file is decoded from a read-only map of it, so only the text
    takes heap memory: a freed bytes copy next to the text of a 10 MB
    document put the peak of repeated verifies on one of two levels 8 MB
    apart, by whether a few neighbouring kilobytes let the heap shrink.
    """
    try:
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # an empty file, a pipe or a device
        data = fh.read()
    try:
        text = str(data, "utf-8")
    finally:
        del data  # unmaps the file before the caller parses the text
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def graph_to_dot(g: Graph) -> str:
    names = [v.name for v in g.vertices]
    lines = ["graph G {"]
    lines += [f'  "{v}";' for v in names]
    lines += [f'  "{names[i]}" -- "{names[j]}";' for i, j in g.pairs]
    lines.append("}")
    return "\n".join(lines) + "\n"
