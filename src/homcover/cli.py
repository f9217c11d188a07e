"""Command-line interface.

Verbs: ``cover build``, ``trees count``, ``metrics profile``,
``embed export``, ``tower build``, ``suite run``.

Each verb accepts only the flags it reads; any other flag is a usage
error.

Exit codes: 0 = success / all checks pass, 1 = mathematical violations
found, 2 = usage or I/O error (a bad flag or value, a ``HomcoverError``
such as a malformed document, a rejected input or a ``suite run --fault``
that poisons nothing, invalid JSON, or a failed file operation),
3 = internal error (any other exception: a bug, reported as
``internal error:`` after its traceback).  The environment
variable ``HOMCOVER_OUT`` names a default output directory; relative
``--out`` paths are resolved against it.  Run it as ``homcover`` once
installed, or as ``python -m homcover`` from a source checkout with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

from .boxspace import DEFAULT_TOWER_CAP, build_tower
from .cover import CoverGraph, build_zm_cover
from .embed import _cut_bits, _edge_block_layout
from .errors import HomcoverError, ParseError
from .graph import (DEFAULT_SIZE_CAP, _document_fields, graph_document,
                    load_graph)
from .harness import DEFAULT_CHECKS, SuiteConfig, run_suite
from .metrics import _sample_sources, compression_profile
from .trees import (DEFAULT_TREE_CAP, _tree_from_edge_set,
                    count_spanning_trees, tree_counts)

OUT_DIR_ENV = "HOMCOVER_OUT"

EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: Vertices formatted per write of ``embed export``, and the bytes of
#: records one write may hold.
_EXPORT_BLOCK = 4096
_EXPORT_BLOCK_BYTES = 1 << 20

#: Edges formatted per write of a graph or cover document.
_EDGE_BLOCK = 1 << 16


def _resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _read_text(path: str) -> str:
    """The text of the file at path; ParseError, naming the path, for
    bytes that are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except ValueError as exc:  # UnicodeDecodeError
            raise ParseError(f"{path}: {type(exc).__name__}: {exc}") from None


def _parse_json(path: str, text: str):
    """The JSON value of text, read from path; ParseError, naming the
    path, for text that is not JSON within int() and recursion limits."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {type(exc).__name__}: {exc}") from None


def _read_json(path: str) -> dict:
    """The JSON value in the file at path, as `json.load` reads it."""
    return _parse_json(path, _read_text(path))


def _emit(out, chunks: Iterable[str]) -> None:
    """Write text chunks to the --out file if one is given, else to stdout."""
    if out:
        _write_file(_resolve_out(out), chunks)
    else:
        sys.stdout.writelines(chunks)


def _write_file(target: Path, chunks: Iterable[str]) -> None:
    """Write text chunks to the file at target.

    The file is written under a temporary sibling name and renamed onto
    the target only once every chunk is written, so a command that fails
    midway leaves no partial file and keeps a previous one intact.
    """
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- text records ------------------------------------------------------------
#
# The large texts -- the edge list of a graph or cover document and the
# rows of `embed export` -- are written from int arrays a block of rows at
# a time.  A block is a 2-D uint8 array of fixed-width fields, one record
# per row: decimal ids right-aligned in a fixed number of columns with
# NUL on the left, literal separators, and pieces gathered from a padded
# table.  NUL marks every unused byte, so the block's text is its
# non-NUL bytes in row-major order.


def _width(top: int) -> int:
    """Columns of the decimal ids 0..top."""
    return len(str(max(top, 0)))


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """The decimal text of the non-negative ints v right-aligned in
    `width` columns, NUL on the left: shape (len(v), width), uint8."""
    v = np.asarray(v)
    out = np.empty((v.size, width), dtype=np.uint8)
    for j in range(width):
        scale = 10 ** (width - 1 - j)
        out[:, j] = v // scale % 10 + ord("0")
        if j < width - 1:  # the last digit is written even for 0
            out[v < scale, j] = 0
    return out


def _records(rows: int, *fields) -> np.ndarray:
    """`rows` records of the fields side by side: shape (rows, width).

    A str field is a literal, the same in every record; an array field
    holds one record's bytes per row, shape (rows, ...).
    """
    parts = [np.frombuffer(f.encode("ascii"), dtype=np.uint8) if isinstance(f, str)
             else f.reshape(rows, f[0].size if rows else 0) for f in fields]
    rec = np.empty((rows, sum(p.shape[-1] for p in parts)), dtype=np.uint8)
    at = 0
    for p in parts:
        rec[:, at:at + p.shape[-1]] = p
        at += p.shape[-1]
    return rec


def _text(rec: np.ndarray) -> str:
    """The text of a block of records: its bytes, NUL dropped."""
    return rec[rec != 0].tobytes().decode("ascii")


def _joiner(rows: int, sep: str, first: bool) -> np.ndarray:
    """The field `sep` of rows records, blank in the first when `first`:
    the separator that joins records across blocks."""
    field = np.tile(np.frombuffer(sep.encode("ascii"), dtype=np.uint8), (rows, 1))
    if first:
        field[0] = 0
    return field


def _json_around(doc: dict, key: str) -> tuple[str, str]:
    """(head, tail) such that `json.dumps(doc, sort_keys=True)` is head,
    then the JSON of doc[key], then tail.

    Each other field is json's own rendering of it, so the value of `key`
    is placed by position, and no text in another field can be taken for
    it.
    """
    fields = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
              for k, v in sorted(doc.items()) if k != key]
    at = sorted(doc).index(key)
    head = "{" + "".join(f + ", " for f in fields[:at]) + json.dumps(key) + ": "
    return head, "".join(", " + f for f in fields[at:]) + "}"


def _edge_list_text(g) -> Iterable[str]:
    """`json.dumps` of g's edge list, [[tail, head], ...], in blocks of
    `_EDGE_BLOCK` edges."""
    width = _width(g.vertex_count - 1)
    tails, heads = g.tails, g.heads
    yield "["
    for start in range(0, g.edge_count, _EDGE_BLOCK):
        t = tails[start:start + _EDGE_BLOCK]
        yield _text(_records(t.size, _joiner(t.size, ", ", start == 0), "[",
                             _digits(t, width), ", ",
                             _digits(heads[start:start + _EDGE_BLOCK], width), "]"))
    yield "]"


def _document_text(doc: dict, g) -> Iterable[str]:
    """`json.dumps(doc, sort_keys=True) + "\n"` with g's edge list as
    doc's "edges", written from g's arrays."""
    head, tail = _json_around(doc, "edges")
    yield head
    yield from _edge_list_text(g)
    yield tail + "\n"


# -- cover document round-trip ---------------------------------------------


def _cover_fields(c: CoverGraph) -> dict:
    """The fields a cover document adds to its graph's document."""
    return {"base": graph_document(c.base), "m": c.m, "cotree": list(c.cotree)}


def cover_document(c: CoverGraph) -> dict:
    return {**graph_document(c.graph), **_cover_fields(c)}


def _cover_text(c: CoverGraph) -> Iterable[str]:
    """`json.dumps(cover_document(c), sort_keys=True) + "\n"`, in pieces."""
    return _document_text({**_document_fields(c.graph), **_cover_fields(c)},
                          c.graph)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_cover(doc: dict, size_cap: int = DEFAULT_SIZE_CAP) -> CoverGraph:
    if not isinstance(doc, dict):
        raise ParseError("cover document must be a JSON object")
    for key in ("base", "m", "cotree"):
        if key not in doc:
            raise ParseError(f"cover document missing {key!r}")
    c = _build_cover(doc["base"], doc["m"], doc["cotree"], size_cap)
    if (doc["cotree"] != list(c.cotree)
            or doc.get("vertices") != c.graph.vertex_count
            or not _edges_match(doc.get("edges"), c.graph)):
        raise ParseError("cover document does not match its base/m/cotree data")
    return c


def _build_cover(base_doc, m, cotree, size_cap: int) -> CoverGraph:
    """The cover a document's `base`, `m` and `cotree` fields name,
    each field checked; its `edges` and `vertices` are left unchecked."""
    base = load_graph(base_doc, size_cap)
    if not _is_int(m):
        raise ParseError("cover document 'm' must be an integer")
    if not isinstance(cotree, list) or not all(map(_is_int, cotree)):
        raise ParseError("cover document 'cotree' must be a list of edge ids")
    ids = set(cotree)
    tree_edges = [e for e in range(base.edge_count) if e not in ids]
    tree = _tree_from_edge_set(base, tree_edges)
    return build_zm_cover(base, m, tree=tree, size_cap=size_cap)


def _read_cover(path: str, size_cap: int = DEFAULT_SIZE_CAP) -> CoverGraph:
    """The cover in the document at path, as `load_cover(_read_json(path))`.

    A document that `cover build` wrote is read by its bytes: its text is
    `_cover_text` of the cover its `base`, `m` and `cotree` name, so those
    three are decoded where that text puts them, the cover is built, and
    it is returned if its text is the file's, byte for byte.  Any other
    text, or one whose fields fail to decode or build, is parsed whole and
    checked field by field by `load_cover`, so every rejection and every
    error is the one `load_cover` gives.
    """
    text = _read_text(path)
    c = _canonical_cover(text, size_cap)
    if c is not None:
        return c
    return load_cover(_parse_json(path, text), size_cap)


def _canonical_cover(text: str, size_cap: int) -> CoverGraph | None:
    """The cover whose `_cover_text` is `text`, or None.

    In that text the base document follows `{"base": `, the cotree
    follows it, and m is the last `"m"` field; the edge list between them
    is compared, block by block, never parsed.
    """
    head, sep, m_key = '{"base": ', ', "cotree": ', ', "m": '
    if not text.startswith(head):
        return None
    decode = json.JSONDecoder().raw_decode
    try:
        base, at = decode(text, len(head))
        if not text.startswith(sep, at):
            return None
        cotree, _ = decode(text, at + len(sep))
        m, _ = decode(text, text.rindex(m_key) + len(m_key))
        c = _build_cover(base, m, cotree, size_cap)
    except Exception:  # whatever the fields hold, load_cover decides
        return None
    at = 0
    for chunk in _cover_text(c):
        if not text.startswith(chunk, at):
            return None
        at += len(chunk)
    return c if at == len(text) else None


def _edges_match(edges, g) -> bool:
    """True iff `edges` lists g's edges as [tail, head] pairs, in order.

    The pairs are read as one object array, which holds references to the
    parsed entries, and compared with `tails` and `heads` by Python's ==
    (1.0 and True equal 1).  On a 61,440-edge cover that array is about
    1 MB of pointers, where a second list of lists would be 9 MB.  An
    object array keeps any one entry from choosing the array type: with the
    default type, one long string among the numbers would make a string
    array of that width for every entry.  A ragged pair fails the shape
    check, and an entry that is not a number equals no vertex.
    """
    if not isinstance(edges, list) or len(edges) != g.edge_count:
        return False
    if not edges:  # np.array([]) has shape (0,), not (0, 2)
        return True
    try:
        pairs = np.array(edges, dtype=object)
    except ValueError:
        return False
    return (pairs.shape == (g.edge_count, 2)
            and bool((pairs[:, 0] == g.tails).all())
            and bool((pairs[:, 1] == g.heads).all()))


# -- subcommand implementations ---------------------------------------------


def _tree_arg(g, text: str):
    """The spanning tree named by a --tree value of comma-separated edge ids."""
    try:
        ids = [int(t) for t in text.split(",")]
    except ValueError:
        raise ParseError(f"--tree must be 'auto' or comma-separated edge ids, "
                         f"got {text!r}") from None
    for e in ids:
        if not 0 <= e < g.edge_count:
            raise ParseError(f"--tree edge id {e} out of range "
                             f"0..{g.edge_count - 1}")
    if len(set(ids)) != len(ids):
        raise ParseError(f"--tree repeats an edge id in {text!r}")
    return _tree_from_edge_set(g, ids)


def _cmd_cover_build(args) -> int:
    g = load_graph(_read_json(args.graph), args.size_cap)
    tree = None if args.tree == "auto" else _tree_arg(g, args.tree)
    c = build_zm_cover(g, args.m, tree=tree, size_cap=args.size_cap)
    _emit(args.out, _cover_text(c))
    return 0


def _cmd_trees_count(args) -> int:
    g = load_graph(_read_json(args.graph))
    if args.per_edge:
        tc = tree_counts(g)
        body = {"total": tc.total, "avoiding": list(tc.avoiding),
                "constant": tc.constant, "N": tc.common}
    else:
        body = {"total": count_spanning_trees(g)}
    _emit(args.out, [json.dumps(body, sort_keys=True) + "\n"])
    return 0


def _cmd_metrics_profile(args) -> int:
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    c = _read_cover(args.cover, args.size_cap)
    sources = _sample_sources(c.graph.vertex_count, args.samples, args.seed)
    prof = compression_profile(c, sources, mode=args.mode)
    rows = ["t,pairs,min,max"]
    for r in prof.rows:
        rows.append(f"{r.t},{r.pair_count},{_frac_str(r.min_val)},{_frac_str(r.max_val)}")
    _emit(args.out, ["\n".join(rows) + "\n"])
    return 0


def _export_rows(c: CoverGraph, order: np.ndarray, cell: str, row: str,
                 sep: str, lead: bool, row_sep: str) -> Iterable[str]:
    """Text of the cut coordinates of the vertices in `order`, in blocks.

    Edge e's cells in a row depend only on the row's residue k on e, so a
    row is |E(X)| pieces, piece (e, k) being the cells of coordinates
    e * m + t for the set bits t of `_cut_bits(k)`.  Coordinate i prints
    as `cell.format(i)` and row x as `row.format(x, cells)`, each cell
    after `sep` (the first only when `lead`); rows are joined by
    `row_sep`, across blocks too.

    Each block of rows is written as byte records (see `_records`): one
    padded record per piece its rows use, so the pieces held never exceed
    one block's cells, then one record per row, its pieces gathered from
    that table.  A block holds at most `_EXPORT_BLOCK` rows and about
    `_EXPORT_BLOCK_BYTES` of records, so a large m makes the blocks
    shorter, not larger.  What the table saves over formatting each row's
    cells is the reuse of pieces by the rows of a block, which needs m
    much smaller than the block.
    """
    ne, m = c.base.edge_count, c.m
    offsets = np.arange(ne, dtype=np.int64) * m
    id_width = _width(c.graph.vertex_count - 1)
    # cell i, after its separator, is record i of the table
    table = _records(ne * m, sep, *_around(cell, _digits(np.arange(ne * m),
                                                         _width(ne * m - 1))))
    row_bytes = (len(row_sep) + len(row.format("", "")) + id_width
                 + ne * (m // 2) * table.shape[1])
    step = max(1, min(_EXPORT_BLOCK, _EXPORT_BLOCK_BYTES // row_bytes))
    profiles = c.base_profiles()
    for start in range(0, len(order), step):
        rows = order[start:start + step]
        keys = profiles[rows] + offsets
        used = np.zeros(ne * m, dtype=bool)
        used[keys] = True
        ids = np.flatnonzero(used)
        k = ids % m
        coords = np.nonzero(_cut_bits(k, m))[1].reshape(ids.size, m // 2)
        coords += (ids - k)[:, None]
        pieces = np.take(table, coords, axis=0)
        slot = np.zeros(ne * m, dtype=np.int64)
        slot[ids] = np.arange(ids.size)
        cells = np.take(pieces, slot[keys], axis=0)
        if not lead:
            cells[:, :1, :1, :len(sep)] = 0
        yield _text(_records(rows.size, _joiner(rows.size, row_sep, start == 0),
                             *_around(row, _digits(rows, id_width), cells)))


def _around(template: str, *fields) -> list:
    """The fields of `template.format(*fields)`: the fields, with the
    template's literal text around them."""
    parts = template.split("{}")
    return [f for pair in zip(parts, fields) for f in pair] + parts[-1:]


def _export_csv(c: CoverGraph, layout, dim: int) -> Iterable[str]:
    blocks = ";".join(f"{name}:{start}:{width}" for name, start, width in layout)
    yield f"# m={c.m} dim={dim} blocks={blocks}\n"
    yield from _export_rows(c, np.arange(c.graph.vertex_count), "{}:1", "{}{}",
                            ",", True, "\n")
    yield "\n"


def _string_order(n: int) -> np.ndarray:
    """0..n-1 sorted as decimal strings, as `sorted(range(n), key=str)`.

    An id of d digits, scaled by 10 ** (D - d) to D digits, compares as
    its string does; among equal scaled values the shorter string, a
    prefix of the longer, comes first.
    """
    ids = np.arange(n, dtype=np.int64)
    width = _width(n - 1)
    lengths = 1 + np.searchsorted(10 ** np.arange(1, width, dtype=np.int64),
                                  ids, side="right")
    return np.lexsort((lengths, ids * 10 ** (width - lengths)))


def _export_json(c: CoverGraph, layout, dim: int) -> Iterable[str]:
    """`json.dumps(body, sort_keys=True)` of the export body, in pieces.

    The text around `vectors` is json's own rendering of the other
    fields; its entries follow in `sort_keys` order, the vertex ids
    sorted as strings.
    """
    body = {"m": c.m, "blocks": [list(b) for b in layout], "dim": dim,
            "vectors": None}
    head, tail = _json_around(body, "vectors")
    yield head + "{"
    yield from _export_rows(c, _string_order(c.graph.vertex_count), "[{}, 1]",
                            '"{}": [{}]', ", ", False, ", ")
    yield "}" + tail + "\n"


def _cmd_embed_export(args) -> int:
    c = _read_cover(args.cover, args.size_cap)
    layout = _edge_block_layout(c.base.edge_count, c.m)
    dim = c.base.edge_count * c.m
    export = _export_json if args.format == "json" else _export_csv
    _emit(args.out, export(c, layout, dim))
    return 0


def _cmd_tower_build(args) -> int:
    tower = build_tower(args.rank, args.m, args.levels, size_cap=args.cap)
    out_dir = _resolve_out(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"rank": tower.rank, "m": tower.m,
                "truncated": tower.truncated, "levels": []}
    for lvl in tower.levels:
        gv = lvl.girth_value
        manifest["levels"].append({
            "level": lvl.level,
            "vertices": lvl.graph.vertex_count,
            "edges": lvl.graph.edge_count,
            "girth": None if gv is math.inf else int(gv),
        })
        _write_file(out_dir / f"level{lvl.level}.json",
                    _document_text(_document_fields(lvl.graph), lvl.graph))
    _write_file(out_dir / "manifest.json",
                [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    sys.stdout.write(f"wrote {len(tower.levels)} levels to {out_dir}\n")
    return 0


def _cmd_suite_run(args) -> int:
    cfg = SuiteConfig(
        graphs=tuple(args.graphs.split(",")),
        m=args.m,
        seed=args.seed,
        samples=args.samples,
        size_cap=args.size_cap,
        tree_cap=args.tree_cap,
        checks=tuple(c for c in args.checks.split(",") if c) if args.checks else (),
        threads=args.threads,
        fault=args.fault,
    )
    report = run_suite(cfg)
    _emit(args.out, [report.to_json()])
    sys.stdout.write(report.summary() + "\n")
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


#: Flags shared by several verbs; each verb registers only those it reads.
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=7),
    "--threads": dict(type=int, default=1),
    "--size-cap": dict(type=int, default=DEFAULT_SIZE_CAP),
    "--tree-cap": dict(type=int, default=DEFAULT_TREE_CAP),
    "--samples": dict(type=_count, default=100),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None),
}


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_SHARED_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homcover")
    groups = parser.add_subparsers(dest="group", required=True)

    cover = groups.add_parser("cover").add_subparsers(dest="verb", required=True)
    p = cover.add_parser("build")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tree", default="auto",
                   help="'auto' or comma-separated spanning-tree edge ids")
    _add_shared(p, "--size-cap", "--out")
    p.set_defaults(func=_cmd_cover_build)

    trees = groups.add_parser("trees").add_subparsers(dest="verb", required=True)
    p = trees.add_parser("count")
    p.add_argument("--graph", required=True)
    p.add_argument("--per-edge", action="store_true")
    _add_shared(p, "--out")
    p.set_defaults(func=_cmd_trees_count)

    metrics = groups.add_parser("metrics").add_subparsers(dest="verb", required=True)
    p = metrics.add_parser("profile")
    p.add_argument("--cover", required=True)
    p.add_argument("--mode", choices=("dq", "l2"), default="dq")
    _add_shared(p, "--samples", "--seed", "--size-cap", "--out")
    p.set_defaults(func=_cmd_metrics_profile)

    embed = groups.add_parser("embed").add_subparsers(dest="verb", required=True)
    p = embed.add_parser("export")
    p.add_argument("--cover", required=True)
    _add_shared(p, "--format", "--size-cap", "--out")
    p.set_defaults(func=_cmd_embed_export)

    tower = groups.add_parser("tower").add_subparsers(dest="verb", required=True)
    p = tower.add_parser("build")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_TOWER_CAP)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_tower_build)

    suite = groups.add_parser("suite").add_subparsers(dest="verb", required=True)
    p = suite.add_parser("run")
    p.add_argument("--graphs", default="doubled_edge,k4,c5,petersen")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--checks", default=",".join(DEFAULT_CHECKS))
    p.add_argument("--fault", default=None,
                   help="inject a fault into the named check (self-test)")
    _add_shared(p, "--samples", "--seed", "--threads", "--size-cap",
                "--tree-cap", "--out")
    p.set_defaults(func=_cmd_suite_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HomcoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a usage error: keep the traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
