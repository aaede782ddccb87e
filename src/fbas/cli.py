"""Command line front door: search files, inspect anchors and frequency
tables, and run comparison-count benchmarks.

Exit codes: 0 success (for ``search``: at least one match), 1 no match
(``search`` only), 2 usage or I/O errors, 130 when interrupted by Ctrl-C
(as for a process killed by SIGINT), 141 when the reader closed stdout
early (as for a filter killed by SIGPIPE, e.g. under ``| head``).
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from ._bytes import ESCAPES, read_source
from .bench import ReportFormat, load_corpus, load_patterns, render_report, run_benchmark
from .errors import FbasError
from .freq import default_table, format_table, load_table, select_anchor, table_from_corpus
from .match import ALGORITHMS, Mode, SearchQuery, search


def _resolve_table(args):
    return load_table(args.freq_table) if args.freq_table else None


def _cmd_search(args):
    data, _ = read_source(args.input, "input")
    if args.lowercase:
        data = data.lower()
    table = _resolve_table(args)
    mode = Mode.ALL_MATCHES if args.all else Mode.FIRST_MATCH
    query = SearchQuery(data, args.pattern, mode)
    outcome = search(query, algorithm=args.algo, table=table)
    lines = map("{}\n".format, outcome.positions)
    if args.stats:
        stats = [f"comparisons: {outcome.comparisons}\n", f"alignments: {outcome.alignments}\n"]
        if (sel := outcome.anchor) is not None:
            stats.append(f"anchor hits: {outcome.anchor_hits}\n")
            stats.append(f"anchor: '{sel.char}' @ {sel.index} (score {sel.score})\n")
        lines = chain(lines, stats)
    return (0 if outcome.found else 1), lines


def _cmd_anchor(args):
    sel = select_anchor(args.pattern, _resolve_table(args))
    return 0, [f"index={sel.index} char={sel.char} score={sel.score}\n"]


def _cmd_table(args):
    if args.from_corpus:
        corpus = load_corpus(args.from_corpus)
        table = table_from_corpus(corpus.data, name=corpus.source_name)
    else:
        table = default_table()
    return 0, format_table(table).splitlines(keepends=True)


def _cmd_bench(args):
    corpus = load_corpus(args.corpus, lowercase=args.lowercase)
    patterns = load_patterns(args.patterns)
    mode = Mode.FIRST_MATCH if args.first_match else Mode.ALL_MATCHES
    report = run_benchmark(corpus, patterns, _resolve_table(args), mode)
    return 0, render_report(report, args.format).splitlines(keepends=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbas",
        description="Anchor-first exact string search with comparison-counted baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="print byte offsets of pattern matches in a file")
    p.add_argument("pattern", type=os.fsencode,
                   help="pattern to search for (verbatim, case-sensitive)")
    p.add_argument("input", nargs="?", default="-", help="input file, or '-' for stdin")
    p.add_argument("--algo", choices=ALGORITHMS, default="fbas", help="matcher to use")
    p.add_argument("--all", action="store_true", help="report all matches, not just the first")
    p.add_argument("--stats", action="store_true", help="append comparison statistics")
    p.add_argument("--freq-table", metavar="PATH", help="custom frequency table file")
    p.add_argument("--lowercase", action="store_true",
                   help="lowercase ASCII letters in the input text before searching")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("anchor", help="show the anchor position chosen for a pattern")
    p.add_argument("pattern", type=os.fsencode)
    p.add_argument("--freq-table", metavar="PATH", help="custom frequency table file")
    p.set_defaults(func=_cmd_anchor)

    p = sub.add_parser("table", help="print a frequency table in loadable form")
    p.add_argument("--from-corpus", metavar="PATH",
                   help="derive the table from letter counts of this file")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bench", help="run all matchers over a corpus and report counts")
    p.add_argument("corpus", help="corpus file, or '-' for stdin")
    p.add_argument("patterns", help="pattern list file (one pattern per line)")
    p.add_argument("--format", choices=[f.value for f in ReportFormat], default="text")
    p.add_argument("--lowercase", action="store_true",
                   help="lowercase ASCII letters in the corpus before searching")
    p.add_argument("--freq-table", metavar="PATH", help="custom frequency table file")
    p.add_argument("--first-match", action="store_true",
                   help="stop each search at the first occurrence")
    p.set_defaults(func=_cmd_bench)
    return parser


# Building the tree takes about as long as a one-pattern bench call on
# the sample corpus (1.2 ms each, medians on a 2-vCPU x86-64 host,
# Python 3.11), so every call of main reuses this one.
_PARSER = build_parser()

# Every argument that names a file to read, as error messages call it.
_SOURCES = {"input": "input", "corpus": "corpus", "patterns": "patterns",
            "from_corpus": "corpus", "freq_table": "frequency table"}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if sys.stdout is None:
            raise FbasError("cannot write output: stdout is closed")
        stdin = [what for dest, what in _SOURCES.items() if getattr(args, dest, None) == "-"]
        if len(stdin) > 1:
            raise ValueError(f"the {stdin[0]} and the {stdin[1]} cannot both come from stdin")
        code, lines = args.func(args)
        # The command's lines, one write each: a reader that closes early then
        # fails a write (exit 141); one large write could lose its tail (exit 0).
        sys.stdout.writelines(lines)
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        return 130
    except OSError as exc:
        # Reads fail as IoFailure, so this is a failed write to stdout. Point
        # stdout at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141
        message = f"cannot write output: {exc}"
    except (FbasError, ValueError) as exc:
        message = str(exc)
    # One line per error, also when a file name holds a line break. A message
    # is text, not a byte string, so its backslashes are not doubled.
    print(f"error: {message.translate(ESCAPES)}", file=sys.stderr)
    return 2
