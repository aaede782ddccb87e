"""Command line front door: search files, inspect anchors and frequency
tables, and run comparison-count benchmarks.

Exit codes: 0 success (for ``search``: at least one match), 1 no match
(``search`` only), 2 usage or I/O errors, 141 when the reader closed
stdout early (as for a filter killed by SIGPIPE, e.g. under ``| head``).
"""
from __future__ import annotations

import argparse
import os
import sys

from ._bytes import display_byte, read_source
from .bench import ReportFormat, load_corpus, load_patterns, render_report, run_benchmark
from .errors import FbasError
from .freq import default_table, format_table, load_table, select_anchor, table_from_corpus
from .match import ALGORITHMS, Mode, SearchQuery, search


def _resolve_table(args):
    if getattr(args, "freq_table", None):
        return load_table(args.freq_table)
    return default_table()


def _cmd_search(args) -> int:
    data, _ = read_source(args.input, "input")
    if args.lowercase:
        data = data.lower()
    table = _resolve_table(args)
    mode = Mode.ALL_MATCHES if args.all else Mode.FIRST_MATCH
    query = SearchQuery(data, args.pattern, mode)
    outcome = search(query, algorithm=args.algo, table=table)
    for pos in outcome.positions:
        print(pos)
    if args.stats:
        print(f"comparisons: {outcome.comparisons}")
        print(f"alignments: {outcome.alignments}")
        if args.algo == "fbas":
            print(f"anchor hits: {outcome.anchor_hits}")
            sel = select_anchor(query.pattern, table)
            print(f"anchor: '{display_byte(sel.character)}' @ {sel.index} (score {sel.score})")
    return 0 if outcome.found else 1


def _cmd_anchor(args) -> int:
    table = _resolve_table(args)
    sel = select_anchor(args.pattern, table)
    print(f"index={sel.index} char={display_byte(sel.character)} score={sel.score}")
    return 0


def _cmd_table(args) -> int:
    if args.from_corpus:
        corpus = load_corpus(args.from_corpus)
        table = table_from_corpus(corpus.data, name=corpus.source_name)
    else:
        table = default_table()
    sys.stdout.write(format_table(table))
    return 0


def _cmd_bench(args) -> int:
    corpus = load_corpus(args.corpus, lowercase=args.lowercase)
    patterns = load_patterns(args.patterns)
    table = _resolve_table(args)
    mode = Mode.FIRST_MATCH if args.first_match else Mode.ALL_MATCHES
    report = run_benchmark(corpus, patterns, table, mode)
    sys.stdout.write(render_report(report, ReportFormat(args.format)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbas",
        description="Anchor-first exact string search with comparison-counted baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="print byte offsets of pattern matches in a file")
    p.add_argument("pattern", help="pattern to search for (verbatim, case-sensitive)")
    p.add_argument("input", nargs="?", default="-", help="input file, or '-' for stdin")
    p.add_argument("--algo", choices=ALGORITHMS, default="fbas", help="matcher to use")
    p.add_argument("--all", action="store_true", help="report all matches, not just the first")
    p.add_argument("--stats", action="store_true", help="append comparison statistics")
    p.add_argument("--freq-table", metavar="PATH", help="custom frequency table file")
    p.add_argument("--lowercase", action="store_true",
                   help="lowercase ASCII letters in the input text before searching")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("anchor", help="show the anchor position chosen for a pattern")
    p.add_argument("pattern")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # fail again on the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FbasError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
