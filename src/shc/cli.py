"""Command-line front end: gvbound, simmatrix, centers, inspect, eval.

Exit codes: 0 on success, 1 on validation/format/file errors (including
bad flags), 2 on infeasible configurations such as C > 2^q.  Diagnostics
go to stderr; primary results go to files or stdout as documented per
subcommand.  Identical invocations (including --seed) produce
byte-identical outputs.
"""

import argparse
import json
import logging
import sys

from .core import (
    InfeasibleError,
    ShcError,
    ValidationError,
    read_centers,
    read_codes,
    write_centers,
)
from .evaluation import evaluate, worker_count
from .gv import compute_min_distance
from .optimizer import (
    INIT_GREEDY,
    INIT_HADAMARD,
    descend,
    init_centers,
    quality_metrics,
    violation_count,
)
from .similarity import (
    MASK_ARGMAX,
    MASK_GROUND_TRUTH,
    cosine_similarity_matrix,
    read_embeddings,
    read_similarity,
    stream_similarity,
    write_similarity,
)

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for infeasibility."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"{what} must be >= {least}, got {value}")
    return value


def _min_dist(text: str):
    return "auto" if text == "auto" else _int_at_least(text, 1, "minimum distance")


def _seed(text: str) -> int:
    return _int_at_least(text, 0, "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shc", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "gvbound",
        help="feasible minimum pairwise distance for C codewords of length q",
        description="Print the smallest feasible minimum pairwise Hamming distance.",
    )
    p.add_argument("--bits", type=int, required=True, metavar="Q", help="code length in bits")
    p.add_argument("--classes", type=int, required=True, metavar="C", help="number of classes")
    p.set_defaults(func=_cmd_gvbound)

    p = sub.add_parser(
        "simmatrix",
        help="build a class-similarity matrix from logits or embeddings",
        description="Build the C x C class-similarity matrix and write it as text.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--logits", metavar="FILE", help="per-image classifier logit file")
    src.add_argument("--embeddings", metavar="FILE", help="per-class embedding file")
    p.add_argument("--out", required=True, metavar="FILE", help="output similarity file")
    p.add_argument(
        "--mask",
        choices=[MASK_GROUND_TRUTH, MASK_ARGMAX],
        default=MASK_GROUND_TRUTH,
        help="which logit entry to mask before the softmax (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_simmatrix)

    p = sub.add_parser(
        "centers",
        help="generate hash centers from a similarity matrix",
        description="Generate binary hash centers (greedy or Hadamard init, then a single-bit-flip descent "
        "that keeps the distance target) and write them as a packed centers file.",
    )
    p.add_argument("--sim", required=True, metavar="FILE", help="similarity matrix file")
    p.add_argument("--bits", type=int, required=True, metavar="Q", help="code length in bits")
    p.add_argument(
        "--min-dist",
        type=_min_dist,
        default="auto",
        metavar="D",
        help="target minimum pairwise distance, or 'auto' for the feasibility bound (default); "
        "1 only keeps the centers distinct",
    )
    p.add_argument("--out", required=True, metavar="FILE", help="output centers file")
    p.add_argument("--seed", type=_seed, default=0, help="random seed, >= 0 (default: %(default)s)")
    p.add_argument(
        "--init",
        choices=[INIT_GREEDY, INIT_HADAMARD],
        default=INIT_GREEDY,
        help="center initialization (default: %(default)s)",
    )
    p.add_argument("--report", metavar="FILE", help="write a JSON quality report")
    p.set_defaults(func=_cmd_centers)

    p = sub.add_parser(
        "inspect",
        help="report the quality metrics of a centers file",
        description="Print the minimum pairwise distance and similarity loss of a center set.",
    )
    p.add_argument("--centers", required=True, metavar="FILE", help="centers file")
    p.add_argument("--sim", required=True, metavar="FILE", help="similarity matrix file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "eval",
        help="Hamming-ranking retrieval metrics over a code database",
        description="Evaluate a query code file against a database code file.",
    )
    p.add_argument("--db", required=True, metavar="FILE", help="database codes file")
    p.add_argument("--queries", required=True, metavar="FILE", help="query codes file")
    p.add_argument(
        "--topk",
        default="100,1000,all",
        metavar="LIST",
        help="comma-separated MAP cutoffs; 'all' means the database size (default: %(default)s)",
    )
    p.add_argument(
        "--pr-grid",
        metavar="LIST",
        help="comma-separated cutoffs for the precision/recall curves "
        "(default: 1-5, 10-50 by 5, 60-100 by 10, 150-500 by 50)",
    )
    p.add_argument("--out", required=True, metavar="FILE", help="output JSON report")
    p.set_defaults(func=_cmd_eval)

    return parser


def _cmd_gvbound(args) -> int:
    print(compute_min_distance(args.bits, args.classes))
    return 0


def _cmd_simmatrix(args) -> int:
    if args.logits is not None:
        matrix = stream_similarity(args.logits, mask=args.mask)
    else:
        matrix = cosine_similarity_matrix(read_embeddings(args.embeddings))
    write_similarity(matrix, args.out)
    log.info("wrote %dx%d similarity matrix to %s", matrix.C, matrix.C, args.out)
    return 0


def _cmd_centers(args) -> int:
    matrix = read_similarity(args.sim)
    d = compute_min_distance(args.bits, matrix.C) if args.min_dist == "auto" else args.min_dist
    init = init_centers(args.bits, matrix.C, d, args.seed, method=args.init)
    centers, trace = descend(matrix, init, d)
    write_centers(centers, args.out)
    d_min, s_loss = quality_metrics(centers, matrix)
    log.info("wrote %d centers (q=%d, d_min=%s, s_loss=%.6g) to %s",
             centers.C, centers.q, d_min, s_loss, args.out)
    if args.report:
        report = {
            "d": d,
            "d_min": d_min,
            "s_loss": s_loss,
            "objective_trace": trace,
            "violations": violation_count(centers, d),
            "seed": args.seed,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_inspect(args) -> int:
    centers = read_centers(args.centers)
    matrix = read_similarity(args.sim)
    if centers.C != matrix.C:
        raise ValidationError(
            f"centers file has C={centers.C} but similarity file has C={matrix.C}"
        )
    d_min, s_loss = quality_metrics(centers, matrix)
    if args.json:
        print(json.dumps({"d_min": d_min, "s_loss": s_loss}))
    else:
        print(f"d_min: {'undefined' if d_min is None else d_min}")
        print(f"s_loss: {s_loss:.17g}")
    return 0


def _parse_cutoffs(text: str, n_db: int, allow_all: bool, flag: str):
    cutoffs = []
    labels = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if allow_all and token.lower() == "all":
            cutoffs.append(n_db)
            labels.append("all")
            continue
        try:
            value = int(token)
        except ValueError:
            raise ValidationError(f"bad {flag} value {token!r}") from None
        if value < 1:
            raise ValidationError(f"{flag} values must be >= 1, got {value}")
        cutoffs.append(value)
        labels.append(str(value))
    if not cutoffs:
        raise ValidationError(f"no cutoffs in {flag} {text!r}")
    return cutoffs, labels


def _cmd_eval(args) -> int:
    db = read_codes(args.db)
    queries = read_codes(args.queries)
    top_ks, labels = _parse_cutoffs(args.topk, len(db), True, "--topk")
    grid = None if args.pr_grid is None else _parse_cutoffs(args.pr_grid, len(db), False, "--pr-grid")[0]
    report = evaluate(queries, db, top_ks, pr_grid=grid, workers=worker_count())
    payload = {
        "map_at": {label: report.map_at[k] for label, k in zip(labels, top_ks)},
        "precision_curve": [[k, v] for k, v in report.precision_curve],
        "recall_curve": [[k, v] for k, v in report.recall_curve],
        "pr_curve": [[r, p] for r, p in report.pr_curve],
        "query_count": report.query_count,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    log.info("evaluated %d queries against %d codes; report at %s",
             len(queries), len(db), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="shc: %(levelname)s: %(message)s",
    )
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"shc: infeasible: {exc}", file=sys.stderr)
        return 2
    except (ShcError, OSError, MemoryError) as exc:
        print(f"shc: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
