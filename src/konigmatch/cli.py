"""Command-line front end.

Exit codes: 0 success, 1 domain errors (non-minimum cover, non-maximal
matching, exceeded budgets, ...), 2 for I/O and parse errors.  Results go
to stdout as JSON with external vertex labels; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import io as gio
from .errors import DomainError, InputError
from .experiments import (
    MAX_EDGE_TRIALS,
    TrialConfig,
    random_maximal_matching,
    run_trials,
)
from .graph import MAX_VERTICES
from .konig import konig_cover
from .matching import maximum_matching
from .oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    hall_condition,
)
from .paths import classify_matching
from .reverse import reverse_konig, split_by_cover
from .stars import star_stud
from .verify import available_cpus, corpus_verify


def _at_least(flag: str, value: int, low: int) -> int:
    """``value``, or ``InputError`` (exit 2) when it is below ``low``."""
    if value < low:
        raise InputError(f"{flag} must be at least {low}, got {value}")
    return value


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_match(args) -> int:
    g = gio.load_graph(args.graph)
    if args.maximal:
        m = random_maximal_matching(g, random.Random(args.seed))
    else:
        m = maximum_matching(g)
    _emit({"matching": gio.matching_to_json(m), "size": len(m)})
    return 0


def _cmd_cover(args) -> int:
    g = gio.load_graph(args.graph)
    m = gio.load_matching(g, args.matching)
    cover = konig_cover(m)
    _emit({
        "cover": gio.vertex_set_to_json(g, cover.vertices),
        "is_cover": cover.is_cover,
        "is_minimal": cover.is_minimal,
        "is_minimum": cover.is_minimum,
    })
    return 0


def _cmd_reverse(args) -> int:
    g = gio.load_graph(args.graph)
    cover = gio.load_vertex_set(g, args.cover)
    split = split_by_cover(g, cover)
    m = reverse_konig(split)
    _emit({
        "matching": gio.matching_to_json(m),
        # the order reverse_konig visits the roots in by default
        "visit_order": gio.vertex_set_to_json(g, split.up_roots),
        # reverse_konig has checked that the procedure gives back ``cover``
        "round_trip_cover": gio.vertex_set_to_json(g, cover),
        "round_trip_ok": True,
    })
    return 0


def _cmd_classify(args) -> int:
    g = gio.load_graph(args.graph)
    m = gio.load_matching(g, args.matching)
    verdict = classify_matching(m)
    if verdict.is_minimum:
        labels = g.labels
        witness = {"augmenting_paths": [[labels[v] for v in p]
                                        for p in verdict.witness]}
    else:
        witness = {"smaller_cover": gio.vertex_set_to_json(g, verdict.witness)}
    _emit({"is_minimum": verdict.is_minimum, "witness": witness})
    return 0


def _cmd_starstud(args) -> int:
    h = gio.load_graph(args.graph)
    base = h.labels
    # star labels are strings, and a graph's labels may not mix the two
    if not all(isinstance(lab, str) for lab in base.values()):
        raise InputError("starstud needs string vertex labels")
    ssg = star_stud(h)
    labels = ssg.full.labels
    _emit({
        "graph": gio.graph_to_json_dict(ssg.full),
        "attachment": {
            base[v]: [labels[w] for w in stars]
            for v, stars in sorted(ssg.attachment.items())
        },
    })
    return 0


def _cmd_enumerate(args) -> int:
    g = gio.load_graph(args.graph)
    budget = OracleBudget(
        max_vertices=_at_least("--max-vertices", args.max_vertices, 0))
    what = args.oracle
    if what == "min-covers":
        covers = all_minimum_covers(g, budget)
        _emit({"minimum_covers": sorted(
            gio.vertex_set_to_json(g, c) for c in covers)})
    elif what == "matchings":
        ms = all_matchings(g, budget)
        _emit({"matchings": sorted(gio.matching_to_json(m) for m in ms),
               "count": len(ms)})
    elif what == "maximal-matchings":
        ms = all_maximal_matchings(g, budget)
        _emit({"maximal_matchings": sorted(
            gio.matching_to_json(m) for m in ms), "count": len(ms)})
    elif what == "hall":
        left_ok, right_ok = hall_condition(g, budget)
        _emit({"left": left_ok, "right": right_ok})
    return 0


def _cmd_experiment(args) -> int:
    try:
        cfg = TrialConfig(n_left=args.nl, n_right=args.nr,
                          edge_probability=args.p, trials=args.trials,
                          rng_seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.out == "-":
        report = run_trials(cfg, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            report = run_trials(cfg, fh)
    print(f"trials={report.trials_run} hits={report.minimum_hits} "
          f"hit_rate={report.hit_rate:.4f} "
          f"mean_excess={report.mean_cover_excess:.4f}",
          file=sys.stderr)
    return 0


def _cmd_corpus_verify(args) -> int:
    jobs = args.jobs
    if jobs is not None:
        cpus = available_cpus()
        if not 1 <= jobs <= cpus:
            raise InputError(f"--jobs must be between 1 and the {cpus} "
                             f"available CPUs, got {jobs}")
    # the smallest corpus graph has two vertices; below that no case runs
    results = corpus_verify(_at_least("--max-vertices", args.max_vertices, 2),
                            jobs)
    failed = False
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{res.name}: {res.cases} cases, "
              f"{len(res.violations)} violations [{status}]")
        for violation in res.violations[:10]:
            print(f"  {violation}", file=sys.stderr)
        failed = failed or not res.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    graph_help = (f"JSON or edge-list graph file of at most "
                  f"{MAX_VERTICES:,} vertices (exit 1 above it)")
    parser = argparse.ArgumentParser(
        prog="konigmatch",
        description="Bipartite matchings, vertex covers, and the "
                    "procedures mapping between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="compute a matching")
    p.add_argument("--graph", required=True, help=graph_help)
    p.add_argument("--maximal", action="store_true",
                   help="greedy maximal under a seeded random edge order "
                        "instead of maximum")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("cover", help="apply the cover-from-matching procedure")
    p.add_argument("--graph", required=True, help=graph_help)
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("reverse",
                       help="recover a matching from a minimum cover")
    p.add_argument("--graph", required=True, help=graph_help)
    p.add_argument("--cover", required=True,
                   help="JSON array of vertex labels")
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("classify",
                       help="does this maximal matching give a minimum cover?")
    p.add_argument("--graph", required=True, help=graph_help)
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("starstud", help="attach a 3-leaf star to every vertex")
    p.add_argument("--graph", required=True,
                   help=f"graph file; the studded graph has five times its "
                        f"vertices and at most {MAX_VERTICES:,} (exit 1 "
                        f"above it)")
    p.set_defaults(func=_cmd_starstud)

    p = sub.add_parser("enumerate", help="brute-force oracle enumerations")
    p.add_argument("--graph", required=True, help=graph_help)
    p.add_argument("--oracle", required=True,
                   choices=["min-covers", "matchings", "maximal-matchings",
                            "hall"])
    p.add_argument("--max-vertices", type=int, default=16)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("experiment", help="randomized hit-rate trials")
    p.add_argument("--nl", type=int, required=True,
                   help=f"left vertices; --nl + --nr may be at most "
                        f"{MAX_VERTICES:,} (exit 1 above it)")
    p.add_argument("--nr", type=int, required=True, help="right vertices")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, required=True,
                   help="trials to run; nl * nr (one draw per potential "
                        "edge) times the trials may be at most "
                        f"{MAX_EDGE_TRIALS:,} (exit 1 above it)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("corpus-verify",
                       help="run every invariant sweep over the exhaustive "
                            "small-graph corpus")
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--jobs", type=int, default=None,
                   help="processes that walk the corpus (default: the "
                        "available CPUs); the output is the same for any")
    p.set_defaults(func=_cmd_corpus_verify)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
