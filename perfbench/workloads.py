"""The four workloads: inputs made from the seed, the timed ops, and the
checks applied to every op's output once timing is over.

A workload runs in passes.  Pass ``k`` is a fixed list of ops whose
inputs depend only on the seed and ``k``, so two runs with one seed do the
same work, pass by pass.  Every op is one call into konigmatch's public
API, timed alone; plumbing between ops (writing query files, parsing
output) is not timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from functools import cache, partial
from pathlib import Path

import checks


class Op:
    """One timed call and what became of it."""

    __slots__ = ("label", "start", "end", "wall", "seconds", "output",
                 "error", "check", "units", "done")

    def __init__(self, label, start, end, wall, output, error, check, units):
        self.label = label
        self.start = start
        self.end = end
        self.wall = wall      # wall seconds, the host-speed sampler's excluded
        self.seconds = wall   # at reference speed, once the timer is scaled
        self.output = output
        self.error = error
        self.check = check
        self.units = units
        self.done = 0  # units completed, known once the output is checked


class Timer:
    """Times ops one at a time and keeps their outputs for checking.

    ``pace`` must be running while ops are timed; ``scale`` then puts every
    op's seconds at reference speed (see ``pace.py``).
    """

    def __init__(self, pace):
        self.pace = pace
        self.ops: list[Op] = []
        self.seconds = 0.0  # wall seconds of op time

    def op(self, label: str, call, check, units):
        """Time ``call()``; return its output, or None if it raised.

        ``check(output)`` runs after timing and returns an error message
        or None.  ``units`` is the work the op completes: a number, or a
        function of the output.
        """
        start = time.perf_counter()
        spent = self.pace.spent
        try:
            output = call()
        except Exception as exc:  # any failure of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"[:300]
            self._add(label, start, spent, None, error, None, 0)
            return None
        self._add(label, start, spent, output, None, check, units)
        return output

    def _add(self, label, start, spent, output, error, check, units):
        spent = self.pace.spent - spent
        end = time.perf_counter()
        wall = end - start - spent
        self.ops.append(Op(label, start, end, wall, output, error, check,
                           units))
        self.seconds += wall

    def unreachable(self, label: str, reason: str) -> None:
        """An op whose input was to come from an op that failed: it counts
        as attempted and failed, never as skipped."""
        now = time.perf_counter()
        self.ops.append(Op(label, now, now, 0.0, None, reason, None, 0))

    def scale(self) -> None:
        for op in self.ops:
            op.seconds = self.pace.scaled(op.start, op.end, op.wall)

    def scaled_seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


class Workload:
    name = ""
    unit = ""  # the work unit counted by work_per_s
    # fewest passes in a run: enough ops for the latency percentiles, and
    # the same number of ops in every run while a pass takes much longer
    # than the run's seconds divided by this
    min_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def warm(self) -> None:
        """Imports and first-use caches: the program's own set-up."""
        import konigmatch  # noqa: F401

    def run_pass(self, k: int, timer: Timer) -> None:
        raise NotImplementedError


# -- trials-20x20 ---------------------------------------------------------

TRIAL_COLUMNS = ["seed", "n_left", "n_right", "p", "trial_index",
                 "matching_size", "cover_size", "min_cover_size", "is_minimum"]


class Trials(Workload):
    """``experiments.run_trials`` on batches of 20+20 random graphs."""

    name = "trials-20x20"
    unit = "trials"
    P = (0.1, 0.3, 0.5)
    BATCH = 20           # trials per op
    OPS_PER_PASS = 30    # ten batches at each p
    REPLAY_EVERY = 20    # replay one op in this many through the oracle

    def run_pass(self, k: int, timer: Timer) -> None:
        from konigmatch import experiments

        for i in range(self.OPS_PER_PASS):
            index = k * self.OPS_PER_PASS + i
            cfg = experiments.TrialConfig(
                n_left=20, n_right=20, edge_probability=self.P[i % 3],
                trials=self.BATCH, rng_seed=self.seed * 1_000_003 + index)
            replay = index % self.REPLAY_EVERY == self.seed % self.REPLAY_EVERY
            timer.op(f"trials p={cfg.edge_probability}",
                     partial(_run_trials, cfg),
                     partial(_check_trials, cfg, replay), self.BATCH)


def _run_trials(cfg):
    from konigmatch import experiments

    out = io.StringIO()
    report = experiments.run_trials(cfg, out)
    return report, out.getvalue()


def _check_trials(cfg, replay: bool, output) -> str | None:
    report, text = output
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TRIAL_COLUMNS:
        return f"CSV header {rows[:1]}"
    rows = rows[1:]
    if len(rows) != cfg.trials or report.trials_run != cfg.trials:
        return f"{len(rows)} rows, {report.trials_run} trials run"
    hits = 0
    for i, row in enumerate(rows):
        seed, nl, nr, p, index, ms, cs, mcs, hit = row
        if (int(seed), int(nl), int(nr), float(p), int(index)) != (
                cfg.rng_seed, cfg.n_left, cfg.n_right,
                cfg.edge_probability, i):
            return f"row {i} describes another trial: {row}"
        ms, cs, mcs, hit = int(ms), int(cs), int(mcs), int(hit)
        if cs < mcs or hit != int(cs == mcs):
            return f"row {i}: cover {cs}, minimum {mcs}, is_minimum {hit}"
        if not ms <= mcs <= 2 * ms:
            # a maximal matching has at least half the maximum size
            return f"row {i}: maximal matching {ms} against ν {mcs}"
        hits += hit
    if report.minimum_hits != hits:
        return f"report has {report.minimum_hits} hits, CSV {hits}"
    return _replay_trials(cfg, rows) if replay else None


def _replay_trials(cfg, rows) -> str | None:
    """Regenerate each trial's graph and maximal matching and recompute
    its row with the independent oracle."""
    from konigmatch import experiments

    rng = random.Random(cfg.rng_seed)
    for i, row in enumerate(rows):
        g = experiments.random_bipartite(cfg, rng)
        m = experiments.random_maximal_matching(g, rng)
        graph = checks.Graph(sorted(g.left), sorted(g.right), g.edges)
        pairs = sorted(m.edges)
        error = (checks.matching_error(graph, pairs)
                 or checks.maximality_error(graph, pairs))
        if error:
            return f"replayed trial {i}: {error}"
        cover = checks.konig_cover(graph, pairs)
        expected = [len(pairs), len(cover), graph.nu]
        if [int(x) for x in row[5:8]] != expected:
            return f"replayed trial {i}: row {row[5:8]}, oracle {expected}"
    return None


# -- corpus-8 -------------------------------------------------------------

class Corpus(Workload):
    """The eight corpus sweeps at ``max_vertices=8``; one sweep per op."""

    name = "corpus-8"
    unit = "cases"
    min_passes = 2
    # per-sweep case counts on the 253-graph corpus; any change is a defect
    CASES = {
        "sweep_konig_equality": 506,
        "sweep_reverse_round_trip": 3228,
        "sweep_surjectivity": 253,
        "sweep_cycle_fibers": 5114,
        "sweep_one_endpoint_and_minimal": 27826,
        "sweep_classification": 3166,
        "sweep_path_structure_properties": 21786,
        "sweep_hall_consistency": 506,
    }

    def warm(self) -> None:
        from konigmatch.corpus import cached_corpus

        cached_corpus(8)

    def run_pass(self, k: int, timer: Timer) -> None:
        from konigmatch import verify

        order = list(self.CASES)
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(order)
        for name in order:
            kwargs = {}
            if name == "sweep_reverse_round_trip":
                kwargs["seed"] = self.seed  # which visit orders are sampled
            timer.op(name, partial(getattr(verify, name), 8, **kwargs),
                     partial(_check_sweep, self.CASES[name]), _cases)


def _cases(result) -> int:
    return result.cases


def _check_sweep(cases: int, result) -> str | None:
    if result.violations:
        return (f"{result.name}: {len(result.violations)} violations, "
                f"first {result.violations[0]}")
    if result.cases != cases:
        return f"{result.name}: {result.cases} cases, expected {cases}"
    return None


# -- studded-5 ------------------------------------------------------------

class Studded(Workload):
    """``verify.sweep_star_studded(5)``: 10 studded graphs, 20 cases."""

    name = "studded-5"
    unit = "cases"
    min_passes = 3

    def warm(self) -> None:
        from konigmatch.corpus import cached_corpus

        cached_corpus(5)

    def run_pass(self, k: int, timer: Timer) -> None:
        from konigmatch import verify

        timer.op("sweep_star_studded", partial(verify.sweep_star_studded, 5),
                 partial(_check_sweep, 20), _cases)


# -- cli-sparse -----------------------------------------------------------

class CliSparse(Workload):
    """CLI query sessions on large sparse graphs and one long path."""

    name = "cli-sparse"
    unit = "queries"
    min_passes = 2
    # two n+n graphs per pass, so the median query falls among their
    # match and cover queries rather than between two kinds of query
    SIDES = (1000, 1000)
    DEGREE = 4
    PATH_VERTICES = 3000

    def warm(self) -> None:
        from konigmatch import cli  # noqa: F401

    def run_pass(self, k: int, timer: Timer) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        for i, n in enumerate(self.SIDES):
            data = _sparse_graph(rng, n, self.DEGREE)
            self._session(timer, f"g{i}-{n}", data, rng, reverse_cover=None)
        data = _long_path(rng, self.PATH_VERTICES)
        # the other minimum cover: reversing it walks the whole path
        self._session(timer, "path", data, rng, reverse_cover=data["right"])

    def _session(self, timer, tag, data, rng, reverse_cover) -> None:
        """match, match --maximal, cover of each, then reverse."""
        graph_file = self._write(f"{tag}.json", data)
        graph = cache(partial(_oracle_graph, data))  # built once, when checked
        argv = ["match", "--graph", graph_file]
        maximum = timer.op(f"{tag} match", partial(_query, argv),
                           partial(_check_match, graph), 1)
        argv = ["match", "--graph", graph_file, "--maximal",
                "--seed", str(rng.randrange(2 ** 31))]
        maximal = timer.op(f"{tag} match --maximal", partial(_query, argv),
                           partial(_check_maximal, graph), 1)
        min_cover = None
        for kind, out in (("maximum", maximum), ("maximal", maximal)):
            label = f"{tag} cover of {kind}"
            pairs = _field(out, "matching")
            if pairs is None:
                timer.unreachable(label, f"{kind} match gave no matching")
                continue
            argv = ["cover", "--graph", graph_file, "--matching",
                    self._write(f"{tag}-{kind}.json", pairs)]
            cover = timer.op(label, partial(_query, argv),
                             partial(_check_cover, graph, pairs,
                                     kind == "maximum"), 1)
            if kind == "maximum":
                min_cover = _field(cover, "cover")
        if reverse_cover is not None:
            min_cover = reverse_cover
        if min_cover is None:
            timer.unreachable(f"{tag} reverse", "no minimum cover to reverse")
            return
        argv = ["reverse", "--graph", graph_file, "--cover",
                self._write(f"{tag}-cover.json", min_cover)]
        timer.op(f"{tag} reverse", partial(_query, argv),
                 partial(_check_reverse, graph, min_cover), 1)

    def _write(self, name: str, data) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)


class QueryFailed(Exception):
    pass


def _query(argv: list[str]):
    """One ``cli.run`` query; a non-zero exit on valid input is a failure."""
    from konigmatch import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    if rc != 0:
        raise QueryFailed(f"exit {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _field(output, key):
    """``output[key]``, or None when the query failed or lacks it."""
    return output.get(key) if isinstance(output, dict) else None


def _sparse_graph(rng: random.Random, n: int, degree: int) -> dict:
    """n+n vertices, degree·n distinct random edges, labels shuffled so a
    label's position in the file says nothing about its vertex."""
    left = [f"a{i}" for i in range(n)]
    right = [f"b{i}" for i in range(n)]
    rng.shuffle(left)
    rng.shuffle(right)
    edges = set()
    while len(edges) < degree * n:
        edges.add((rng.randrange(n), rng.randrange(n)))
    edges = [[left[i], right[j]] for i, j in edges]
    edges.sort()
    rng.shuffle(edges)
    return {"left": left, "right": right, "edges": edges}


def _long_path(rng: random.Random, vertices: int) -> dict:
    """A path on ``vertices`` vertices (even count) with random labels.

    Each side is listed in path order, so vertex ids follow the path, as
    in a file written while walking it.
    """
    names = [f"p{i}" for i in range(vertices)]
    rng.shuffle(names)
    edges = [[names[t], names[t + 1]] if t % 2 == 0
             else [names[t + 1], names[t]] for t in range(vertices - 1)]
    rng.shuffle(edges)
    return {"left": names[0::2], "right": names[1::2], "edges": edges}


def _oracle_graph(data) -> checks.Graph:
    return checks.Graph(data["left"], data["right"], data["edges"])


def _check_match(graph, out) -> str | None:
    g = graph()
    pairs = out["matching"]
    error = checks.matching_error(g, pairs)
    if error:
        return error
    if out["size"] != len(pairs) or len(pairs) != g.nu:
        return f"size {out['size']}, {len(pairs)} pairs, ν {g.nu}"
    return None


def _check_maximal(graph, out) -> str | None:
    g = graph()
    pairs = out["matching"]
    error = (checks.matching_error(g, pairs)
             or checks.maximality_error(g, pairs))
    if error:
        return error
    if out["size"] != len(pairs):
        return f"size {out['size']}, {len(pairs)} pairs"
    return None


def _check_cover(graph, pairs, maximum: bool, out) -> str | None:
    g = graph()
    cover = set(out["cover"])
    if len(cover) != len(out["cover"]):
        return "cover lists a vertex twice"
    if cover != checks.konig_cover(g, pairs):
        return "cover differs from Kőnig's procedure on the matching"
    error = checks.cover_error(g, cover)
    if error:
        return error
    minimal = checks.is_minimal_cover(g, cover)
    minimum = len(cover) == g.nu
    if not minimal or (maximum and not minimum):
        return f"cover of a {'maximum' if maximum else 'maximal'} matching: " \
               f"minimal {minimal}, size {len(cover)}, ν {g.nu}"
    verdicts = (out["is_cover"], out["is_minimal"], out["is_minimum"])
    if verdicts != (True, minimal, minimum):
        return f"verdicts {verdicts}, expected {(True, minimal, minimum)}"
    return None


def _check_reverse(graph, cover, out) -> str | None:
    g = graph()
    pairs = out["matching"]
    error = checks.matching_error(g, pairs)
    if error:
        return error
    if (out["round_trip_ok"] is not True
            or set(out["round_trip_cover"]) != set(cover)):
        return "reported round trip does not give the input cover"
    if checks.konig_cover(g, pairs) != set(cover):
        return "Kőnig's procedure on the returned matching misses the cover"
    return None


WORKLOADS = {w.name: w for w in (Trials, Corpus, Studded, CliSparse)}
