"""Command-line surface: construct graphs from a small family grammar,
compute alpha spectral radii, run minor checks, exhaustive searches, and
verification suites.

Each command takes only the options it reads, so the config block of its
JSON output lists only settings that took effect: --format (json or
table; verify adds csv) everywhere, --alpha on construct, lambda and
search, --budget on minor and search, --jobs on search alone.

Exit codes: 0 success/pass, 1 check failure (or minor found, for the
minor command), 2 usage error, 3 budget-inconclusive (verify too).

No graph the grammar, the minor command's K_{r,s} pattern shorthand or
`construct extremal --n` builds, and no graph6 input (a --corpus record
included), has more than MAX_ORDER vertices; a larger order is a usage
error, raised before the graph is built or any graph6 row decoded.  A
--corpus record is also a usage error above extremal.CANONICAL_MAX_N
vertices, the largest order the ranking can put in canonical form.

Only the commands that solve spectra load numpy: the solver modules
(extremal, spectral, verify) are imported inside lambda, search, verify
and `construct extremal`, so --version, minor, a grammar construct and
every usage error start with the pure-Python graphs and minors alone.
The package's types are NamedTuples and slotted classes, so these
commands do not import inspect either.  main() sets
OPENBLAS_NUM_THREADS to 1 unless the caller set it, before any command
can load numpy.

Called with no argument list, as the process entry point (the kabminor
console script and `python -m kabminor.cli`), main() calls gc.freeze()
as its last act, on every return path.  Everything alive then dies with
the process, so the interpreter's closing garbage collections, which
would walk the tens of thousands of objects numpy and the package leave
behind, skip it; the exit still flushes output and runs atexit handlers.
main([...]), as the tests and library callers use it, leaves the
collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys

from . import __version__
from .graphs import (
    Graph,
    check_alpha,
    clique_with_pendants,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    f_graph,
    from_graph6,
    graph6_order,
    join,
    disjoint_union,
    path_graph,
    pendant_matching_graph,
    petersen,
    petersen_complement,
    star,
    star_forest,
    subdivided_clique,
)
from .minors import DEFAULT_BUDGET, BudgetExhausted, has_minor

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


MAX_ORDER = 500

# the suites of verify.SUITES, named here so that no other command loads
# the verify module
SUITE_NAMES = ("lemma-updown", "mm-bounds", "degree-ordering", "edge-lemmas",
               "polynomial-identities", "theorem-small-n")


class SpecError(ValueError):
    pass


class OrderError(ValueError):
    pass


def _capped(order: int) -> None:
    # not a SpecError, so _load_graph does not retry the text as graph6:
    # a spec that reaches the cap holds ':' or '(', which graph6 never does
    if order > MAX_ORDER:
        raise OrderError(f"order {order} exceeds the cap of {MAX_ORDER} vertices")


# family name -> (argument count, constructor, order from the arguments)
_FAMILIES = {
    "K": (1, complete, lambda m: m),
    "C": (1, cycle, lambda m: m),
    "P": (1, path_graph, lambda m: m),
    "E": (1, empty_graph, lambda m: m),
    "star": (1, star, lambda m: m + 1),
    "Kst": (2, complete_bipartite, lambda r, s: r + s),
    "petersen": (0, petersen, lambda: 10),
    "petersen-complement": (0, petersen_complement, lambda: 10),
    "fab": (2, star_forest, lambda a, b: b + 1),
    "fab-complement": (2, lambda a, b: star_forest(a, b).complement(), lambda a, b: b + 1),
    "fgraph": (3, f_graph, lambda a1, a2, a3: a1 + a2 + a3 + 3),
    "subdivided-clique": (2, subdivided_clique, lambda b, k: b + k),
    "sk": (2, subdivided_clique, lambda b, k: b + k),
    "clique-pendants": (1, clique_with_pendants, lambda b: b + 2),
    "kbe": (1, clique_with_pendants, lambda b: b + 2),
    "pendant-matching": (2, pendant_matching_graph, lambda b, u2: b + 1),
    "pmg": (2, pendant_matching_graph, lambda b, u2: b + 1),
}


class _SpecParser:
    """Recursive-descent parser for the family grammar, e.g.
    join(K:2, union(K:5*2, fab-complement:2,5))."""

    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0

    def parse(self) -> Graph:
        g = self._term()
        if self.pos != len(self.text):
            raise SpecError(f"trailing input at {self.pos}: {self.text[self.pos:]!r}")
        return g

    def _expr(self) -> Graph:
        name = self._name()
        if name == "join":
            parts = self._paren_args()
            if len(parts) < 2:
                raise SpecError("join needs at least two arguments")
            _capped(sum(h.n for h in parts))
            g = parts[0]
            for h in parts[1:]:
                g = join(g, h)
            return g
        if name == "union":
            parts = self._paren_args()
            _capped(sum(h.n for h in parts))
            return disjoint_union(parts)
        if name == "complement":
            parts = self._paren_args()
            if len(parts) != 1:
                raise SpecError("complement takes one argument")
            return parts[0].complement()
        if name not in _FAMILIES:
            raise SpecError(f"unknown family {name!r}")
        arity, ctor, order = _FAMILIES[name]
        args = self._family_args(arity)
        _capped(order(*args))
        return ctor(*args)

    def _paren_args(self):
        self._expect("(")
        parts = [self._term()]
        while self._peek() == ",":
            self.pos += 1
            parts.append(self._term())
        self._expect(")")
        return parts

    def _term(self) -> Graph:
        g = self._expr()
        if self._peek() == "*":
            self.pos += 1
            k = self._int()
            if k < 1:
                raise SpecError("multiplier must be >= 1")
            _capped(max(g.n, 1) * k)  # k copies cost k entries even when empty
            g = disjoint_union([g] * k)
        return g

    def _family_args(self, arity: int):
        if arity == 0:
            return []
        self._expect(":")
        args = [self._int()]
        for _ in range(arity - 1):
            self._expect(",")
            args.append(self._int())
        return args

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "-"):
            self.pos += 1
        if self.pos == start:
            raise SpecError(f"expected a name at position {start}")
        return self.text[start:self.pos]

    def _int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecError(f"expected an integer at position {start}")
        return int(self.text[start:self.pos])

    def _peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise SpecError(f"expected {ch!r} at position {self.pos}")
        self.pos += 1


def parse_family_spec(text: str) -> Graph:
    return _SpecParser(text).parse()


def _read_graph6(text: str) -> Graph:
    _capped(graph6_order(text))
    return from_graph6(text)


def _read_corpus_record(text: str) -> Graph:
    """A --corpus record, decoded as by _read_graph6 once its order is
    also within extremal.CANONICAL_MAX_N, the largest the ranking can put
    in canonical form; both caps are checked before any row is decoded."""
    from . import extremal as ex

    order = graph6_order(text)
    _capped(order)
    if order > ex.CANONICAL_MAX_N:
        raise OrderError(f"order {order} exceeds the canonical-form limit of {ex.CANONICAL_MAX_N} vertices")
    return from_graph6(text)


def _load_graph(text: str) -> Graph:
    """Family-spec or graph6 input ('g6:' prefix forces graph6)."""
    if text.startswith("g6:"):
        return _read_graph6(text[3:])
    try:
        return parse_family_spec(text)
    except SpecError:
        if ":" in text or "(" in text:
            raise  # graph6 never holds these (see _capped): keep the reason
        try:
            return _read_graph6(text)
        except OrderError:
            raise
        except ValueError:
            raise SpecError(f"cannot parse {text!r} as family spec or graph6")


def _run_config(args) -> dict:
    cfg = {"version": __version__, "command": args.command}
    for key in ("alpha", "budget", "jobs", "format", "a", "b", "n"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _emit(payload: dict, args) -> None:
    payload = dict(payload)
    payload["config"] = _run_config(args)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in sorted(payload):
            if key == "config":
                continue
            print(f"{key}: {payload[key]}")


def _summary(g: Graph) -> dict:
    return {
        "graph6": g.to_graph6(),
        "order": g.n,
        "size": g.e,
        "degree_sequence": g.degree_sequence(),
    }


def cmd_construct(args) -> int:
    if args.spec == "extremal":
        if args.a is None or args.b is None or args.n is None:
            raise SpecError("extremal needs --a, --b, --n")
        _capped(args.n)
        from . import extremal as ex

        pred = ex.predict(args.a, args.b, args.n, args.alpha)
        g = pred.graph
        payload = {"graph6": None} if g is None else _summary(g)
        payload.update(clause=pred.clause, caveat=pred.caveat)
    else:
        if (args.a, args.b, args.n) != (None, None, None):
            raise SpecError("--a, --b and --n apply only to 'construct extremal'")
        g = parse_family_spec(args.spec)
        payload = _summary(g)
    if args.dot:
        payload["dot"] = None if g is None else g.to_dot()
    _emit(payload, args)
    return EXIT_OK


def cmd_lambda(args) -> int:
    from .spectral import spectral_radius

    g = _load_graph(args.spec)
    res = spectral_radius(g, args.alpha)
    payload = {
        "graph6": g.to_graph6(),
        "alpha": args.alpha,
        "lambda": float(f"{res.lam:.12g}"),
        "residual": res.residual,
    }
    if args.perron:
        payload["vector"] = list(res.vector)
        payload["is_perron"] = res.is_perron
    _emit(payload, args)
    return EXIT_OK


def _parse_pattern(text: str) -> Graph:
    """K_{r,s} shorthand (with or without braces) or any graph input; an
    order r + s over MAX_ORDER is refused before K_{r,s} is built."""
    t = text.replace("{", "").replace("}", "").replace("_", "")
    if t.startswith("K") and "," in t:
        try:
            r, s = (int(x) for x in t[1:].split(","))
            if min(r, s) >= 0:
                _capped(r + s)
            return complete_bipartite(r, s)
        except OrderError:
            raise
        except ValueError:
            pass
    return _load_graph(text)


def cmd_minor(args) -> int:
    g = _load_graph(args.spec)
    h = _parse_pattern(args.pattern)
    w = has_minor(g, h, args.budget)
    payload = {
        "graph6": g.to_graph6(),
        "pattern": h.to_graph6(),
        "verdict": w.verdict,
        "expansions": w.expansions,
    }
    if w.branch_sets is not None:
        payload["branch_sets"] = [list(s) for s in w.branch_sets]
    _emit(payload, args)
    if w.verdict == "budget":
        return EXIT_BUDGET
    return EXIT_FAIL if w.verdict == "contains" else EXIT_OK


def cmd_search(args) -> int:
    from . import extremal as ex

    if args.corpus:
        if args.all_graphs:
            raise SpecError("--all-graphs applies only to the internal corpus")
        if args.n is not None and (args.a, args.b) == (None, None):
            raise SpecError("with --corpus, --n only feeds a prediction, which needs --a and --b")
        try:
            corpus = ex.ingest_graph6(args.corpus, _read_corpus_record)
        except OSError as exc:
            raise SpecError(f"cannot read --corpus {args.corpus}: {exc.strerror}") from exc
        source = args.corpus
    else:
        if args.n is None:
            raise SpecError("search needs --n (internal corpus) or --corpus FILE")
        corpus = ex.InternalCorpus(args.n, connected_only=not args.all_graphs)
        source = f"internal:n={args.n}"
    prediction = None
    if (args.a, args.b) != (None, None):
        if None in (args.a, args.b, args.n):
            raise SpecError("a prediction needs all of --a, --b and --n")
        prediction = ex.predict(args.a, args.b, args.n, args.alpha)
    try:
        rep = ex.search_max(corpus, args.constraint, args.alpha,
                            corpus_source=source, budget=args.budget,
                            jobs=args.jobs, prediction=prediction)
    except BudgetExhausted as exc:
        _emit({"error": "budget", "candidate": exc.graph6}, args)
        return EXIT_BUDGET
    _emit(json.loads(rep.to_json()), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as vf

    names = args.suites or ["all"]
    if args.b is not None:
        if names != ["lemma-updown"]:
            raise SpecError("--b applies only to the lemma-updown suite run alone")
        m = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", args.b)
        if m is None:
            raise SpecError(f"--b takes B or LO..HI, got {args.b!r}")
        bs = range(int(m[1]), int(m[2] or m[1]) + 1)
        if not bs:
            raise SpecError(f"empty --b range {args.b!r}")
        if bs[0] < 3:
            raise SpecError(f"--b range {args.b!r} starts below 3")
        _capped(bs[-1] + max(vf.UPDOWN_OFFSETS))
        outcomes = [vf.check_lemma_updown(bs)]
    else:
        outcomes = vf.run_suites(names)
    rows = [json.loads(o.to_json()) for o in outcomes]
    if args.format == "json":
        print(json.dumps({"outcomes": rows, "config": _run_config(args)}, sort_keys=True))
    elif args.format == "csv":
        print("check_id,status,margin")
        for r in rows:
            print(f"{r['check_id']},{r['status']},{r['margin']}")
    else:
        width = max(len(r["check_id"]) for r in rows)
        for r in rows:
            margin = "" if r["margin"] is None else f"  margin={r['margin']:.3e}"
            print(f"{r['check_id']:<{width}}  {r['status']}{margin}")
    return EXIT_FAIL if any(r["status"] == "fail" for r in rows) else EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _alpha(text: str) -> float:
    alpha = float(text)
    try:
        check_alpha(alpha)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    # + 0.0 turns -0.0 into 0.0, so `--alpha -0.0` echoes as `--alpha 0` does
    return alpha + 0.0


_OPTIONS = {
    "alpha": {"type": _alpha, "default": 0.0},
    "jobs": {"type": _positive_int, "default": 1},
    "budget": {"type": _positive_int, "default": DEFAULT_BUDGET},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kabminor",
                                 description="spectral extremal analysis of "
                                             "complete-bipartite-minor-free graphs")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def options(p, *names, formats=("json", "table")):
        p.add_argument("--format", choices=formats, default="table")
        for name in names:
            p.add_argument(f"--{name}", **_OPTIONS[name])

    p = sub.add_parser("construct", help="build a named family or grammar expression")
    p.add_argument("spec", help="family spec, or 'extremal' with --a/--b/--n")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--dot", action="store_true", help="include DOT output")
    options(p, "alpha")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("lambda", help="alpha spectral radius of a graph")
    p.add_argument("spec", help="family spec or graph6")
    p.add_argument("--perron", action="store_true", help="include the eigenvector")
    options(p, "alpha")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("minor", help="minor containment with witness")
    p.add_argument("spec", help="host graph: family spec or graph6")
    p.add_argument("pattern", help="pattern: K_{r,s}, family spec, or graph6")
    options(p, "budget")
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("search", help="exhaustive maximizer search over a corpus")
    p.add_argument("--constraint", required=True,
                   help="star-minor-free:B | kab-minor-free:A,B | ab-property:A,B")
    p.add_argument("--n", type=int, help="internal corpus order (<= 8)")
    p.add_argument("--corpus", help="graph6 file instead of the internal corpus")
    p.add_argument("--all-graphs", action="store_true",
                   help="include disconnected graphs")
    p.add_argument("--a", type=int, help="attach a clause prediction")
    p.add_argument("--b", type=int)
    options(p, "alpha", "jobs", "budget")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", help=f"suites: {', '.join(SUITE_NAMES)} or all")
    p.add_argument("--b", help="b or b range LO..HI for lemma-updown, e.g. 3..8")
    options(p, formats=("json", "table", "csv"))
    p.set_defaults(func=cmd_verify)
    return ap


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main(argv=None) -> int:
    # one BLAS thread: the solves are small, and an idle OpenBLAS worker
    # thread spins on a second CPU; a value the caller set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return _run(argv)
    finally:
        if argv is None:
            # the process entry point: what is alive now dies with the
            # process, so its closing collections would only walk it
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
