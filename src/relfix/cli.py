"""Command line entry points; USAGE below is the synopsis.

A flag is `--flag value` or `--flag=value`, may be shortened to a unique
prefix and takes a value even if it starts with `-`; the last repeat
wins.  -h/--help prints USAGE.  Exit codes: 0 ok, 1 verification
failure, 2 usage or parse trouble, 3 resource cap.
Reports are canonical JSON (sorted keys, trailing newline) and contain
no timing data; --timings prints wall times to stderr only (the report's
own size and write time last), so reports stay byte-identical for
identical (spec, seed, version) triples.
Precedence for depth/seed/caps: command line, then spec file, then
defaults.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .chain import build_chain, truncation_projections
from .config import Caps
from .dsl import parse_poset_literal, parse_spec
from .engines import (
    compare_methods,
    solve_banach,
    solve_kleene,
    solve_knaster_tarski,
)
from .errors import (
    InadmissibleRelation,
    ParseError,
    RelfixError,
    ResolveError,
    SizeCapExceeded,
)
from .functor import rel_cache_counts
from .karoubi import (
    KaroubiObj,
    ed_cpo_check,
    ed_slice_equivalence,
    enumerate_canonical_idempotents,
    karoubi_rel_fiber,
)
from .poset import monotone_tables
from .relations import wide_table_counts
from .report import make_report, write_report
from .suites import all_suites, run_suite

USAGE = """\
relfix solve   --spec FILE [--depth N] [--max-size N] [--emit-dot DIR] [--seed N] [--report FILE] [--timings]
relfix relate  --spec FILE [--depth N] [--max-size N] [--method kt|banach|kleene|all] [--seed N] [--report FILE] [--timings]
relfix karoubi --poset EXPR [--seed N] [--report FILE] [--timings]
relfix check   --suite adjunction|contractive|duality|functor_laws|karoubi|lemma2|all|corrupted [--seed N] [--report FILE] [--timings]
"""

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _load_spec(args):
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"relfix: cannot read spec: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    spec = parse_spec(text)
    depth = args.depth if args.depth is not None else spec.depth
    if depth is None:
        print("relfix: no depth given (spec or --depth)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if depth < 0:
        print(f"relfix: depth must be nonnegative, got {depth}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    caps = spec.effective_caps()
    if getattr(args, "max_size", None) is not None:
        caps = Caps(max_elements=args.max_size, max_pairs=caps.max_pairs)
    seed = args.seed if args.seed is not None else (spec.seed or 0)
    return spec, depth, caps, seed


def _emit(args, report: dict) -> None:
    t0 = time.monotonic()
    text = write_report(report, args.report)
    if args.report is None:
        sys.stdout.write(text)
    if args.timings:  # canonical text is ASCII: one byte per character
        print(f"report: {len(text)} bytes, {time.monotonic() - t0:.3f}s", file=sys.stderr)


def cmd_solve(args) -> int:
    spec, depth, caps, seed = _load_spec(args)
    t0 = time.monotonic()
    chain = build_chain(spec.functor, depth, caps)
    pis, verification = truncation_projections(chain)
    if args.emit_dot:
        os.makedirs(args.emit_dot, exist_ok=True)
        for i, level in enumerate(chain.levels):
            path = os.path.join(args.emit_dot, f"X_{i}.dot")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(level.to_dot(name=f"X_{i}"))
    result = {
        "domain": spec.domain_name,
        "depth": depth,
        "sizes": [p.n for p in chain.levels],
        "pi_tables": [pi.arr.tolist() for pi in pis],
        "verification": verification["checks"],
    }
    if args.timings:
        print(f"solve: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    _emit(args, make_report("solve", spec.source, seed, result))
    return EXIT_OK


def cmd_relate(args) -> int:
    def timed(key: str, seconds: float) -> None:
        print(f"relate[{key}]: {seconds:.3f}s", file=sys.stderr)

    spec, depth, caps, seed = _load_spec(args)
    t0 = time.monotonic()
    before = dict(rel_cache_counts)
    wide_table_counts.update(tables=0, runs=0, largest=(0, 0))
    chain = build_chain(spec.functor, depth, caps)
    if args.timings:
        timed("build", time.monotonic() - t0)
    if args.method == "all":
        result = compare_methods(chain, on_phase=timed if args.timings else None)
    elif args.method == "kt":
        (neg, pos), iterations = solve_knaster_tarski(chain)
        result = {
            "method": "knaster_tarski",
            "iterations": iterations,
            "neg_equals_pos": all(neg[m] == pos[m] for m in range(depth + 1)),
            "family": [pos[m].sorted_pairs() for m in range(depth + 1)],
        }
    elif args.method == "kleene":
        fam = solve_kleene(chain)
        result = {
            "method": "kleene",
            "family": [fam[m].sorted_pairs() for m in range(depth + 1)],
        }
    else:
        fam, profile = solve_banach(chain)
        result = {
            "method": "banach",
            "stabilization_profile": profile,
            "family": [fam[m].sorted_pairs() for m in range(depth + 1)],
        }
    result["sizes"] = [p.n for p in chain.levels]
    if args.timings:
        timed(args.method, time.monotonic() - t0)
        calls, hits = (rel_cache_counts[k] - before[k] for k in ("calls", "hits"))
        print(f"eval_rel: {calls} calls, {hits} answered by the chain's table, "
              f"{len(chain.rel_table)} entries", file=sys.stderr)
        w = wide_table_counts
        print(f"pair_tables: {w['tables']} wide built, {w['runs']} of them runs, "
              f"largest {w['largest'][0]} -> {w['largest'][1]}", file=sys.stderr)
    _emit(args, make_report("relate", spec.source, seed, result))
    return EXIT_OK


def cmd_karoubi(args) -> int:
    poset = parse_poset_literal(args.poset)
    t0 = time.monotonic()
    idems = enumerate_canonical_idempotents(poset)
    result = {
        "poset": args.poset,
        "size": poset.n,
        "ed_size": len(idems),
        "cpo": ed_cpo_check(poset),
        "slice_equivalence": ed_slice_equivalence(poset),
    }
    audits = []
    for p in idems:
        try:
            audits.append(karoubi_rel_fiber(KaroubiObj(poset, p)))
        except SizeCapExceeded:
            audits.append(
                {"idempotent": p.mor.arr.tolist(), "skipped": "relation space over cap"}
            )
    result["claim_audit"] = audits
    ok = result["cpo"]["ok"] and result["slice_equivalence"]["ok"]
    result["ok"] = ok
    if args.timings:
        print(f"karoubi: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    _emit(args, make_report("karoubi", args.poset, args.seed or 0, result))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_check(args) -> int:
    def timed(key: str, seconds: float) -> None:
        print(f"check[{key}]: {seconds:.3f}s", file=sys.stderr)

    t0 = time.monotonic()
    before = monotone_tables.cache_info()
    result = run_suite(args.suite, on_suite=timed if args.timings else None)
    if args.timings:
        print(f"check[{args.suite}]: {time.monotonic() - t0:.3f}s", file=sys.stderr)
        after = monotone_tables.cache_info()
        print(f"monotone_tables: {after.misses - before.misses} poset pairs enumerated, "
              f"{after.hits - before.hits} cache hits", file=sys.stderr)
    _emit(args, make_report("check", args.suite, args.seed or 0, result))
    return EXIT_OK if result["ok"] else EXIT_VERIFICATION


# flag: (destination, type, choices, default); a bool flag is a switch
_FLAGS = {
    "--spec": ("spec", str, None, None),
    "--depth": ("depth", int, None, None),
    "--max-size": ("max_size", int, None, None),
    "--emit-dot": ("emit_dot", str, None, None),
    "--method": ("method", str, ("kt", "banach", "kleene", "all"), "all"),
    "--poset": ("poset", str, None, None),
    "--suite": ("suite", str, (*sorted(all_suites()), "all", "corrupted"), None),
    "--seed": ("seed", int, None, None),
    "--report": ("report", str, None, None),
    "--timings": ("timings", bool, None, False),
    "--help": ("help", bool, None, False),
}
_SHARED = ("--seed", "--report", "--timings", "--help")
_COMMANDS = {  # command: (handler, required flags, optional flags), then _SHARED
    "solve": (cmd_solve, ("--spec",), ("--depth", "--max-size", "--emit-dot")),
    "relate": (cmd_relate, ("--spec",), ("--depth", "--max-size", "--method")),
    "karoubi": (cmd_karoubi, ("--poset",), ()),
    "check": (cmd_check, ("--suite",), ()),
}


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}relfix: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and flag values of argv, by the rules in the module docstring."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    _, required, optional = _COMMANDS.get(command, (None, (), ()))
    names = (*required, *optional, *_SHARED) if command else ("--help",)
    args = SimpleNamespace(command=command, **{_FLAGS[f][0]: _FLAGS[f][3] for f in names})
    words = iter(argv[1:] if command else argv)
    for word in words:
        name, eq, value = ("--help" if word == "-h" else word).partition("=")
        hits = [f for f in names if f.startswith(name)] if len(name) > 2 else []
        if len(hits) != 1:
            _usage_error(f"ambiguous option: {name} could match {', '.join(hits)}"
                         if hits else f"unrecognized argument: {word}")
        flag, (dest, kind, choices, _) = hits[0], _FLAGS[hits[0]]
        if kind is bool and eq:
            _usage_error(f"argument {flag}: ignored explicit argument {value!r}")
        if flag == "--help":
            sys.stdout.write(USAGE)
            raise SystemExit(EXIT_OK)
        if kind is not bool and not eq and (value := next(words, None)) is None:
            _usage_error(f"argument {flag}: expected one argument")
        try:
            value = True if kind is bool else kind(value)
        except ValueError:
            _usage_error(f"argument {flag}: invalid int value: {value!r}")
        if choices and value not in choices:
            _usage_error(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(choices)})")
        setattr(args, dest, value)
    missing = [f for f in required if getattr(args, _FLAGS[f][0]) is None]
    if command is None or missing:
        _usage_error(f"the following arguments are required: {', '.join(missing) or 'command'}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[args.command][0](args)
    except (ParseError, ResolveError, InadmissibleRelation) as exc:
        print(f"relfix: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeCapExceeded as exc:
        print(f"relfix: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RelfixError as exc:
        print(f"relfix: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
